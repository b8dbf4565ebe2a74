"""Shared fixtures: small hand-checkable point sets, sweep planes, programs
feasible by construction and a factorization counter; and the hypothesis
settings every property test runs under (each sets only max_examples)."""

import numpy as np
import pytest
from hypothesis import settings

import helpers
from shadowlp import experiments, geometry, phase1, shadow_walk
from shadowlp.shadow_walk import SweepPlane

settings.register_profile("shadowlp", deadline=None, derandomize=True, database=None)
settings.load_profile("shadowlp")


@pytest.fixture
def triangle():
    """Three points whose hull (with the origin) has facets {0,2} and {1,2}."""
    return np.array([[1.0, 0.0], [0.0, 1.0], [0.9, 0.9]])


@pytest.fixture
def square():
    return experiments.SQUARE_POINTS.copy()


@pytest.fixture
def axis_plane():
    """Factory for the span(e1, e2) sweep plane in any ambient dimension."""
    return SweepPlane.axis


@pytest.fixture
def feasible_lp():
    """Factory for programs feasible by construction (helpers.feasible_lp):
    feasible_lp(n, d, seed) -> GeneralLP."""
    return helpers.feasible_lp


@pytest.fixture
def solve_linear_calls(monkeypatch):
    """Count the calls of geometry.solve_linear made through any module that
    binds it; the returned list grows by one entry per call."""
    real = geometry.solve_linear
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in (geometry, shadow_walk, phase1):
        if getattr(module, "solve_linear", None) is real:
            monkeypatch.setattr(module, "solve_linear", counted)
    return calls
