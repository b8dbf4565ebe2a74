"""Shared fixtures: small hand-checkable point sets, sweep planes, programs
feasible by construction and a factorization counter."""

from dataclasses import replace

import numpy as np
import pytest

from shadowlp import experiments, geometry, interpolate, phase1, randgen, shadow_walk
from shadowlp.shadow_walk import SweepPlane


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
    """Factory for smoothed programs (sigma = 0.1) whose b-centres are
    |b| + 1 before normalizing, so the origin is strictly feasible and the
    program has an optimum: feasible_lp(n, d, seed) -> GeneralLP."""

    def make(n, d, seed):
        spec = randgen.random_spec(n, d, 0.1, randgen.derive_rng(seed, 0))
        spec = replace(spec, centers_b=np.abs(spec.centers_b) + 1.0)
        return randgen.sample_instance(randgen.normalize(spec), randgen.derive_rng(seed, 1))

    return make


@pytest.fixture
def solve_linear_calls(monkeypatch):
    """Count the calls of geometry.solve_linear made through any module that
    binds it; the returned list grows by one entry per call."""
    real = geometry.solve_linear
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in (geometry, shadow_walk, phase1, interpolate):
        if getattr(module, "solve_linear", None) is real:
            monkeypatch.setattr(module, "solve_linear", counted)
    return calls
