"""Property test of the exit angle: on every facet of real walks, exit_angle
must return what the numpy formulation in helpers returns, bit for bit, or
raise the same WalkStateError."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowlp import interpolate
from shadowlp.geometry import FacetIndexSet
from shadowlp.shadow_walk import SweepPlane, WalkStateError, exit_angle

from helpers import feasible_lp, recorded_walks, reference_exit_angle, smoothed_lp

# (model, d, n, seed): smoothed and feasible solves at d = 3 and d = 10, and
# one feasible solve at d = 40.
CASES = [("smoothed", 3, 40, 0), ("smoothed", 3, 4096, 1), ("feasible", 3, 40, 2),
         ("smoothed", 10, 100, 0), ("feasible", 10, 400, 1), ("feasible", 40, 1000, 0)]


@functools.cache
def _steps(model, d, n, seed):
    """(plane, facet, theta_start, theta_end) of every facet on the path of
    every walk of one solve, with the plane each walk swept."""
    lp = feasible_lp(n, d, seed) if model == "feasible" else smoothed_lp(n, d, seed)
    return [(plane, *interval)
            for _, plane, _, intervals in recorded_walks(interpolate.solve_lp, lp, rng=seed)
            for interval in intervals]


def _outcome(fn, facet, plane, theta):
    """What fn returns, with each float as its bit pattern, or the message
    of the WalkStateError it raises."""
    try:
        hit = fn(facet, plane, theta)
    except WalkStateError as exc:
        return ("raises", str(exc))
    if hit is None:
        return None
    return float(hit[0]).hex(), hit[1]


@settings(max_examples=30)
@given(case=st.sampled_from(CASES), fraction=st.floats(0.0, 1.0))
def test_exit_angle_matches_the_numpy_formulation(case, fraction):
    raised = 0
    for plane, facet, start, end in _steps(*case):
        inside = min(end, start + fraction * (end - start))
        # the ends and a point of the facet's interval, and the opposite ray,
        # which the facet's cone does not hold
        for theta in (start, end, inside, inside + math.pi):
            want = _outcome(reference_exit_angle, facet, plane, theta)
            assert _outcome(exit_angle, facet, plane, theta) == want
            raised += want is not None and want[0] == "raises"
    assert raised  # the raising branch was compared too


@pytest.mark.parametrize("coefficients, raises", [
    ([np.nan, -1.0, 0.5], False),  # NaN first, then a coefficient below -eps_feas
    ([-1.0, np.nan, 0.5], False),  # NaN after it
    ([0.5, 0.25, np.nan], False),  # NaN and nothing below
    ([-1.0, 0.5, 0.25], True),     # no NaN
], ids=["nan-first", "nan-later", "nan-only", "no-nan"])
def test_exit_angle_keeps_the_numpy_verdict_on_a_nan_coefficient(coefficients, raises):
    # With the axis plane at theta = 0, lam = b1 B^-1 is row 0 of B^-1, so
    # the coefficients are set directly; a NaN one fails no pierce check,
    # as numpy's min returns NaN.
    inverse = np.eye(3)
    inverse[0] = coefficients
    facet = FacetIndexSet((0, 1, 2), np.zeros(3), inverse)
    plane = SweepPlane.axis(3)
    want = _outcome(reference_exit_angle, facet, plane, 0.0)
    assert _outcome(exit_angle, facet, plane, 0.0) == want
    assert (want is not None and want[0] == "raises") == raises
