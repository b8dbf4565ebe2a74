"""Property tests of the two-phase solver: a program's verdict and optimal
basis are properties of its feasible set and objective, so they must not
change when rows of (A, b) are scaled by positive factors, and must follow
the rows when the rows are permuted; and every walk of a solve stays on
valid facets, in angular order, without coming back to a facet."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowlp import interpolate, phase1, randgen, shadow_walk
from shadowlp.geometry import all_below
from shadowlp.interpolate import STATUS_OPTIMAL, GeneralLP, solve_lp

_SETTINGS = settings(max_examples=50)
_PROGRAMS = dict(seed=st.integers(0, 10 ** 6), d=st.integers(2, 4), n=st.integers(8, 40),
                 sigma=st.sampled_from([0.02, 0.1, 0.3]), feasible=st.booleans())
_TRANSFORM_SEED = st.integers(0, 2 ** 32 - 1)


def _program(seed, d, n, sigma, feasible):
    """A smoothed program; with feasible, its b-centres are |b| + 1 before
    normalizing, so the origin is strictly feasible and the verdict is
    optimal or unbounded."""
    spec = randgen.random_spec(n, d, sigma, randgen.derive_rng(seed, 0))
    if feasible:
        spec = replace(spec, centers_b=np.abs(spec.centers_b) + 1.0)
    return randgen.sample_instance(randgen.normalize(spec), randgen.derive_rng(seed, 1))


def _assert_same_optimum(lp, result, other_lp, other, row_of):
    """other solves other_lp, whose row k is row row_of[k] of lp."""
    assert other.status == result.status
    if result.status != STATUS_OPTIMAL:
        return
    assert sorted(int(row_of[k]) for k in other.basis) == sorted(result.basis)
    want = result.objective_value(lp)
    assert abs(other.objective_value(other_lp) - want) <= 1e-9 * max(1.0, abs(want))


@_SETTINGS
@given(**_PROGRAMS, transform_seed=_TRANSFORM_SEED)
def test_positive_row_scaling_keeps_status_and_basis(seed, d, n, sigma, feasible,
                                                      transform_seed):
    lp = _program(seed, d, n, sigma, feasible)
    factors = 10.0 ** np.random.default_rng(transform_seed).uniform(-1.0, 1.0, n)
    scaled = GeneralLP(A=lp.A * factors[:, None], b=lp.b * factors, z=lp.z)
    _assert_same_optimum(lp, solve_lp(lp, rng=seed),
                         scaled, solve_lp(scaled, rng=seed), np.arange(n))


@_SETTINGS
@given(**_PROGRAMS, transform_seed=_TRANSFORM_SEED)
def test_row_permutation_permutes_the_basis(seed, d, n, sigma, feasible, transform_seed):
    lp = _program(seed, d, n, sigma, feasible)
    order = np.random.default_rng(transform_seed).permutation(n)
    permuted = GeneralLP(A=lp.A[order], b=lp.b[order], z=lp.z)
    _assert_same_optimum(lp, solve_lp(lp, rng=seed),
                         permuted, solve_lp(permuted, rng=seed), order)


@settings(max_examples=100)
@given(**_PROGRAMS)
def test_walks_stay_on_valid_facets_in_angular_order(seed, d, n, sigma, feasible):
    lp = _program(seed, d, n, sigma, feasible)
    walks = []

    def recorded(ps, plane, start, theta_start, theta_target, **kwargs):
        outcome = shadow_walk.walk(ps, plane, start, theta_start, theta_target, **kwargs)
        walks.append((ps, theta_start, outcome.trace))
        return outcome

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(phase1, "walk", recorded)
        mp.setattr(interpolate, "walk", recorded)
        solve_lp(lp, rng=seed)
    assert walks
    for ps, theta_start, trace in walks:
        assert all(all_below(ps, e.facet.normal) for e in trace)
        ends = [theta_start] + [e.theta_end for e in trace[:-1]]
        assert [e.theta_start for e in trace] == ends
        assert all(e.theta_end >= e.theta_start for e in trace)
        entered = [e.facet.indices for e in trace[1:]]
        assert len(set(entered)) == len(entered)  # the start facet may come back once
