"""Differential checks against HiGHS (scipy.optimize.linprog) on programs
beyond the brute-force oracle's reach, where drift in the walk's updated
basis inverses would show as a wrong verdict or objective, and on
deliberately degenerate programs."""

import numpy as np
import pytest
from scipy.optimize import linprog

from shadowlp.interpolate import (
    STATUS_INFEASIBLE,
    STATUS_OPTIMAL,
    STATUS_UNBOUNDED,
    solve_lp,
)
from shadowlp.oracle import classify_lp
from shadowlp.randgen import sub_seed
from shadowlp.shadow_walk import WalkInvariantViolation

from helpers import DEGENERATE_LPS, OUTSIDE_THE_CONE_LPS, klee_minty, smoothed_lp

_HIGHS_STATUS = {0: STATUS_OPTIMAL, 2: STATUS_INFEASIBLE, 3: STATUS_UNBOUNDED}


def _highs(lp):
    """(status, objective or None) of max <z, x> s.t. A x <= b by HiGHS."""
    res = linprog(-lp.z, A_ub=lp.A, b_ub=lp.b, bounds=[(None, None)] * lp.d, method="highs")
    status = _HIGHS_STATUS[res.status]
    return status, (-float(res.fun) if status == STATUS_OPTIMAL else None)


def _assert_matches_highs(lp, result):
    status, want = _highs(lp)
    assert result.status == status
    if status == STATUS_OPTIMAL:
        assert abs(result.objective_value(lp) - want) <= 1e-7 * max(1.0, abs(want))
        # x_opt comes off the final lifted facet's normal: it must make the
        # basis rows tight and every row satisfied.
        tol = 1e-9 * np.maximum(1.0, np.abs(lp.b))
        basis = list(result.basis)
        assert np.all(np.abs(lp.A[basis] @ result.x_opt - lp.b[basis]) <= tol[basis])
        assert np.all(lp.A @ result.x_opt - lp.b <= tol)


@pytest.mark.parametrize("n,d", [(800, 20), (1000, 40)])
def test_feasible_programs_match_highs(n, d, feasible_lp):
    for seed in range(3):
        lp = feasible_lp(n, d, 500 + seed)
        # one validated solve per size compares every updated facet with a
        # fresh factorization
        result = solve_lp(lp, rng=seed, validate=seed == 0)
        assert result.status == STATUS_OPTIMAL
        _assert_matches_highs(lp, result)


@pytest.mark.parametrize("n,d", [(8, 2), (12, 3)])
def test_small_feasible_model_matches_highs(n, d, feasible_lp):
    # With few rows the objective often leaves the cone of the rows, so the
    # feasible model gives unbounded programs as well as optimal ones.
    verdicts = []
    for seed in range(200):
        lp = feasible_lp(n, d, seed)
        result = solve_lp(lp, rng=seed)
        _assert_matches_highs(lp, result)
        verdicts.append(result.status)
    assert set(verdicts) == {STATUS_OPTIMAL, STATUS_UNBOUNDED}


@pytest.mark.parametrize("n,d", [(200, 10), (400, 20), (800, 40)])
def test_smoothed_pivot_model_matches_highs(n, d):
    # The pivot experiment's model: past the oracle's reach its verdicts are
    # nearly all infeasible, which only HiGHS can confirm here.
    verdicts = []
    for seed in range(5):
        lp = smoothed_lp(n, d, seed)
        result = solve_lp(lp, rng=sub_seed(seed, 2))
        _assert_matches_highs(lp, result)
        verdicts.append(result.status)
    assert STATUS_INFEASIBLE in verdicts


@pytest.mark.parametrize("n", [4096, 16384])
@pytest.mark.parametrize("model", ["smoothed", "feasible"])
def test_large_programs_at_d3_match_highs(model, n, feasible_lp):
    # The solve-d3-n4096 benchmark's size and four times it: every pivot's
    # ratio test runs over all n rows.  The smoothed programs are
    # infeasible and the feasible ones optimal, so both verdicts are checked.
    for seed in range(3):
        if model == "smoothed":
            lp, rng, status = smoothed_lp(n, 3, seed), sub_seed(seed, 2), STATUS_INFEASIBLE
        else:
            lp, rng, status = feasible_lp(n, 3, seed), seed, STATUS_OPTIMAL
        result = solve_lp(lp, rng=rng)
        assert result.status == status
        _assert_matches_highs(lp, result)


@pytest.mark.parametrize("lp", [pytest.param(lp, id=name) for name, lp in DEGENERATE_LPS])
def test_degenerate_families_match_highs(lp):
    for seed in range(10):
        _assert_matches_highs(lp, solve_lp(lp, rng=seed))


_OUTSIDE_THE_CONE = [pytest.param(lp, id=name) for name, lp in OUTSIDE_THE_CONE_LPS]


@pytest.mark.xfail(strict=True, reason="solve_lp reports unbounded whenever z leaves the cone "
                                       "of the rows, before it knows whether any x is feasible")
@pytest.mark.parametrize("lp", _OUTSIDE_THE_CONE)
def test_infeasible_program_outside_the_cone_matches_highs(lp):
    want, _ = _highs(lp)  # infeasible
    assert [solve_lp(lp, rng=seed).status for seed in range(5)] == [want] * 5


@pytest.mark.xfail(strict=True, reason="classify_lp tests the cone regardless of b")
@pytest.mark.parametrize("lp", _OUTSIDE_THE_CONE)
def test_classify_lp_on_an_infeasible_program_outside_the_cone_matches_highs(lp):
    assert classify_lp(lp).status == _highs(lp)[0]


@pytest.mark.xfail(strict=True, raises=WalkInvariantViolation,
                   reason="all_below's absolute eps_feas refuses a valid facet whose normal "
                          "has entries in the hundreds")
def test_validated_klee_minty_matches_highs():
    lp = klee_minty(8)
    _assert_matches_highs(lp, solve_lp(lp, rng=5, validate=True))
