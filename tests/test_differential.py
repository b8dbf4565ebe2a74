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
    GeneralLP,
    solve_lp,
)

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


def _klee_minty(d):
    """Klee and Minty's cube: max sum_j 2^(d-j) x_j subject to
    sum_{i<j} 2^(j-i+1) x_i + x_j <= 5^j and x >= 0, optimum 5^d."""
    A = np.vstack([np.eye(d), -np.eye(d)])
    for j in range(d):
        A[j, :j] = 2.0 ** np.arange(j + 1, 1, -1)
    b = np.concatenate([5.0 ** np.arange(1, d + 1), np.zeros(d)])
    return GeneralLP(A, b, 2.0 ** np.arange(d - 1, -1, -1))


def _cube(d, variant):
    """The cube |x_i| <= 1 with z = (d, ..., 1); "redundant" adds the row
    sum x <= d through the optimal vertex, "duplicated" repeats the rows
    x_1 <= 1 and x_2 <= 1, "facet" takes z = e_1 along a facet normal."""
    A = np.vstack([np.eye(d), -np.eye(d)])
    b = np.ones(2 * d)
    z = np.arange(d, 0, -1.0)
    if variant == "redundant":
        A, b = np.vstack([A, np.ones(d)]), np.append(b, d)
    elif variant == "duplicated":
        A, b = np.vstack([A, A[:2]]), np.append(b, b[:2])
    elif variant == "facet":
        z = np.eye(d)[0]
    return GeneralLP(A, b, z)


@pytest.mark.parametrize("lp", [
    *(pytest.param(_klee_minty(d), id=f"klee-minty-d{d}") for d in (2, 3, 5, 8)),
    *(pytest.param(_cube(d, variant), id=f"cube-{variant}-d{d}")
      for d in (2, 3, 5) for variant in ("alone", "redundant", "duplicated", "facet")),
])
def test_degenerate_families_match_highs(lp):
    for seed in range(10):
        _assert_matches_highs(lp, solve_lp(lp, rng=seed))
