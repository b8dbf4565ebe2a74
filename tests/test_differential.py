"""Differential checks against HiGHS (scipy.optimize.linprog) on programs
beyond the brute-force oracle's reach, where drift in the walk's updated
basis inverses would show as a wrong verdict or objective."""

import pytest
from scipy.optimize import linprog

from shadowlp.interpolate import STATUS_OPTIMAL, solve_lp


def _highs_objective(lp):
    res = linprog(-lp.z, A_ub=lp.A, b_ub=lp.b, bounds=[(None, None)] * lp.d, method="highs")
    assert res.status == 0
    return -float(res.fun)


@pytest.mark.parametrize("n,d", [(800, 20), (1000, 40)])
def test_feasible_programs_match_highs(n, d, feasible_lp):
    for seed in range(3):
        lp = feasible_lp(n, d, 500 + seed)
        # one validated solve per size compares every updated facet with a
        # fresh factorization
        result = solve_lp(lp, rng=seed, validate=seed == 0)
        assert result.status == STATUS_OPTIMAL
        want = _highs_objective(lp)
        assert abs(result.objective_value(lp) - want) <= 1e-7 * max(1.0, abs(want))
