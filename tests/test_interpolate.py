"""Interpolation lift and the end-to-end two-phase solver."""

import math

import numpy as np
import pytest

from shadowlp import interpolate
from shadowlp.interpolate import (
    STATUS_INFEASIBLE,
    STATUS_OPTIMAL,
    STATUS_UNBOUNDED,
    GeneralLP,
    NumericFailure,
    initial_limit_facet,
    lift,
    solve_lp,
)
from shadowlp.shadow_walk import UNBOUNDED, WalkOutcome

from helpers import cone_coefficients


def _lp_optimal():
    return GeneralLP(A=[[1.0, 0.0], [0.0, 1.0], [0.9, 0.9]],
                     b=[1.0, 1.0, 2.0], z=[1.0, 1.0])


def _lp_unbounded():
    return GeneralLP(A=[[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]],
                     b=[1.0, 1.0, 1.0], z=[-1.0, 0.0])


def _lp_infeasible():
    # x1 <= -3 together with -x1 <= -3; objective inside the cone of rows
    return GeneralLP(A=[[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
                     b=[-3.0, -3.0, 1.0, 1.0], z=[1.0, 0.0])


# ---------------------------------------------------------------------------
# the lift


def test_lift_rows_and_frame():
    lp = GeneralLP(A=[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
                   b=[1.0, -2.0, 5.0], z=[1.0, 0.0])
    lifted = lift(lp)
    # row 0 is the vertex at infinity, rows 1..n the constraints, then the top
    assert np.array_equal(lifted.points, [[0.0, 0.0, -1.0],
                                          [1.0, 0.0, 0.0],
                                          [0.0, 1.0, 3.0],
                                          [1.0, 1.0, -4.0],
                                          [0.0, 0.0, 1.0]])
    assert np.array_equal(lifted.levels, [0.0, 1.0, 1.0, 1.0, 1.0])
    assert lifted.top_index == 4
    assert np.array_equal(lifted.plane.basis1, lifted.points[0])
    assert np.array_equal(lifted.plane.basis2, [1.0, 0.0, 0.0])
    # Straight up is a half turn from the start: the lifted walk's target.
    assert lifted.plane.theta_of([0.0, 0.0, 1.0]) == math.pi
    tilted = lift(GeneralLP(A=lp.A, b=lp.b, z=[3.0, -4.0]))
    assert np.allclose(tilted.plane.basis2, [0.6, -0.8, 0.0])
    assert tilted.plane.theta_of([0.0, 0.0, 1.0]) == math.pi


def test_initial_limit_facet_joins_infinity(triangle):
    lp = GeneralLP(A=triangle, b=np.ones(3), z=[0.1, 1.0])
    lifted = lift(lp)
    facet = initial_limit_facet(lifted, (1, 2))
    assert facet.indices == (0, 2, 3)  # constraint i is lifted row i + 1
    # normal is orthogonal to the downward ray and equals the unit-program
    # normal in the first two coordinates
    assert np.dot(facet.normal, lifted.points[0]) == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(facet.normal, [1.0 / 9.0, 1.0, 0.0])
    # just off the bottom of the arc, the sweep direction pierces the facet
    lam = cone_coefficients(lifted.points, facet.indices, lifted.plane.q(1e-4))
    assert float(np.min(lam)) >= -1e-9


# ---------------------------------------------------------------------------
# solve_lp on the three fixture programs


def test_solve_lp_optimal_fixture():
    lp = _lp_optimal()
    result = solve_lp(lp, rng=501, validate=True)
    assert result.status == STATUS_OPTIMAL
    assert result.basis == (0, 1)
    assert np.allclose(result.x_opt, [1.0, 1.0], atol=1e-9)
    assert result.objective_value(lp) == pytest.approx(2.0, abs=1e-9)
    # KKT-style certificate: objective inside the cone of the tight rows,
    # and the optimal point satisfies every constraint
    lam = cone_coefficients(lp.A, result.basis, lp.z)
    assert float(np.min(lam)) >= -1e-9
    assert np.all(lp.A @ result.x_opt <= lp.b + 1e-9)
    assert np.allclose(lp.A[list(result.basis)] @ result.x_opt,
                       lp.b[list(result.basis)], atol=1e-9)


def test_solve_lp_reads_x_opt_off_the_final_facet(monkeypatch, solve_linear_calls,
                                                  feasible_lp):
    lp = feasible_lp(400, 10, 7)
    real_walk = interpolate.walk
    seen = {}

    def recording_walk(*args, **kwargs):
        outcome = real_walk(*args, **kwargs)
        seen["calls"] = len(solve_linear_calls)
        seen["normal"] = outcome.facet.normal
        return outcome

    monkeypatch.setattr(interpolate, "walk", recording_walk)
    result = solve_lp(lp, rng=501)
    assert result.status == STATUS_OPTIMAL
    assert len(solve_linear_calls) == seen["calls"]  # no solve after the walk
    assert np.array_equal(result.x_opt, seen["normal"][:lp.d])
    assert not np.shares_memory(result.x_opt, seen["normal"])


def test_solve_lp_unbounded_fixture():
    result = solve_lp(_lp_unbounded(), rng=502)
    assert result.status == STATUS_UNBOUNDED
    assert result.basis is None
    assert result.x_opt is None
    assert result.pivots_phase2 == 0
    assert result.phase1_iterations >= 1


def test_solve_lp_infeasible_fixture():
    result = solve_lp(_lp_infeasible(), rng=503, validate=True)
    assert result.status == STATUS_INFEASIBLE
    assert result.basis is None
    assert result.x_opt is None


def test_solve_lp_raises_numeric_failure_when_lifted_walk_unbounded(monkeypatch):
    # A bounded Phase I makes an unbounded lifted walk impossible in exact
    # arithmetic; solve_lp must say so instead of returning a verdict.
    monkeypatch.setattr(interpolate, "walk",
                        lambda *args, **kwargs: WalkOutcome(UNBOUNDED, None, 3))
    with pytest.raises(NumericFailure, match="lifted walk left the cone"):
        solve_lp(_lp_optimal(), rng=501)


def test_solve_lp_row_scaling_invariance():
    lp = _lp_optimal()
    scales = np.array([3.7, 1.0, 0.2])
    scaled = GeneralLP(A=lp.A * scales[:, None], b=lp.b * scales, z=lp.z)
    a = solve_lp(lp, rng=504)
    b = solve_lp(scaled, rng=504)
    assert (a.status, a.basis) == (b.status, b.basis)
    assert np.allclose(a.x_opt, b.x_opt, atol=1e-9)


def test_solve_lp_deterministic_given_seed():
    lp = _lp_optimal()
    a = solve_lp(lp, rng=505)
    b = solve_lp(lp, rng=505)
    assert (a.status, a.basis, a.pivots_phase1, a.pivots_phase2,
            a.phase1_iterations) == (b.status, b.basis, b.pivots_phase1,
                                     b.pivots_phase2, b.phase1_iterations)
    assert np.array_equal(a.x_opt, b.x_opt)


def test_general_lp_validation():
    with pytest.raises(ValueError):
        GeneralLP(A=np.eye(2), b=np.ones(2), z=[1.0, 0.0])  # n == d
    with pytest.raises(ValueError):
        GeneralLP(A=np.ones((3, 2)), b=np.ones(2), z=[1.0, 0.0])  # bad b
    with pytest.raises(ValueError):
        GeneralLP(A=np.ones((3, 2)), b=np.ones(3), z=[0.0, 0.0])  # zero z
    with pytest.raises(ValueError):
        GeneralLP(A=np.ones((3, 2)), b=[1.0, np.inf, 1.0], z=[1.0, 0.0])
