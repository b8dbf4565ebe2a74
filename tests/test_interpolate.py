"""Interpolation lift and the end-to-end two-phase solver."""

import math

import numpy as np
import pytest

from shadowlp import interpolate, phase1, shadow_walk
from shadowlp.geometry import GeneralLP, SingularSystem, vector_norm
from shadowlp.randgen import derive_rng
from shadowlp.interpolate import (
    STATUS_INFEASIBLE,
    STATUS_OPTIMAL,
    STATUS_UNBOUNDED,
    NumericFailure,
    lift,
    solve_lp,
)
from shadowlp.shadow_walk import WalkOutcome

from helpers import cone_coefficients, recorded_walks, scaled_rows_lp, smoothed_lp


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
    ps, plane = lift(lp)
    # row 0 is the vertex at infinity, rows 1..n the constraints, then the top
    assert np.array_equal(ps.points, [[0.0, 0.0, -1.0],
                                      [1.0, 0.0, 0.0],
                                      [0.0, 1.0, 3.0],
                                      [1.0, 1.0, -4.0],
                                      [0.0, 0.0, 1.0]])
    assert ps.points.flags.f_contiguous
    assert np.array_equal(ps.levels, [0.0, 1.0, 1.0, 1.0, 1.0])
    assert np.array_equal(plane.basis1, ps.points[0])
    assert np.array_equal(plane.basis2, [1.0, 0.0, 0.0])
    # Straight up is a half turn from the start: the lifted walk's target.
    assert plane.theta_of([0.0, 0.0, 1.0]) == math.pi
    _, tilted = lift(GeneralLP(A=lp.A, b=lp.b, z=[3.0, -4.0]))
    assert np.allclose(tilted.basis2, [0.6, -0.8, 0.0])
    assert tilted.theta_of([0.0, 0.0, 1.0]) == math.pi


def test_lift_plane_is_row_zero_and_the_normalized_objective_byte_for_byte():
    # The plane through row 0 and (z, 0) has, bit for bit, the basis the
    # lift once wrote out: basis1 = row 0, basis2 = (z, 0) / |z|.
    rng = derive_rng(510)
    for case in range(300):
        d = 2 + case % 10
        lp = smoothed_lp(d + 3, d, case)
        ps, plane = lift(lp)
        rot = np.append(lp.z, 0.0)
        assert plane.basis1.tobytes() == ps.points[0].tobytes()
        assert plane.basis2.tobytes() == (rot / vector_norm(rot)).tobytes()
        z = rng.standard_normal(d) * 10.0 ** rng.uniform(-8, 8)
        _, plane = lift(GeneralLP(A=lp.A, b=lp.b, z=z))
        rot = np.append(z, 0.0)
        assert plane.basis2.tobytes() == (rot / vector_norm(rot)).tobytes()


def test_lifted_walk_starts_on_the_phase1_facet_joined_with_infinity(triangle):
    lp = GeneralLP(A=triangle, b=np.ones(3), z=[0.1, 1.0])
    points, plane, levels, intervals = recorded_walks(solve_lp, lp, rng=0)[-1]
    assert levels is not None  # the lifted walk
    facet, theta_start, _ = intervals[0]
    assert theta_start == 0.0
    assert facet.indices == (0, 2, 3)  # Phase I's (1, 2); constraint i is lifted row i + 1
    # normal is orthogonal to the downward ray and equals the unit-program
    # normal in the first two coordinates
    assert np.dot(facet.normal, points[0]) == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(facet.normal, [1.0 / 9.0, 1.0, 0.0])
    # just off the bottom of the arc, the sweep direction pierces the facet
    lam = cone_coefficients(points, facet.indices, plane.q(1e-4))
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
    monkeypatch.setattr(interpolate, "walk", lambda ps, plane, start, *args, **kwargs:
                        WalkOutcome(STATUS_UNBOUNDED, [start], (1.0, start.indices[0])))
    with pytest.raises(NumericFailure, match="lifted walk left the cone"):
        solve_lp(_lp_optimal(), rng=501)


def test_solve_lp_raises_numeric_failure_on_a_singular_lifted_start(monkeypatch):
    refused = SingularSystem("refused")

    def singular(ps, indices):
        raise refused

    monkeypatch.setattr(interpolate, "make_facet", singular)
    with pytest.raises(NumericFailure, match="degenerate lifted start facet: refused") as info:
        solve_lp(_lp_optimal(), rng=501)
    assert info.value.__cause__ is refused


@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_solve_lp_refuses_rows_whose_squares_under_or_overflow(scale):
    with pytest.raises(NumericFailure, match="largest row norm"):
        solve_lp(scaled_rows_lp(scale), rng=506)


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


@pytest.mark.parametrize("d", [2, 3, 4])
def test_solve_lp_walks_column_major_points_whatever_the_layout_of_a(d):
    """Every Phase-I attempt and the lifted walk run over F-contiguous
    arrays, and the solve does not depend on how A is laid out: its strided
    view in the generated instance, a C-order copy and a column-major copy
    give the same answer bit for bit."""
    phase1_walks = 0
    for seed in range(4):
        lp = smoothed_lp(40, d, seed)
        results = []
        for a in (lp.A, np.ascontiguousarray(lp.A), np.asfortranarray(lp.A)):
            program = GeneralLP(A=a, b=lp.b, z=lp.z)
            walks = recorded_walks(solve_lp, program, rng=seed)
            assert all(points.flags.f_contiguous for points, _, _, _ in walks)
            lifted = [levels is not None for _, _, levels, _ in walks]
            assert lifted == [False] * (len(walks) - 1) + [True]
            phase1_walks += len(walks) - 1
            result = solve_lp(program, rng=seed)
            results.append((result.status, result.basis, result.pivots_phase1,
                            result.pivots_phase2, result.phase1_iterations,
                            None if result.x_opt is None else result.x_opt.tobytes()))
        assert results[1] == results[0] and results[2] == results[0]
    assert phase1_walks > 3 * 4  # some solve walked more than one attempt


@pytest.mark.parametrize("d", [2, 3, 4])
def test_solve_lp_walks_point_sets_that_hold_the_row_scales_of_their_points(d, monkeypatch):
    """Every point set a solve walks, each Phase-I attempt's and the lifted
    one, holds byte for byte the row scales of its points, for A strided or
    C-order and for programs where |1 - b_i|, the lifted row's last entry,
    exceeds the largest |entry| of row i."""
    seen = []

    def recorded(ps, *args, **kwargs):
        seen.append(ps)
        return shadow_walk.walk(ps, *args, **kwargs)

    monkeypatch.setattr(phase1, "walk", recorded)
    monkeypatch.setattr(interpolate, "walk", recorded)
    for seed in range(3):
        lp = smoothed_lp(40, d, seed)
        b = np.where(np.arange(40) % 3 == 0, 50.0 * lp.b, lp.b)
        assert np.any(np.abs(1.0 - b) > np.abs(lp.A).max(axis=1))
        for a in (lp.A, np.ascontiguousarray(lp.A)):
            seen.clear()
            solve_lp(GeneralLP(A=a, b=b, z=lp.z), rng=seed)
            assert len(seen) >= 2
            for ps in seen:
                assert ps.scales.tobytes() == np.abs(ps.points).max(axis=1).tobytes()


def test_general_lp_validation():
    with pytest.raises(ValueError):
        GeneralLP(A=np.eye(2), b=np.ones(2), z=[1.0, 0.0])  # n == d
    with pytest.raises(ValueError):
        GeneralLP(A=np.ones((3, 2)), b=np.ones(2), z=[1.0, 0.0])  # bad b
    with pytest.raises(ValueError):
        GeneralLP(A=np.ones((3, 2)), b=np.ones(3), z=[0.0, 0.0])  # zero z
    with pytest.raises(ValueError):
        GeneralLP(A=np.ones((3, 2)), b=[1.0, np.inf, 1.0], z=[1.0, 0.0])
