"""Parametric facet walk: exit angles, pivots, arcs, and full sweeps."""

import math
from dataclasses import replace

import numpy as np
import pytest

from shadowlp import interpolate, oracle, phase1, randgen, shadow_walk
from shadowlp.geometry import DEFAULT_TOL, SingularSystem, make_facet
from shadowlp.interpolate import GeneralLP, lift
from shadowlp.shadow_walk import (
    OPTIMAL_FACET,
    UNBOUNDED,
    CycleSuspected,
    SweepPlane,
    WalkInvariantViolation,
    WalkStateError,
    exit_angle,
    pivot,
    sweep_full,
    walk,
)

from helpers import cone_coefficients


# ---------------------------------------------------------------------------
# SweepPlane


def test_sweep_plane_requires_orthonormal_basis():
    with pytest.raises(ValueError, match="orthogonal"):
        SweepPlane(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="unit vectors"):
        SweepPlane(np.array([2.0, 0.0]), np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="unit vectors"):
        SweepPlane(np.array([1.0, 0.0]), np.array([0.0, 1.0 + 1e-6]))


def test_sweep_plane_parametrization_roundtrip():
    plane = SweepPlane.axis(2)
    for theta in (0.0, 0.4, math.pi / 2, 3.0, 6.0):
        q = plane.q(theta)
        assert np.linalg.norm(q) == pytest.approx(1.0)
        assert plane.theta_of(q) == pytest.approx(theta % (2 * math.pi))


def test_sweep_plane_from_lists_stores_float_arrays():
    plane = SweepPlane([1.0, 0.0], [0.0, 1.0])
    assert isinstance(plane.basis1, np.ndarray) and plane.basis1.dtype == float
    assert isinstance(plane.basis2, np.ndarray) and plane.basis2.dtype == float
    assert np.array_equal(plane.q(0.5), [math.cos(0.5), math.sin(0.5)])


def test_sweep_plane_through_builds_plane_containing_both():
    rng = randgen.derive_rng(201)
    for _ in range(30):
        start = rng.standard_normal(4)
        target = rng.standard_normal(4)
        plane = SweepPlane.through(start, target)
        q0 = plane.q(plane.theta_of(start))
        q1 = plane.q(plane.theta_of(target))
        assert np.allclose(q0, start / np.linalg.norm(start), atol=1e-9)
        assert np.allclose(q1, target / np.linalg.norm(target), atol=1e-9)


def test_sweep_plane_through_collinear_raises():
    z = np.array([1.0, 0.0, 0.0])
    for start in (-z, z, 2.5 * z):
        with pytest.raises(ValueError, match="collinear"):
            SweepPlane.through(start, z)


# ---------------------------------------------------------------------------
# exit_angle


def test_exit_angle_quarter_turn_on_basis_facet():
    points = np.eye(2)
    facet = make_facet(points, (0, 1))
    theta_exit, leaving = exit_angle(facet, SweepPlane.axis(2), 0.0)
    assert theta_exit == pytest.approx(math.pi / 2)
    assert leaving == 0


def test_exit_angle_matches_theta_grid_scan(triangle):
    """The analytic crossing agrees with a dense sign scan of the cone
    coefficients along the circle."""
    rng = randgen.derive_rng(202)
    plane = SweepPlane.axis(2)
    steps = 4000
    for _ in range(25):
        n = int(rng.integers(3, 8))
        points = rng.standard_normal((n, 2)) + np.array([1.5, 1.5])
        theta0 = float(rng.uniform(0.0, 2 * math.pi))
        try:
            facet = oracle.facet_of(points, plane.q(theta0))
        except oracle.Ambiguous:
            continue
        if facet is None:
            continue
        got = exit_angle(facet, plane, theta0)
        assert got is not None
        theta_exit, leaving = got
        grid = theta0 + np.linspace(1e-9, 2 * math.pi, steps)
        lam = np.stack([cone_coefficients(points, facet.indices, plane.q(t))
                        for t in grid])
        first_negative = np.argmax((lam < -1e-7).any(axis=1))
        theta_grid = grid[first_negative]
        assert theta_exit <= theta_grid + 1e-6
        assert theta_exit >= theta_grid - (2 * math.pi) / steps - 1e-6
        # the leaving coefficient crosses zero downward exactly at theta_exit
        pos = sorted(facet.indices).index(leaving)
        before = cone_coefficients(points, facet.indices, plane.q(theta_exit - 1e-7))
        after = cone_coefficients(points, facet.indices, plane.q(theta_exit + 1e-7))
        assert abs(cone_coefficients(points, facet.indices,
                                     plane.q(theta_exit))[pos]) < 1e-6
        assert before[pos] > after[pos]
        assert before.min() > -1e-6  # still pierced just before the exit


def test_exit_angle_rejects_unpierced_facet(triangle):
    facet = make_facet(triangle, (0, 2))
    # q(pi/2) = (0,1) is pierced by {1,2}, not {0,2}.
    with pytest.raises(WalkStateError):
        exit_angle(facet, SweepPlane.axis(2), math.pi / 2)


def test_exit_angle_rotation_equivariance(triangle):
    theta = 0.1
    facet = make_facet(triangle, (0, 2))
    base = exit_angle(facet, SweepPlane.axis(2), theta)
    rotation = randgen.haar_rotation(2, randgen.derive_rng(203))
    rotated_points = triangle @ rotation.T
    plane = SweepPlane(rotation @ np.array([1.0, 0.0]),
                       rotation @ np.array([0.0, 1.0]))
    rotated_facet = make_facet(rotated_points, (0, 2))
    got = exit_angle(rotated_facet, plane, theta)
    assert got[0] == pytest.approx(base[0])
    assert got[1] == base[1]


# ---------------------------------------------------------------------------
# pivot


def test_pivot_example_enters_other_axis(triangle):
    facet = make_facet(triangle, (0, 2))
    entering, new_facet = pivot(triangle, facet, 0)
    assert entering == 1
    assert new_facet.indices == (1, 2)


def test_pivot_single_facet_has_no_entering():
    points = np.eye(2)
    facet = make_facet(points, (0, 1))
    assert pivot(points, facet, 0) is None


def test_pivot_tie_between_duplicate_rows_enters_smaller_index():
    # rows 1 and 3 are the same point, so their ratios tie exactly
    points = np.array([[1.0, 0.0], [0.0, 1.0], [0.9, 0.9], [0.0, 1.0]])
    facet = make_facet(points, (0, 2))
    entering, new_facet = pivot(points, facet, 0)
    assert entering == 1
    assert new_facet.indices == (1, 2)


def test_pivot_tie_with_vertex_at_infinity_enters_infinity():
    # Constraint 2 repeats constraint 0 with a looser right-hand side, so its
    # lifted row 3 lies on the line through lifted row 1 along the vertex at
    # infinity, row 0.  Rotating facet {1, 2, top} about the ridge {1, 2}
    # reaches rows 0 and 3 at the same ratio (1, in dyadic arithmetic), and
    # row 0 wins the tie by its smaller index.
    lp = GeneralLP(A=np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]),
                   b=np.array([0.5, 0.5, 0.75]), z=np.array([1.0, 1.0]))
    lifted = lift(lp)
    facet = make_facet(lifted.points, (1, 2, lifted.top_index), lifted.levels)
    entering, new_facet = pivot(lifted.points, facet, lifted.top_index, lifted.levels)
    assert entering == 0
    assert new_facet.indices == (0, 1, 2)
    assert float(lifted.points[3] @ new_facet.normal) == 1.0  # row 3 tied


def test_pivot_shares_d_minus_one_indices_randomized():
    rng = randgen.derive_rng(204)
    for _ in range(60):
        d = int(rng.integers(2, 5))
        n = int(rng.integers(d + 1, d + 6))
        points = rng.standard_normal((n, d)) + 1.5 * np.ones(d)
        facets = oracle.enumerate_facets(points)
        for facet in facets:
            for leaving in facet.indices:
                out = pivot(points, facet, leaving)
                if out is None:
                    continue
                _, new_facet = out
                shared = set(facet.indices) & set(new_facet.indices)
                assert len(shared) == d - 1
                # closure: the walker can only land on oracle-enumerated facets
                assert new_facet in facets


# ---------------------------------------------------------------------------
# walk


def test_walk_target_inside_start_interval_means_zero_pivots():
    points = np.eye(2)
    facet = make_facet(points, (0, 1))
    outcome = walk(points, SweepPlane.axis(2), facet, 0.2, 0.3)
    assert outcome.status == OPTIMAL_FACET
    assert outcome.pivots == 0
    assert outcome.facet.indices == (0, 1)


def test_walk_triangle_one_pivot(triangle):
    plane = SweepPlane.through(np.array([1.0, 0.1]), np.array([0.1, 1.0]))
    start = make_facet(triangle, (0, 2))
    theta0 = plane.theta_of(np.array([1.0, 0.1]))
    theta1 = plane.theta_of(np.array([0.1, 1.0]))
    outcome = walk(triangle, plane, start, theta0, theta1, validate=True)
    assert outcome.status == OPTIMAL_FACET
    assert outcome.pivots == 1
    assert [e.facet.indices for e in outcome.trace] == [(0, 2), (1, 2)]
    assert outcome.facet == oracle.facet_of(triangle, np.array([0.1, 1.0]))


def test_walk_detects_unbounded_direction(triangle):
    # Rotating toward -e1 leaves cone{(1,0),(0,1),(0.9,0.9)}.
    plane = SweepPlane.axis(2)
    start = make_facet(triangle, (0, 2))
    outcome = walk(triangle, plane, start, 0.0, math.pi, validate=True)
    assert outcome.status == UNBOUNDED
    assert oracle.facet_of(triangle, np.array([-1.0, 0.0])) is None


def test_walk_trace_is_monotone_and_local(triangle):
    plane = SweepPlane.axis(2)
    start = make_facet(triangle, (0, 2))
    outcome = walk(triangle, plane, start, 0.0, math.pi / 2, validate=True)
    ends = [e.theta_start for e in outcome.trace]
    assert all(b > a for a, b in zip(ends, ends[1:]))
    for prev, cur in zip(outcome.trace, outcome.trace[1:]):
        assert len(set(prev.facet.indices) & set(cur.facet.indices)) == 1


def test_walk_terminal_facet_matches_oracle_on_random_instances():
    rng = randgen.derive_rng(205)
    checked = 0
    for i in range(400):
        d = int(rng.integers(2, 5))
        n = int(rng.integers(d + 1, 13))
        points = rng.standard_normal((n, d))
        z0 = rng.standard_normal(d)
        z1 = rng.standard_normal(d)
        if abs(np.dot(z0, z1)) >= (1 - 1e-6) * np.linalg.norm(z0) * np.linalg.norm(z1):
            continue
        try:
            start = oracle.facet_of(points, z0)
            want = oracle.facet_of(points, z1)
        except oracle.Ambiguous:
            continue
        if start is None:
            continue
        plane = SweepPlane.through(z0, z1)
        outcome = walk(points, plane, start, plane.theta_of(z0),
                       plane.theta_of(z1), validate=True)
        if want is None:
            assert outcome.status == UNBOUNDED
        else:
            assert outcome.status == OPTIMAL_FACET
            assert outcome.facet == want
        checked += 1
    assert checked >= 250


def _dodecagon():
    angles = 2.0 * math.pi * np.arange(12) / 12
    return np.stack([np.cos(angles), np.sin(angles)], axis=1)


def test_walk_refactors_every_d_th_pivot(solve_linear_calls):
    # Pivots update B^-1; every d-th one (here every second) factors the
    # basis afresh, and no pivot of this well-conditioned polygon needs a
    # guarded refactor.
    points = _dodecagon()
    start = make_facet(points, (0, 1))
    solve_linear_calls.clear()
    outcome = walk(points, SweepPlane.axis(2), start, 0.1, 6.0)
    assert outcome.pivots == 11
    assert len(solve_linear_calls) == outcome.pivots // 2
    assert [e.facet.updates for e in outcome.trace] == [0, 1] * 6


@pytest.mark.parametrize("honest", [0, 1, 3])
def test_walk_raises_cycle_suspected_when_a_pivot_returns_to_its_facet(monkeypatch, honest):
    # After `honest` true pivots the sabotaged pivot sends the walk back into
    # the facet it is leaving.  Its exit is then due at the same angle, so a
    # walk that did not detect the repeat would spin until the budget runs out.
    real_pivot = shadow_walk.pivot
    left = []

    def bad_pivot(points, facet, leaving, levels=None):
        left.append(facet.indices)
        if len(left) > 50:
            raise RuntimeError("sabotage budget exhausted")
        if len(left) <= honest:
            return real_pivot(points, facet, leaving, levels)
        return leaving, facet

    monkeypatch.setattr(shadow_walk, "pivot", bad_pivot)
    points = _dodecagon()
    with pytest.raises(CycleSuspected) as info:
        walk(points, SweepPlane.axis(2), make_facet(points, (0, 1)), 0.1, 6.0)
    # The start facet may be re-entered once, any other facet not at all.
    assert len(left) == max(honest, 1) + 1
    assert f"facet {left[-1]} entered again" in str(info.value)


# ---------------------------------------------------------------------------
# rank-one updates of the facet


def _near_singular_pivot_points():
    # Facet {0, 1} of e1, e2; leaving 0 rotates about the ridge {e2} with
    # g = -e1.  Row 2 has a large norm and lies almost on the ridge's line:
    # <g, a_2> = 2e-9 just clears eps_feas, but the row-equilibrated basis
    # {a_1, a_2} has an LU pivot of about 2e-12, below eps_singular.
    return np.array([[1.0, 0.0], [0.0, 1.0], [-2e-9, -1e3]])


def test_pivot_raises_singular_system_on_near_ridge_entering_point():
    points = _near_singular_pivot_points()
    facet = make_facet(points, (0, 1))
    assert float(points[2] @ -facet.inverse[:, 0]) > DEFAULT_TOL.eps_feas
    with pytest.raises(SingularSystem):
        make_facet(points, (1, 2))
    with pytest.raises(SingularSystem):
        pivot(points, facet, 0)


def test_walk_raises_singular_system_on_near_ridge_entering_point():
    # The first exit is at pi/2, where the coefficient of e1 crosses zero.
    points = _near_singular_pivot_points()
    with pytest.raises(SingularSystem):
        walk(points, SweepPlane.axis(2), make_facet(points, (0, 1)), 0.1, 3.0)


def test_update_guard_refuses_every_basis_make_facet_refuses():
    # Random rank-one replacements of accepted, often ill-conditioned and
    # badly row-scaled bases: whenever make_facet refuses the new basis, the
    # update must decline it too (and leave the refusal to make_facet).
    rng = randgen.derive_rng(208)
    refused = 0
    for _ in range(3000):
        d = int(rng.choice([2, 3, 4, 10]))
        u, s, vt = np.linalg.svd(rng.standard_normal((d, d)))
        s[-int(rng.integers(1, d + 1)):] *= 10.0 ** rng.uniform(-10, 0)
        basis = (u * s) @ vt * (10.0 ** rng.uniform(-6, 6, size=d))[:, None]
        j = int(rng.integers(d))
        entering = rng.standard_normal(d - 1) @ np.delete(basis, j, axis=0)
        entering = entering / np.max(np.abs(entering)) \
            + 10.0 ** rng.uniform(-14, -6) * rng.standard_normal(d)
        points = np.vstack([basis, entering * 10.0 ** rng.uniform(-6, 6)])
        try:
            facet = make_facet(points, range(d))
        except SingularSystem:
            continue
        new_indices = tuple(i for i in range(d + 1) if i != j)
        try:
            make_facet(points, new_indices)
        except SingularSystem:
            refused += 1
            assert shadow_walk._updated_facet(points, facet, j, d, 0.0, new_indices) is None
    assert refused >= 300


def _assert_matches_fresh_factorization(points, facet, levels):
    fresh = make_facet(points, facet.indices, levels)
    for got, want in ((facet.normal, fresh.normal), (facet.inverse, fresh.inverse)):
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


def _recorded_walks(monkeypatch):
    """Record (points, levels, outcome) of every walk solve_lp makes, Phase
    I's and the lifted one's."""
    walks = []

    def recorded(points, *args, **kwargs):
        outcome = walk(points, *args, **kwargs)
        walks.append((points, kwargs.get("levels"), outcome))
        return outcome

    monkeypatch.setattr(phase1, "walk", recorded)
    monkeypatch.setattr(interpolate, "walk", recorded)
    return walks


@pytest.mark.parametrize("n,d", [(40, 2), (60, 3), (200, 10), (400, 40)])
def test_updated_facets_match_a_fresh_factorization(n, d, feasible_lp, monkeypatch):
    walks = _recorded_walks(monkeypatch)
    for seed in range(3):
        interpolate.solve_lp(feasible_lp(n, d, 300 + seed), rng=seed)
    updated = from_infinite = 0
    for points, levels, outcome in walks:
        for prev, entry in zip([None] + outcome.trace, outcome.trace):
            _assert_matches_fresh_factorization(points, entry.facet, levels)
            updated += entry.facet.updates > 0
            # the lifted walk's first pivot updates a basis holding the
            # vertex at infinity, row 0
            from_infinite += (entry.facet.updates > 0 and prev is not None
                              and levels is not None and prev.facet.indices[0] == 0)
    assert updated >= 10 and from_infinite == 3


def test_pivots_from_every_facet_of_lifted_polytopes_match_a_fresh_factorization():
    # Every facet and every leaving index of small lifted programs, so the
    # vertex at infinity enters, leaves and stays in updated bases.
    rng = randgen.derive_rng(209)
    entered = stayed = 0
    for _ in range(30):
        n, d = int(rng.integers(4, 8)), int(rng.integers(2, 4))
        lifted = lift(GeneralLP(A=rng.standard_normal((n, d)),
                                b=rng.standard_normal(n), z=rng.standard_normal(d)))
        for facet in oracle.enumerate_facets(lifted.points, lifted.levels):
            for leaving in facet.indices:
                step = pivot(lifted.points, facet, leaving, lifted.levels)
                if step is None:
                    continue
                entering, new_facet = step
                assert new_facet.updates == 1
                _assert_matches_fresh_factorization(lifted.points, new_facet, lifted.levels)
                entered += entering == 0
                stayed += facet.indices[0] == 0 and leaving != 0
    assert entered >= 20 and stayed >= 20


@pytest.mark.parametrize("sabotage", [
    # the columns left out of index order, as a skipped permutation leaves them
    lambda f: replace(f, inverse=f.inverse[:, ::-1]),
    # a normal shrunk toward the origin, which keeps every point below it
    lambda f: replace(f, normal=f.normal * (1.0 - 1e-6)),
], ids=["unpermuted-inverse", "shrunk-normal"])
def test_validated_walk_detects_sabotaged_update(sabotage, monkeypatch):
    points = _dodecagon()
    start = make_facet(points, (0, 1))
    assert walk(points, SweepPlane.axis(2), start, 0.1, 6.0, validate=True).pivots == 11
    real = shadow_walk._updated_facet

    def sabotaged(*args):
        facet = real(*args)
        return None if facet is None else sabotage(facet)

    monkeypatch.setattr(shadow_walk, "_updated_facet", sabotaged)
    with pytest.raises(WalkInvariantViolation, match="fresh factorization"):
        walk(points, SweepPlane.axis(2), start, 0.1, 6.0, validate=True)


@pytest.mark.parametrize("stale", [
    # the current facet's scales, as an update that never shifts them leaves
    lambda old, new: old.scales,
    # one unit in the last place above the true row maxima
    lambda old, new: np.nextafter(new.scales, np.inf),
], ids=["unshifted", "one-ulp"])
def test_validated_walk_detects_stale_row_scales(stale, monkeypatch):
    points = _dodecagon()
    start = make_facet(points, (0, 1))
    real = shadow_walk._updated_facet

    def sabotaged(points, facet, *args):
        new = real(points, facet, *args)
        return None if new is None else replace(new, scales=stale(facet, new))

    monkeypatch.setattr(shadow_walk, "_updated_facet", sabotaged)
    assert walk(points, SweepPlane.axis(2), start, 0.1, 6.0).pivots == 11
    with pytest.raises(WalkInvariantViolation, match="row scales are stale"):
        walk(points, SweepPlane.axis(2), start, 0.1, 6.0, validate=True)


# ---------------------------------------------------------------------------
# sweep_full


def test_sweep_square_finds_four_facets(square, axis_plane):
    start = make_facet(square, (0, 1))
    outcome = sweep_full(square, axis_plane(2), start, math.pi / 2, validate=True)
    assert outcome.status == OPTIMAL_FACET
    distinct = outcome.distinct_facets()
    assert len(distinct) == 4
    lengths = [e.theta_end - e.theta_start for e in outcome.trace]
    assert sum(lengths) == pytest.approx(2 * math.pi, abs=1e-9)


def test_sweep_distinct_facets_match_bruteforce_sections(axis_plane):
    rng = randgen.derive_rng(206)
    plane = axis_plane(3)
    done = 0
    for i in range(40):
        n = int(rng.integers(5, 9))
        points = rng.standard_normal((n, 3))
        # need 0 interior to the slice for a full torus sweep
        start_dir = plane.q(0.0)
        try:
            start = oracle.facet_of(points, start_dir)
            if start is None or oracle.facet_of(points, -start_dir) is None:
                continue
        except oracle.Ambiguous:
            continue
        brute = oracle.section_edge_count_bruteforce(points, plane)
        if brute == 0:
            continue
        outcome = sweep_full(points, plane, start, 0.0, validate=True)
        assert len(outcome.distinct_facets()) == brute
        done += 1
    assert done >= 15


def test_exit_angle_always_finite_for_facets_of_pointed_hulls():
    """Every enumerated facet of a hull with 0 inside has a finite exit angle
    in every sweep plane (the interval of any facet is a strict arc)."""
    rng = randgen.derive_rng(207)
    for _ in range(25):
        d = int(rng.integers(2, 4))
        n = int(rng.integers(d + 2, 9))
        points = rng.standard_normal((n, d))
        plane = SweepPlane.through(*rng.standard_normal((2, d)))
        for facet in oracle.enumerate_facets(points):
            lam = None
            for theta in np.linspace(0, 2 * math.pi, 720, endpoint=False):
                lam = cone_coefficients(points, facet.indices, plane.q(theta))
                if lam.min() > 1e-7:
                    got = exit_angle(facet, plane, theta)
                    assert got is not None
                    break
