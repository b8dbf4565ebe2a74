"""Parametric facet walk: exit angles, pivots, arcs, and full sweeps."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from shadowlp import interpolate, oracle, phase1, randgen, shadow_walk
from shadowlp.geometry import (DEFAULT_TOL, STATUS_OPTIMAL, STATUS_UNBOUNDED, GeneralLP,
                               NumericFailure, PointSet, SingularSystem, make_facet)
from shadowlp.interpolate import lift
from shadowlp.shadow_walk import (
    CycleSuspected,
    SweepPlane,
    WalkInvariantViolation,
    WalkStateError,
    exit_angle,
    pivot,
    sweep_full,
    walk,
)

from helpers import cone_coefficients, smoothed_lp, walk_intervals


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
    facet = make_facet(PointSet(np.eye(2)), (0, 1))
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
    facet = make_facet(PointSet(triangle), (0, 2))
    # q(pi/2) = (0,1) is pierced by {1,2}, not {0,2}.
    with pytest.raises(WalkStateError):
        exit_angle(facet, SweepPlane.axis(2), math.pi / 2)


def test_exit_angle_rotation_equivariance(triangle):
    theta = 0.1
    facet = make_facet(PointSet(triangle), (0, 2))
    base = exit_angle(facet, SweepPlane.axis(2), theta)
    rotation = randgen.haar_rotation(2, randgen.derive_rng(203))
    rotated_points = triangle @ rotation.T
    plane = SweepPlane(rotation @ np.array([1.0, 0.0]),
                       rotation @ np.array([0.0, 1.0]))
    rotated_facet = make_facet(PointSet(rotated_points), (0, 2))
    got = exit_angle(rotated_facet, plane, theta)
    assert got[0] == pytest.approx(base[0])
    assert got[1] == base[1]


# ---------------------------------------------------------------------------
# pivot


def test_pivot_example_enters_other_axis(triangle):
    ps = PointSet(triangle)
    new_facet = pivot(ps, make_facet(ps, (0, 2)), 0)
    assert new_facet.indices == (1, 2)  # row 1 entered in place of row 0


def test_pivot_single_facet_has_no_entering():
    ps = PointSet(np.eye(2))
    assert pivot(ps, make_facet(ps, (0, 1)), 0) is None


def test_pivot_tie_between_duplicate_rows_enters_smaller_index():
    # rows 1 and 3 are the same point, so their ratios tie exactly
    ps = PointSet(np.array([[1.0, 0.0], [0.0, 1.0], [0.9, 0.9], [0.0, 1.0]]))
    new_facet = pivot(ps, make_facet(ps, (0, 2)), 0)
    assert new_facet.indices == (1, 2)  # row 1 entered in place of row 0


def test_pivot_tie_with_vertex_at_infinity_enters_infinity():
    # Constraint 2 repeats constraint 0 with a looser right-hand side, so its
    # lifted row 3 lies on the line through lifted row 1 along the vertex at
    # infinity, row 0.  Rotating facet {1, 2, top} about the ridge {1, 2}
    # reaches rows 0 and 3 at the same ratio (1, in dyadic arithmetic), and
    # row 0 wins the tie by its smaller index.
    lp = GeneralLP(A=np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]),
                   b=np.array([0.5, 0.5, 0.75]), z=np.array([1.0, 1.0]))
    ps, _ = lift(lp)
    top = lp.n + 1
    facet = make_facet(ps, (1, 2, top))
    new_facet = pivot(ps, facet, top)
    assert new_facet.indices == (0, 1, 2)  # row 0 entered, row 3 did not
    assert float(ps.points[3] @ new_facet.normal) == 1.0  # row 3 tied


def test_pivot_shares_d_minus_one_indices_randomized():
    rng = randgen.derive_rng(204)
    for _ in range(60):
        d = int(rng.integers(2, 5))
        n = int(rng.integers(d + 1, d + 6))
        points = rng.standard_normal((n, d)) + 1.5 * np.ones(d)
        facets = oracle.enumerate_facets(points)
        for facet in facets:
            for leaving in facet.indices:
                new_facet = pivot(PointSet(points), facet, leaving)
                if new_facet is None:
                    continue
                shared = set(facet.indices) & set(new_facet.indices)
                assert len(shared) == d - 1
                # closure: the walker can only land on oracle-enumerated facets
                assert new_facet in facets


# ---------------------------------------------------------------------------
# walk


def test_walk_target_inside_start_interval_means_zero_pivots():
    ps = PointSet(np.eye(2))
    outcome = walk(ps, SweepPlane.axis(2), make_facet(ps, (0, 1)), 0.2, 0.3)
    assert outcome.status == STATUS_OPTIMAL
    assert outcome.pivots == 0
    assert outcome.facet.indices == (0, 1)


def test_walk_triangle_one_pivot(triangle):
    plane = SweepPlane.through(np.array([1.0, 0.1]), np.array([0.1, 1.0]))
    ps = PointSet(triangle)
    theta0 = plane.theta_of(np.array([1.0, 0.1]))
    theta1 = plane.theta_of(np.array([0.1, 1.0]))
    outcome = walk(ps, plane, make_facet(ps, (0, 2)), theta0, theta1, validate=True)
    assert outcome.status == STATUS_OPTIMAL
    assert outcome.pivots == 1
    assert [f.indices for f in outcome.path] == [(0, 2), (1, 2)]
    assert outcome.facet == oracle.facet_of(triangle, np.array([0.1, 1.0]))


def test_walk_detects_unbounded_direction(triangle):
    # Rotating toward -e1 leaves cone{(1,0),(0,1),(0.9,0.9)}.
    ps = PointSet(triangle)
    outcome = walk(ps, SweepPlane.axis(2), make_facet(ps, (0, 2)), 0.0, math.pi, validate=True)
    assert outcome.status == STATUS_UNBOUNDED
    assert oracle.facet_of(triangle, np.array([-1.0, 0.0])) is None
    # The exit names the crossing of the last facet at which no row entered.
    theta, leaving = outcome.exit
    assert 0.0 < theta < math.pi and leaving in outcome.facet.indices


def test_walk_trace_is_monotone_and_local(triangle):
    ps = PointSet(triangle)
    plane = SweepPlane.axis(2)
    outcome = walk(ps, plane, make_facet(ps, (0, 2)), 0.0, math.pi / 2, validate=True)
    assert outcome.exit is None
    starts = [start for _, start, _ in walk_intervals(outcome, plane, 0.0, math.pi / 2)]
    assert all(b > a for a, b in zip(starts, starts[1:]))
    for prev, cur in zip(outcome.path, outcome.path[1:]):
        assert len(set(prev.indices) & set(cur.indices)) == 1


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
        outcome = walk(PointSet(points), plane, start, plane.theta_of(z0),
                       plane.theta_of(z1), validate=True)
        if want is None:
            assert outcome.status == STATUS_UNBOUNDED
        else:
            assert outcome.status == STATUS_OPTIMAL
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
    ps = PointSet(_dodecagon())
    start = make_facet(ps, (0, 1))
    solve_linear_calls.clear()
    outcome = walk(ps, SweepPlane.axis(2), start, 0.1, 6.0)
    assert outcome.pivots == 11
    assert len(solve_linear_calls) == outcome.pivots // 2
    assert [f.updates for f in outcome.path] == [0, 1] * 6


@pytest.mark.parametrize("honest", [0, 1, 3])
def test_walk_raises_cycle_suspected_when_a_pivot_returns_to_its_facet(monkeypatch, honest):
    # After `honest` true pivots the sabotaged pivot sends the walk back into
    # the facet it is leaving.  Its exit is then due at the same angle, so a
    # walk that did not detect the repeat would spin until the budget runs out.
    real_pivot = shadow_walk.pivot
    left = []

    def bad_pivot(ps, facet, leaving):
        left.append(facet.indices)
        if len(left) > 50:
            raise RuntimeError("sabotage budget exhausted")
        if len(left) <= honest:
            return real_pivot(ps, facet, leaving)
        return facet

    monkeypatch.setattr(shadow_walk, "pivot", bad_pivot)
    ps = PointSet(_dodecagon())
    with pytest.raises(CycleSuspected) as info:
        walk(ps, SweepPlane.axis(2), make_facet(ps, (0, 1)), 0.1, 6.0)
    # The start facet may be re-entered once, any other facet not at all.
    assert len(left) == max(honest, 1) + 1
    message = str(info.value)
    assert f"facet {left[-1]} entered again" in message
    # The last facets of the path end with the one the walk stood on.
    assert "last facets: " in message and message.endswith(str(left[-1]))


# ---------------------------------------------------------------------------
# rank-one updates of the facet


def _near_singular_pivot_points():
    # Facet {0, 1} of e1, e2; leaving 0 rotates about the ridge {e2} with
    # g = -e1.  Row 2 has a large norm and lies almost on the ridge's line:
    # <g, a_2> = 2e-9 just clears eps_feas, but the row-equilibrated basis
    # {a_1, a_2} has an LU pivot of about 2e-12, below eps_singular.
    return np.array([[1.0, 0.0], [0.0, 1.0], [-2e-9, -1e3]])


def test_pivot_raises_singular_system_on_near_ridge_entering_point():
    ps = PointSet(_near_singular_pivot_points())
    facet = make_facet(ps, (0, 1))
    assert float(ps.points[2] @ -facet.inverse[:, 0]) > DEFAULT_TOL.eps_feas
    with pytest.raises(SingularSystem):
        make_facet(ps, (1, 2))
    with pytest.raises(SingularSystem):
        pivot(ps, facet, 0)


def test_walk_raises_singular_system_on_near_ridge_entering_point():
    # The first exit is at pi/2, where the coefficient of e1 crosses zero.
    ps = PointSet(_near_singular_pivot_points())
    with pytest.raises(SingularSystem):
        walk(ps, SweepPlane.axis(2), make_facet(ps, (0, 1)), 0.1, 3.0)


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
        ps = PointSet(np.vstack([basis, entering * 10.0 ** rng.uniform(-6, 6)]))
        try:
            facet = make_facet(ps, range(d))
        except SingularSystem:
            continue
        new_indices = tuple(i for i in range(d + 1) if i != j)
        try:
            make_facet(ps, new_indices)
        except SingularSystem:
            refused += 1
            assert shadow_walk._updated_facet(ps, facet, j, d, 0.0, new_indices) is None
    assert refused >= 300


def _assert_matches_fresh_factorization(ps, facet):
    fresh = make_facet(ps, facet.indices)
    for got, want in ((facet.normal, fresh.normal), (facet.inverse, fresh.inverse)):
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


def _recorded_walks(monkeypatch):
    """Record (point set, outcome) of every walk solve_lp makes, Phase I's
    and the lifted one's."""
    walks = []

    def recorded(ps, *args, **kwargs):
        outcome = walk(ps, *args, **kwargs)
        walks.append((ps, outcome))
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
    for ps, outcome in walks:
        for prev, facet in zip([None] + outcome.path, outcome.path):
            _assert_matches_fresh_factorization(ps, facet)
            updated += facet.updates > 0
            # the lifted walk's first pivot updates a basis holding the
            # vertex at infinity, row 0
            from_infinite += (facet.updates > 0 and prev is not None
                              and ps.levels is not None and prev.indices[0] == 0)
    assert updated >= 10 and from_infinite == 3


def test_unbounded_phase1_walks_exit_along_a_ray_that_leaves_the_cone(monkeypatch):
    # At an unbounded walk's exit no row blocks g = -B^-1 e_leaving of the
    # last facet: every row, the added block's included, has <a_k, g> <=
    # eps_feas.  The target lies less than pi past the exit, where the
    # leaving coefficient is negative, so <z, g> > 0: z leaves the cone.
    walks = _recorded_walks(monkeypatch)
    exits = []
    for d in (2, 3, 4, 5):
        for n in (d + 2, 2 * d + 2, 20, 40):
            for seed in range(30):
                lp, first = smoothed_lp(n, d, seed), len(walks)
                interpolate.solve_lp(lp, rng=randgen.sub_seed(seed, 2))
                exits += [(ps, outcome, lp.z) for ps, outcome in walks[first:]
                          if outcome.status == STATUS_UNBOUNDED]
    assert len(exits) >= 50
    for ps, outcome, z in exits:
        assert ps.levels is None  # a Phase-I walk
        facet, (_, leaving) = outcome.facet, outcome.exit
        g = -facet.inverse[:, facet.indices.index(leaving)]
        assert (ps.points @ g).max() <= DEFAULT_TOL.eps_feas
        assert z @ g > 0.0


def test_pivots_from_every_facet_of_lifted_polytopes_match_a_fresh_factorization():
    # Every facet and every leaving index of small lifted programs, so the
    # vertex at infinity enters, leaves and stays in updated bases.
    rng = randgen.derive_rng(209)
    entered = stayed = 0
    for _ in range(30):
        n, d = int(rng.integers(4, 8)), int(rng.integers(2, 4))
        ps, _ = lift(GeneralLP(A=rng.standard_normal((n, d)),
                               b=rng.standard_normal(n), z=rng.standard_normal(d)))
        for facet in oracle.enumerate_facets(ps.points, ps.levels):
            for leaving in facet.indices:
                new_facet = pivot(ps, facet, leaving)
                if new_facet is None:
                    continue
                assert new_facet.updates == 1
                _assert_matches_fresh_factorization(ps, new_facet)
                entered += new_facet.indices[0] == 0 and facet.indices[0] != 0
                stayed += facet.indices[0] == 0 and leaving != 0
    assert entered >= 20 and stayed >= 20


@pytest.mark.parametrize("sabotage", [
    # the columns left out of index order, as a skipped permutation leaves them
    lambda f: replace(f, inverse=f.inverse[:, ::-1]),
    # a normal shrunk toward the origin, which keeps every point below it
    lambda f: replace(f, normal=f.normal * (1.0 - 1e-6)),
], ids=["unpermuted-inverse", "shrunk-normal"])
def test_validated_walk_detects_sabotaged_update(sabotage, monkeypatch):
    ps = PointSet(_dodecagon())
    start = make_facet(ps, (0, 1))
    assert walk(ps, SweepPlane.axis(2), start, 0.1, 6.0, validate=True).pivots == 11
    real = shadow_walk._updated_facet

    def sabotaged(*args):
        facet = real(*args)
        return None if facet is None else sabotage(facet)

    monkeypatch.setattr(shadow_walk, "_updated_facet", sabotaged)
    with pytest.raises(WalkInvariantViolation, match="fresh factorization"):
        walk(ps, SweepPlane.axis(2), start, 0.1, 6.0, validate=True)


# ---------------------------------------------------------------------------
# sweep_full


def test_sweep_square_finds_four_facets(square, axis_plane):
    ps = PointSet(square)
    plane = axis_plane(2)
    outcome = sweep_full(ps, plane, make_facet(ps, (0, 1)), math.pi / 2, validate=True)
    assert outcome.status == STATUS_OPTIMAL
    assert len(set(outcome.path)) == 4
    intervals = walk_intervals(outcome, plane, math.pi / 2, math.pi / 2 + 2 * math.pi)
    assert sum(end - start for _, start, end in intervals) == pytest.approx(2 * math.pi,
                                                                            abs=1e-9)


def test_sweep_full_refuses_an_unbounded_sweep(axis_plane):
    # The origin lies outside the triangle, whose rows span the cone between
    # theta = -pi/4 and pi/4: the walk from facet {0, 1} at theta = 0 ends
    # unbounded at pi/4, where q leaves that cone.
    ps = PointSet([[1.0, -1.0], [1.0, 1.0], [2.0, 0.0]])
    with pytest.raises(WalkStateError, match="unbounded during a full sweep") as caught:
        sweep_full(ps, axis_plane(2), make_facet(ps, (0, 1)), 0.0)
    assert isinstance(caught.value, NumericFailure)


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
        outcome = sweep_full(PointSet(points), plane, start, 0.0, validate=True)
        assert len(set(outcome.path)) == brute
        done += 1
    assert done >= 15


@pytest.mark.parametrize("on_vertex", [False, True], ids=["inside-facet", "on-vertex"])
def test_levelled_sweep_matches_the_sweep_of_the_scaled_points(on_vertex, axis_plane):
    """Rows at level 2 bound the same facets as the rows halved at level 1,
    so the two validated sweeps visit the same index tuples.  Started on a
    hull vertex, on the facet just past it, a sweep ends one facet short of
    its start, and the closure check must pivot at the rows' levels."""
    if on_vertex:
        points = randgen.gaussian(randgen.derive_rng(211, 0), (30, 2))
        v, w = ConvexHull(points).vertices[:2].tolist()  # counterclockwise
        plane = SweepPlane.through(points[v], [-points[v][1], points[v][0]])
        theta, start = 0.0, (v, w)
    else:
        points = randgen.gaussian(randgen.derive_rng(210), (40, 3))
        plane, theta = axis_plane(3), 0.3
        start = oracle.facet_of(points, plane.q(theta)).indices
    paths = []
    for ps in (PointSet(points, levels=np.full(len(points), 2.0)), PointSet(points / 2)):
        outcome = sweep_full(ps, plane, make_facet(ps, start), theta, validate=True)
        paths.append([f.indices for f in outcome.path])
    assert paths[0] == paths[1]
    assert (paths[0][-1] != paths[0][0]) == on_vertex


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
