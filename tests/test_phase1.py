"""Randomized constraint addition and the unit-program solver."""

import math

import numpy as np
import pytest

from shadowlp import oracle, phase1, randgen
from shadowlp.geometry import make_facet
from shadowlp.phase1 import GaveUp, add_constraints, simplex_vertices, solve_unit
from shadowlp.randgen import derive_rng, gaussian, haar_rotation, norm_ceiling, sub_seed

from helpers import cone_coefficients, recorded_walks


# ---------------------------------------------------------------------------
# simplex geometry


@pytest.mark.parametrize("d", [2, 3, 4, 7])
def test_simplex_vertices_regular_and_anchored(d):
    radius = 0.25
    anchor, vertices = simplex_vertices(d, radius)
    expected_anchor = np.zeros(d)
    expected_anchor[d - 1] = 1.0
    assert np.allclose(anchor, expected_anchor)
    assert vertices.shape == (d, d)
    # centroid back at the anchor, all vertices at the circumradius
    assert np.allclose(vertices.mean(axis=0), anchor, atol=1e-12)
    assert np.allclose(np.linalg.norm(vertices - anchor, axis=1), radius)
    # inside the affine hyperplane <anchor, x> = 1
    assert np.allclose(vertices @ anchor, 1.0)
    # pairwise equidistant
    dists = [np.linalg.norm(vertices[i] - vertices[j])
             for i in range(d) for j in range(i + 1, d)]
    assert np.allclose(dists, dists[0])


def test_simplex_vertices_built_once_per_dimension_and_read_only():
    points = _unit_points(40, 3, derive_rng(411))
    z = np.array([0.3, -0.2, 0.9])
    simplex_vertices.cache_clear()
    attempts = sum(solve_unit(points, z, rng=seed).iterations for seed in range(4))
    info = simplex_vertices.cache_info()
    assert (info.misses, info.hits) == (1, attempts - 1)
    anchor, vertices = simplex_vertices(3, randgen.simplex_radius(3))
    assert not anchor.flags.writeable and not vertices.flags.writeable
    with pytest.raises(ValueError):
        vertices[0, 0] = 0.0


def test_simplex_vertices_closed_form_2d():
    radius = 0.125
    anchor, vertices = simplex_vertices(2, radius)
    expected = {(radius, 1.0), (-radius, 1.0)}
    got = {(round(float(v[0]), 12), round(float(v[1]), 12)) for v in vertices}
    assert got == expected


# ---------------------------------------------------------------------------
# add_constraints


def _unit_points(n, d, rng, scale=0.9):
    raw = gaussian(rng, (n, d))
    return scale * raw / np.linalg.norm(raw, axis=1, keepdims=True)


def test_add_constraints_unsmoothed_block_geometry(monkeypatch):
    rng = derive_rng(401)
    points = _unit_points(30, 3, rng)
    m0 = norm_ceiling(float(np.max(np.linalg.norm(points, axis=1))))
    assert m0 == pytest.approx(1.0)
    rotation = haar_rotation(3, rng)
    monkeypatch.setattr(randgen, "added_sigma", lambda d, n: 0.0)
    block = add_constraints(points, m0, rotation, rng)
    assert block is not None
    assert np.array_equal(block.added_points, block.centers)
    # start objective on the 2*m0 sphere, centers at 2*m0*sqrt(1+r^2)
    assert np.linalg.norm(block.start_objective) == pytest.approx(2.0 * m0)
    r = randgen.simplex_radius(3)
    assert np.allclose(np.linalg.norm(block.added_points, axis=1),
                       2.0 * m0 * math.sqrt(1.0 + r * r))
    # the affine hull of the block sits at distance exactly 2*m0 from the
    # origin, twice the required clearance
    h = make_facet(block.added_points, range(3)).normal
    assert 1.0 / np.linalg.norm(h) == pytest.approx(2.0 * m0, rel=1e-9)
    # the known direction really pierces the block
    lam = cone_coefficients(block.added_points, range(3), block.start_objective)
    assert float(np.min(lam)) > 0.0


def test_add_constraints_factors_once_and_solve_unit_every_d_th_pivot(
        solve_linear_calls, monkeypatch):
    rng = derive_rng(401)
    points = _unit_points(30, 3, rng)
    m0 = norm_ceiling(float(np.max(np.linalg.norm(points, axis=1))))
    block = add_constraints(points, m0, haar_rotation(3, rng), rng)
    assert block is not None
    assert len(solve_linear_calls) == 1
    # One factorization per attempt's block, and one every d-th pivot of each
    # attempt's walk: the start facet is the block's facet relabelled, the
    # other pivots update B^-1, and none of them needs a guarded refactor.
    walk_pivots = []
    real_walk = phase1.walk

    def recorded(*args, **kwargs):
        outcome = real_walk(*args, **kwargs)
        walk_pivots.append(outcome.pivots)
        return outcome

    monkeypatch.setattr(phase1, "walk", recorded)
    solve_linear_calls.clear()
    points = _unit_points(200, 3, derive_rng(403))
    result = solve_unit(points, np.array([0.3, -0.2, 1.0]), rng=412)
    assert result.status == "optimal" and result.pivots_total >= 6
    assert len(walk_pivots) == result.iterations == 2
    assert sum(walk_pivots) == result.pivots_total
    assert len(solve_linear_calls) == result.iterations + sum(p // 3 for p in walk_pivots)


def test_add_constraints_rejects_block_that_is_too_close(monkeypatch):
    rng = derive_rng(402)
    points = _unit_points(20, 3, rng)
    max_norm = float(np.max(np.linalg.norm(points, axis=1)))
    rotation = haar_rotation(3, rng)
    # dilation 2*(max_norm/4) < max_norm violates the distance check
    monkeypatch.setattr(randgen, "added_sigma", lambda d, n: 0.0)
    block = add_constraints(points, max_norm / 4.0, rotation, rng)
    assert block is None


def test_add_constraints_fails_under_absurd_smoothing(monkeypatch):
    rng = derive_rng(403)
    points = _unit_points(20, 3, rng)
    monkeypatch.setattr(randgen, "added_sigma", lambda d, n: 5.0)
    outcomes = set()
    for _ in range(200):
        rotation = haar_rotation(3, rng)
        block = add_constraints(points, 1.0, rotation, rng)
        outcomes.add(block is None)
    assert True in outcomes  # scattering that wide must break a check sometimes


def test_add_constraints_check_failure_rate_is_tiny():
    """With the production smoothing level the internal checks almost never
    fire; the retry budget is spent elsewhere."""
    rng = derive_rng(404)
    points = _unit_points(100, 4, rng)
    failures = 0
    trials = 10000
    for _ in range(trials):
        rotation = haar_rotation(4, rng)
        if add_constraints(points, 1.0, rotation, rng) is None:
            failures += 1
    assert failures / trials <= 0.05


# ---------------------------------------------------------------------------
# solve_unit


def test_solve_unit_triangle_example(triangle):
    result = solve_unit(triangle, np.array([0.1, 1.0]), rng=405)
    assert result.status == "optimal"
    assert tuple(result.facet.indices) == (1, 2)
    assert result.iterations >= 1
    assert result.pivots_total >= 0


def test_solve_unit_detects_unbounded(triangle):
    result = solve_unit(triangle, np.array([-1.0, -1.0]), rng=406)
    assert result.status == "unbounded"
    assert result.facet is None


def test_solve_unit_deterministic_given_seed(triangle):
    a = solve_unit(triangle, np.array([0.3, 0.8]), rng=407)
    b = solve_unit(triangle, np.array([0.3, 0.8]), rng=407)
    assert a.status == b.status
    assert tuple(a.facet.indices) == tuple(b.facet.indices)
    assert (a.pivots_total, a.iterations) == (b.pivots_total, b.iterations)


def test_solve_unit_facet_matches_oracle_and_uses_original_indices():
    rng = derive_rng(408)
    for case in range(25):
        d = int(rng.integers(2, 5))
        n = int(rng.integers(d + 2, 14))
        points = gaussian(derive_rng(408, case, 0), (n, d))
        z = gaussian(derive_rng(408, case, 1), (d,))
        try:
            expected = oracle.facet_of(points, z)
        except oracle.Ambiguous:
            continue
        result = solve_unit(points, z, rng=sub_seed(408, case, 2),
                            validate=True)
        if expected is None:
            assert result.status == "unbounded"
        else:
            assert result.status == "optimal"
            assert all(0 <= i < n for i in result.facet.indices)
            assert tuple(result.facet.indices) == tuple(expected.indices)


def test_solve_unit_mean_iterations_small_on_smoothed_inputs():
    """Spot check of the expected-attempts bound (full scale lives in the
    acceptance suite): mean attempts stays below 6."""
    n, d, sigma = 50, 4, 0.3
    iterations = []
    for case in range(120):
        centers = _unit_points(n, d, derive_rng(409, case, 0), scale=1.0)
        points = gaussian(derive_rng(409, case, 1), (n, d), center=centers,
                          sigma=sigma)
        zraw = gaussian(derive_rng(409, case, 2), (d,))
        result = solve_unit(points, zraw / np.linalg.norm(zraw),
                            rng=sub_seed(409, case, 3))
        iterations.append(result.iterations)
    assert np.mean(iterations) <= 6.0


@pytest.mark.parametrize("seed", [1, 28])
def test_each_attempt_walks_its_own_point_array(seed):
    """Each walked attempt's points are the program's rows followed by that
    attempt's own added block, still after the solve has returned: a walk
    keeps its points by reference, so one array shared by the attempts
    would hold the last attempt's block in every record."""
    n, d = 12, 2
    points = randgen.smoothed_points(derive_rng(415, 0), n, d, 0.3)
    z = gaussian(derive_rng(415, 1), (d,))
    walks = recorded_walks(solve_unit, points, z, rng=seed)
    norm_bound = norm_ceiling(float(np.max(np.linalg.norm(points, axis=1))))
    blocks = []
    for attempt in range(solve_unit(points, z, rng=seed).iterations):
        stream = derive_rng(seed, attempt)
        block = add_constraints(points, norm_bound, haar_rotation(d, stream), stream)
        if block is not None:
            blocks.append(block.added_points)
    assert len(walks) == len(blocks) >= 4
    for (walked, _, _, _), added in zip(walks, blocks):
        assert np.array_equal(walked[:n], points)
        assert np.array_equal(walked[n:], added)


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["parallel", "antiparallel"])
def test_solve_unit_redraws_a_start_direction_collinear_with_z(triangle, monkeypatch, sign):
    # The first rotation takes the simplex anchor, and with it z0, onto the
    # line of z, so no plane through z0 and z exists: that attempt is drawn
    # again without a walk, and the second one solves the program.
    z = np.array([0.1, 1.0])
    axis = sign * z / np.linalg.norm(z)
    collinear = np.column_stack([[axis[1], -axis[0]], axis])
    first = [collinear]
    real_rotation = randgen.haar_rotation
    monkeypatch.setattr(randgen, "haar_rotation",
                        lambda d, rng: first.pop() if first else real_rotation(d, rng))
    blocks, walks = [], []
    real_add, real_walk = phase1.add_constraints, phase1.walk

    def add(*args, **kwargs):
        blocks.append(real_add(*args, **kwargs))
        return blocks[-1]

    def walk(*args, **kwargs):
        walks.append(args)
        return real_walk(*args, **kwargs)

    monkeypatch.setattr(phase1, "add_constraints", add)
    monkeypatch.setattr(phase1, "walk", walk)
    result = solve_unit(triangle, z, rng=413, validate=True)
    assert result.status == "optimal"
    assert tuple(result.facet.indices) == (1, 2)
    assert result.iterations == 2
    # the collinear attempt built its block but never walked
    assert blocks[0] is not None and len(walks) == 1


def test_solve_unit_gives_up_when_budget_exhausted(triangle, monkeypatch):
    monkeypatch.setattr(phase1, "MAX_RETRIES", 0)
    with pytest.raises(GaveUp):
        solve_unit(triangle, np.array([0.1, 1.0]), rng=410)


def test_solve_unit_rejects_underdetermined_inputs():
    with pytest.raises(ValueError):
        solve_unit(np.eye(2), np.array([1.0, 1.0]), rng=411)


# ---------------------------------------------------------------------------
# numb halfspace witness


def test_numb_halfspace_witness_square_corner():
    points = np.eye(2)
    z = np.array([1.0, 1.0])
    facet = oracle.facet_of(points, z)
    h = make_facet(points, facet.indices).normal
    assert np.allclose(h, [1.0, 1.0])

    # a point strictly below the witness halfspace never changes the answer
    below = np.vstack([points, [0.4, 0.4]])
    assert tuple(oracle.facet_of(below, z).indices) == tuple(facet.indices)

    # a point above it, toward the objective, does (kept off the diagonal so
    # the pierced facet stays unique)
    above = np.vstack([points, [0.9, 0.7]])
    changed = oracle.facet_of(above, z)
    assert 2 in changed.indices
