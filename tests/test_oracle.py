"""Brute-force enumeration oracles: facet lists, pierced facets, full LP
classification, and planar section counts."""

import numpy as np
import pytest
from scipy.optimize import linprog

from shadowlp import oracle
from shadowlp.interpolate import GeneralLP, solve_lp
from shadowlp.oracle import (
    Ambiguous,
    classify_lp,
    enumerate_facets,
    facet_of,
    section_edge_count_bruteforce,
)
from shadowlp.randgen import derive_rng, gaussian, sub_seed
from shadowlp.shadow_walk import SweepPlane


def _facet_sets(facets):
    return {tuple(f.indices) for f in facets}


# ---------------------------------------------------------------------------
# enumerate_facets


def test_enumerate_facets_segment_and_triangle(triangle):
    assert _facet_sets(enumerate_facets(np.eye(2))) == {(0, 1)}
    assert _facet_sets(enumerate_facets(triangle)) == {(0, 2), (1, 2)}


def test_enumerate_facets_square(square):
    assert _facet_sets(enumerate_facets(square)) == {(0, 1), (1, 2), (2, 3), (0, 3)}


def test_enumerate_facets_interior_origin():
    angles = np.array([0.0, 2 * np.pi / 3, 4 * np.pi / 3])
    points = np.column_stack([np.cos(angles), np.sin(angles)])
    assert _facet_sets(enumerate_facets(points)) == {(0, 1), (0, 2), (1, 2)}


def test_enumerate_facets_with_downward_ray():
    # Row 0 is the direction (0, -1), of level 0.
    points = np.array([[0.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    got = _facet_sets(enumerate_facets(points, levels=np.array([0.0, 1.0, 1.0])))
    assert got == {(1, 2), (0, 1)}


def test_enumerate_facets_refuses_beyond_cap(triangle, monkeypatch):
    monkeypatch.setattr(oracle, "ENUMERATION_CAP", 1)
    with pytest.raises(ValueError):
        enumerate_facets(triangle)


# ---------------------------------------------------------------------------
# facet_of


def test_facet_of_examples(triangle):
    assert tuple(facet_of(triangle, [1.0, 0.1]).indices) == (0, 2)
    assert facet_of(triangle, [-1.0, 0.0]) is None
    # a direction equal to a hull point pierces the unique facet containing it
    assert tuple(facet_of(triangle, [1.0, 0.0]).indices) == (0, 2)


def test_facet_of_refuses_shared_vertex_direction(triangle):
    with pytest.raises(Ambiguous):
        facet_of(triangle, [0.9, 0.9])


def test_facet_of_agrees_with_cone_membership():
    """facet_of finds a facet exactly when the direction lies in the cone of
    the points (decided by an LP feasibility solve, an independent method)."""
    rng = derive_rng(601)
    pierced = missed = 0
    for case in range(100):
        d = int(rng.integers(2, 4))
        n = int(rng.integers(d + 1, 9))
        points = gaussian(derive_rng(601, case, 0), (n, d))
        z = gaussian(derive_rng(601, case, 1), (d,))
        try:
            facet = facet_of(points, z)
        except Ambiguous:
            continue
        feas = linprog(np.zeros(n), A_eq=points.T, b_eq=z,
                       bounds=(0, None), method="highs")
        if facet is None:
            assert not feas.success
            missed += 1
        else:
            assert feas.success
            pierced += 1
    assert pierced >= 20 and missed >= 20


# ---------------------------------------------------------------------------
# classify_lp


def test_classify_lp_hand_solved_triangle_region():
    lp = GeneralLP(A=[[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]],
                   b=[1.0, 1.0, 1.0], z=[1.0, 1.0])
    verdict = classify_lp(lp)
    assert verdict.status == "optimal"
    assert verdict.basis == (0, 1)
    assert np.allclose(verdict.x_opt, [1.0, 1.0])
    assert verdict.value == pytest.approx(2.0)


def test_classify_lp_unbounded_and_infeasible():
    unbounded = GeneralLP(A=[[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]],
                          b=[1.0, 1.0, 1.0], z=[-1.0, 0.0])
    assert classify_lp(unbounded).status == "unbounded"
    # objective kept off the generators so the cone certificate is strict
    infeasible = GeneralLP(A=[[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
                           b=[-3.0, -3.0, 1.0, 1.0], z=[1.0, 0.3])
    assert classify_lp(infeasible).status == "infeasible"


def test_classify_lp_refuses_degenerate_tie():
    # three constraints through the same optimal vertex: no unique basis
    lp = GeneralLP(A=[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
                   b=[1.0, 1.0, 2.0], z=[1.0, 1.0])
    assert classify_lp(lp).status == "ambiguous"


def test_classify_lp_row_scaling_invariance():
    lp = GeneralLP(A=[[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]],
                   b=[1.0, 1.0, 1.0], z=[1.0, 1.0])
    scales = np.array([0.3, 7.0, 2.5])
    scaled = GeneralLP(A=lp.A * scales[:, None], b=lp.b * scales, z=lp.z)
    a, b = classify_lp(lp), classify_lp(scaled)
    assert (a.status, a.basis) == (b.status, b.basis)
    assert np.allclose(a.x_opt, b.x_opt)
    assert a.value == pytest.approx(b.value)


def test_classify_lp_row_permutation_invariance():
    rng = derive_rng(602)
    A = gaussian(rng, (7, 3))
    b = gaussian(rng, (7,)) + 2.0
    z = gaussian(rng, (3,))
    base = classify_lp(GeneralLP(A=A, b=b, z=z))
    perm = np.array([3, 0, 6, 1, 5, 2, 4])
    permuted = classify_lp(GeneralLP(A=A[perm], b=b[perm], z=z))
    assert base.status == permuted.status
    if base.status == "optimal":
        mapped = tuple(sorted(int(np.flatnonzero(perm == i)[0]) for i in base.basis))
        assert permuted.basis == mapped
        assert np.allclose(base.x_opt, permuted.x_opt)


def test_classify_lp_agrees_with_solver_on_smoothed_draws():
    mismatches = 0
    checked = 0
    for case in range(30):
        stream = derive_rng(603, case)
        d = int(stream.integers(2, 4))
        n = int(stream.integers(d + 2, 10))
        A = gaussian(derive_rng(603, case, 1), (n, d))
        b = gaussian(derive_rng(603, case, 2), (n,), center=1.0, sigma=0.5)
        z = gaussian(derive_rng(603, case, 3), (d,))
        lp = GeneralLP(A=A, b=b, z=z)
        verdict = classify_lp(lp)
        if verdict.status == "ambiguous":
            continue
        checked += 1
        result = solve_lp(lp, rng=sub_seed(603, case, 4), validate=True)
        if result.status != verdict.status:
            mismatches += 1
        elif verdict.status == "optimal" and set(result.basis) != set(verdict.basis):
            mismatches += 1
    assert checked >= 15
    assert mismatches == 0


# ---------------------------------------------------------------------------
# planar sections


def _plane3(u, v):
    u = np.asarray(u, float)
    u = u / np.linalg.norm(u)
    v = np.asarray(v, float)
    v = v - np.dot(v, u) * u
    v = v / np.linalg.norm(v)
    return SweepPlane(u, v)


def test_section_count_square_fixture(square, axis_plane):
    # in the plane's own dimension the section is the polygon itself
    assert section_edge_count_bruteforce(square, axis_plane(2)) == 4


def test_section_count_tetrahedron_square_and_triangle():
    tetra = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, -1.0],
                      [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]])
    # the mid-section parallel to two opposite edges is a quadrilateral
    mid = _plane3([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    assert section_edge_count_bruteforce(tetra, mid) == 4
    # a central plane normal to one vertex separates it from the others:
    # the section is a triangle
    cut = _plane3([1.0, -1.0, 0.0], [1.0, 1.0, -2.0])
    assert section_edge_count_bruteforce(tetra, cut) == 3


def test_section_count_missing_plane_is_zero():
    # hull far above the z=0 plane
    rng = derive_rng(604)
    points = gaussian(rng, (8, 3)) + np.array([0.0, 0.0, 30.0])
    plane = _plane3([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    assert section_edge_count_bruteforce(points, plane) == 0
