"""Planar-section counting: interior point of a slice, full sweeps, and
agreement with brute-force enumeration."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, linprog, milp
from scipy.spatial import ConvexHull

import shadowlp
from shadowlp import phase1, sections, shadow_walk
from shadowlp.geometry import (DEFAULT_TOL, STATUS_OPTIMAL, STATUS_UNBOUNDED, NumericFailure,
                               PointSet, SingularSystem, make_facet)
from shadowlp.oracle import section_edge_count_bruteforce
from shadowlp.randgen import derive_rng, gaussian, haar_rotation, smoothed_points, sub_seed
from shadowlp.sections import (
    _THETA0,
    SectionReport,
    interior_point_in_slice,
    section_edges,
)
from shadowlp.shadow_walk import CycleSuspected, SweepPlane, exit_angle, sweep_full

from helpers import (convex_membership, highs_vertex_margin, margin_constraints,
                     reference_section_edges)


# ---------------------------------------------------------------------------
# interior point


def test_interior_point_of_square_is_center(square, axis_plane):
    x0 = interior_point_in_slice(square, axis_plane(2))
    assert np.linalg.norm(x0) <= 1e-6
    # the margin witnesses are genuinely inside
    for v in (np.array([1.0, 0.0]), np.array([0.0, 1.0])):
        assert convex_membership(square, x0 + (1 - 1e-6) * v)
        assert convex_membership(square, x0 - (1 - 1e-6) * v)


def test_interior_point_none_when_slice_empty():
    rng = derive_rng(701)
    points = gaussian(rng, (10, 3)) + np.array([0.0, 0.0, 25.0])
    assert interior_point_in_slice(points, SweepPlane.axis(3)) is None


def test_interior_point_lies_inside_hull_random():
    for case in range(12):
        points = gaussian(derive_rng(702, case), (9, 3)) * 1.5
        x0 = interior_point_in_slice(points, SweepPlane.axis(3))
        if x0 is None:
            continue
        assert abs(x0[2]) <= 1e-9  # inside the plane itself
        assert convex_membership(points, x0)


def test_interior_point_translates_with_the_points():
    points = gaussian(derive_rng(703), (8, 3))
    plane = SweepPlane.axis(3)
    x0 = interior_point_in_slice(points, plane)
    assert x0 is not None
    shift = 0.37 * plane.basis1 - 1.21 * plane.basis2  # stay inside the plane
    x1 = interior_point_in_slice(points + shift, plane)
    assert np.allclose(x1, x0 + shift, atol=1e-6)


def _count_calls(monkeypatch, module, name):
    real = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_section_is_one_hull_and_no_milp_call(monkeypatch):
    # One hull, one margin LP over its facets, and no cut round: the hull
    # path runs no Phase I.
    hulls = _count_calls(monkeypatch, sections, "ConvexHull")
    margins = _count_calls(monkeypatch, sections, "_max_margin")
    units = _count_calls(monkeypatch, phase1, "solve_unit")
    points = gaussian(derive_rng(703), (8, 3))
    assert not section_edges(points, SweepPlane.axis(3), rng=703).degenerate
    assert len(hulls) == 1
    assert len(margins) == 1
    assert units == []


def test_importing_shadowlp_loads_no_scipy_optimize():
    # Every LP of the package runs on its own pivots, so importing each of
    # its modules in a fresh interpreter loads no scipy.optimize, HiGHS's
    # interface.  verify imports nnls lazily, inside the one check using it.
    code = ("import importlib, pkgutil, sys, shadowlp\n"
            "for m in pkgutil.iter_modules(shadowlp.__path__):\n"
            "    importlib.import_module('shadowlp.' + m.name)\n"
            "print('scipy.optimize' in sys.modules)")
    src = str(Path(shadowlp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.split() == ["False"]


@pytest.mark.parametrize("d", [2, 3, 4])
def test_hull_reduction_keeps_the_interior_point(d):
    plane = SweepPlane.axis(d)
    for case in range(5):
        points = gaussian(derive_rng(710, d, case), (200, d))
        x0 = section_edges(points, plane, rng=case).interior_point
        assert x0 is not None
        assert np.allclose(x0, sections._slice_point(highs_vertex_margin(points, plane), plane),
                           rtol=0.0, atol=1e-9)


def test_margin_lp_gets_only_the_hull_vertices_in_the_plane(monkeypatch):
    # One margin LP over (s, t, eps) with one row per hull facet.
    calls = _count_calls(monkeypatch, sections, "_max_margin")
    points = gaussian(derive_rng(711), (3000, 2))
    assert not section_edges(points, SweepPlane.axis(2), rng=711).degenerate
    assert len(calls) == 1
    (rows, levels), _ = calls[0]
    hull = ConvexHull(points)
    assert rows.shape == (len(hull.equations), 3)
    assert levels.shape == (len(hull.equations),)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_phase1_and_sweep_get_only_the_hull_vertices(monkeypatch, d):
    # The hull's simplices give the start facet: Phase I never runs, the
    # nearest facet along q(theta0) is the pierced one, so one factorization
    # finds it, and the sweep sees the hull vertices alone, in the same
    # point set as that factorization.
    units = _count_calls(monkeypatch, phase1, "solve_unit")
    starts = _count_calls(monkeypatch, sections, "make_facet")
    sweeps = _count_calls(monkeypatch, sections, "sweep_full")
    points = gaussian(derive_rng(713, d), (300, d))
    report = section_edges(points, SweepPlane.axis(d), rng=713)
    assert not report.degenerate
    assert units == []
    assert len(starts) == 1
    expected = points[np.sort(ConvexHull(points).vertices)] - report.interior_point
    assert len(sweeps) == 1
    (ps, *_), _ = sweeps[0]
    assert starts[0][0][0] is ps
    assert np.array_equal(ps.points, expected)
    assert ps.scales.tobytes() == np.abs(expected).max(axis=1).tobytes()


@pytest.mark.parametrize("d", [2, 3, 4])
def test_reported_facets_index_the_original_rows(d):
    points = gaussian(derive_rng(714, d), (300, d))
    report = section_edges(points, SweepPlane.axis(d), rng=714)
    assert report.edge_count > 0
    for facet in report.facets:
        assert list(facet.indices) == sorted(facet.indices)
        rows = points[list(facet.indices)] - report.interior_point
        assert np.allclose(rows @ facet.normal, 1.0, rtol=0.0, atol=DEFAULT_TOL.eps_feas)
        # the relabelled facet keeps its inverse aligned with its indices
        fresh = make_facet(PointSet(points - report.interior_point), facet.indices)
        assert (np.abs(facet.inverse - fresh.inverse).max()
                <= DEFAULT_TOL.eps_feas * np.abs(fresh.inverse).max())


def test_no_hull_reduction_above_dimension_four(monkeypatch):
    # No Qhull call: each master solve of the cut driver separates its four
    # margin points with one Phase I each, and one more Phase I finds the
    # sweep's start facet.
    hulls = _count_calls(monkeypatch, sections, "ConvexHull")
    margins = _count_calls(monkeypatch, sections, "_max_margin")
    units = _count_calls(monkeypatch, phase1, "solve_unit")
    points = gaussian(derive_rng(712), (60, 6))
    assert not section_edges(points, SweepPlane.axis(6), rng=712).degenerate
    assert hulls == []
    assert len(margins) >= 2  # the extent rows alone never suffice here
    assert len(units) == 4 * len(margins) + 1


def test_flat_point_set_is_degenerate(monkeypatch):
    # Six points in the plane x1 = 0 span no 3-d hull: Qhull refuses them.
    # The plane meets the sweep plane x3 = 0 in a line, so the slice is a
    # segment: degenerate.
    hulls = _count_calls(monkeypatch, sections, "ConvexHull")
    points = np.array([[0.0, 1.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0],
                       [0.0, 0.0, -1.0], [0.0, 0.7, 0.7], [0.0, -0.6, -0.8]])
    report = section_edges(points, SweepPlane.axis(3), rng=715)
    assert report.degenerate
    assert len(hulls) == 1


@pytest.mark.parametrize("n, d", [(20, 3), (3, 3), (40, 6)], ids=["d3", "triangle", "d6"])
def test_flat_point_set_containing_the_sweep_plane_is_degenerate(monkeypatch, n, d):
    # Points in x_d = 0, which contains the sweep plane span(e1, e2): the
    # slice is a full polygon, but recentred inside it every d rows are
    # linearly dependent, so no facet exists to walk.  The set is reported
    # degenerate at once, without the margin LP or Phase I, and so is its
    # interior point.
    units = _count_calls(monkeypatch, phase1, "solve_unit")
    margins = _count_calls(monkeypatch, sections, "_max_margin")
    points = gaussian(derive_rng(716, n, d), (n, d))
    points[:, -1] = 0.0
    report = section_edges(points, SweepPlane.axis(d), rng=716)
    assert report.degenerate and report.edge_count == 0
    assert interior_point_in_slice(points, SweepPlane.axis(d)) is None
    assert units == [] and margins == []


# ---------------------------------------------------------------------------
# hull path against the no-hull path


def _cloud(kind, d, case):
    """One point cloud and sweep plane for the differential tests below."""
    stream = derive_rng(720, ("gaussian", "smoothed", "missed", "grazing").index(kind), d, case)
    n = int(stream.integers(d + 8, 400))
    plane = SweepPlane.axis(d)
    if case % 2:  # a random plane through the origin
        rotation = haar_rotation(d, stream)
        plane = SweepPlane(rotation[:, 0], rotation[:, 1])
    if kind == "gaussian":
        return gaussian(stream, (n, d)), plane
    points = smoothed_points(stream, n, d, (0.03, 0.1, 0.3)[case % 3])
    if kind == "smoothed":
        return points, plane
    # A smoothed cloud moved off the plane: "missed" so far that the slice
    # is empty, "grazing" so far that it is a small cap or nothing.
    offset = {"missed": 3.0, "grazing": 0.9}[kind] * np.linalg.qr(
        np.column_stack([plane.basis1, plane.basis2]), mode="complete")[0][:, 2]
    return points + offset, plane


def _regular_polygon(k):
    """A k-gon centered at the origin with a vertex on the start ray."""
    angles = _THETA0 + 2.0 * np.pi * np.arange(k) / k
    return np.column_stack([np.cos(angles), np.sin(angles)]), SweepPlane.axis(2)


def _shifted_cube():
    """A cube meeting the axis plane in a square: its top and bottom facets
    have normals orthogonal to the plane (k = 0), and Qhull splits each
    face into two triangles, so at the optimum eight rows are active."""
    cube = np.array(list(itertools.product([-1.0, 1.0], repeat=3))) + [0.3, 0.0, 0.2]
    return cube, SweepPlane.axis(3)


def test_hull_path_matches_the_no_hull_path():
    """The facet-form margin LP places x0 where the margin LP over the hull
    vertices does, and the start facet read off the hull's simplices is the
    one Phase I finds.  Where q(theta0) runs through a hull vertex the two
    facets may differ; both must then be pierced at theta0 and their
    validated sweeps must count the same edges."""
    clouds = [_cloud(kind, d, case) for kind in ("gaussian", "smoothed")
              for d in (2, 3, 4) for case in range(20)]
    clouds += [_cloud("missed", d, case) for d in (3, 4) for case in range(8)]
    clouds += [_regular_polygon(k) for k in (4, 8, 12)]
    empty = differ = 0
    for i, (points, plane) in enumerate(clouds):
        hull = ConvexHull(points)
        keep = np.sort(hull.vertices)
        x0 = sections._hull_interior_point(hull, plane)
        ref = interior_point_in_slice(points[keep], plane)
        assert (x0 is None) == (ref is None), i
        if x0 is None:
            empty += 1
            continue
        assert np.max(np.abs(x0 - ref)) <= 1e-9, i
        shifted = PointSet(points[keep] - x0)
        start = sections._hull_start_facet(hull, keep, shifted, x0, plane)
        unit = phase1.solve_unit(shifted.points, plane.q(_THETA0), rng=i)
        assert unit.status == STATUS_OPTIMAL, i
        if start == unit.facet:
            continue
        differ += 1
        counts = []
        for facet in (start, unit.facet):
            exit_angle(facet, plane, _THETA0)  # raises unless pierced
            outcome = sweep_full(shifted, plane, facet, _THETA0, validate=True)
            counts.append(len(outcome.distinct_facets()))
        assert counts[0] == counts[1], i
    assert empty >= 16
    # Only the regular polygons put a vertex on the ray; the 8-gon's two
    # paths start on either side of it.
    assert 1 <= differ <= 3


def test_hull_start_facet_is_the_pierced_half_of_a_split_face():
    # Qhull splits each square face of a cube into two triangles with one
    # equation, so their exit distances tie; only the pierce test tells which
    # triangle q(theta0) crosses.
    cube, plane = _shifted_cube()
    hull = ConvexHull(cube)
    keep = np.sort(hull.vertices)
    x0 = sections._hull_interior_point(hull, plane)
    start = sections._hull_start_facet(hull, keep, PointSet(cube[keep] - x0), x0, plane)
    exit_angle(start, plane, _THETA0)  # raises unless pierced


# ---------------------------------------------------------------------------
# the hull of the candidate rows against the hull of every row


@pytest.fixture(params=["rule", "forced"])
def prefilter(request, monkeypatch):
    """section_edges as it runs ("rule": the prefilter at d = 2 from
    _PREFILTER_MIN_ROWS rows) and with the prefilter at every d <= 4 and
    every n ("forced"), so that small and flat sets meet it too."""
    if request.param == "forced":
        monkeypatch.setattr(sections, "_PREFILTER_MIN_ROWS", {2: 0, 3: 0, 4: 0})
    return request.param


def _assert_matches_reference(points, plane):
    """section_edges reports what the hull path on every row reports (the
    same count, flag and facet index tuples, x0 within 1e-12); returns
    whether x0 is bit-equal."""
    report = section_edges(points, plane)
    ref = reference_section_edges(points, plane)
    assert (report.edge_count, report.degenerate) == (ref.edge_count, ref.degenerate)
    assert [f.indices for f in report.facets] == ref.facets
    if ref.interior_point is None:
        assert report.interior_point is None
        return True
    assert np.max(np.abs(report.interior_point - ref.interior_point)) <= 1e-12
    return report.interior_point.tobytes() == ref.interior_point.tobytes()


def test_candidate_hull_matches_the_hull_of_every_row(prefilter):
    clouds = [_cloud(kind, d, case) for kind in ("gaussian", "smoothed")
              for d in (2, 3, 4) for case in range(10)]
    clouds += [_cloud("missed", d, case) for d in (3, 4) for case in range(4)]
    # Planar clouds large enough for the prefilter as it runs.
    for case in range(8):
        stream = derive_rng(721, case)
        n = int(stream.integers(sections._PREFILTER_MIN_ROWS[2], 6000))
        plane = SweepPlane.axis(2) if case % 2 == 0 else SweepPlane(*haar_rotation(2, stream).T)
        points = gaussian(stream, (n, 2)) if case < 4 else smoothed_points(stream, n, 2, 0.1)
        clouds.append((points, plane))
    bit_equal = sum(_assert_matches_reference(points, plane) for points, plane in clouds)
    print(f"{prefilter}: x0 bit-equal on {bit_equal} of {len(clouds)} clouds")


def test_qhull_sees_few_rows_of_a_gaussian_plane_cloud(monkeypatch):
    shapes = []
    real = sections.ConvexHull

    def spied(points, *args, **kwargs):
        shapes.append(np.shape(points))
        return real(points, *args, **kwargs)

    monkeypatch.setattr(sections, "ConvexHull", spied)
    points = gaussian(derive_rng(722), (3000, 2))
    assert not section_edges(points, SweepPlane.axis(2)).degenerate
    assert len(shapes) == 1 and shapes[0][0] < 300


def _degenerate_clouds():
    """Flat sets, sets whose extremes share rows, simplices and the shifted
    cube, each with its sweep plane."""
    stream = derive_rng(723)
    flat3 = gaussian(stream, (30, 3))
    flat3[:, 0] = 0.0  # meets the sweep plane in a segment
    flat2 = np.outer(gaussian(stream, (25,)), [1.0, -0.5])  # a segment in the plane
    corner = np.vstack([gaussian(stream, (40, 3)), [[9.0, 9.0, 9.0]]])  # every maximum
    same = np.tile([[0.3, -0.2]], (12, 1))  # every extreme on one row
    lattice = np.array(list(itertools.product([-1.0, 0.0, 1.0], repeat=2)))  # ties
    clouds = [(flat3, SweepPlane.axis(3)), (flat2, SweepPlane.axis(2)),
              (corner, SweepPlane.axis(3)), (same, SweepPlane.axis(2)),
              (lattice, SweepPlane.axis(2)), _shifted_cube()]
    clouds += [(gaussian(stream, (d + 1, d)) + 0.1, SweepPlane.axis(d)) for d in (2, 3, 4)]
    return clouds


@pytest.mark.parametrize("case", range(9))
def test_degenerate_sets_match_the_hull_of_every_row(prefilter, case):
    # The shifted cube's count is the reference's, not the slice's 4 edges:
    # split faces are counted per triangle on both paths.
    _assert_matches_reference(*_degenerate_clouds()[case])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("d, n", [(2, 3000), (3, 50)])
def test_a_non_finite_row_fails_as_on_the_hull_of_every_row(prefilter, bad, d, n):
    # Qhull refuses NaN with ValueError and an infinite row as too flat, so
    # the set is degenerate; the prefilter must not turn either into
    # another error or a count.
    points = gaussian(derive_rng(724, d), (n, d))
    points[n // 3, d - 1] = bad
    plane = SweepPlane.axis(d)
    try:
        expected = reference_section_edges(points, plane)
    except Exception as exc:  # the type is what is compared
        with pytest.raises(type(exc)):
            section_edges(points, plane)
    else:
        report = section_edges(points, plane)
        assert (report.edge_count, report.degenerate) == (expected.edge_count, expected.degenerate)


# ---------------------------------------------------------------------------
# the facet-form margin LP against HiGHS


def _thin_slice():
    """A tetrahedron whose lowest vertex pokes 5e-9 through the axis plane:
    the slice is a triangle of margin below Tolerance.band."""
    points = np.array([[0.0, 0.0, -5e-9], [1.0, 0.2, 1.0], [-0.4, 1.0, 1.0],
                       [-0.6, -0.9, 1.0]]) + [0.3, -0.2, 0.0]
    return points, SweepPlane.axis(3)


def _highs_margin(rows, levels):
    """The facet-form margin LP as one milp call with eps >= 0: its optimum
    (s, t, eps), or None when HiGHS finds it infeasible."""
    res = milp(np.array([0.0, 0.0, -1.0]), constraints=LinearConstraint(rows, -np.inf, levels),
               bounds=Bounds([-np.inf, -np.inf, 0.0], np.inf))
    return res.x if res.success else None


def _x0_is_unique(eps, a_ub, b_ub, **lp):
    """True when s and t each span at most 1e-9 over the optimal face of a
    margin LP over y = (s, t, eps, ...), taken as the points with margin at
    least eps - 1e-12.  a_ub, b_ub and the further linprog keywords (the
    bounds, any equality block) give the LP's feasible set."""
    nvar = a_ub.shape[1]
    a_ub = np.vstack([a_ub, -np.eye(nvar)[2]])
    b_ub = np.append(b_ub, 1e-12 - eps)
    ends = []
    for c in np.vstack([np.eye(nvar)[:2], -np.eye(nvar)[:2]]):
        res = linprog(c, A_ub=a_ub, b_ub=b_ub, method="highs", **lp)
        assert res.success
        ends.append(res.fun)
    return ends[0] + ends[2] <= 1e-9 and ends[1] + ends[3] <= 1e-9


def test_margin_lp_matches_highs():
    """_max_margin and the facet-form milp call give the same None verdicts,
    margins within 1e-9 relative, and the same x0 wherever HiGHS's optimum
    is unique."""
    clouds = [_cloud(kind, d, case) for kind in ("gaussian", "smoothed")
              for d in (2, 3, 4) for case in range(10)]
    clouds += [_cloud("missed", d, case) for d in (3, 4) for case in range(6)]
    clouds += [_regular_polygon(k) for k in (4, 8, 12)]
    clouds += [_shifted_cube(), _thin_slice()]
    empty = unique = 0
    for i, (points, plane) in enumerate(clouds):
        rows, levels = sections._margin_rows(ConvexHull(points).equations, plane)
        y = sections._max_margin(rows, levels)
        ref = _highs_margin(rows, levels)
        verdict = sections._slice_point(y, plane)
        assert (verdict is None) == (sections._slice_point(ref, plane) is None), i
        if ref is None:
            assert y is None or y[2] < 0.0, i
            empty += 1
            continue
        assert abs(y[2] - ref[2]) <= 1e-9 * max(1.0, abs(ref[2])), i
        if verdict is not None and _x0_is_unique(ref[2], rows, levels, bounds=(None, None)):
            unique += 1
            assert np.max(np.abs(y[:2] - ref[:2])) <= 1e-9 * max(1.0, np.max(np.abs(ref[:2]))), i
    assert empty == 12  # the missed clouds
    assert unique >= 60


@pytest.mark.parametrize("fixture", [_shifted_cube, lambda: _regular_polygon(8)],
                         ids=["cube", "8-gon"])
def test_margin_lp_terminates_with_more_than_three_rows_active(fixture):
    points, plane = fixture()
    rows, levels = sections._margin_rows(ConvexHull(points).equations, plane)
    y = sections._max_margin(rows, levels)
    active = np.abs(rows @ y - levels) <= DEFAULT_TOL.eps_feas
    assert active.sum() > 3
    assert np.all(rows @ y <= levels + DEFAULT_TOL.eps_feas)
    assert abs(y[2] - _highs_margin(rows, levels)[2]) <= 1e-12


def test_margin_lp_drops_rows_orthogonal_to_the_plane():
    points, plane = _shifted_cube()
    rows, levels = sections._margin_rows(ConvexHull(points).equations, plane)
    assert np.any(rows[:, 2] == 0.0)
    assert np.allclose(sections._max_margin(rows, levels), [0.3, 0.0, 1.0], rtol=0.0, atol=1e-12)
    below = np.vstack([rows, [0.0, 0.0, 0.0]])
    assert sections._max_margin(below, np.append(levels, -0.5)) is None


def _rows_that_need_a_pivot():
    """Margin rows of a cloud whose two moves stop short of the optimum, so
    climb pivots once."""
    points = gaussian(derive_rng(730, 8, 0), (8, 2))
    return sections._margin_rows(ConvexHull(points).equations, SweepPlane.axis(2))


def test_margin_lp_opens_with_two_ratio_tests_on_the_set_climb_gets(monkeypatch):
    # The two moves run the walk's ratio test over every margin row; climb
    # then pivots on the same PointSet from the three rows they make active.
    log = []
    real_ratio_test, real_climb = sections.ratio_test, sections.climb

    def ratio_test(ps, h, g, members):
        log.append(("ratio_test", ps, members))
        return real_ratio_test(ps, h, g, members)

    def climb(ps, indices):
        log.append(("climb", ps, tuple(indices)))
        return real_climb(ps, indices)

    monkeypatch.setattr(sections, "ratio_test", ratio_test)
    monkeypatch.setattr(sections, "climb", climb)
    rows, levels = _rows_that_need_a_pivot()
    y = sections._max_margin(rows, levels)
    assert [entry[0] for entry in log] == ["ratio_test", "ratio_test", "climb"]
    ps = log[0][1]
    assert all(entry[1] is ps for entry in log)
    assert log[0][2] == log[1][2] == ()
    assert np.array_equal(ps.points, rows) and np.array_equal(ps.levels, levels)
    assert np.all(rows @ y <= levels + 1e-12)


@pytest.mark.parametrize("step, error", [("stuck", CycleSuspected), ("none", NumericFailure)])
def test_margin_lp_raises_when_a_pivot_fails(monkeypatch, step, error):
    # A pivot that returns the facet it was given repeats the basis; one
    # that finds no entering row reports an unbounded program.
    calls = []

    def failing(ps, facet, leaving):
        calls.append(leaving)
        return facet if step == "stuck" else None

    monkeypatch.setattr(shadow_walk, "pivot", failing)
    with pytest.raises(error):
        sections._max_margin(*_rows_that_need_a_pivot())
    assert len(calls) == 1


def test_margin_lp_raises_numeric_failure(monkeypatch, square, axis_plane):
    # One row leaves the first move's ray unblocked: the program is unbounded.
    with pytest.raises(NumericFailure, match="unbounded ray"):
        sections._max_margin(np.array([[1.0, 0.0, 1.0]]), np.array([1.0]))

    def singular(*args, **kwargs):
        raise SingularSystem("refused")

    monkeypatch.setattr(shadow_walk, "make_facet", singular)
    rows, levels = sections._margin_rows(ConvexHull(square).equations, axis_plane(2))
    with pytest.raises(NumericFailure, match="margin LP: refused"):
        sections._max_margin(rows, levels)


# ---------------------------------------------------------------------------
# the cut driver above d = 4 against HiGHS


@pytest.mark.parametrize("d", [5, 6, 8])
def test_cut_driver_matches_highs(d):
    """interior_point_in_slice and the vertex-form LP over every point,
    solved by HiGHS, give the same None verdicts on smoothed clouds that the
    plane crosses, grazes or misses, on the axis plane and on random planes,
    and the same x0 wherever HiGHS's optimum is unique."""
    clouds = [_cloud(kind, d, case) for kind in ("smoothed", "grazing", "missed")
              for case in range(6)]
    empty = unique = 0
    for i, (points, plane) in enumerate(clouds):
        x0 = interior_point_in_slice(points, plane)
        ref = highs_vertex_margin(points, plane)
        assert (x0 is None) == (sections._slice_point(ref, plane) is None), i
        if x0 is None:
            empty += 1
            continue
        a_eq, b_eq, nvar = margin_constraints(points, plane)
        if _x0_is_unique(ref[2], np.zeros((0, nvar)), np.zeros(0), A_eq=a_eq, b_eq=b_eq,
                         bounds=[(None, None)] * 2 + [(0.0, None)] * (nvar - 2)):
            unique += 1
            assert np.max(np.abs(x0 - sections._slice_point(ref, plane))) <= 1e-9, i
    assert 6 <= empty <= 12  # every missed cloud, and not every grazing one
    assert unique >= 6


def _unbounded_unit(*args, **kwargs):
    return phase1.UnitResult(STATUS_UNBOUNDED, None, 0, 1)


def test_cut_driver_raises_when_a_unit_program_is_unbounded(monkeypatch):
    # The centroid is interior at full rank, so every ray from it leaves
    # the hull through a facet: an unbounded unit program is a numeric fault.
    monkeypatch.setattr(phase1, "solve_unit", _unbounded_unit)
    points = gaussian(derive_rng(712), (60, 6))
    with pytest.raises(NumericFailure, match="margin LP: unit program unbounded"):
        interior_point_in_slice(points, SweepPlane.axis(6))


def test_cut_driver_raises_when_a_cut_comes_back(monkeypatch):
    # A master that drops its cuts returns the same optimum, so the next
    # round's cuts are all rows it already holds.
    real = sections._margin_rows
    monkeypatch.setattr(sections, "_margin_rows",
                        lambda equations, plane: real(equations[:4], plane))
    points = gaussian(derive_rng(712), (60, 6))
    with pytest.raises(NumericFailure, match="already in the master cuts again"):
        interior_point_in_slice(points, SweepPlane.axis(6))


# ---------------------------------------------------------------------------
# edge counting


def test_section_edges_square(square, axis_plane):
    report = section_edges(square, axis_plane(2), rng=704)
    assert not report.degenerate
    assert report.edge_count == 4
    assert len(report.facets) == 4


def test_section_edges_reports_degenerate():
    rng = derive_rng(705)
    points = gaussian(rng, (10, 3)) + np.array([0.0, 0.0, 25.0])
    report = section_edges(points, SweepPlane.axis(3), rng=706)
    assert report.degenerate
    assert report.edge_count == 0
    assert report.interior_point is None
    assert report.facets == []


@pytest.mark.parametrize("first", [False, True])
def test_point_inside_a_hull_edge_is_not_counted(square, axis_plane, first):
    # (1, 0.3) lies inside the square's edge x = 1; the count must not
    # depend on whether it comes first or last.  The brute-force oracle
    # counts every supporting pair (6 here), so it is no reference.
    extra = np.array([[1.0, 0.3]])
    points = np.vstack([extra, square] if first else [square, extra])
    report = section_edges(points, axis_plane(2), rng=716)
    assert report.edge_count == len(ConvexHull(points).vertices) == 4


def test_section_edges_translation_consistency(square, axis_plane):
    plane = axis_plane(2)
    base = section_edges(square, plane, rng=707)
    shifted = section_edges(square + np.array([0.25, -0.4]), plane, rng=707)
    assert base.edge_count == shifted.edge_count == 4


def test_section_edges_match_bruteforce_on_random_hulls():
    """Differential test: the sweeping counter and the subset-enumeration
    counter agree edge-for-edge on generic 3-d hulls."""
    checked = 0
    for case in range(30):
        stream = derive_rng(708, case)
        n = int(stream.integers(4, 11))
        points = gaussian(derive_rng(708, case, 1), (n, 3))
        points += 0.3 * gaussian(derive_rng(708, case, 2), (3,))
        plane = SweepPlane.axis(3)
        report = section_edges(points, plane, rng=sub_seed(708, case, 3),
                               validate=True)
        walked = 0 if report.degenerate else report.edge_count
        brute = section_edge_count_bruteforce(points, plane)
        assert walked == brute
        checked += 1
    assert checked == 30


def test_section_edges_match_bruteforce_on_small_planar_clouds():
    """The margin LP's optimal vertex often puts a slice vertex on one of its
    corner directions x0 +- eps*basis1, x0 +- eps*basis2; the sweep must
    start off those rays on every cloud."""
    plane = SweepPlane.axis(2)
    n = 20
    for s in range(300):
        points = gaussian(derive_rng(900, n, s), (n, 2))
        report = section_edges(points, plane, rng=s)
        assert not report.degenerate
        assert report.edge_count == section_edge_count_bruteforce(points, plane), s


@pytest.mark.parametrize("k", [4, 8, 12])
def test_section_edges_regular_polygon_with_vertex_on_start_ray(k):
    # Centered at the origin, so x0 = 0 and the start ray q(theta0) passes
    # through a vertex: the facet before it exits at theta0 itself.
    points, plane = _regular_polygon(k)
    for seed in range(3):
        report = section_edges(points, plane, rng=seed, validate=True)
        assert report.edge_count == k, seed


def test_section_edges_raises_numeric_failure_when_unit_unbounded(monkeypatch):
    # Without a hull (d = 6) Phase I finds the start facet.  The origin is
    # interior after recentering, so an unbounded unit program contradicts
    # exact arithmetic.  The margin LP keeps its real x0, so only the
    # start-facet search meets the failing Phase I.
    points = gaussian(derive_rng(712), (60, 6))
    plane = SweepPlane.axis(6)
    x0 = interior_point_in_slice(points, plane)
    monkeypatch.setattr(sections, "interior_point_in_slice", lambda *args: x0)
    monkeypatch.setattr(phase1, "solve_unit", _unbounded_unit)
    with pytest.raises(NumericFailure, match="sweep start"):
        section_edges(points, plane, rng=712)


def test_section_edges_raises_numeric_failure_when_no_hull_facet_qualifies(monkeypatch):
    # On the hull path a start facet that make_facet refuses is skipped; when
    # every simplex ahead of q(theta0) is refused, the sweep cannot start.
    def singular(*args, **kwargs):
        raise SingularSystem("refused")

    monkeypatch.setattr(sections, "make_facet", singular)
    points = gaussian(derive_rng(717), (50, 3))
    with pytest.raises(NumericFailure, match="sweep start"):
        section_edges(points, SweepPlane.axis(3), rng=717)


def test_section_report_shape():
    report = SectionReport(edge_count=0, interior_point=None, facets=[],
                           degenerate=True)
    assert report.degenerate and report.edge_count == 0
