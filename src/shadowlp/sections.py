"""Planar sections of random polytopes.

The number of pivot steps of a shadow-vertex walk is at most the number of
edges of the polygon P intersect E, where E is the sweep plane.  This module
counts those edges directly: it finds a point x0 deep inside the slice,
recenters there, finds the start facet facet(q(theta0)) pierced by the ray
q(theta0), and sweeps the full circle; each distinct facet in the trace
contributes exactly one edge.

When d <= 4 one Qhull hull of the candidate rows per section serves all
three stages.  The candidate rows are those that may be hull vertices: at
the d and n of _PREFILTER_MIN_ROWS (d = 2, thousands of rows), the rows
outside two triangles of extreme rows (_candidate_rows); otherwise every
row.  x0 comes from the margin LP written over the hull's facet
equations, three columns that the walk's own pivots solve under Bland's
rule (shadow_walk.climb), the start facet is the first of its facets along
q(theta0) that the walk's pierce test accepts, and the sweep runs on its
vertices, since Conv(points) = Conv(hull vertices).  Above d = 4 the same
three-column LP runs over cuts (interior_point_in_slice): Kelley's
cutting-plane method, with Phase I as the separation oracle that names a
facet of the hull beyond each margin point, and Phase I finds the start
facet.  A set that spans no
full-dimensional hull (Qhull refuses it, or its centred rank is below d) is
a degenerate section: recentred at a point of its slice, it lies in a
linear subspace of dimension below d, so every basis of d rows is singular.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from . import phase1
from .geometry import (DEFAULT_TOL, FacetIndexSet, PointSet, SingularSystem, make_facet,
                       solve_linear, vector_norm)
from .interpolate import NumericFailure
from .shadow_walk import WalkStateError, climb, exit_angle, sweep_full

# Largest d at which a section runs on one Qhull hull.  Whole sections, hull
# path against cut path (interior_point_in_slice, then Phase I for the start
# facet), medians of 5 clouds (each the median of 3 interleaved runs) in ms,
# Gaussian/smoothed (sigma=0.1) points, 2-vCPU host: d=4, n=1000: 3.1/6.4 vs
# 10.8/14.4; d=4, n=1e4: 8.0/24 vs 26/40; d=5, n=100: 3.6/9.0 vs 12.2/14.5;
# d=5, n=1000: 16.5/51 vs 19.1/20.8; d=5, n=3000: 22/105 vs 24.5/25.2; d=6,
# n=100: 11.9/27 vs 11.4/11.6; d=6, n=300: 46/139 vs 16.6/22.5.  Forcing the
# prefilter (_PREFILTER_MIN_ROWS) moves these hull-path times by -6% to
# +17%: from d = 4 on it drops too few rows to pay.  On smoothed points,
# the model of the section experiments, the hull's facet count grows fast
# with n, so from d=5 on the cut path wins there from n=1000 up; d=5 stays
# off the hull path.
_HULL_MAX_DIM = 4
# Fewest rows, by d, from which section_edges hands Qhull only the rows
# that may be hull vertices (_candidate_rows); at any other d it hands it
# every row.  Whole sections, prefilter against none, medians over clouds of
# the per-cloud time ratio, 9-15 interleaved repetitions, 2-vCPU host:
# d=2, Gaussian: n=1000: 1.03, 1500: 1.03, 2000: 0.89, 2500: 0.78, 3000:
# 0.81, 1e4: 0.48; smoothed (sigma=0.1): 2000: 1.03, 2500: 0.97, 3000: 0.98,
# 1e4: 0.97.  At d = 3 and 4 the simplices hold few rows of a smoothed
# cloud, the model of the section experiments: d=3, n=1000: 1.06, n=1e4:
# 1.03; d=4, n=1000: 1.03 (Gaussian d=3: 1.04 and 0.72; d=4: 1.05 and 0.92).
_PREFILTER_MIN_ROWS = {2: 2500}
# Not a multiple of pi/4: the margin LP's corner directions (multiples of
# pi/2) and the diagonals of symmetric fixtures stay off the start ray.
_THETA0 = 1.0
# Phase-I seed of interior_point_in_slice's separation oracle: fixed, so x0
# is a function of (points, plane).
_SEPARATION_SEED = 0


@dataclass
class SectionReport:
    edge_count: int
    interior_point: np.ndarray | None
    facets: list
    degenerate: bool


def _slice_point(y, plane):
    """x0 = s b1 + t b2 from a margin LP's optimum y = (s, t, eps, ...), or
    None when it has none or its margin eps is at most Tolerance.band."""
    if y is None or float(y[2]) <= DEFAULT_TOL.band:
        return None
    return float(y[0]) * plane.basis1 + float(y[1]) * plane.basis2


def interior_point_in_slice(points, plane):
    """Point x0 in the plane maximizing the inradius margin: the largest eps
    with x0 +- eps*basis1 and x0 +- eps*basis2 all inside Conv(points).
    Returns None (Degenerate) when the slice is empty, its margin is at most
    Tolerance.band, or the centred rank of the points is below d.

    Kelley's cutting planes over the three-column margin LP (_max_margin),
    starting from the four extent rows <+-basis_k, x> <= max_i <+-basis_k,
    p_i>.  For each margin point of the master's optimum, Phase I over the
    points less their centroid c (interior at full rank) returns the facet
    pierced by the ray toward it; a facet h with <h, x - c> > 1 + eps_feas
    there becomes the hull row [h, -1 - h.c].  A round that cuts nothing
    ends the loop.  When several points attain the margin, the vertex the
    cuts reach decides among them; Phase I draws from a fixed seed, so x0
    is a function of (points, plane).  Raises NumericFailure when Phase I
    finds a unit program unbounded or a round cuts only with rows already
    in the master."""
    points = np.asarray(points, dtype=float)
    centre = points.mean(axis=0)
    centred = points - centre
    if np.linalg.matrix_rank(centred) < points.shape[1]:
        return None
    directions = np.array([plane.basis1, -plane.basis1, plane.basis2, -plane.basis2])
    extents = np.column_stack([directions, -(points @ directions.T).max(axis=0)])
    cuts = {}  # facet indices -> hull row, in the order the rounds found them
    while True:
        y = _max_margin(*_margin_rows(np.vstack([extents, *cuts.values()]), plane))
        x0 = _slice_point(y, plane)
        if x0 is None:
            return None
        found = {}
        for target in x0 + y[2] * directions - centre:
            unit = phase1.solve_unit(centred, target, rng=_SEPARATION_SEED)
            if unit.status != phase1.OPTIMAL:
                raise NumericFailure("margin LP: unit program unbounded despite interior centroid")
            h = unit.facet.normal
            if h @ target > 1.0 + DEFAULT_TOL.eps_feas:
                found[unit.facet.indices] = np.append(h, -1.0 - h @ centre)
        if not found:
            return x0
        if found.keys() <= cuts.keys():
            raise NumericFailure("margin LP: a facet already in the master cuts again")
        cuts.update((k, row) for k, row in found.items() if k not in cuts)


def _candidate_rows(points):
    """The rows of points that may be vertices of Conv(points), ascending:
    all rows less those strictly inside one of 2^(d-1) simplices of extreme
    rows (the prefilter of Akl and Toussaint, 1978).  Each simplex has the
    rows of least and of greatest first coordinate and, for each further
    axis k, the row of least or of greatest k-th coordinate; at d = 2 its
    two triangles tile the quadrilateral of the four extremes.  Each simplex
    lies in Conv(points), so a row whose d + 1 barycentric coordinates in
    one of them all exceed eps_feas is no hull vertex; barycentric
    coordinates are affine-invariant, so the band needs no scale.  A
    simplex that solve_linear finds singular drops nothing.  Every row is
    kept when an extreme row is not finite: any NaN or infinite entry is
    then one of the extremes, and Qhull refuses the set as it would
    without the filter."""
    n, d = points.shape
    # Lifted rows (p, 1), one contiguous row per coordinate: the extremes
    # reduce contiguous rows, and a simplex's barycentric coordinates are
    # one product with the inverse of its lifted vertex columns.
    lifted = np.ones((d + 1, n))
    lifted[:d] = points.T
    corners = lifted[:, np.concatenate([lifted[:d].argmin(axis=1), lifted[:d].argmax(axis=1)])]
    if not np.isfinite(corners).all():
        return np.arange(n)
    # Corner k is the least row along e_k and corner d + k the greatest;
    # simplex s takes the greatest along e_k when bit k - 1 of s is set.
    picks = [[0, d] + [k + d * ((s >> (k - 1)) & 1) for k in range(1, d)]
             for s in range(1 << (d - 1))]
    inside = np.zeros(n, dtype=bool)
    for simplex in corners[:, picks].transpose(1, 0, 2):
        try:
            inverse = solve_linear(simplex, np.eye(d + 1))
        except SingularSystem:
            continue
        inside |= (inverse @ lifted).min(axis=0) > DEFAULT_TOL.eps_feas
    return (~inside).nonzero()[0]


def _hull(points):
    """Qhull's hull of the points; None when Qhull refuses a flat or too
    small set."""
    try:
        return ConvexHull(points)
    except QhullError:
        return None


def _margin_rows(equations, plane):
    """The margin LP written over hull equations [n, c], facets n.x + c <= 0:
    x0 + eps*v lies inside for all four v in {+-b1, +-b2} exactly when
    (n.b1) s + (n.b2) t + max(|n.b1|, |n.b2|) eps <= -c on every facet.
    Returns the rows R_i = (n.b1, n.b2, k_i) and the levels r_i = -c_i."""
    normals, offsets = equations[:, :-1], equations[:, -1]
    nb1 = normals @ plane.basis1
    nb2 = normals @ plane.basis2
    return np.column_stack([nb1, nb2, np.maximum(np.abs(nb1), np.abs(nb2))]), -offsets


def _advance(rows, levels, y, direction):
    """Move y along the direction until one more row becomes active: among
    the rows with <R_k, u> > eps_feas for the unit direction u, the
    smallest step, ties to the smallest index.  The direction lies in the
    null space of the rows already active, so none of them is a candidate.
    Returns the moved y and the new row's index; raises NumericFailure when
    no row blocks the ray."""
    u = direction / vector_norm(direction)
    den = rows @ u
    cand = (den > DEFAULT_TOL.eps_feas).nonzero()[0]
    if not cand.size:
        raise NumericFailure("margin LP: unbounded ray")
    steps = (levels[cand] - rows[cand] @ y) / den[cand]
    m = int(steps.argmin())  # first occurrence: smallest index on a tie
    return y + steps[m] * u, int(cand[m])


def _max_margin(rows, levels):
    """Maximize eps over R y <= r, y = (s, t, eps), by the walk's own pivots.
    Returns the optimal y, or None when a row with no component in the
    plane (k = 0) has r < 0: the plane misses the hull.

    Other k = 0 rows constrain nothing and are dropped.  eps is free, so
    (0, 0, min r_i/k_i) is feasible.  Two moves make three rows active: the
    first keeps eps and the second runs along the line of the two active
    rows, oriented not to lower it.  climb runs Bland's rule from that
    vertex.  A singular basis or an unbounded step raises NumericFailure; a
    repeated basis raises CycleSuspected."""
    flat = rows[:, 2] == 0.0
    if (levels[flat] < 0.0).any():
        return None
    rows, levels = rows[~flat], levels[~flat]
    depths = levels / rows[:, 2]
    first = int(depths.argmin())
    a, b, c = rows[first].tolist()
    y, second = _advance(rows, levels, np.array([0.0, 0.0, depths[first]]),
                         np.array([b, -a, 0.0]))
    # np.cross(rows[first], rows[second]), term by term as numpy evaluates it.
    e, f, g = rows[second].tolist()
    line = np.array([b * g - c * f, c * e - a * g, a * f - b * e])
    _, third = _advance(rows, levels, y, line if line[2] >= 0.0 else -line)
    try:
        top = climb(PointSet(rows, levels), [first, second, third])
    except SingularSystem as exc:
        raise NumericFailure(f"margin LP: {exc}") from exc
    if top is None:
        raise NumericFailure("margin LP: unbounded pivot")
    return top.normal


def _hull_interior_point(hull, plane):
    """interior_point_in_slice over the hull's facets (_margin_rows), solved
    by _max_margin.  When several points attain the margin, the vertex
    Bland's rule reaches decides among them."""
    return _slice_point(_max_margin(*_margin_rows(hull.equations, plane)), plane)


def _hull_start_facet(hull, keep, shifted, x0, plane):
    """facet(q(theta0)) of the PointSet of shifted hull rows, read off the
    hull's simplices: among those with n.q > 0, in ascending exit distance
    t = -(c + n.x0) / n.q, the first that make_facet accepts and that
    exit_angle finds pierced at theta0, the pierce test the walk applies.
    Raises NumericFailure when none qualifies."""
    q = plane.q(_THETA0)
    normals, offsets = hull.equations[:, :-1], hull.equations[:, -1]
    toward = normals @ q
    ahead = (toward > 0.0).nonzero()[0]
    exits = -(offsets[ahead] + normals[ahead] @ x0) / toward[ahead]
    for k in ahead[exits.argsort(kind="stable")]:
        # keep ascends, so searchsorted maps point rows to shifted rows.
        indices = keep.searchsorted(hull.simplices[k]).tolist()
        try:
            facet = make_facet(shifted, indices)
            exit_angle(facet, plane, _THETA0)
        except (SingularSystem, WalkStateError):
            continue
        return facet
    raise NumericFailure("sweep start: no hull facet is pierced by q(theta0)")


def section_edges(points, plane, rng=None, validate=False):
    """Count the edges of Conv(points) intersect E by a full shadow sweep.

    Recenter at the slice's interior point, find the starting facet
    facet(q(theta0)), sweep the circle from theta0, and count distinct
    facets in the trace.  A slice with margin at most Tolerance.band (or no
    slice at all), and a set that spans no full-dimensional hull, are
    reported as degenerate with edge_count 0.

    When d <= 4 and Qhull accepts the points, one hull serves every stage:
    the margin LP runs over its facet equations, the start facet is one of
    its simplices, and the sweep sees only its vertices.  Qhull gets only
    the rows that may be hull vertices (_candidate_rows, at the d and n of
    _PREFILTER_MIN_ROWS), which has the same vertices.  The count is then
    the number of geometric edges of the slice: a point inside a hull edge
    or face never becomes a facet member, and the count does not depend on
    row order.  Above d = 4 the margin LP runs over cuts that Phase I
    finds (interior_point_in_slice, which seeds its own Phase I), and a
    Phase I seeded by ``rng``, an int seed or None, finds the start facet;
    the hull path draws no random numbers.  Facet indices refer to the
    rows of ``points``; of duplicate rows, any copy may be the one
    reported."""
    points = np.asarray(points, dtype=float)
    d = points.shape[1]
    hull = None
    if d <= _HULL_MAX_DIM:
        rows, candidates = np.arange(len(points)), points
        if len(points) >= _PREFILTER_MIN_ROWS.get(d, np.inf):
            rows = _candidate_rows(points)
            candidates = points[rows]
        hull = _hull(candidates)
    if hull is not None:
        # The hull numbers the rows it was given: vertices in its numbering,
        # keep in that of points.  Both ascend, as rows does.
        vertices = np.sort(hull.vertices)
        keep = rows[vertices]
        x0 = _hull_interior_point(hull, plane)
    elif d > _HULL_MAX_DIM:
        keep = np.arange(len(points))
        x0 = interior_point_in_slice(points, plane)
    else:
        x0 = None  # no full-dimensional hull
    if x0 is None:
        return SectionReport(edge_count=0, interior_point=None, facets=[], degenerate=True)
    shifted = PointSet(points[keep] - x0)
    if hull is None:
        unit = phase1.solve_unit(shifted.points, plane.q(_THETA0), rng=rng, validate=validate)
        if unit.status != phase1.OPTIMAL:
            raise NumericFailure("sweep start: unit program unbounded despite interior origin")
        start = unit.facet
    else:
        start = _hull_start_facet(hull, vertices, shifted, x0, plane)
    outcome = sweep_full(shifted, plane, start, _THETA0, validate=validate)
    # keep ascends, so the mapped indices stay sorted and the columns of
    # each facet's inverse stay aligned with them.
    facets = [FacetIndexSet(tuple(keep[list(f.indices)].tolist()), f.normal, f.inverse, f.updates)
              for f in outcome.distinct_facets()]
    return SectionReport(edge_count=len(facets), interior_point=x0,
                         facets=facets, degenerate=False)
