"""Planar sections of random polytopes.

The number of pivot steps of a shadow-vertex walk is at most the number of
edges of the polygon P intersect E, where E is the sweep plane.  This module
counts those edges directly: it finds a point x0 deep inside the slice,
recenters there, finds the start facet facet(q(theta0)) pierced by the ray
q(theta0), and sweeps the full circle; each distinct facet in the trace
contributes exactly one edge.

When d <= 4 one Qhull hull per section serves all three stages: x0 comes
from the margin LP written over its facet equations, three columns that the
walk's own pivots solve under Bland's rule (shadow_walk.climb), the start
facet is the first of its facets along q(theta0) that the walk's pierce
test accepts, and the sweep runs on its vertices, since Conv(points) =
Conv(hull vertices).  Above d = 4 the margin LP takes every point
(interior_point_in_slice, solved by HiGHS) and Phase I finds the start
facet.  A set that spans no full-dimensional hull
(Qhull refuses it, or above d = 4 its centred rank is below d) is a
degenerate section: recentred at a point of its slice, it lies in a linear
subspace of dimension below d, so every basis of d rows is singular.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.spatial import ConvexHull, QhullError

from . import phase1
from .geometry import DEFAULT_TOL, SingularSystem, make_facet
from .interpolate import NumericFailure
from .shadow_walk import WalkStateError, climb, exit_angle, sweep_full

# Largest d at which a section runs on one Qhull hull.  Margin LP over every
# point against Qhull + facet-form margin LP by climb (by HiGHS on the same
# rows in brackets), Gaussian points, medians of 5 clouds (2-vCPU host):
# d=2, n=3000: 98 vs 1.1 + 0.32 (2.3) ms; d=3, n=1e4: 413 vs 3.7 + 0.23
# (2.5) ms; d=4, n=1e4: 493 vs 8.2 + 0.37 (5.1) ms; d=5, n=100: 7.5 vs 3.5
# + 0.49 (5.0) ms; d=5, n=1000: 50 vs 15.6 + 0.50 (11.5) ms.  Qhull alone
# costs more than the full LP at d=6, n=300 (49 vs 18 ms) and d=8, n=100
# (647 vs 9 ms), where the hull has 7538 and 43180 facets.  d=5 stays off
# the hull path until the start-facet search and the sweep on its hull are
# timed.
_HULL_MAX_DIM = 4
# Not a multiple of pi/4: the margin LP's corner directions (multiples of
# pi/2) and the diagonals of symmetric fixtures stay off the start ray.
_THETA0 = 1.0


@dataclass
class SectionReport:
    edge_count: int
    interior_point: np.ndarray | None
    facets: list
    degenerate: bool


def _margin_constraints(points, plane):
    """Equality block of the auxiliary program over (s, t, eps, mu^1..mu^4):
    x0 = s b1 + t b2, and x0 + eps * v_j must be a convex combination of the
    points for v_j in {+b1, -b1, +b2, -b2}, with mu^j >= 0."""
    points = np.asarray(points, dtype=float)
    n, d = points.shape
    b1, b2 = plane.basis1, plane.basis2
    nvar = 3 + 4 * n
    a_eq = np.zeros((4 * (d + 1), nvar))
    b_eq = np.zeros(4 * (d + 1))
    for j, v in enumerate([b1, -b1, b2, -b2]):
        r0 = j * (d + 1)
        cols = slice(3 + j * n, 3 + (j + 1) * n)
        a_eq[r0:r0 + d, cols] = points.T
        a_eq[r0:r0 + d, 0] = -b1
        a_eq[r0:r0 + d, 1] = -b2
        a_eq[r0:r0 + d, 2] = -v
        a_eq[r0 + d, cols] = 1.0
        b_eq[r0 + d] = 1.0
    return a_eq, b_eq, nvar


def _slice_point(y, plane):
    """x0 = s b1 + t b2 from a margin LP's optimum y = (s, t, eps, ...), or
    None when it has none or its margin eps is at most Tolerance.band."""
    if y is None or float(y[2]) <= DEFAULT_TOL.band:
        return None
    return float(y[0]) * plane.basis1 + float(y[1]) * plane.basis2


def interior_point_in_slice(points, plane):
    """Point x0 in the plane maximizing the inradius margin: the largest eps
    with x0 +- eps*basis1 and x0 +- eps*basis2 all inside Conv(points).
    Returns None (Degenerate) when the slice is empty or its margin is at
    most Tolerance.band.  When several points attain the margin, the optimal
    vertex HiGHS returns decides among them.  The LP takes one column block
    per given point; section_edges calls it only when it has no hull."""
    a_eq, b_eq, nvar = _margin_constraints(points, plane)
    c = np.zeros(nvar)
    c[2] = -1.0
    lower = np.zeros(nvar)
    lower[:2] = -np.inf
    res = milp(c, constraints=LinearConstraint(a_eq, b_eq, b_eq),
               bounds=Bounds(lower, np.inf))
    return _slice_point(res.x if res.success else None, plane)


def _hull(points):
    """Qhull's hull of the points; None when Qhull refuses a flat or too
    small set."""
    try:
        return ConvexHull(points)
    except QhullError:
        return None


def _margin_rows(hull, plane):
    """interior_point_in_slice written over the hull's facets n.x + c <= 0:
    x0 + eps*v lies inside for all four v in {+-b1, +-b2} exactly when
    (n.b1) s + (n.b2) t + max(|n.b1|, |n.b2|) eps <= -c on every facet.
    Returns the rows R_i = (n.b1, n.b2, k_i) and the levels r_i = -c_i."""
    normals, offsets = hull.equations[:, :-1], hull.equations[:, -1]
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
    u = direction / np.linalg.norm(direction)
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
    if np.any(levels[flat] < 0.0):
        return None
    rows, levels = rows[~flat], levels[~flat]
    depths = levels / rows[:, 2]
    first = int(depths.argmin())
    a, b, _ = rows[first]
    y, second = _advance(rows, levels, np.array([0.0, 0.0, depths[first]]),
                         np.array([b, -a, 0.0]))
    line = np.cross(rows[first], rows[second])
    _, third = _advance(rows, levels, y, line if line[2] >= 0.0 else -line)
    try:
        top = climb(rows, [first, second, third], levels)
    except SingularSystem as exc:
        raise NumericFailure(f"margin LP: {exc}") from exc
    if top is None:
        raise NumericFailure("margin LP: unbounded pivot")
    return top.normal


def _hull_interior_point(hull, plane):
    """interior_point_in_slice over the hull's facets (_margin_rows), solved
    by _max_margin.  When several points attain the margin, the vertex
    Bland's rule reaches decides among them."""
    return _slice_point(_max_margin(*_margin_rows(hull, plane)), plane)


def _hull_start_facet(hull, keep, shifted, x0, plane):
    """facet(q(theta0)) of the shifted hull rows, read off the hull's
    simplices: among those with n.q > 0, in ascending exit distance
    t = -(c + n.x0) / n.q, the first that make_facet accepts and that
    exit_angle finds pierced at theta0, the pierce test the walk applies.
    Raises NumericFailure when none qualifies."""
    q = plane.q(_THETA0)
    normals, offsets = hull.equations[:, :-1], hull.equations[:, -1]
    toward = normals @ q
    ahead = (toward > 0.0).nonzero()[0]
    exits = -(offsets[ahead] + normals[ahead] @ x0) / toward[ahead]
    for k in ahead[np.argsort(exits, kind="stable")]:
        # keep ascends, so searchsorted maps point rows to shifted rows.
        indices = np.searchsorted(keep, hull.simplices[k]).tolist()
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
    its simplices, and the sweep sees only its vertices.  The count is then
    the number of geometric edges of the slice: a point inside a hull edge
    or face never becomes a facet member, and the count does not depend on
    row order.  Above d = 4 the margin LP runs over every point
    (interior_point_in_slice) and Phase I finds the start facet; ``rng``
    seeds Phase I and is used on that path only.  Facet indices refer to
    the rows of ``points``; of duplicate rows, any copy may be the one
    reported."""
    points = np.asarray(points, dtype=float)
    d = points.shape[1]
    hull = _hull(points) if d <= _HULL_MAX_DIM else None
    if hull is not None:
        keep = np.sort(hull.vertices)
        x0 = _hull_interior_point(hull, plane)
    elif d > _HULL_MAX_DIM and np.linalg.matrix_rank(points - points.mean(axis=0)) == d:
        keep = np.arange(len(points))
        x0 = interior_point_in_slice(points, plane)
    else:
        x0 = None  # no full-dimensional hull
    if x0 is None:
        return SectionReport(edge_count=0, interior_point=None, facets=[], degenerate=True)
    shifted = points[keep] - x0
    if hull is None:
        unit = phase1.solve_unit(shifted, plane.q(_THETA0), rng=rng, validate=validate)
        if unit.status != phase1.OPTIMAL:
            raise NumericFailure("sweep start: unit program unbounded despite interior origin")
        start = unit.facet
    else:
        start = _hull_start_facet(hull, keep, shifted, x0, plane)
    outcome = sweep_full(shifted, plane, start, _THETA0, validate=validate)
    # keep ascends, so the mapped indices stay sorted and the columns of
    # each facet's inverse and scales stay aligned with them.
    facets = [replace(f, indices=tuple(int(keep[i]) for i in f.indices))
              for f in outcome.distinct_facets()]
    return SectionReport(edge_count=len(facets), interior_point=x0,
                         facets=facets, degenerate=False)
