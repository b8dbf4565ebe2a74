"""Planar sections of random polytopes.

The number of pivot steps of a shadow-vertex walk is at most the number of
edges of the polygon P intersect E, where E is the sweep plane.  This module
counts those edges directly: it finds a point x0 deep inside the slice,
recenters there, finds the start facet facet(q(theta0)) pierced by the ray
q(theta0), and sweeps the full circle; each distinct facet in the trace
contributes exactly one edge.

When d <= 4 one Qhull hull per section serves all three stages: x0 comes
from the margin LP written over its facet equations, the start facet is the
first of its facets along q(theta0) that the walk's pierce test accepts, and
the sweep runs on its vertices, since Conv(points) = Conv(hull vertices).
Above d = 4 the margin LP takes every point (interior_point_in_slice) and
Phase I finds the start facet.  A set that spans no full-dimensional hull
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
from .shadow_walk import WalkStateError, exit_angle, sweep_full

# Largest d at which a section runs on one Qhull hull.  Margin LP over every
# point against Qhull + facet-form margin LP, Gaussian points (2-vCPU host):
# d=2, n=3000: 82 vs 0.7 + 1.7 ms; d=3, n=1e4: 402 vs 2.9 + 2.4 ms; d=4,
# n=1e4: 431 vs 8.4 + 5.4 ms.  d=5 breaks even at n=100 (7.9 vs 3.1 + 5.2
# ms); Qhull alone costs more than the full LP at d=6, n=300 (45 vs 19 ms)
# and d=8, n=100 (412 vs 9 ms), where the hull has 6877 and 34920 facets.
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


def _slice_point(res, plane):
    """x0 = s b1 + t b2 from a margin LP's result over (s, t, eps, ...), or
    None when the LP failed or its margin eps is at most Tolerance.band."""
    if not res.success or float(res.x[2]) <= DEFAULT_TOL.band:
        return None
    return float(res.x[0]) * plane.basis1 + float(res.x[1]) * plane.basis2


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
    return _slice_point(res, plane)


def _hull(points):
    """Qhull's hull of the points; None when Qhull refuses a flat or too
    small set."""
    try:
        return ConvexHull(points)
    except QhullError:
        return None


def _hull_interior_point(hull, plane):
    """interior_point_in_slice written over the hull's facets n.x + c <= 0:
    x0 + eps*v lies inside for all four v in {+-b1, +-b2} exactly when
    (n.b1) s + (n.b2) t + max(|n.b1|, |n.b2|) eps <= -c on every facet."""
    normals, offsets = hull.equations[:, :-1], hull.equations[:, -1]
    nb1 = normals @ plane.basis1
    nb2 = normals @ plane.basis2
    rows = np.column_stack([nb1, nb2, np.maximum(np.abs(nb1), np.abs(nb2))])
    res = milp(np.array([0.0, 0.0, -1.0]),
               constraints=LinearConstraint(rows, -np.inf, -offsets),
               bounds=Bounds([-np.inf, -np.inf, 0.0], np.inf))
    return _slice_point(res, plane)


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
