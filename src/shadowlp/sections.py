"""Planar sections of random polytopes.

The number of pivot steps of a shadow-vertex walk is at most the number of
edges of the polygon P intersect E, where E is the sweep plane.  This module
counts those edges directly: it finds a point x0 deep inside the slice,
recenters there, asks Phase I for the facet pierced by q(theta0), and sweeps
the full circle; each distinct facet in the trace contributes exactly one edge.
Since Conv(points) = Conv(hull vertices), all three stages (the margin LP
that places x0, Phase I and the sweep) run on the Qhull hull vertices when
d <= 4, computed once per section.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.spatial import ConvexHull, QhullError

from . import phase1
from .geometry import DEFAULT_TOL
from .interpolate import NumericFailure
from .shadow_walk import sweep_full

# Largest d at which a section runs on the hull vertices only.  Full LP
# against Qhull + reduced LP on Gaussian points (2-vCPU host): d=2, n=3000:
# 98 vs 0.7 + 3.0 ms; d=3, n=1e4: 408 vs 3.4 + 5.4 ms; d=4, n=1e4: 496 vs
# 8.2 + 9.7 ms.  d=5 breaks even at n=100; Qhull alone costs more than the
# full LP at d=6, n=300 (49 vs 20 ms) and d=8, n=100 (615 vs 11 ms).
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


def interior_point_in_slice(points, plane):
    """Point x0 in the plane maximizing the inradius margin: the largest eps
    with x0 +- eps*basis1 and x0 +- eps*basis2 all inside Conv(points).
    Returns None (Degenerate) when the slice is empty or its margin is at
    most Tolerance.band.  When several points attain the margin, the optimal
    vertex HiGHS returns decides among them.  The LP takes one column block
    per given point; section_edges hands it the hull vertices when d <= 4."""
    a_eq, b_eq, nvar = _margin_constraints(points, plane)
    c = np.zeros(nvar)
    c[2] = -1.0
    lower = np.zeros(nvar)
    lower[:2] = -np.inf
    res = milp(c, constraints=LinearConstraint(a_eq, b_eq, b_eq),
               bounds=Bounds(lower, np.inf))
    if not res.success or float(res.x[2]) <= DEFAULT_TOL.band:
        return None
    return float(res.x[0]) * plane.basis1 + float(res.x[1]) * plane.basis2


def _hull_rows(points):
    """Ascending row indices of the hull vertices when d <= 4; every row when
    d > 4 or Qhull refuses a flat or too small set."""
    if points.shape[1] <= _HULL_MAX_DIM:
        try:
            return np.sort(ConvexHull(points).vertices)
        except QhullError:
            pass
    return np.arange(len(points))


def section_edges(points, plane, rng=None, validate=False):
    """Count the edges of Conv(points) intersect E by a full shadow sweep.

    Recenter at the slice's interior point, get the starting facet
    facet(q(theta0)) from Phase I, sweep the circle from theta0, and count
    distinct facets in the trace.  A slice with margin at most Tolerance.band
    (or no slice at all) is reported as degenerate with edge_count 0.

    When d <= 4 all three stages see only the hull vertices, so the count
    is the number of geometric edges of the slice: a point inside a hull
    edge or face never becomes a facet member, and the count does not depend
    on row order.  Facet indices refer to the rows of ``points``; of
    duplicate rows, any copy may be the one reported."""
    points = np.asarray(points, dtype=float)
    keep = _hull_rows(points)
    hull = points[keep]
    x0 = interior_point_in_slice(hull, plane)
    if x0 is None:
        return SectionReport(edge_count=0, interior_point=None, facets=[], degenerate=True)
    shifted = hull - x0
    unit = phase1.solve_unit(shifted, plane.q(_THETA0), rng=rng, validate=validate)
    if unit.status != phase1.OPTIMAL:
        raise NumericFailure("sweep start: unit program unbounded despite interior origin")
    outcome = sweep_full(shifted, plane, unit.facet, _THETA0, validate=validate)
    # keep ascends, so the mapped indices stay sorted and the columns of
    # each facet's inverse and scales stay aligned with them.
    facets = [replace(f, indices=tuple(int(keep[i]) for i in f.indices))
              for f in outcome.distinct_facets()]
    return SectionReport(edge_count=len(facets), interior_point=x0,
                         facets=facets, degenerate=False)
