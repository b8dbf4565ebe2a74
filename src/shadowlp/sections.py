"""Planar sections of random polytopes.

The number of pivot steps of a shadow-vertex walk is at most the number of
edges of the polygon P intersect E, where E is the sweep plane.  This module
counts those edges directly: it finds a point x0 deep inside the slice,
recenters there, asks Phase I for the facet pierced by q(0), and sweeps the
full circle; each distinct facet in the trace contributes exactly one edge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from . import phase1
from .geometry import DEFAULT_TOL
from .interpolate import NumericFailure
from .shadow_walk import sweep_full

_MARGIN_FLOOR = 10.0  # times eps_feas: below this the slice is Degenerate


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


def _margin_stage(points, plane, objective_index, sense, eps_min=0.0, s_max=None):
    """One lexicographic stage: optimize a single coordinate of (s, t, eps)
    subject to the margin constraints, eps >= eps_min, optionally s <= s_max.
    sense is +1 to minimize, -1 to maximize."""
    a_eq, b_eq, nvar = _margin_constraints(points, plane)
    n = (nvar - 3) // 4
    c = np.zeros(nvar)
    c[objective_index] = float(sense)
    a_ub = b_ub = None
    if s_max is not None:
        row = np.zeros(nvar)
        row[0] = 1.0
        a_ub, b_ub = row[None, :], np.array([s_max])
    bounds = [(None, None), (None, None), (eps_min, None)] + [(0, None)] * (4 * n)
    return linprog(c, A_eq=a_eq, b_eq=b_eq, A_ub=a_ub, b_ub=b_ub,
                   bounds=bounds, method="highs")


def interior_point_in_slice(points, plane, tol=DEFAULT_TOL):
    """Point x0 in the plane maximizing the inradius margin: the largest eps
    with x0 +- eps*basis1 and x0 +- eps*basis2 all inside Conv(points).
    Returns None (Degenerate) when the slice is empty or its margin is below
    10 * eps_feas.  Among margin maximizers the (s, t) coordinates are
    minimized lexicographically so the result is unique and translates
    exactly with the points."""
    res = _margin_stage(points, plane, objective_index=2, sense=-1)
    if not res.success:
        return None
    margin = float(res.x[2])
    if margin <= _MARGIN_FLOOR * tol.eps_feas:
        return None
    slack = tol.eps_feas
    res2 = _margin_stage(points, plane, objective_index=0, sense=1, eps_min=margin - slack)
    if not res2.success:
        return None
    res3 = _margin_stage(points, plane, objective_index=1, sense=1,
                         eps_min=margin - slack, s_max=float(res2.x[0]) + slack)
    if not res3.success:
        return None
    s, t = float(res3.x[0]), float(res3.x[1])
    return s * plane.basis1 + t * plane.basis2


def convex_membership(points, x, tol=DEFAULT_TOL):
    """Independent re-check: is x a convex combination of the points?"""
    points = np.asarray(points, dtype=float)
    n, d = points.shape
    a_eq = np.vstack([points.T, np.ones(n)])
    b_eq = np.append(np.asarray(x, dtype=float), 1.0)
    res = linprog(np.zeros(n), A_eq=a_eq, b_eq=b_eq,
                  bounds=[(0, None)] * n, method="highs")
    return bool(res.success)


def section_edges(points, plane, rng=None, tol=DEFAULT_TOL, validate=False):
    """Count the edges of Conv(points) intersect E by a full shadow sweep.

    Recenter at the slice's interior point, get the starting facet
    facet(q(0)) from Phase I, sweep the circle, and count distinct facets in
    the trace.  A slice with margin below 10 * eps_feas (or no slice at all)
    is reported as degenerate with edge_count 0."""
    points = np.asarray(points, dtype=float)
    x0 = interior_point_in_slice(points, plane, tol)
    if x0 is None:
        return SectionReport(edge_count=0, interior_point=None, facets=[], degenerate=True)
    shifted = points - x0
    unit = phase1.solve_unit(shifted, plane.basis1, rng=rng, tol=tol, validate=validate)
    if unit.status != phase1.OPTIMAL:
        raise NumericFailure("sweep start: unit program unbounded despite interior origin")
    outcome = sweep_full(shifted, plane, unit.facet, 0.0, tol=tol, validate=validate)
    facets = outcome.distinct_facets()
    return SectionReport(edge_count=len(facets), interior_point=x0,
                         facets=facets, degenerate=False)
