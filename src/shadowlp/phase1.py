"""Randomized Phase-I by constraint addition.

A unit program (all right-hand sides equal to 1) is solved by dropping a
random, far-away regular simplex of d extra constraints around a random
direction z0, so that facet(z0) is known by construction, then shadow-walking
from z0 to the true objective z.  The added block changes nothing whenever it
stays inside a numb set of the program, which happens with probability at
least 1/4 per attempt; attempts are repeated with fresh randomness until the
walk's terminal facet uses no added index.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import randgen
from .geometry import (DEFAULT_TOL, STATUS_OPTIMAL, STATUS_UNBOUNDED, FacetIndexSet,
                       NumericFailure, PointSet, SingularSystem, checked_objective,
                       make_facet, max_row_norm, vector_norm)
from .shadow_walk import SweepPlane, walk

MAX_RETRIES = 1000


class GaveUp(NumericFailure):
    """All Phase-I retries were exhausted (astronomically unlikely for
    smoothed inputs; indicates degenerate or adversarial data)."""


@dataclass
class AddedBlock:
    """One attempt: its walk's PointSet, the program's n rows and then d
    smoothed vertices of a dilated regular simplex (added_points, a view),
    the start facet over those d rows and its piercing direction z0."""

    point_set: PointSet
    facet: FacetIndexSet
    start_objective: np.ndarray

    @property
    def added_points(self):
        return self.point_set.points[self.facet.indices[0]:]


@dataclass
class UnitResult:
    status: str
    facet: object | None
    pivots_total: int
    iterations: int


@functools.cache
def simplex_vertices(d, radius):
    """Vertices of a regular (d-1)-simplex with centroid at the last
    coordinate axis unit vector and circumradius `radius`, lying in the
    affine hyperplane {x : x_d = 1}.  Returns (anchor, vertices).

    Construction: take f_i = e_i - (1/d) * ones (the centered coordinate
    frame inside the hyperplane ones-perp), scale each to norm `radius`, and
    rotate ones/sqrt(d) onto e_d.

    Every Phase-I attempt at dimension d asks for the same simplex, so each
    (d, radius) is built once per process and the same two arrays are
    returned to every caller, marked read-only."""
    anchor = np.zeros(d)
    anchor[d - 1] = 1.0
    f = np.eye(d) - np.full((d, d), 1.0 / d)
    f *= radius / math.sqrt(1.0 - 1.0 / d)
    u = np.full(d, 1.0 / math.sqrt(d))
    v = anchor
    # Rotation taking u to v, identity on the orthogonal complement of
    # span(u, v); well defined because <u, v> = 1/sqrt(d) > -1.
    s = u + v
    rot = np.eye(d) - np.outer(s, s) / (1.0 + float(np.dot(u, v))) + 2.0 * np.outer(v, u)
    vertices = anchor + f @ rot.T
    anchor.flags.writeable = False
    vertices.flags.writeable = False
    return anchor, vertices


def add_constraints(points, max_norm, rng):
    """One attempt at the added block, drawn from the stream rng.

    The unit simplex around e_d is turned by a Haar rotation, dilated by
    2*norm_ceiling(max_norm), max_norm = max_i |a_i|, and its vertices are
    smoothed with deviation the dilation times added_sigma(d, n).  The rows
    and then the block fill one fresh (n + d, d) array, allocated
    column-major so that its PointSet takes it without a copy, whose rows
    n..n+d-1 are the start facet.  Returns None (Failure) when either
    postcondition check fails:
      cone check — z0 must lie in the cone of the added points,
      distance check — dist(0, aff(added points)) = 1/|h| must be at least
          max_norm.
    Both checks always run; their failure probability is tiny but the walk's
    correctness depends on them."""
    n, d = points.shape
    rotation = randgen.haar_rotation(d, rng)
    dilation = 2.0 * randgen.norm_ceiling(max_norm)
    anchor, vertices = simplex_vertices(d, randgen.simplex_radius(d))
    z0 = dilation * rotation.dot(anchor)
    centers = dilation * vertices.dot(rotation.T)
    sigma = dilation * randgen.added_sigma(d, n)
    full = np.empty((n + d, d), order="F")
    full[:n] = points
    full[n:] = randgen.gaussian(rng, (d, d), center=centers, sigma=sigma)
    point_set = PointSet(full)
    try:
        facet = make_facet(point_set, range(n, n + d))
    except SingularSystem:
        return None
    if float(np.minimum.reduce(z0.dot(facet.inverse))) < -DEFAULT_TOL.eps_feas:
        return None  # cone check failed: z0 escaped the cone of the added block
    if 1.0 / vector_norm(facet.normal) < max_norm:
        return None  # distance check failed: block not far enough out
    return AddedBlock(point_set, facet, z0)


def solve_unit(points, objective, rng=None, validate=False):
    """Solve the unit program max <z, x> s.t. <a_i, x> <= 1 for all i.

    Returns UnitResult with status STATUS_OPTIMAL and facet(z) over the
    original indices, or STATUS_UNBOUNDED when z leaves the cone of the a_i,
    before any attempt when every a_i is zero.  pivots_total sums the pivots
    of every walk including failed attempts; iterations counts attempts.
    rng is an int seed or None; attempt k walks the PointSet add_constraints
    builds from derive_rng(rng, k).
    Raises ValueError before any attempt unless checked_objective passes,
    NumericFailure before any attempt when the largest row norm, taken from
    the squares of the entries, is 0 or inf for rows that are not all zero,
    and GaveUp after MAX_RETRIES attempts without a clean terminal facet.

    The rows are copied once per call into column-major order, the layout
    of the attempts' arrays, so that max_row_norm and every attempt's copy
    of them run along columns."""
    points = np.asarray(points, dtype=float, order="F")
    n = points.shape[0]
    z = checked_objective(points, objective)
    with np.errstate(over="ignore"):
        max_norm = max_row_norm(points)
    if max_norm == 0.0 and not points.any():  # not rows whose squares underflow
        return UnitResult(STATUS_UNBOUNDED, None, 0, 0)
    if not 0.0 < max_norm < math.inf:
        raise NumericFailure(f"largest row norm {max_norm} out of range: "
                             "the squares of the rows' entries under- or overflow")
    pivots_total = 0
    for attempt in range(MAX_RETRIES):
        block = add_constraints(points, max_norm, randgen.derive_rng(rng, attempt))
        if block is None:
            continue
        try:
            plane = SweepPlane.through(block.start_objective, z)
        except ValueError:
            continue  # z0 collinear with z: redraw rather than pick a plane
        outcome = walk(block.point_set, plane, block.facet, 0.0, plane.theta_of(z),
                       validate=validate)
        pivots_total += outcome.pivots
        if outcome.status == STATUS_UNBOUNDED:
            return UnitResult(STATUS_UNBOUNDED, None, pivots_total, attempt + 1)
        terminal = outcome.facet
        if all(i < n for i in terminal.indices):
            return UnitResult(STATUS_OPTIMAL, terminal, pivots_total, attempt + 1)
    raise GaveUp(f"no clean solution in {MAX_RETRIES} attempts")
