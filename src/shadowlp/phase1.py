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
from .geometry import (DEFAULT_TOL, FacetIndexSet, SingularSystem, make_facet, max_row_norm,
                       vector_norm)
from .shadow_walk import UNBOUNDED, SweepPlane, walk

OPTIMAL = "optimal"
UNIT_UNBOUNDED = "unbounded"

MAX_RETRIES = 1000


class GaveUp(Exception):
    """All Phase-I retries were exhausted (astronomically unlikely for
    smoothed inputs; indicates degenerate or adversarial data)."""


@dataclass
class AddedBlock:
    """One attempt's added constraints: d smoothed vertices of a dilated
    regular simplex, its facet over indices 0..d-1 of the added points, its
    known piercing direction z0, and the unsmoothed centers for diagnostics."""

    added_points: np.ndarray
    facet: FacetIndexSet
    start_objective: np.ndarray
    centers: np.ndarray


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


def add_constraints(points, norm_bound, rotation, rng, max_norm=None):
    """One attempt at the added block.

    The unit simplex around e_d is rotated by the given orthogonal matrix,
    dilated by 2*norm_bound, and its vertices are smoothed with deviation
    2*norm_bound*added_sigma(d, n).  Returns None
    (Failure) when either postcondition check fails:
      cone check — z0 must lie in the cone of the added points,
      distance check — dist(0, aff(added points)) = 1/|h| must be at least
          max_i |a_i|.
    Both checks always run; their failure probability is tiny but the walk's
    correctness depends on them.  max_norm is max_i |a_i|, computed from the
    points when not given (solve_unit passes it to every attempt)."""
    points = np.asarray(points, dtype=float)
    n, d = points.shape
    if max_norm is None:
        max_norm = max_row_norm(points)
    anchor, vertices = simplex_vertices(d, randgen.simplex_radius(d))
    z0 = 2.0 * norm_bound * (rotation @ anchor)
    centers = 2.0 * norm_bound * (vertices @ rotation.T)
    sigma = 2.0 * norm_bound * randgen.added_sigma(d, n)
    added = randgen.gaussian(rng, (d, d), center=centers, sigma=sigma)
    try:
        facet = make_facet(added, range(d))
    except SingularSystem:
        return None
    if float((z0 @ facet.inverse).min()) < -DEFAULT_TOL.eps_feas:
        return None  # cone check failed: z0 escaped the cone of the added block
    if 1.0 / vector_norm(facet.normal) < max_norm:
        return None  # distance check failed: block not far enough out
    return AddedBlock(added_points=added, facet=facet, start_objective=z0,
                      centers=centers)


def solve_unit(points, objective, rng=None, validate=False):
    """Solve the unit program max <z, x> s.t. <a_i, x> <= 1 for all i.

    Returns UnitResult with status "optimal" and facet(z) over the original
    indices, or status "unbounded" when z leaves the cone of the a_i.
    pivots_total sums the pivots of every walk including failed attempts;
    iterations counts attempts.  rng is an int seed or None; attempt k
    draws from derive_rng(rng, k).  Raises GaveUp after MAX_RETRIES
    attempts without a clean terminal facet."""
    points = np.asarray(points, dtype=float)
    n, d = points.shape
    if not (n > d >= 2):
        raise ValueError("need n > d >= 2")
    z = np.asarray(objective, dtype=float)
    max_norm = max_row_norm(points)
    norm_bound = randgen.norm_ceiling(max_norm)
    pivots_total = 0
    for attempt in range(MAX_RETRIES):
        stream = randgen.derive_rng(rng, attempt)
        rotation = randgen.haar_rotation(d, stream)
        block = add_constraints(points, norm_bound, rotation, stream, max_norm=max_norm)
        if block is None:
            continue
        full = np.concatenate([points, block.added_points])
        # Row n + j of full is row j of the added block: same basis, new labels.
        start = block.facet
        start.indices = tuple(range(n, n + d))
        try:
            plane = SweepPlane.through(block.start_objective, z)
        except ValueError:
            continue  # z0 collinear with z: redraw rather than pick a plane
        outcome = walk(full, plane, start, 0.0, plane.theta_of(z), validate=validate)
        pivots_total += outcome.pivots
        if outcome.status == UNBOUNDED:
            return UnitResult(UNIT_UNBOUNDED, None, pivots_total, attempt + 1)
        terminal = outcome.facet
        if all(i < n for i in terminal.indices):
            return UnitResult(OPTIMAL, terminal, pivots_total, attempt + 1)
    raise GaveUp(f"no clean solution in {MAX_RETRIES} attempts")

