"""Polar-polytope geometry primitives.

Conventions used across the package:

* A polytope is given by an (n, d) array of rows a_1..a_n together with the
  implicit origin, and optional levels c_1..c_n (all 1 when not given).  A
  row of level 1 is a point; a row of level 0 is a direction u, the
  "vertex at infinity", which adds the recession ray {t*u : t >= 0} to the
  hull.
* A facet is a d-element index set I.  Its normal h solves <h, a_i> = c_i
  for i in I, so the facet's affine hull is {x : <h, x> = 1} and it
  contains the directions among its rows.  A row a_i is "below" that
  hyperplane when <h, a_i> <= c_i.
* Index tuples are kept sorted.
* Natural logarithms everywhere.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dgesv


class SingularSystem(Exception):
    """A linear system failed the scaled-pivot singularity threshold."""


class NoViewpoint(Exception):
    """No admissible viewpoint exists for a hull edge (should not happen
    for polygons with vertex norms at most 1)."""


@dataclass(frozen=True)
class Tolerance:
    """Numeric thresholds, fixed constants of the program: every layer reads
    DEFAULT_TOL, and no function takes a threshold as an argument.

    eps_singular: scaled-pivot threshold below which a linear system is
        declared singular.
    eps_feas: slack allowed in feasibility / cone-membership / below tests.
    eps_angle: slack used when comparing sweep angles.
    band: ten times eps_feas; a decision within it of a boundary is refused
        as ambiguous or degenerate rather than guessed.
    """

    eps_singular: float = 1e-10
    eps_feas: float = 1e-9
    eps_angle: float = 1e-12

    def __post_init__(self):
        if not (self.eps_singular > 0 and self.eps_feas > 0 and self.eps_angle > 0):
            raise ValueError("tolerances must be positive")

    @property
    def band(self):
        return self.eps_feas * 10.0


DEFAULT_TOL = Tolerance()


def solve_linear(matrix, rhs):
    """Solve matrix @ x = rhs by Gaussian elimination with scaled partial
    pivoting, which is LAPACK's partially pivoted LU (dgesv) of the system
    with each row divided by its largest |entry|.  Raises SingularSystem
    when a pivot of that LU is at most eps_singular.  rhs may be a vector
    or a matrix of stacked columns; x has the same shape."""
    a = np.asarray(matrix, dtype=float)
    b = np.asarray(rhs, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n) or b.shape[0] != n:
        raise ValueError("shape mismatch in solve_linear")
    scale = np.abs(a).max(axis=1)
    if not scale.all():
        raise SingularSystem("zero row")
    # b.T broadcasts the row scale over a vector and a matrix alike.  Factor
    # and solve stay one dgesv call: OpenBLAS runs dgetrs with several
    # right-hand sides multi-threaded, which is slow when processes share cores.
    lu, _, x, _ = dgesv(a / scale[:, None], (b.T / scale).T)
    # "not >" also rejects a NaN pivot.
    if not np.abs(lu.diagonal()).min() > DEFAULT_TOL.eps_singular:
        raise SingularSystem("pivot below scaled threshold")
    return x


@dataclass(slots=True, unsafe_hash=True)
class FacetIndexSet:
    """A candidate facet: d sorted indices, the normal of its affine hull
    and the inverse of its basis.

    The basis B stacks the facet's rows in index order, so column j of
    ``inverse`` = B^-1 belongs to indices[j], and so does ``scales[j]``, the
    largest |entry| of that row: the row scales of the nonsingularity
    certificate, carried so that a pivot's update never gathers the basis
    rows (make_facet and the oracle set them; a facet built without them
    cannot be pivoted).
    ``updates`` counts the rank-one updates since B^-1 was last factored
    from the points (0 for a facet from make_facet).  Equality and hashing
    use the index tuple only; two facets are the same facet exactly when
    their index sets coincide.  Slotted, not frozen: each pivot builds one."""

    indices: tuple
    normal: np.ndarray = field(compare=False, repr=False)
    inverse: np.ndarray = field(compare=False, repr=False)
    updates: int = field(default=0, compare=False, repr=False)
    scales: np.ndarray | None = field(default=None, compare=False, repr=False)


@functools.cache
def _facet_rhs(d):
    """make_facet's right-hand sides [1 | I], built once per d and
    returned read-only; make_facet writes the levels into a copy."""
    rhs = np.eye(d, d + 1, 1)
    rhs.flags.writeable = False
    return rhs


def make_facet(points, indices, levels=None):
    """Build a FacetIndexSet from one factorization of its basis B: the
    normal h solves B h = (the members' levels), so <h, a_i> = c_i, and the
    inverse is B^-1.  The walk's pivots update these in place of a
    factorization and call this every d-th pivot (see shadow_walk.pivot).
    Raises SingularSystem for degenerate index sets."""
    points = np.asarray(points, dtype=float)
    d = points.shape[1]
    if len(set(indices)) != d:
        raise ValueError("index set must contain exactly d distinct indices")
    indices = sorted(indices)
    rows = points[indices]
    rhs = _facet_rhs(d).copy()
    rhs[:, 0] = 1.0 if levels is None else levels[indices]
    solution = solve_linear(rows, rhs)
    return FacetIndexSet(indices=tuple(indices), normal=solution[:, 0],
                         inverse=solution[:, 1:], scales=np.abs(rows).max(axis=1))


def vector_norm(v):
    """|v| for a 1-D float array, bit for bit numpy.linalg.norm(v): the
    square root of the dot product of v.ravel(order="K") with itself,
    which is norm's own formula, without its Python-level dispatch.  The
    ravel keeps the bits on a strided view, whose BLAS dot product may sum
    in another order."""
    v = v.ravel(order="K")
    return math.sqrt(v.dot(v))


def max_row_norm(points):
    """max_i |a_i|, bit for bit numpy.linalg.norm(points, axis=1).max():
    norm's formula, with the square root, which is monotone and correctly
    rounded, taken once after the maximum."""
    return math.sqrt((points * points).sum(axis=1).max())


def all_below(points, normal, levels=None):
    """True when every row satisfies <h, a_i> <= c_i + eps_feas."""
    dots = np.asarray(points, dtype=float) @ normal
    if levels is None:
        return not np.max(dots) > 1.0 + DEFAULT_TOL.eps_feas
    return not np.any(dots > levels + DEFAULT_TOL.eps_feas)


def angular_distance(x, y):
    """Angle between the lines spanned by x and y:
    acos(|<x, y>| / (|x| |y|)), in [0, pi/2]."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    nx = float(np.linalg.norm(x))
    ny = float(np.linalg.norm(y))
    if nx == 0.0 or ny == 0.0:
        raise ValueError("angular distance undefined for zero vectors")
    c = abs(float(np.dot(x, y))) / (nx * ny)
    return math.acos(min(1.0, c))


# Three fixed viewpoints at angles 90, 210, 330 degrees and norm 4.  For any
# convex polygon with vertex norms at most 1 and any of its edges, at least
# one viewpoint lies on the polygon's side of the edge line at distance >= 1,
# so the edge survives in the hull of polygon + viewpoint.
_VIEWPOINT_ANGLES = np.deg2rad([90.0, 210.0, 330.0])
VIEWPOINTS = 4.0 * np.stack([np.cos(_VIEWPOINT_ANGLES), np.sin(_VIEWPOINT_ANGLES)], axis=1)


def viewpoint_for_edge(polygon, edge):
    """Pick a viewpoint (label 1, 2 or 3) that keeps the given hull edge an
    edge of Conv(viewpoint, polygon) and sits at distance >= 1 from the edge
    line.  polygon is an (n, 2) array of points with norms <= 1; edge is a
    pair of indices into it.  Raises NoViewpoint if no viewpoint qualifies
    and ValueError if the pair is not a hull edge."""
    polygon = np.asarray(polygon, dtype=float)
    if polygon.ndim != 2 or polygon.shape[1] != 2 or polygon.shape[0] < 3:
        raise ValueError("polygon must be an (n, 2) array with n >= 3")
    if np.max(np.linalg.norm(polygon, axis=1)) > 1.0 + DEFAULT_TOL.eps_feas:
        raise ValueError("polygon vertices must have norm at most 1")
    k, m = edge
    a, b = polygon[k], polygon[m]
    t = b - a
    nt = float(np.linalg.norm(t))
    if nt <= DEFAULT_TOL.eps_feas:
        raise ValueError("degenerate edge")
    nu = np.array([-t[1], t[0]]) / nt
    c = float(np.dot(nu, a))
    side = polygon @ nu - c
    smax = float(np.max(side))
    smin = float(np.min(side))
    if smax > DEFAULT_TOL.eps_feas and smin < -DEFAULT_TOL.eps_feas:
        raise ValueError("edge is not a hull edge")
    sign = 1.0 if smax > DEFAULT_TOL.eps_feas else -1.0
    signed = sign * (VIEWPOINTS @ nu - c)
    best = -np.inf
    best_label = 0
    for i, s in enumerate(signed):
        # Same side as the polygon and at distance >= 1 from the edge line.
        if s >= 1.0 and s > best:
            best = s
            best_label = i + 1
    if best_label == 0:
        raise NoViewpoint("no viewpoint keeps this edge at distance >= 1")
    return best_label
