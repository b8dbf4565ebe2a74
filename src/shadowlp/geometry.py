"""Polar-polytope geometry primitives, and the names every layer shares.

Conventions used across the package:

* A program is a GeneralLP, max <z, x> s.t. A x <= b.  Its verdict is one
  of STATUS_OPTIMAL, STATUS_UNBOUNDED and STATUS_INFEASIBLE; a walk and a
  unit program end in one of the first two, under the same names.  A state
  that is impossible in exact arithmetic raises a NumericFailure.

* A polytope is a PointSet: an (n, d) array of rows a_1..a_n together with
  the implicit origin, optional levels c_1..c_n (all 1 when not given) and
  each row's largest |entry|.  A row of level 1 is a point; a row of level
  0 is a direction u, the "vertex at infinity", which adds the recession
  ray {t*u : t >= 0} to the hull.
* A facet is a d-element index set I.  Its normal h solves <h, a_i> = c_i
  for i in I, so the facet's affine hull is {x : <h, x> = 1} and it
  contains the directions among its rows.  A row a_i is "below" that
  hyperplane when <h, a_i> <= c_i.
* Index tuples are kept sorted.
* Natural logarithms everywhere.
* The walk's per-step kernels take small products with ndarray.dot and
  reductions with the ufunc each ndarray method wraps (np.maximum.reduce
  for .max(), ...): the same bits as @ and the method, with less dispatch
  (README, "Small operands").
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dgesv


STATUS_OPTIMAL = "optimal"
STATUS_UNBOUNDED = "unbounded"
STATUS_INFEASIBLE = "infeasible"


class NumericFailure(Exception):
    """The pipeline reached a state that is impossible in exact arithmetic."""


class SingularSystem(NumericFailure):
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


def solve_linear(matrix, rhs, scale=None):
    """Solve matrix @ x = rhs by Gaussian elimination with scaled partial
    pivoting, which is LAPACK's partially pivoted LU (dgesv) of the system
    with each row divided by its largest |entry|.  Raises SingularSystem
    when a pivot of that LU is at most eps_singular.  rhs may be a vector
    or a matrix of stacked columns; x has the same shape.  scale, when
    given, must hold those row maxima (make_facet gathers them from
    PointSet.scales); they are computed here otherwise."""
    a = np.asarray(matrix, dtype=float)
    b = np.asarray(rhs, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n) or b.shape[0] != n:
        raise ValueError("shape mismatch in solve_linear")
    if scale is None:
        scale = np.maximum.reduce(np.abs(a), axis=1)
    if not np.logical_and.reduce(scale):
        raise SingularSystem("zero row")
    # b.T broadcasts the row scale over a vector and a matrix alike.  Factor
    # and solve stay one dgesv call: OpenBLAS runs dgetrs with several
    # right-hand sides multi-threaded, which is slow when processes share cores.
    lu, _, x, _ = dgesv(a / scale[:, None], (b.T / scale).T)
    # "not >" also rejects a NaN pivot.
    if not np.minimum.reduce(np.abs(lu.diagonal())) > DEFAULT_TOL.eps_singular:
        raise SingularSystem("pivot below scaled threshold")
    return x


@dataclass(slots=True)
class PointSet:
    """The point set of one walk, owner of its rows.  ``points`` holds them
    column-major, in which the products over all rows (ratio_test,
    all_below) run along the d columns; an array already in that layout is
    not copied.  ``levels`` is None when every level is 1, so that a pivot
    gathers none.  ``scales`` holds each row's largest |entry|, computed
    here once, for make_facet's factorizations and the nonsingularity
    certificate of shadow_walk._updated_facet."""

    points: np.ndarray
    levels: np.ndarray | None = None
    scales: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float, order="F")
        self.scales = np.maximum.reduce(np.abs(self.points), axis=1)


@dataclass(slots=True, unsafe_hash=True)
class FacetIndexSet:
    """A candidate facet: d sorted indices, the normal of its affine hull
    and the inverse of its basis.

    The basis B stacks the facet's rows in index order, so column j of
    ``inverse`` = B^-1 belongs to indices[j].
    ``updates`` counts the rank-one updates since B^-1 was last factored
    from the points (0 for a facet from make_facet).  Equality and hashing
    use the index tuple only; two facets are the same facet exactly when
    their index sets coincide.  Slotted, not frozen: each pivot builds one."""

    indices: tuple
    normal: np.ndarray = field(compare=False, repr=False)
    inverse: np.ndarray = field(compare=False, repr=False)
    updates: int = field(default=0, compare=False, repr=False)


@functools.cache
def _facet_rhs(d):
    """make_facet's right-hand sides [1 | I], built once per d and
    returned read-only; make_facet writes the levels into a copy."""
    rhs = np.eye(d, d + 1, 1)
    rhs.flags.writeable = False
    return rhs


def make_facet(ps, indices):
    """Build a FacetIndexSet over rows of ps from one factorization of its
    basis B: the normal h solves B h = (the members' levels), so
    <h, a_i> = c_i, and the inverse is B^-1.  The walk's pivots update these
    in place of a factorization and call this every d-th pivot (see
    shadow_walk.pivot).  Raises SingularSystem for degenerate index sets."""
    d = ps.points.shape[1]
    if len(set(indices)) != d:
        raise ValueError("index set must contain exactly d distinct indices")
    indices = sorted(indices)
    rhs = _facet_rhs(d).copy()
    rhs[:, 0] = 1.0 if ps.levels is None else ps.levels[indices]
    solution = solve_linear(ps.points[indices], rhs, ps.scales[indices])
    return FacetIndexSet(indices=tuple(indices), normal=solution[:, 0],
                         inverse=solution[:, 1:])


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


def checked_objective(points, objective):
    """The objective of a program over the (n, d) rows points, as a float
    array; ValueError unless n > d >= 2 and it is finite, nonzero, of shape (d,)."""
    n, d = points.shape
    if not (n > d >= 2):
        raise ValueError("need n > d >= 2")
    z = np.asarray(objective, dtype=float)
    if z.shape != (d,) or not np.isfinite(z).all() or vector_norm(z) == 0.0:
        raise ValueError("objective must be a finite nonzero vector of d entries")
    return z


@dataclass
class GeneralLP:
    """max <z, x> subject to A x <= b, with n > d >= 2 and z nonzero."""

    A: np.ndarray
    b: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        self.z = checked_objective(self.A, self.z)
        if self.b.shape != (self.n,):
            raise ValueError("b must have n entries")
        if not (np.isfinite(self.A).all() and np.isfinite(self.b).all()):
            raise ValueError("instance data must be finite")

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def d(self):
        return self.A.shape[1]


def all_below(ps, normal):
    """True when every row of ps satisfies <h, a_i> <= c_i + eps_feas."""
    dots = ps.points.dot(normal)
    if ps.levels is None:
        return not np.maximum.reduce(dots) > 1.0 + DEFAULT_TOL.eps_feas
    return not np.logical_or.reduce(dots > ps.levels + DEFAULT_TOL.eps_feas)


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
