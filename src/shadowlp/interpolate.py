"""Interpolation lift and the complete two-phase solver.

A general program max <z, x> s.t. A x <= b is embedded into a unit program
one dimension up: constraint vectors (a_i, 1 - b_i) plus a top constraint
(0, 1) encoding t <= 1 and a vertex at infinity, the direction (0, -1) as a
row of level 0 (see geometry), encoding t >= 0.  Sweeping the lifted
objective from (0, -1) to (0, 1) inside the plane spanned with (z, 0)
interpolates between the unit program (whose solution Phase-I provides) and
the original one.  Both ends of the sweep are realized as limit facets, never
as numeric parameter values: the walk starts on the Phase-I facet joined with
the vertex at infinity and ends on the facet whose angular interval reaches
the top of the arc.  The original program is infeasible exactly when that
final facet misses the top constraint; otherwise the facet minus the top
constraint, relabelled to rows of A, is the optimal basis and the first d
coordinates of its normal are the optimal vertex."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import phase1
from .geometry import SingularSystem, make_facet, vector_norm
from .shadow_walk import OPTIMAL_FACET, SweepPlane, walk

STATUS_OPTIMAL = "optimal"
STATUS_UNBOUNDED = "unbounded"
STATUS_INFEASIBLE = "infeasible"


class NumericFailure(Exception):
    """The pipeline reached a state that is impossible in exact arithmetic."""


@dataclass
class GeneralLP:
    """max <z, x> subject to A x <= b, with n > d >= 2 and z nonzero."""

    A: np.ndarray
    b: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        self.z = np.asarray(self.z, dtype=float)
        n, d = self.A.shape
        if not (n > d >= 2):
            raise ValueError("need n > d >= 2")
        if self.b.shape != (n,) or self.z.shape != (d,):
            raise ValueError("b must have n entries and z must have d entries")
        if not (np.isfinite(self.A).all() and np.isfinite(self.b).all()
                and np.isfinite(self.z).all()):
            raise ValueError("instance data must be finite")
        if vector_norm(self.z) == 0.0:
            raise ValueError("objective must be nonzero")

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def d(self):
        return self.A.shape[1]


@dataclass
class IntLPLift:
    """Lifted point set: row 0 is the vertex at infinity, the direction
    straight down; rows 1..n are (a_i, 1 - b_i), so row i + 1 is constraint
    i; row n + 1 (top_index) is the unit vector along the lifted axis.
    ``levels`` is 0 for row 0 and 1 for every other row.  The sweep plane
    has basis1 = row 0 and basis2 = (z, 0) / |z|, so the sweep runs from
    straight down at angle 0 to straight up at angle pi."""

    points: np.ndarray
    levels: np.ndarray
    top_index: int
    plane: SweepPlane


def lift(lp):
    """Embed a GeneralLP one dimension up (see module docstring)."""
    n, d = lp.n, lp.d
    pts = np.zeros((n + 2, d + 1))
    pts[0, d] = -1.0
    pts[1:n + 1, :d] = lp.A
    pts[1:n + 1, d] = 1.0 - lp.b
    pts[n + 1, d] = 1.0
    levels = np.ones(n + 2)
    levels[0] = 0.0
    rot = np.zeros(d + 1)
    rot[:d] = lp.z
    return IntLPLift(points=pts, levels=levels, top_index=n + 1,
                     plane=SweepPlane(pts[0].copy(), rot / vector_norm(rot)))


def initial_limit_facet(lifted, unit_indices):
    """Start facet for the lifted walk: the Phase-I facet, whose indices
    label rows of A, joined with the vertex at infinity.  It is the limit
    of facet(q) as q rotates off the bottom of the arc."""
    indices = [0] + [i + 1 for i in unit_indices]
    return make_facet(lifted.points, indices, lifted.levels)


@dataclass
class LPResult:
    status: str
    basis: tuple | None
    x_opt: np.ndarray | None
    pivots_phase1: int
    pivots_phase2: int
    phase1_iterations: int

    def objective_value(self, lp):
        if self.x_opt is None:
            return None
        return float(np.dot(lp.z, self.x_opt))


def solve_lp(lp, rng=None, validate=False):
    """Two-phase shadow-vertex solve of a GeneralLP.

    Phase I solves the unit program on the rows of A; unboundedness there is
    unboundedness of the original objective direction and is reported as
    such.  Phase II walks the lifted polytope from the Phase-I limit facet to
    the top of the arc and reads the verdict, the basis and x_opt off the
    final facet.  Raises NumericFailure when the lifted walk contradicts
    exact-arithmetic theory (degenerate input); raises
    shadow_walk.CycleSuspected when a walk repeats a facet and phase1.GaveUp
    when Phase I runs out of attempts."""
    unit = phase1.solve_unit(lp.A, lp.z, rng=rng, validate=validate)
    if unit.status == phase1.UNIT_UNBOUNDED:
        return LPResult(STATUS_UNBOUNDED, None, None,
                        unit.pivots_total, 0, unit.iterations)

    lifted = lift(lp)
    try:
        start = initial_limit_facet(lifted, unit.facet.indices)
    except SingularSystem as exc:
        raise NumericFailure(f"degenerate lifted start facet: {exc}") from exc
    outcome = walk(lifted.points, lifted.plane, start, 0.0, math.pi,
                   levels=lifted.levels, validate=validate)
    if outcome.status != OPTIMAL_FACET:
        raise NumericFailure("lifted walk left the cone; impossible when Phase I is bounded")
    final = outcome.facet
    if lifted.top_index not in final.indices:
        return LPResult(STATUS_INFEASIBLE, None, None,
                        unit.pivots_total, outcome.pivots, unit.iterations)
    if 0 in final.indices:
        raise NumericFailure("optimal basis contains the vertex at infinity")
    basis = tuple(i - 1 for i in final.indices if i != lifted.top_index)
    # <h, (a_i, 1 - b_i)> = 1 on the basis and h_{d+1} = 1 from the top row,
    # so h[:d] solves A_B x = b_B.
    x_opt = final.normal[:lp.d].copy()
    return LPResult(STATUS_OPTIMAL, basis, x_opt,
                    unit.pivots_total, outcome.pivots, unit.iterations)
