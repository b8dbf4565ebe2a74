"""Interpolation lift and the complete two-phase solver.

A general program max <z, x> s.t. A x <= b is embedded into a unit program
one dimension up: constraint vectors (a_i, 1 - b_i) plus a top constraint
(0, 1) encoding t <= 1 and a vertex at infinity in direction (0, -1)
encoding t >= 0.  Sweeping the lifted objective from (0, -1) to (0, 1)
inside the plane spanned with (z, 0) interpolates between the unit program
(whose solution Phase-I provides) and the original one.  Both ends of the
sweep are realized as limit facets, never as numeric parameter values: the
walk starts on the Phase-I facet joined with the vertex at infinity and ends
on the facet whose angular interval reaches the top of the arc.  The
original program is infeasible exactly when that final facet misses the top
constraint."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import phase1
from .geometry import (
    INFINITY_INDEX,
    SingularSystem,
    make_facet,
    solve_linear,
)
from .shadow_walk import OPTIMAL_FACET, SweepPlane, walk

STATUS_OPTIMAL = "optimal"
STATUS_UNBOUNDED = "unbounded"
STATUS_INFEASIBLE = "infeasible"
STATUS_AMBIGUOUS = "ambiguous"


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
        if not (np.all(np.isfinite(self.A)) and np.all(np.isfinite(self.b))
                and np.all(np.isfinite(self.z))):
            raise ValueError("instance data must be finite")
        if float(np.linalg.norm(self.z)) == 0.0:
            raise ValueError("objective must be nonzero")

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def d(self):
        return self.A.shape[1]


@dataclass
class IntLPLift:
    """Lifted point set: rows 0..n-1 are (a_i, 1 - b_i), row n (top_index)
    is the unit vector along the lifted axis, and the vertex at infinity
    points straight down."""

    points: np.ndarray
    top_index: int
    infinity_dir: np.ndarray
    objective_low: np.ndarray
    objective_high: np.ndarray
    rotation_dir: np.ndarray


def lift(lp):
    """Embed a GeneralLP one dimension up (see module docstring)."""
    n, d = lp.n, lp.d
    pts = np.zeros((n + 1, d + 1))
    pts[:n, :d] = lp.A
    pts[:n, d] = 1.0 - lp.b
    pts[n, d] = 1.0
    down = np.zeros(d + 1)
    down[d] = -1.0
    up = -down
    rot = np.zeros(d + 1)
    rot[:d] = lp.z
    return IntLPLift(points=pts, top_index=n, infinity_dir=down,
                     objective_low=down.copy(), objective_high=up,
                     rotation_dir=rot)


def initial_limit_facet(lifted, unit_indices):
    """Start facet for the lifted walk: the Phase-I facet joined with the
    vertex at infinity.  It is the limit of facet(q) as q rotates off the
    bottom of the arc."""
    indices = tuple(sorted(unit_indices)) + (INFINITY_INDEX,)
    return make_facet(lifted.points, indices, lifted.infinity_dir)


def classify_final(facet, lifted):
    """Read the verdict off the final limit facet: the original program is
    feasible (status optimal, basis = facet minus top) exactly when the top
    constraint participates; otherwise it is infeasible."""
    if lifted.top_index in facet.indices:
        basis = tuple(i for i in facet.indices if i != lifted.top_index)
        return STATUS_OPTIMAL, basis
    return STATUS_INFEASIBLE, None


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
    the top of the arc and classifies the final facet.  Raises NumericFailure
    when the walk or the solution recovery contradicts exact-arithmetic
    theory (degenerate input); raises shadow_walk.CycleSuspected when a walk
    repeats a facet and phase1.GaveUp when Phase I runs out of attempts."""
    unit = phase1.solve_unit(lp.A, lp.z, rng=rng, validate=validate)
    if unit.status == phase1.UNIT_UNBOUNDED:
        return LPResult(STATUS_UNBOUNDED, None, None,
                        unit.pivots_total, 0, unit.iterations)

    lifted = lift(lp)
    try:
        start = initial_limit_facet(lifted, unit.facet.indices)
    except SingularSystem as exc:
        raise NumericFailure(f"degenerate lifted start facet: {exc}") from exc
    plane = SweepPlane.through(lifted.objective_low, lifted.objective_high,
                               rotation_dir=lifted.rotation_dir)
    theta_target = plane.theta_of(lifted.objective_high)  # half-turn arc
    outcome = walk(lifted.points, plane, start, 0.0, theta_target,
                   infinite_dir=lifted.infinity_dir, validate=validate)
    if outcome.status != OPTIMAL_FACET:
        raise NumericFailure("lifted walk left the cone; impossible when Phase I is bounded")
    status, basis = classify_final(outcome.facet, lifted)
    if status == STATUS_INFEASIBLE:
        return LPResult(STATUS_INFEASIBLE, None, None,
                        unit.pivots_total, outcome.pivots, unit.iterations)
    if any(i < 0 or i >= lp.n for i in basis):
        raise NumericFailure("optimal basis contains a non-constraint index")
    try:
        x_opt = solve_linear(lp.A[list(basis)], lp.b[list(basis)])
    except SingularSystem as exc:
        raise NumericFailure(f"singular recovery system for basis {basis}: {exc}") from exc
    return LPResult(STATUS_OPTIMAL, basis, x_opt,
                    unit.pivots_total, outcome.pivots, unit.iterations)
