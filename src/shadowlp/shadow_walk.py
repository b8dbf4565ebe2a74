"""Facet walking on the polar polytope.

The solver never moves between vertices of the feasible region.  Instead it
tracks facet(q): the facet of Conv(0, a_1..a_n) (plus the recession ray of
each row of level 0, see geometry) pierced by the ray through a rotating
objective q.  q sweeps a circle inside a fixed 2-plane; each time a cone
coefficient of the current facet crosses zero the walk pivots to the unique
adjacent facet across that ridge, whose new row ratio_test picks.
Exit angles are found analytically: each cone coefficient is a sinusoid
lam_j(theta) = v_j cos(theta) + w_j sin(theta), so its next downward zero
crossing is available in closed form from the facet's basis inverse B^-1.
A pivot changes one row of the basis, so it builds the next facet's normal
and B^-1 by a rank-one update of the current ones; B^-1 is factored afresh
from the points every d-th pivot and whenever the update cannot certify
that the new basis is nonsingular.
climb uses the same pivots with Bland's rule in place of the rotating
objective: a primal simplex that maximizes the normal's last coordinate,
which solves the section's margin LP (see sections); ratio_test also
makes that LP's two opening moves.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (DEFAULT_TOL, STATUS_OPTIMAL, STATUS_UNBOUNDED, FacetIndexSet,
                       NumericFailure, all_below, make_facet, vector_norm)

TWO_PI = 2.0 * math.pi


class WalkStateError(NumericFailure):
    """A walk precondition failed mid-flight (corrupted state)."""


class CycleSuspected(NumericFailure):
    """A walk entered a facet twice; theta never decreases and each facet's
    cone meets the sweep plane in one arc, so only numerical trouble can."""


class WalkInvariantViolation(NumericFailure):
    """A validated walk produced a facet violating a structural invariant."""


@dataclass(slots=True)
class SweepPlane:
    """Oriented 2-plane through the origin with orthonormal basis, swept by
    q(theta) = basis1 cos(theta) + basis2 sin(theta)."""

    basis1: np.ndarray
    basis2: np.ndarray

    def __post_init__(self):
        # Keep the float arrays: q() scales the basis by floats.
        self.basis1 = b1 = np.asarray(self.basis1, dtype=float)
        self.basis2 = b2 = np.asarray(self.basis2, dtype=float)
        eps = DEFAULT_TOL.eps_feas
        if abs(vector_norm(b1) - 1.0) > eps or abs(vector_norm(b2) - 1.0) > eps:
            raise ValueError("sweep plane basis must be unit vectors")
        if abs(float(b1.dot(b2))) > eps:
            raise ValueError("sweep plane basis must be orthogonal")

    def q(self, theta):
        return self.basis1 * math.cos(theta) + self.basis2 * math.sin(theta)

    def theta_of(self, v):
        """Angle of the projection of v onto the plane, in [0, 2*pi)."""
        v = np.asarray(v, dtype=float)
        t = math.atan2(float(v.dot(self.basis2)), float(v.dot(self.basis1)))
        t %= TWO_PI
        # collapse rounding artifacts: an angle of -1e-16 must read as 0, not 2*pi
        if TWO_PI - t <= DEFAULT_TOL.eps_angle:
            t = 0.0
        return t

    @classmethod
    def axis(cls, d):
        """Plane span(e1, e2) in dimension d, with basis1 = e1."""
        basis = np.eye(d)
        return cls(basis1=basis[0], basis2=basis[1])

    @classmethod
    def through(cls, start, target):
        """Plane spanned by a start and a target direction, with basis1 along
        start.  Raises ValueError when the two are collinear, which leaves
        the plane undetermined."""
        start = np.asarray(start, dtype=float)
        target = np.asarray(target, dtype=float)
        ns = vector_norm(start)
        if ns == 0.0:
            raise ValueError("start direction must be nonzero")
        b1 = start / ns
        w = target - float(target.dot(b1)) * b1
        nw = vector_norm(w)
        if nw <= DEFAULT_TOL.eps_angle * max(1.0, vector_norm(target)):
            raise ValueError("start and target are collinear")
        return cls(basis1=b1, basis2=w / nw)


@dataclass(slots=True)
class TraceEntry:
    """One facet of a walk together with its half-open angular interval
    [theta_start, theta_end)."""

    facet: FacetIndexSet
    theta_start: float
    theta_end: float


@dataclass
class WalkOutcome:
    status: str
    facet: FacetIndexSet | None
    pivots: int
    trace: list = field(default_factory=list)

    def distinct_facets(self):
        """Facets of the trace in first-visit order, each once."""
        return list(dict.fromkeys(e.facet for e in self.trace))


def exit_angle(facet, plane, theta_now):
    """First angle at or after theta_now at which some cone coefficient of
    the facet crosses zero downward, together with the crossing index.  A
    crossing at theta_now, or within eps_angle of a full turn ahead (a
    rounding error before theta_now), is an exit now: a vertex on the ray
    q(theta_now) leaves the facet at once.  Returns None when no coefficient
    ever crosses (never happens for genuine facets of pointed cones).  Raises
    WalkStateError when q(theta_now) does not pierce the facet.

    v = b1 B^-1 and w = b2 B^-1 are read once as Python floats, and one pass
    over them makes both the pierce check and the crossing search.  Each
    lam_j(theta_now) = v_j cos(theta_now) + w_j sin(theta_now) rounds its two
    products and its sum as the elementwise numpy expression does, and a NaN
    coefficient makes the minimum NaN as numpy's min does, so a NaN never
    fails the pierce check."""
    # The coefficients of q solve B^T lam = q, so lam = q @ B^-1.
    v = plane.basis1.dot(facet.inverse).tolist()
    w = plane.basis2.dot(facet.inverse).tolist()
    cos_now, sin_now = math.cos(theta_now), math.sin(theta_now)
    lam_min = math.inf
    best_delta = None
    best_index = None
    for i, vj, wj in zip(facet.indices, v, w):
        lam = vj * cos_now + wj * sin_now
        if lam < lam_min or lam != lam:  # once NaN, no lam compares below it
            lam_min = lam
        r = math.hypot(vj, wj)
        if r <= 1e-300:
            continue  # identically zero coefficient: never crosses
        # lam_j(theta) = r cos(theta - phi); downward crossing at phi + pi/2.
        down = math.atan2(wj, vj) + 0.5 * math.pi
        delta = (down - theta_now) % TWO_PI
        if delta >= TWO_PI - DEFAULT_TOL.eps_angle:
            delta = 0.0
        if best_delta is None or delta < best_delta:
            best_delta = delta
            best_index = i
    if lam_min < -DEFAULT_TOL.eps_feas:
        raise WalkStateError(
            f"facet {facet.indices} is not pierced at theta={theta_now!r} "
            f"(min coefficient {lam_min:.3e})"
        )
    if best_delta is None:
        return None
    return theta_now + best_delta, best_index


def ratio_test(ps, h, g, members):
    """The minimal-ratio rule of every pivot: the row of the PointSet ps
    that first blocks h moving along g.  Among candidates k outside
    ``members`` with <g, a_k> > eps_feas it minimizes
    (c_k - <h, a_k>) / <g, a_k> over the levels c (all 1 when ps.levels is
    None), ties to the smallest index.  Only the candidates' ratios are
    divided, in ascending index order, so the first minimum is the smallest
    index.  The candidate test runs over every row, members included: only
    when the first minimum is a member (a ridge member whose <g, a_i> rounds
    above eps_feas) is the selection redone without the members, since a
    non-member first minimum has no earlier non-member tied with it.
    Returns (ratio, row), or None when no row is a candidate."""
    den = ps.points.dot(g)
    cand = (den > DEFAULT_TOL.eps_feas).nonzero()[0]
    if not cand.size:
        return None
    level = 1.0 if ps.levels is None else ps.levels[cand]
    ratios = (level - ps.points.dot(h)[cand]) / den[cand]
    m = int(ratios.argmin())  # first occurrence: smallest index on a tie
    if int(cand[m]) in members:  # rare: select again without the members
        outside = ~np.isin(cand, members)
        cand, ratios = cand[outside], ratios[outside]
        if not cand.size:
            return None
        m = int(ratios.argmin())
    return float(ratios[m]), int(cand[m])


def pivot(ps, facet, leaving):
    """Minimal-ratio pivot across the ridge facet.indices minus {leaving}.

    g is the hyperplane rotation direction: <g, a_i> = 0 on the ridge and
    <g, a_leaving> = -1, i.e. minus the leaving index's column of B^-1.
    ratio_test, over the rows outside the facet, picks the entering index
    for the normal h moving along g.  The new index tuple is the ridge with
    the entering index inserted in order.  Returns the new facet, or None
    when no candidate exists, which certifies unboundedness beyond the exit
    angle.

    The new facet comes from a rank-one update of the current normal and
    B^-1 (see _updated_facet), so any facet over rows of ps can be pivoted.
    It is factored from the points by make_facet instead on every d-th
    consecutive pivot, and whenever the updated inverse cannot certify that
    make_facet would accept the new basis; make_facet then raises
    SingularSystem for a degenerate one."""
    indices = facet.indices
    if leaving not in indices:
        raise ValueError("leaving index must belong to the facet")
    j = indices.index(leaving)
    best = ratio_test(ps, facet.normal, -facet.inverse[:, j], indices)
    if best is None:
        return None
    ratio, entering = best
    ridge = indices[:j] + indices[j + 1:]
    p = bisect.bisect(ridge, entering)
    new_indices = ridge[:p] + (entering,) + ridge[p:]
    new_facet = None
    if facet.updates + 1 < len(indices):
        new_facet = _updated_facet(ps, facet, j, entering, ratio, new_indices)
    if new_facet is None:
        new_facet = make_facet(ps, new_indices)
    return new_facet


def _updated_facet(ps, facet, j, entering, ratio, new_indices):
    """The facet over new_indices, which replaces indices[j] of the given
    facet by entering, from its normal and B^-1 without a factorization.

    Normal: h' = h + ratio * g with g = -B^-1 e_j, so <h', a> is unchanged
    on the ridge and the entering row's level at that row.
    Inverse (Sherman-Morrison): the basis changes in row j to a_k, so with
    u = a_k B^-1 and pivot element u_j = -<g, a_k>, column j of B'^-1 is
    col_j / u_j and every other column m is col_m - col_j u_m / u_j; the
    columns are then put in the order of new_indices.

    Returns None, so that the caller factors the basis instead, unless
    ||B'^-1 diag(s)||_inf < 1 / eps_singular, where s gathers the new
    members' row scales from ps.scales.  That product is the inverse
    of the row-equilibrated basis make_facet factors, and every pivot of a
    partially pivoted LU is at least 1 / ||A^-1||_inf, so a basis that
    passes would pass make_facet's singularity test too."""
    inverse = facet.inverse
    u = ps.points[entering].dot(inverse)
    col = inverse[:, j] / u[j]
    new_inverse = inverse - col[:, None] * u
    # Column j moves to the entering index's place p in new_indices; the
    # columns in between shift by one over it.
    p = new_indices.index(entering)
    if p > j:
        new_inverse[:, j:p] = new_inverse[:, j + 1:p + 1]
    elif p < j:
        new_inverse[:, p + 1:j + 1] = new_inverse[:, p:j]
    new_inverse[:, p] = col
    scales = ps.scales[list(new_indices)]
    if not np.maximum.reduce(np.abs(new_inverse).dot(scales)) < 1.0 / DEFAULT_TOL.eps_singular:
        return None
    return FacetIndexSet(new_indices, facet.normal - ratio * inverse[:, j], new_inverse,
                         facet.updates + 1)


def climb(ps, indices):
    """Primal simplex over the facets of the PointSet ps: from the facet
    over ``indices``, whose normal h must satisfy <h, a_i> <= c_i on every
    row, pivot until h maximizes its last coordinate over that polyhedron,
    and return the final facet.

    The last coordinate's multipliers at a facet are the last row of B^-1.
    The leaving index is the smallest member whose multiplier is below
    -eps_feas, and pivot's ratio_test picks the entering index, ties to the
    smallest index: Bland's rule, which terminates on degenerate facets.
    Returns None when a pivot finds no entering index (the program is
    unbounded).  Raises CycleSuspected when a facet comes back, and
    SingularSystem when make_facet refuses a basis."""
    facet = make_facet(ps, indices)
    seen = {facet.indices}
    while True:
        below = (facet.inverse[-1] < -DEFAULT_TOL.eps_feas).nonzero()[0]
        if not below.size:
            return facet
        facet = pivot(ps, facet, facet.indices[below[0]])
        if facet is None:
            return None
        if facet.indices in seen:
            raise CycleSuspected(f"climb: facet {facet.indices} entered again")
        seen.add(facet.indices)


def _validate_step(ps, old, new):
    shared = set(old.indices) & set(new.indices)
    if len(shared) != len(old.indices) - 1:
        raise WalkInvariantViolation("adjacent facets must share all but one index")
    if not all_below(ps, new.normal):
        raise WalkInvariantViolation(f"facet {new.indices} is not valid (some point above)")
    if not new.updates:
        return
    # An updated normal and B^-1 must match a fresh factorization to within
    # eps_feas relative to the fresh one's largest entry.
    fresh = make_facet(ps, new.indices)
    for name, got, want in (("normal", new.normal, fresh.normal),
                            ("inverse", new.inverse, fresh.inverse)):
        if not np.max(np.abs(got - want)) <= DEFAULT_TOL.eps_feas * np.max(np.abs(want)):
            raise WalkInvariantViolation(
                f"facet {new.indices}: updated {name} departs from a fresh factorization")


def walk(ps, plane, start_facet, theta_start, theta_target, validate=False):
    """Walk facet(q(theta)) of the PointSet ps from theta_start until the
    current facet's interval reaches theta_target.

    Returns a WalkOutcome whose status is STATUS_OPTIMAL with the limit
    facet from the approaching side, or STATUS_UNBOUNDED when the objective
    family leaves the polytope's cone before the target.  The trace records
    each visited facet with its half-open interval; intervals are contiguous
    and increasing and the final one is clipped at theta_target.

    Raises CycleSuspected when a pivot enters a facet entered before; the
    start facet may come back once, as it does at the end of a full sweep.
    """
    if not theta_target > theta_start:
        raise ValueError("theta_target must exceed theta_start")
    if validate and not all_below(ps, start_facet.normal):
        raise WalkInvariantViolation("start facet is not valid")

    trace = []
    entered = set()  # facets entered by a pivot; the start facet is not one yet
    current = start_facet
    theta = theta_start
    pivots = 0
    while True:
        hit = exit_angle(current, plane, theta)
        if hit is None or hit[0] >= theta_target - DEFAULT_TOL.eps_angle:
            trace.append(TraceEntry(current, theta, theta_target))
            return WalkOutcome(STATUS_OPTIMAL, current, pivots, trace)
        theta_exit, leaving = hit
        new_facet = pivot(ps, current, leaving)
        if new_facet is None:
            trace.append(TraceEntry(current, theta, theta_exit))
            return WalkOutcome(STATUS_UNBOUNDED, None, pivots, trace)
        if validate:
            _validate_step(ps, current, new_facet)
        trace.append(TraceEntry(current, theta, theta_exit))
        if new_facet.indices in entered:
            recent = ", ".join(f"{e.facet.indices}@{e.theta_start:.9g}" for e in trace[-4:])
            raise CycleSuspected(f"facet {new_facet.indices} entered again at "
                                 f"theta={theta_exit:.9g}; last facets@theta: {recent}")
        entered.add(new_facet.indices)
        current = new_facet
        theta = theta_exit
        pivots += 1


def _closes(ps, plane, trace):
    """The sweep ends on its start facet, or one pivot at the end angle
    reaches it: with a vertex on the start ray the trace may begin on the
    facet just past that vertex."""
    first, last = trace[0].facet, trace[-1].facet
    if last == first:
        return True
    end = trace[-1].theta_end
    hit = exit_angle(last, plane, end)
    if hit is None or hit[0] > end + DEFAULT_TOL.eps_angle:
        return False
    return pivot(ps, last, hit[1]) == first


def sweep_full(ps, plane, start_facet, theta_start=0.0, validate=False):
    """Sweep q through a full circle starting inside start_facet's interval.

    Requires the origin in the relative interior of the polytope's slice by
    the plane (every direction then pierces some facet, so unboundedness is
    impossible).  The trace partitions [theta_start, theta_start + 2*pi); the
    start facet may appear twice, once at each end, and walk raises
    CycleSuspected when any other facet would.  The status is the walk's
    own, STATUS_OPTIMAL, and pivots equals len(trace) - 1."""
    outcome = walk(ps, plane, start_facet, theta_start, theta_start + TWO_PI,
                   validate=validate)
    if outcome.status == STATUS_UNBOUNDED:
        raise WalkStateError("unbounded during a full sweep: origin not interior to the slice")
    if validate:
        total = sum(e.theta_end - e.theta_start for e in outcome.trace)
        if abs(total - TWO_PI) > DEFAULT_TOL.eps_feas:
            raise WalkInvariantViolation(f"sweep intervals cover {total!r}, expected 2*pi")
        if not _closes(ps, plane, outcome.trace):
            raise WalkInvariantViolation("full sweep did not close on its start facet")
    return outcome
