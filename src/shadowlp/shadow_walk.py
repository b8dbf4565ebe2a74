"""Facet walking on the polar polytope.

The solver never moves between vertices of the feasible region.  Instead it
tracks facet(q): the facet of Conv(0, a_1..a_n) (plus the recession ray of
each row of level 0, see geometry) pierced by the ray through a rotating
objective q.  q sweeps a circle inside a fixed 2-plane; each time a cone
coefficient of the current facet crosses zero the walk pivots to the unique
adjacent facet across that ridge.
Exit angles are found analytically: each cone coefficient is a sinusoid
lam_j(theta) = v_j cos(theta) + w_j sin(theta), so its next downward zero
crossing is available in closed form from the facet's basis inverse B^-1.
A pivot changes one row of the basis, so it builds the next facet's normal
and B^-1 by a rank-one update of the current ones; B^-1 is factored afresh
from the points every d-th pivot and whenever the update cannot certify
that the new basis is nonsingular.
climb uses the same pivots with Bland's rule in place of the rotating
objective: a primal simplex that maximizes the normal's last coordinate,
which solves the section's margin LP (see sections).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import DEFAULT_TOL, FacetIndexSet, all_below, make_facet, vector_norm

TWO_PI = 2.0 * math.pi

OPTIMAL_FACET = "optimal_facet"
UNBOUNDED = "unbounded"


class WalkStateError(Exception):
    """A walk precondition failed mid-flight (corrupted state)."""


class CycleSuspected(Exception):
    """A walk entered a facet twice; theta never decreases and each facet's
    cone meets the sweep plane in one arc, so only numerical trouble can."""


class WalkInvariantViolation(Exception):
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
    v = (plane.basis1 @ facet.inverse).tolist()
    w = (plane.basis2 @ facet.inverse).tolist()
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


def pivot(points, facet, leaving, levels=None):
    """Minimal-ratio pivot across the ridge facet.indices minus {leaving}.

    g is the hyperplane rotation direction: <g, a_i> = 0 on the ridge and
    <g, a_leaving> = -1, i.e. minus the leaving index's column of B^-1.
    Among candidates k outside the facet with <g, a_k> > eps_feas, the
    entering index minimizes (c_k - <h, a_k>) / <g, a_k> over the levels c
    (all 1 when levels is None), ties broken by smallest index.  Only the
    candidates' ratios are divided; they are taken in ascending index
    order, so the first minimum is the smallest index.  The candidate test
    runs over every row, members included: only when the first minimum
    lands on a facet member (a ridge member whose <g, a_i> rounds above
    eps_feas) is the selection redone without the members.  A non-member
    first minimum has no earlier non-member tied with it, so either way the
    winner is the one of a test over non-members alone.  The new index tuple is the ridge with the
    entering index inserted in order.  Returns (entering, new_facet) or None
    when no candidate exists, which certifies unboundedness beyond the exit
    angle.

    The new facet comes from a rank-one update of the current normal,
    B^-1 and row scales (see _updated_facet).  It is factored from the
    points by make_facet instead on every d-th consecutive pivot, and
    whenever the updated inverse cannot certify that make_facet would accept
    the new basis; make_facet then raises SingularSystem for a degenerate
    one."""
    points = np.asarray(points, dtype=float)
    indices = facet.indices
    if leaving not in indices:
        raise ValueError("leaving index must belong to the facet")
    j = indices.index(leaving)
    g = -facet.inverse[:, j]
    h = facet.normal

    den = points @ g
    cand = (den > DEFAULT_TOL.eps_feas).nonzero()[0]
    best = None
    if cand.size:
        level = 1.0 if levels is None else levels[cand]
        ratios = (level - (points @ h)[cand]) / den[cand]
        m = int(ratios.argmin())  # first occurrence: smallest index on a tie
        if int(cand[m]) in indices:  # rare: select again without the members
            outside = ~np.isin(cand, indices)
            cand, ratios = cand[outside], ratios[outside]
            m = int(ratios.argmin()) if cand.size else None
        if m is not None:
            best = (float(ratios[m]), int(cand[m]))
    if best is None:
        return None
    ratio, entering = best
    ridge = indices[:j] + indices[j + 1:]
    p = bisect.bisect(ridge, entering)
    new_indices = ridge[:p] + (entering,) + ridge[p:]
    new_facet = None
    if facet.updates + 1 < len(indices):
        new_facet = _updated_facet(points, facet, j, entering, ratio, new_indices)
    if new_facet is None:
        new_facet = make_facet(points, new_indices, levels)
    return entering, new_facet


def _updated_facet(points, facet, j, entering, ratio, new_indices):
    """The facet over new_indices, which replaces indices[j] of the given
    facet by entering, from its normal, B^-1 and row scales without a
    factorization.

    Normal: h' = h + ratio * g with g = -B^-1 e_j, so <h', a> is unchanged
    on the ridge and the entering row's level at that row.
    Inverse (Sherman-Morrison): the basis changes in row j to a_k, so with
    u = a_k B^-1 and pivot element u_j = -<g, a_k>, column j of B'^-1 is
    col_j / u_j and every other column m is col_m - col_j u_m / u_j; the
    columns are then put in the order of new_indices.  The row scales s
    shift the same way, with max|a_k| in the entering index's place.

    Returns None, so that the caller factors the basis instead, unless
    ||B'^-1 diag(s)||_inf < 1 / eps_singular.  That product is the inverse
    of the row-equilibrated basis make_facet factors, and every pivot of a
    partially pivoted LU is at least 1 / ||A^-1||_inf, so a basis that
    passes would pass make_facet's singularity test too."""
    inverse = facet.inverse
    a_k = points[entering]
    u = a_k @ inverse
    col = inverse[:, j] / u[j]
    new_inverse = inverse - col[:, None] * u
    scales = facet.scales.copy()
    # Column j moves to the entering index's place p in new_indices; the
    # columns in between shift by one over it.
    p = new_indices.index(entering)
    if p > j:
        new_inverse[:, j:p] = new_inverse[:, j + 1:p + 1]
        scales[j:p] = scales[j + 1:p + 1]
    elif p < j:
        new_inverse[:, p + 1:j + 1] = new_inverse[:, p:j]
        scales[p + 1:j + 1] = scales[p:j]
    new_inverse[:, p] = col
    scales[p] = max(map(abs, a_k.tolist()))
    if not (np.abs(new_inverse) @ scales).max() < 1.0 / DEFAULT_TOL.eps_singular:
        return None
    return FacetIndexSet(new_indices, facet.normal - ratio * inverse[:, j], new_inverse,
                         facet.updates + 1, scales)


def climb(points, indices, levels=None):
    """Primal simplex over the facets of the rows at the levels: from the
    facet over ``indices``, whose normal h must satisfy <h, a_i> <= c_i on
    every row, pivot until h maximizes its last coordinate over that
    polyhedron, and return the final facet.

    The last coordinate's multipliers at a facet are the last row of B^-1.
    The leaving index is the smallest member whose multiplier is below
    -eps_feas, and pivot's ratio test picks the entering index, ties to the
    smallest index: Bland's rule, which terminates on degenerate facets.
    Returns None when a pivot finds no entering index (the program is
    unbounded).  Raises CycleSuspected when a facet comes back, and
    SingularSystem when make_facet refuses a basis."""
    facet = make_facet(points, indices, levels)
    seen = {facet.indices}
    while True:
        below = (facet.inverse[-1] < -DEFAULT_TOL.eps_feas).nonzero()[0]
        if not below.size:
            return facet
        step = pivot(points, facet, facet.indices[below[0]], levels)
        if step is None:
            return None
        facet = step[1]
        if facet.indices in seen:
            raise CycleSuspected(f"climb: facet {facet.indices} entered again")
        seen.add(facet.indices)


def _validate_step(points, old, new, levels):
    shared = set(old.indices) & set(new.indices)
    if len(shared) != len(old.indices) - 1:
        raise WalkInvariantViolation("adjacent facets must share all but one index")
    if not all_below(points, new.normal, levels):
        raise WalkInvariantViolation(f"facet {new.indices} is not valid (some point above)")
    if not new.updates:
        return
    if not np.array_equal(new.scales, np.abs(points[list(new.indices)]).max(axis=1)):
        raise WalkInvariantViolation(f"facet {new.indices}: carried row scales are stale")
    # An updated normal and B^-1 must match a fresh factorization to within
    # eps_feas relative to the fresh one's largest entry.
    fresh = make_facet(points, new.indices, levels)
    for name, got, want in (("normal", new.normal, fresh.normal),
                            ("inverse", new.inverse, fresh.inverse)):
        if not np.max(np.abs(got - want)) <= DEFAULT_TOL.eps_feas * np.max(np.abs(want)):
            raise WalkInvariantViolation(
                f"facet {new.indices}: updated {name} departs from a fresh factorization")


def walk(points, plane, start_facet, theta_start, theta_target,
         levels=None, validate=False):
    """Walk facet(q(theta)) from theta_start until the current facet's
    interval reaches theta_target.

    Returns a WalkOutcome whose status is OPTIMAL_FACET with the limit facet
    from the approaching side, or UNBOUNDED when the objective family leaves
    the cone of the polytope before reaching the target.  The trace records
    each visited facet with its half-open interval; intervals are contiguous
    and increasing and the final one is clipped at theta_target.

    Raises CycleSuspected when a pivot enters a facet entered before; the
    start facet may come back once, as it does at the end of a full sweep.
    """
    points = np.asarray(points, dtype=float)
    if not theta_target > theta_start:
        raise ValueError("theta_target must exceed theta_start")
    if validate and not all_below(points, start_facet.normal, levels):
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
            return WalkOutcome(OPTIMAL_FACET, current, pivots, trace)
        theta_exit, leaving = hit
        step = pivot(points, current, leaving, levels)
        if step is None:
            trace.append(TraceEntry(current, theta, theta_exit))
            return WalkOutcome(UNBOUNDED, None, pivots, trace)
        _, new_facet = step
        if validate:
            _validate_step(points, current, new_facet, levels)
        trace.append(TraceEntry(current, theta, theta_exit))
        if new_facet.indices in entered:
            recent = ", ".join(f"{e.facet.indices}@{e.theta_start:.9g}" for e in trace[-4:])
            raise CycleSuspected(f"facet {new_facet.indices} entered again at "
                                 f"theta={theta_exit:.9g}; last facets@theta: {recent}")
        entered.add(new_facet.indices)
        current = new_facet
        theta = theta_exit
        pivots += 1


def _closes(points, plane, trace):
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
    step = pivot(points, last, hit[1])
    return step is not None and step[1] == first


def sweep_full(points, plane, start_facet, theta_start=0.0, validate=False):
    """Sweep q through a full circle starting inside start_facet's interval.

    Requires the origin in the relative interior of the polytope's slice by
    the plane (every direction then pierces some facet, so unboundedness is
    impossible).  The trace partitions [theta_start, theta_start + 2*pi); the
    start facet may appear twice, once at each end, and walk raises
    CycleSuspected when any other facet would.  The status is the walk's
    own, OPTIMAL_FACET, and pivots equals len(trace) - 1."""
    outcome = walk(points, plane, start_facet, theta_start, theta_start + TWO_PI,
                   validate=validate)
    if outcome.status == UNBOUNDED:
        raise WalkStateError("unbounded during a full sweep: origin not interior to the slice")
    if validate:
        total = sum(e.theta_end - e.theta_start for e in outcome.trace)
        if abs(total - TWO_PI) > DEFAULT_TOL.eps_feas:
            raise WalkInvariantViolation(f"sweep intervals cover {total!r}, expected 2*pi")
        if not _closes(points, plane, outcome.trace):
            raise WalkInvariantViolation("full sweep did not close on its start facet")
    return outcome
