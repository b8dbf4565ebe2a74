"""Brute-force oracles for small instances.

Everything here enumerates d-subsets and decides by direct predicate
evaluation; nothing reuses the walker's pivot path, so agreement between the
two is evidence, not tautology.  Enumeration refuses instances with more than
ENUMERATION_CAP candidate subsets.  Tolerance discipline: the solver's fixed
thresholds (geometry.DEFAULT_TOL), and any decision landing within
Tolerance.band of a boundary is refused as Ambiguous rather than guessed."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from .geometry import DEFAULT_TOL, FacetIndexSet
from .interpolate import STATUS_INFEASIBLE, STATUS_OPTIMAL, STATUS_UNBOUNDED

# The oracle's own verdict for an instance it refuses to call; the solver
# never returns it.
STATUS_AMBIGUOUS = "ambiguous"

ENUMERATION_CAP = 1_000_000


class Ambiguous(Exception):
    """The instance sits within tolerance of a decision boundary; the oracle
    refuses to call it."""


@dataclass
class OracleVerdict:
    status: str
    basis: tuple | None = None
    x_opt: np.ndarray | None = None
    value: float | None = None


def _check_cap(n, d):
    total = comb(n, d)
    if total > ENUMERATION_CAP:
        raise ValueError(f"{total} candidate subsets exceed the cap {ENUMERATION_CAP}")


def _screened_solve(mats, rhs):
    """Batched solve with a condition screen standing in for the scaled-pivot
    singularity threshold: subsets with cond >= 1/eps_singular are dropped.
    Returns (solutions, ok_mask)."""
    with np.errstate(all="ignore"):
        conds = np.linalg.cond(mats)
    ok = np.isfinite(conds) & (conds < 1.0 / DEFAULT_TOL.eps_singular)
    out = np.full(rhs.shape, np.nan)
    if np.any(ok):
        out[ok] = np.linalg.solve(mats[ok], rhs[ok][:, :, None])[:, :, 0]
    return out, ok


def _facet_candidates(points, levels):
    """All nonsingular d-subsets that are facets, as (indices, normal,
    basis) triples."""
    points = np.asarray(points, dtype=float)
    n, d = points.shape
    _check_cap(n, d)
    idx = np.array(list(combinations(range(n), d)), dtype=int)
    if not idx.size:
        return []
    level = np.ones(n) if levels is None else np.asarray(levels, dtype=float)
    mats = points[idx]
    normals, ok = _screened_solve(mats, level[idx])
    dots = normals[ok] @ points.T
    below = np.all(dots <= level + DEFAULT_TOL.eps_feas, axis=1)
    return [(tuple(idx[row].tolist()), normals[row], mats[row])
            for row in np.flatnonzero(ok)[below]]


def _facet(ids, normal, mat):
    return FacetIndexSet(indices=ids, normal=normal, inverse=np.linalg.inv(mat),
                         scales=np.abs(mat).max(axis=1))


def enumerate_facets(points, levels=None):
    """Every index set whose affine hull supports the polytope from below:
    the complete facet list of Conv(0, points), with the rays of rows of
    level 0 (see geometry)."""
    cands = _facet_candidates(points, levels)
    return [_facet(*cand) for cand in cands]


def facet_of(points, direction, levels=None):
    """The facet pierced by the ray through `direction`, found by scanning
    every enumerated facet's cone.  None when no facet is pierced (the
    direction leaves the cone of the polytope: unbounded).  Raises Ambiguous
    when more than one facet claims the direction within tolerance."""
    direction = np.asarray(direction, dtype=float)
    cands = _facet_candidates(points, levels)
    matches = []
    for ids, normal, mat in cands:
        try:
            lam = np.linalg.solve(mat.T, direction)
        except np.linalg.LinAlgError:
            continue
        if float(np.min(lam)) >= -DEFAULT_TOL.eps_feas:
            matches.append(_facet(ids, normal, mat))
    if not matches:
        return None
    if len(matches) > 1:
        raise Ambiguous(f"{len(matches)} facets claim the direction within tolerance")
    return matches[0]


def _cone_margin(A, z):
    """max over d-subsets of the minimum cone coefficient expressing z;
    nonnegative exactly when z lies in cone(rows of A)."""
    n, d = A.shape
    _check_cap(n, d)
    idx = np.array(list(combinations(range(n), d)), dtype=int)
    mats = A[idx].transpose(0, 2, 1)  # columns are the subset rows
    lams, ok = _screened_solve(mats, np.broadcast_to(z, (len(idx), d)).copy())
    if not np.any(ok):
        return -np.inf, None
    mins = np.where(ok, np.min(lams, axis=1), -np.inf)
    best = int(np.argmax(mins))
    return float(mins[best]), tuple(idx[best].tolist())


_FALLBACK_SCALES = (0.0, 0.5, 1.0, 10.0, 100.0, 1000.0)


def _fallback_feasible(A, b):
    """Coarse interior search for feasible sets without vertices: maximize
    the minimum slack over axis points at several scales."""
    n, d = A.shape
    best = -np.inf
    for s in _FALLBACK_SCALES:
        if s == 0.0:
            cands = [np.zeros(d)]
        else:
            cands = [sign * s * e for e in np.eye(d) for sign in (1.0, -1.0)]
        for x in cands:
            best = max(best, float(np.min(b - A @ x)))
    return best


def classify_lp(lp):
    """Exhaustive classification of a GeneralLP.

    Order of decisions matches the two-phase solver's convention: the
    objective direction is tested against cone(rows) first (outside means
    unbounded, regardless of b), then feasibility by vertex enumeration
    with a coarse interior fallback, then the optimal vertex by direct
    argmax with a cone certificate.  Any margin within Tolerance.band of a
    boundary yields status "ambiguous"."""
    A, b, z = lp.A, lp.b, lp.z
    n, d = A.shape
    band = DEFAULT_TOL.band

    cone_best, _ = _cone_margin(A, z)
    if abs(cone_best) <= band:
        return OracleVerdict(STATUS_AMBIGUOUS)
    if cone_best < 0.0:
        return OracleVerdict(STATUS_UNBOUNDED)

    idx = np.array(list(combinations(range(n), d)), dtype=int)
    mats = A[idx]
    xs, ok = _screened_solve(mats, b[idx])
    ok_rows = np.flatnonzero(ok)
    feasible_rows = []
    marginal = False
    if ok_rows.size:
        viol = np.max(A @ xs[ok_rows].T - b[:, None], axis=0)
        for row, v in zip(ok_rows, viol):
            if v <= DEFAULT_TOL.eps_feas:
                feasible_rows.append(int(row))
            elif v <= band:
                marginal = True
    if not feasible_rows:
        if marginal:
            return OracleVerdict(STATUS_AMBIGUOUS)
        slack = _fallback_feasible(A, b)
        if slack >= -DEFAULT_TOL.eps_feas:
            # Feasible but vertex-free: degenerate for a pointed formulation.
            return OracleVerdict(STATUS_AMBIGUOUS)
        return OracleVerdict(STATUS_INFEASIBLE)

    values = xs[feasible_rows] @ z
    order = np.argsort(values)[::-1]
    best_row = feasible_rows[int(order[0])]
    best_x = xs[best_row]
    best_value = float(values[int(order[0])])
    scale = 1.0 + abs(best_value)
    if len(order) > 1 and best_value - float(values[int(order[1])]) <= band * scale:
        # A second basis ties the argmax within tolerance; refuse to pick.
        return OracleVerdict(STATUS_AMBIGUOUS)
    basis = tuple(int(i) for i in idx[best_row])
    try:
        lam = np.linalg.solve(A[list(basis)].T, z)
    except np.linalg.LinAlgError:
        return OracleVerdict(STATUS_AMBIGUOUS)
    if float(np.min(lam)) < band:
        return OracleVerdict(STATUS_AMBIGUOUS)  # optimality certificate marginal or failed
    return OracleVerdict(STATUS_OPTIMAL, basis=basis, x_opt=best_x, value=best_value)


def section_edge_count_bruteforce(points, plane):
    """Number of hull facets of Conv(points) whose intersection with the
    plane's 2-subspace is a nondegenerate segment.

    Each d-subset's affine hull is normalized into a two-sided supporting
    hyperplane <h, x> = c via the nullspace of [points | -1]; one-sidedness
    over all points makes it a hull facet.  The facet's intersection with
    the plane is traced in the segment parameter: barycentric coordinates
    are affine along the intersection line, so the feasible parameter range
    is an interval intersection."""
    points = np.asarray(points, dtype=float)
    n, d = points.shape
    _check_cap(n, d)
    b1, b2 = plane.basis1, plane.basis2
    count = 0
    for subset in combinations(range(n), d):
        sub = points[list(subset)]
        m = np.hstack([sub, -np.ones((d, 1))])
        _, s, vt = np.linalg.svd(m)
        if s[-1] <= 1e-12 * max(1.0, float(s[0])):
            continue  # affinely dependent subset: hyperplane not unique
        hc = vt[-1]
        h, c = hc[:d], hc[d]
        nh = float(np.linalg.norm(h))
        if nh <= DEFAULT_TOL.eps_feas:
            continue  # degenerate subset (affinely dependent points)
        h, c = h / nh, c / nh
        side = points @ h - c
        if np.max(side) > DEFAULT_TOL.eps_feas and np.min(side) < -DEFAULT_TOL.eps_feas:
            continue  # not supporting
        alpha = float(np.dot(h, b1))
        beta = float(np.dot(h, b2))
        denom = alpha * alpha + beta * beta
        if denom <= DEFAULT_TOL.eps_feas ** 2:
            continue  # plane parallel to the hyperplane
        # Intersection line of the plane with the hyperplane, unit speed.
        x0 = (c / denom) * (alpha * b1 + beta * b2)
        direction = (-beta * b1 + alpha * b2) / np.sqrt(denom)
        aff = np.vstack([sub.T, np.ones(d)])
        rhs0 = np.append(x0, 1.0)
        rhs1 = np.append(x0 + direction, 1.0)
        sol, residuals, rank, _ = np.linalg.lstsq(aff, np.stack([rhs0, rhs1], axis=1), rcond=None)
        if rank < d:
            continue
        mu0, mu1 = sol[:, 0], sol[:, 1]
        if float(np.linalg.norm(aff @ mu0 - rhs0)) > 1e-7:
            continue  # line not inside the affine hull (should not happen)
        slope = mu1 - mu0
        lo, hi = -np.inf, np.inf
        empty = False
        for u0, du in zip(mu0, slope):
            if abs(du) <= DEFAULT_TOL.eps_feas:
                if u0 < -DEFAULT_TOL.eps_feas:
                    empty = True
                    break
            elif du > 0:
                lo = max(lo, (-DEFAULT_TOL.eps_feas - u0) / du)
            else:
                hi = min(hi, (-DEFAULT_TOL.eps_feas - u0) / du)
        if empty or not (hi - lo > DEFAULT_TOL.band):
            continue
        count += 1
    return count
