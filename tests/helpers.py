"""Independent re-checks that only the tests need: a transposed solve for
cone coefficients, an LP for convex membership, the section's margin LP
over every point solved by HiGHS, a CSV reader, the numpy formulations of
the linear kernel, the exit angle and the Haar rotation, the section's hull
path on the hull of every row, programs feasible by construction, the
smoothed programs of the pivot experiment, the degenerate programs, a
walk's intervals and a recorder of a solve's walks."""

import csv
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg.lapack import dgesv
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

from shadowlp import interpolate, phase1, randgen, sections, shadow_walk
from shadowlp.geometry import DEFAULT_TOL, GeneralLP, PointSet, SingularSystem, solve_linear
from shadowlp.shadow_walk import TWO_PI, WalkStateError


def cone_coefficients(points, indices, direction):
    """Coefficients lam solving sum_i lam_i a_i = direction over the index
    set's rows, in sorted index order.  A direction pierces the facet
    exactly when all coefficients are >= -eps_feas."""
    rows = np.asarray(points, dtype=float)[sorted(indices)]
    return solve_linear(rows.T, np.asarray(direction, dtype=float))


def convex_membership(points, x):
    """Is x a convex combination of the points?"""
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    a_eq = np.vstack([points.T, np.ones(n)])
    b_eq = np.append(np.asarray(x, dtype=float), 1.0)
    res = linprog(np.zeros(n), A_eq=a_eq, b_eq=b_eq,
                  bounds=[(0, None)] * n, method="highs")
    return bool(res.success)


def margin_constraints(points, plane):
    """Equality block of the vertex-form margin LP over (s, t, eps,
    mu^1..mu^4): x0 = s b1 + t b2, and x0 + eps * v_j must be a convex
    combination of the points for v_j in {+b1, -b1, +b2, -b2}, with
    mu^j >= 0.  Returns (a_eq, b_eq, number of columns)."""
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


def highs_vertex_margin(points, plane):
    """The vertex-form margin LP with eps >= 0 as one milp call: its optimum
    (s, t, eps, mu...), or None when HiGHS finds it infeasible.  The
    reference for sections.interior_point_in_slice, which reaches the same
    optimum by cutting planes; sections._slice_point turns either into x0."""
    a_eq, b_eq, nvar = margin_constraints(points, plane)
    c = np.zeros(nvar)
    c[2] = -1.0
    lower = np.zeros(nvar)
    lower[:2] = -np.inf
    res = milp(c, constraints=LinearConstraint(a_eq, b_eq, b_eq),
               bounds=Bounds(lower, np.inf))
    return res.x if res.success else None


def read_csv(path):
    """(header tuple, rows as lists of strings) of a CSV file."""
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = tuple(next(reader))
        return header, [list(row) for row in reader]


def reference_solve_linear(matrix, rhs):
    """geometry.solve_linear through numpy's module-level functions: the
    row scale by np.max, the zero-row check by np.any and the pivot check
    by np.min over np.diag.  solve_linear must return the same bits or
    raise SingularSystem with the same message."""
    a = np.asarray(matrix, dtype=float)
    b = np.asarray(rhs, dtype=float)
    scale = np.max(np.abs(a), axis=1)
    if np.any(scale == 0.0):
        raise SingularSystem("zero row")
    lu, _, x, _ = dgesv(a / scale[:, None], (b.T / scale).T)
    if not np.min(np.abs(np.diag(lu))) > DEFAULT_TOL.eps_singular:
        raise SingularSystem("pivot below scaled threshold")
    return x


def reference_haar_rotation(d, rng):
    """randgen.haar_rotation through numpy.linalg.qr, which makes the same
    two LAPACK calls (dgeqrf, dorgqr) behind its Python-level wrapper.
    haar_rotation must return the same bits, in C order, and leave rng at
    the same place in its stream."""
    while True:
        g = randgen.gaussian(rng, (d, d))
        q, r = np.linalg.qr(g)
        diag = r.diagonal()
        if np.abs(diag).min() <= 1e-300:
            continue
        return q * np.sign(diag)


def reference_exit_angle(facet, plane, theta_now):
    """shadow_walk.exit_angle as numpy expressions: v and w stay arrays, the
    pierce check is numpy's min over the elementwise coefficients (NaN if
    any is NaN), and the crossing search is a second loop over the indices."""
    v, w = plane.basis1 @ facet.inverse, plane.basis2 @ facet.inverse
    lam_min = float((v * math.cos(theta_now) + w * math.sin(theta_now)).min())
    if lam_min < -DEFAULT_TOL.eps_feas:
        raise WalkStateError(
            f"facet {facet.indices} is not pierced at theta={theta_now!r} "
            f"(min coefficient {lam_min:.3e})"
        )
    best_delta = None
    best_index = None
    for j, i in enumerate(facet.indices):
        r = math.hypot(v[j], w[j])
        if r <= 1e-300:
            continue
        down = math.atan2(w[j], v[j]) + 0.5 * math.pi
        delta = (down - theta_now) % TWO_PI
        if delta >= TWO_PI - DEFAULT_TOL.eps_angle:
            delta = 0.0
        if best_delta is None or delta < best_delta:
            best_delta = delta
            best_index = i
    if best_delta is None:
        return None
    return theta_now + best_delta, best_index


def hull_interior_point(hull, plane):
    """x0 of section_edges' hull path: the margin LP over the hull's facet
    equations, solved by the walk's pivots."""
    rows, levels = sections._margin_rows(hull.equations, plane)
    return sections._slice_point(sections._max_margin(rows, levels), plane)


def reference_section_edges(points, plane):
    """sections.section_edges at d <= 4 with Qhull's hull of every row, as it
    ran before the candidate-row prefilter: the same margin LP, start-facet
    search and sweep.  section_edges must report the same SectionReport
    facets, and so the same count and flag."""
    points = np.asarray(points, dtype=float)
    hull = sections._hull(points)
    x0 = None if hull is None else hull_interior_point(hull, plane)
    if x0 is None:
        return sections.SectionReport(interior_point=None, facets=[])
    keep = np.sort(hull.vertices)
    shifted = PointSet(points[keep] - x0)
    start = sections._hull_start_facet(hull, keep, shifted, x0, plane)
    outcome = shadow_walk.sweep_full(shifted, plane, start, sections._THETA0)
    facets = [tuple(keep[list(f.indices)].tolist()) for f in dict.fromkeys(outcome.path)]
    return sections.SectionReport(interior_point=x0, facets=facets)


def feasible_lp(n, d, seed):
    """Smoothed program (sigma = 0.1) whose b-centres are |b| + 1 before
    normalizing, so the origin is strictly feasible and the verdict is
    optimal or unbounded.  At n in the hundreds the objective stays inside
    the cone of the rows; at n = 8, d = 2 it leaves it for 13 seeds in 200."""
    spec = randgen.random_spec(n, d, 0.1, randgen.derive_rng(seed, 0))
    spec = replace(spec, centers_b=np.abs(spec.centers_b) + 1.0)
    return randgen.sample_instance(randgen.normalize(spec), randgen.derive_rng(seed, 1))


def smoothed_lp(n, d, seed, sigma=0.1):
    """The program experiments.replay_pivot_trial solves for a trial seed at
    sigma; it solves it with rng=randgen.sub_seed(seed, 2)."""
    spec = randgen.normalize(randgen.random_spec(n, d, sigma, randgen.derive_rng(seed, 0)))
    return randgen.sample_instance(spec, randgen.derive_rng(seed, 1))


def klee_minty(d):
    """Klee and Minty's cube: max sum_j 2^(d-j) x_j subject to
    sum_{i<j} 2^(j-i+1) x_i + x_j <= 5^j and x >= 0, optimum 5^d."""
    A = np.vstack([np.eye(d), -np.eye(d)])
    for j in range(d):
        A[j, :j] = 2.0 ** np.arange(j + 1, 1, -1)
    b = np.concatenate([5.0 ** np.arange(1, d + 1), np.zeros(d)])
    return GeneralLP(A, b, 2.0 ** np.arange(d - 1, -1, -1))


def cube_lp(d, variant):
    """The cube |x_i| <= 1 with z = (d, ..., 1); "redundant" adds the row
    sum x <= d through the optimal vertex, "duplicated" repeats the rows
    x_1 <= 1 and x_2 <= 1, "facet" takes z = e_1 along a facet normal."""
    A = np.vstack([np.eye(d), -np.eye(d)])
    b = np.ones(2 * d)
    z = np.arange(d, 0, -1.0)
    if variant == "redundant":
        A, b = np.vstack([A, np.ones(d)]), np.append(b, d)
    elif variant == "duplicated":
        A, b = np.vstack([A, A[:2]]), np.append(b, b[:2])
    elif variant == "facet":
        z = np.eye(d)[0]
    return GeneralLP(A, b, z)


def zero_rows_lp(b):
    """Three rows of zeros: every x is feasible when b >= 0 and none is
    otherwise, and z = e_1 leaves the cone {0} of the rows."""
    return GeneralLP(np.zeros((3, 2)), np.array(b, dtype=float), np.array([1.0, 0.0]))


def bound_pair_lp():
    """x_1 <= -1 and x_1 >= 1: infeasible, while z = e_2 lies outside the
    cone of the rows, which holds the line spanned by the bound pair +-e_1."""
    return GeneralLP(np.array([[1.0, 0.0], [-1.0, 0.0], [1.0, -0.1]]),
                     np.array([-1.0, -1.0, 5.0]), np.array([0.0, 1.0]))


# The degenerate programs of tests/test_differential.py by test id: the
# families HiGHS agrees on, and the infeasible programs outside the cone of
# their rows that solve_lp calls unbounded.
DEGENERATE_LPS = [
    *((f"klee-minty-d{d}", klee_minty(d)) for d in (2, 3, 5, 8)),
    *((f"cube-{variant}-d{d}", cube_lp(d, variant))
      for d in (2, 3, 5) for variant in ("alone", "redundant", "duplicated", "facet")),
    ("zero-rows", zero_rows_lp([1.0, 1.0, 1.0])),  # HiGHS: unbounded
]
OUTSIDE_THE_CONE_LPS = [("bound-pair", bound_pair_lp()),
                        ("zero-rows", zero_rows_lp([1.0, -1.0, 1.0]))]


def walk_intervals(outcome, plane, theta_start, theta_target):
    """(facet, theta_start, theta_end) for each facet on a walk's path: the
    half-open interval of angles over which the walk stood on it.  Each
    facet's start is the previous facet's exit angle, replayed by exit_angle
    as the walk computed it, so the angles are the walk's own bits.  The
    last facet ends at theta_target, or at the exit angle of an unbounded
    walk."""
    starts = [theta_start]
    for facet in outcome.path[:-1]:
        starts.append(shadow_walk.exit_angle(facet, plane, starts[-1])[0])
    end = theta_target if outcome.exit is None else outcome.exit[0]
    return list(zip(outcome.path, starts, starts[1:] + [end]))


def recorded_walks(solve, *args, **kwargs):
    """(points, plane, levels, intervals) of every walk of
    solve(*args, **kwargs) in the order they ran, read off each walk's
    PointSet, with the walk_intervals of its path.  For solve_lp: Phase I's,
    with levels None, then the lifted one's, whose row 0 is the vertex at
    infinity."""
    walks = []

    def recorded(ps, plane, start, theta_start, theta_target, **kwargs):
        outcome = shadow_walk.walk(ps, plane, start, theta_start, theta_target, **kwargs)
        walks.append((ps.points, plane, ps.levels,
                      walk_intervals(outcome, plane, theta_start, theta_target)))
        return outcome

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(phase1, "walk", recorded)
        mp.setattr(interpolate, "walk", recorded)
        solve(*args, **kwargs)
    return walks
