"""Acceptance battery: the eight numbered verification suites.

Each ``suite_*`` function runs one criterion at its contract scale and
returns a :class:`SuiteResult` with a pass flag and a JSON-clean details
dict; ``run_all`` executes all eight in order.  Every randomized suite
derives its streams from a single seed, so the battery is reproducible
end to end.  Suites 1-4 run all solver walks with ``validate=True``;
suite 7 passes when those validated walks reported zero structural
violations (facet locality, facet validity, full-sweep interval closure).

Runtime targets (criteria 1 and 3) are reported in the details, not
enforced: a slow machine should not flip a correctness verdict.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import experiments, oracle, randgen, sections
from .geometry import (
    DEFAULT_TOL,
    STATUS_OPTIMAL,
    NoViewpoint,
    angular_distance,
    max_row_norm,
    viewpoint_for_edge,
)
from .interpolate import solve_lp
from .oracle import STATUS_AMBIGUOUS, classify_lp, section_edge_count_bruteforce
from .phase1 import add_constraints, solve_unit
from .shadow_walk import SweepPlane, WalkInvariantViolation

VERIFY_SEED = 20260825


@dataclass
class SuiteResult:
    """One suite's verdict; run_all sets elapsed_s, the suite's wall time."""

    criterion: int
    name: str
    passed: bool
    details: dict = field(default_factory=dict)
    elapsed_s: float = 0.0


def format_line(result):
    flag = "PASS" if result.passed else "FAIL"
    keys = [f"{k}={v}" for k, v in result.details.items()
            if not isinstance(v, (list, dict))]
    keys.append(f"elapsed_s={round(result.elapsed_s, 3)}")
    return f"{flag}  criterion {result.criterion} ({result.name}): {', '.join(keys)}"


# ---------------------------------------------------------------------------
# 1. Oracle equivalence


def suite_oracle_equivalence(seed=VERIFY_SEED, instances=1000):
    """Two-phase solver vs. exhaustive classifier on small smoothed programs."""
    dims = (2, 3, 4)
    sigmas = (0.1, 0.5)
    checked = ambiguous = mismatches = violations = 0
    status_counts = {}
    max_obj_err = 0.0
    first_bad = []
    for i in range(instances):
        stream = randgen.derive_rng(seed, 1, i)
        d = int(dims[stream.integers(len(dims))])
        n = int(stream.integers(5, 13))
        sigma = float(sigmas[stream.integers(len(sigmas))])
        spec = randgen.normalize(randgen.random_spec(n, d, sigma, stream))
        lp = randgen.sample_instance(spec, stream)
        verdict = classify_lp(lp)
        if verdict.status == STATUS_AMBIGUOUS:
            ambiguous += 1
            continue
        checked += 1
        try:
            result = solve_lp(lp, rng=randgen.sub_seed(seed, 1, i, 1), validate=True)
        except WalkInvariantViolation:
            violations += 1
            mismatches += 1
            continue
        status_counts[result.status] = status_counts.get(result.status, 0) + 1
        ok = result.status == verdict.status
        if ok and result.status == STATUS_OPTIMAL:
            ok = tuple(sorted(result.basis)) == tuple(sorted(verdict.basis))
            value = result.objective_value(lp)
            err = abs(value - verdict.value) / max(1.0, abs(verdict.value))
            max_obj_err = max(max_obj_err, err)
            ok = ok and err <= 1e-7
        if not ok:
            mismatches += 1
            if len(first_bad) < 5:
                first_bad.append({"instance": i, "solver": result.status,
                                  "oracle": verdict.status})
    details = {
        "instances": instances, "checked": checked, "ambiguous": ambiguous,
        "mismatches": mismatches, "violations": violations,
        "max_objective_rel_err": max_obj_err, "status_counts": status_counts,
        "walks_validated": checked, "runtime_target_s": 120,
    }
    if first_bad:
        details["first_mismatches"] = first_bad
    passed = mismatches == 0 and violations == 0 and checked > 0
    return SuiteResult(1, "oracle-equivalence", passed, details)


# ---------------------------------------------------------------------------
# 2. Phase-I statistics


def _in_cone(points, direction):
    """Independent boundedness screen: direction in cone(points)?  It is
    exactly when the nonnegative least-squares residual of
    sum_i x_i a_i = direction is zero, here at most eps_feas |direction|."""
    from scipy.optimize import nnls

    _, residual = nnls(points.T, direction)
    return bool(residual <= DEFAULT_TOL.eps_feas * float(np.linalg.norm(direction)))


def suite_phase1_statistics(seed=VERIFY_SEED):
    """Success rate of one constraint-addition attempt on bounded unit programs.

    An iteration samples a bounded smoothed unit program, solves it to get the
    numb-halfspace witness, then runs a single fresh addition attempt.  The
    attempt succeeds when both postcondition checks pass and every added point
    lies below the witness halfspace.
    """
    iterations, n, sigma, dims = 2000, 50, 0.3, (3, 4)
    threshold = 0.25 - 3.0 * math.sqrt(0.1875 / iterations)
    band = DEFAULT_TOL.band
    successes = collected = skipped_unbounded = skipped_solver = 0
    iter_sum = 0
    per_d = {d: [0, 0] for d in dims}  # d -> [successes, trials]
    i = 0
    while collected < iterations and i < 3 * iterations:
        d = dims[i % len(dims)]
        stream = randgen.derive_rng(seed, 2, i)
        i += 1
        points = randgen.smoothed_points(stream, n, d, sigma)
        z = randgen.gaussian(stream, (d,))
        z /= np.linalg.norm(z)
        if not _in_cone(points, z):
            skipped_unbounded += 1
            continue
        result = solve_unit(points, z, rng=randgen.sub_seed(seed, 2, i, 1), validate=True)
        if result.status != STATUS_OPTIMAL:
            skipped_solver += 1
            continue
        collected += 1
        iter_sum += result.iterations
        # Normal of aff(Facet(z)): the halfspace below it is numb.
        witness = result.facet.normal
        block = add_constraints(points, max_row_norm(points), randgen.derive_rng(seed, 2, i, 2))
        ok = (block is not None
              and float(np.max(block.added_points @ witness)) <= 1.0 + band)
        successes += ok
        per_d[d][0] += ok
        per_d[d][1] += 1
    fraction = successes / collected if collected else 0.0
    mean_iterations = iter_sum / collected if collected else float("inf")
    details = {
        "iterations": collected, "success_fraction": round(fraction, 4),
        "threshold": round(threshold, 6),
        "mean_solve_unit_iterations": round(mean_iterations, 3),
        "iteration_budget": 6.0,
        "skipped_unbounded": skipped_unbounded, "skipped_solver": skipped_solver,
        "per_d_success": {str(d): round(s / max(1, t), 4) for d, (s, t) in per_d.items()},
        "walks_validated": collected,
    }
    passed = (collected == iterations and fraction >= threshold
              and mean_iterations <= 6.0)
    return SuiteResult(2, "phase1-statistics", passed, details)


# ---------------------------------------------------------------------------
# 3. Pivot growth


def suite_pivot_growth(seed=VERIFY_SEED):
    """Slope of log(mean total pivots) against log n at d=3, sigma=0.1."""
    ns, trials = (16, 64, 256, 1024, 4096), 100
    config = experiments.ExperimentConfig(n=list(ns), d=[3], sigma=[0.1],
                                          trials=trials, seed=randgen.sub_seed(seed, 3))
    header, rows = experiments.run_pivot_experiment(config, validate=True)
    trial_rows = experiments.rows_as_dicts(header, rows, kind="trial")
    errors = [r for r in trial_rows if r["status"].startswith("error:")]
    mean_rows = experiments.rows_as_dicts(header, rows, kind="mean")
    means = {int(r["n"]): float(r["pivots_total"]) for r in mean_rows}
    slope = experiments.fit_log_slope(list(ns), [means[n] for n in ns])
    details = {
        "slope": round(slope, 4), "slope_budget": 0.4,
        "mean_pivots": {str(n): round(means[n], 2) for n in ns},
        "trials_per_cell": trials, "error_rows": len(errors),
        "walks_validated": len(trial_rows) - len(errors),
        "runtime_target_s": 1800,
    }
    passed = slope <= 0.4 and not errors
    return SuiteResult(3, "pivot-growth", passed, details)


# ---------------------------------------------------------------------------
# 4. Section counting agreement


def suite_section_agreement(seed=VERIFY_SEED, instances=200):
    """Walked section edge counts vs. brute-force hyperplane enumeration."""
    plane = SweepPlane.axis(3)
    mismatches = violations = degenerate = 0
    first_bad = []
    for i in range(instances):
        stream = randgen.derive_rng(seed, 4, i)
        n = int(stream.integers(4, 11))
        center = 0.3 * randgen.gaussian(stream, (3,))
        points = center + randgen.gaussian(stream, (n, 3))
        try:
            report = sections.section_edges(points, plane,
                                            rng=randgen.sub_seed(seed, 4, i, 1), validate=True)
        except WalkInvariantViolation:
            violations += 1
            continue
        walked = 0 if report.degenerate else report.edge_count
        degenerate += report.degenerate
        brute = section_edge_count_bruteforce(points, plane)
        if walked != brute:
            mismatches += 1
            if len(first_bad) < 5:
                first_bad.append({"instance": i, "walked": walked, "brute": brute})
    square = sections.section_edges(experiments.SQUARE_POINTS, SweepPlane.axis(2),
                                    rng=randgen.sub_seed(seed, 4, instances), validate=True)
    details = {
        "instances": instances, "mismatches": mismatches,
        "violations": violations, "degenerate_slices": degenerate,
        "square_edges": square.edge_count,
        "walks_validated": instances - violations + 1,
    }
    if first_bad:
        details["first_mismatches"] = first_bad
    passed = mismatches == 0 and violations == 0 and square.edge_count == 4
    return SuiteResult(4, "section-agreement", passed, details)


# ---------------------------------------------------------------------------
# 5. d=2 growth sanity


def suite_polygon_growth(seed=VERIFY_SEED):
    """Mean hull-edge count of standard Gaussian polygons grows with n."""
    trials, small, large = 50, 100, 10000
    plane = SweepPlane.axis(2)
    means = {}
    for n in (small, large):
        counts = []
        for t in range(trials):
            points = randgen.gaussian(randgen.derive_rng(seed, 5, n, t), (n, 2))
            report = sections.section_edges(points, plane,
                                            rng=randgen.sub_seed(seed, 5, n, t, 1))
            counts.append(report.edge_count)
        means[n] = float(np.mean(counts))
    floor_small = math.sqrt(math.log(small))
    floor_large = math.sqrt(math.log(large))
    details = {
        "mean_edges_small": round(means[small], 2),
        "mean_edges_large": round(means[large], 2),
        "floor_small": round(floor_small, 3), "floor_large": round(floor_large, 3),
        "trials": trials, "n_small": small, "n_large": large,
    }
    passed = (means[large] > means[small]
              and means[small] > floor_small and means[large] > floor_large)
    return SuiteResult(5, "polygon-growth", passed, details)


# ---------------------------------------------------------------------------
# 6. Planar bounds


def suite_planar_bounds(seed=VERIFY_SEED):
    """Monte Carlo checks of the two planar geometry bounds the walk relies on.

    Distance comparison: for points x1, x2 on a line at distance >= 1 from
    the origin with norms <= 10, dist(x1,x2)/101 <= ang(x1,x2) <= dist(x1,x2).
    Viewpoints: every hull edge of a polygon inside the unit disk admits one
    of the three fixed viewpoints.
    """
    from scipy.spatial import ConvexHull, QhullError

    line_configs, polygons = 10000, 1000
    band = DEFAULT_TOL.band
    c = 1.0 / 101.0
    angular_violations = 0
    for i in range(line_configs):
        stream = randgen.derive_rng(seed, 6, i)
        phi = stream.uniform(0.0, 2.0 * math.pi)
        normal = np.array([math.cos(phi), math.sin(phi)])
        tangent = np.array([-normal[1], normal[0]])
        offset = stream.uniform(1.0, 9.9)
        reach = math.sqrt(100.0 - offset ** 2)
        t1, t2 = stream.uniform(-reach, reach, size=2)
        x1 = offset * normal + t1 * tangent
        x2 = offset * normal + t2 * tangent
        dist = float(np.linalg.norm(x1 - x2))
        ang = angular_distance(x1, x2) if dist > 0 else 0.0
        if ang > dist + band or ang < c * dist - band:
            angular_violations += 1
    viewpoint_failures = 0
    hulls = 0
    for i in range(polygons):
        for attempt in range(20):
            stream = randgen.derive_rng(seed, 7, i, attempt)
            k = int(stream.integers(3, 11))
            radii = np.sqrt(stream.uniform(0.0, 1.0, size=k))
            angles = stream.uniform(0.0, 2.0 * math.pi, size=k)
            points = radii[:, None] * np.stack([np.cos(angles), np.sin(angles)], axis=1)
            try:
                hull = ConvexHull(points)
            except QhullError:
                continue
            polygon = points[hull.vertices]
            if polygon.shape[0] < 3:
                continue
            break
        else:
            viewpoint_failures += 1
            continue
        hulls += 1
        m = polygon.shape[0]
        for e in range(m):
            try:
                viewpoint_for_edge(polygon, (e, (e + 1) % m))
            except (NoViewpoint, ValueError):
                viewpoint_failures += 1
    details = {
        "line_configs": line_configs, "angular_violations": angular_violations,
        "polygons": hulls, "viewpoint_failures": viewpoint_failures,
        "c": "1/101",
    }
    passed = angular_violations == 0 and viewpoint_failures == 0 and hulls == polygons
    return SuiteResult(6, "planar-bounds", passed, details)


# ---------------------------------------------------------------------------
# 7. Structural walk invariants


def suite_walk_invariants(prior=None, seed=VERIFY_SEED):
    """Zero structural violations across the validated walks of suites 1-4.

    The walk layer checks, on every pivot, that adjacent facets share exactly
    d-1 indices, that the new facet passes the validity predicate and that an
    updated facet matches a fresh factorization, and on every full sweep that
    it closes on its start facet.  When
    ``prior`` holds the results of suites 1-4 this aggregates their counters;
    standalone it runs reduced versions of suites 1 and 4.
    """
    if prior is None:
        prior = [suite_oracle_equivalence(seed, instances=150),
                 suite_section_agreement(seed, instances=40)]
        mode = "standalone-reduced"
    else:
        mode = "aggregated-from-suites-1-4"
    walks = violations = 0
    sources = []
    for result in prior:
        if result.criterion in (1, 2, 3, 4):
            walks += result.details.get("walks_validated", 0)
            violations += result.details.get("violations", 0)
            violations += result.details.get("error_rows", 0)
            sources.append(result.name)
    details = {
        "mode": mode, "walks_validated": walks, "violations": violations,
        "sources": sources,
        "checks": ("facet locality (d-1 shared), facet validity, updated facet against "
                   "a fresh factorization, sweep closure on the start facet"),
    }
    passed = violations == 0 and walks > 0
    return SuiteResult(7, "walk-invariants", passed, details)


# ---------------------------------------------------------------------------
# 8. Determinism


def suite_determinism(seed=VERIFY_SEED):
    """Byte-identical non-timing CSV when the first growth cell repeats."""
    config = experiments.ExperimentConfig(n=[16], d=[3], sigma=[0.1],
                                          trials=100, seed=randgen.sub_seed(seed, 3))
    runs = [experiments.run_pivot_experiment(config) for _ in range(2)]
    texts = [experiments.csv_text(h, r, include_timing=False) for h, r in runs]
    parallel = experiments.run_pivot_experiment(replace(config, threads=2))
    texts.append(experiments.csv_text(*parallel, include_timing=False))
    identical = texts[0] == texts[1]
    parallel_identical = texts[0] == texts[2]
    details = {
        "trials": config.trials, "identical": identical,
        "parallel_identical": parallel_identical,
        "bytes": len(texts[0].encode()),
    }
    passed = identical and parallel_identical
    return SuiteResult(8, "determinism", passed, details)


# ---------------------------------------------------------------------------


_SUITE_NAMES = {
    1: "oracle-equivalence", 2: "phase1-statistics", 3: "pivot-growth",
    4: "section-agreement", 5: "polygon-growth", 6: "planar-bounds",
    7: "walk-invariants", 8: "determinism",
}


def run_all(seed=VERIFY_SEED, echo=None, criteria=None):
    """Run the requested suites (default: all eight) in order.

    A suite that raises is reported as FAIL with the error in its details;
    the battery always produces one result per requested criterion."""
    wanted = set(criteria) if criteria else set(range(1, 9))
    unknown = sorted(c for c in wanted if c not in _SUITE_NAMES)
    if unknown:
        raise ValueError(f"unknown criteria {unknown}; expected 1..8")
    results = []

    def emit(result):
        results.append(result)
        if echo is not None:
            echo(format_line(result))

    standard = {
        1: suite_oracle_equivalence, 2: suite_phase1_statistics,
        3: suite_pivot_growth, 4: suite_section_agreement,
        5: suite_polygon_growth, 6: suite_planar_bounds,
    }
    for criterion in sorted(wanted):
        start = time.perf_counter()
        try:
            if criterion in standard:
                result = standard[criterion](seed)
            elif criterion == 7:
                prior = [r for r in results if r.criterion in (1, 2, 3, 4)]
                result = suite_walk_invariants(prior or None, seed)
            else:
                result = suite_determinism(seed)
        except Exception as exc:
            result = SuiteResult(criterion, _SUITE_NAMES[criterion], False,
                                 {"error": repr(exc)})
        result.elapsed_s = time.perf_counter() - start
        emit(result)
    return results


def summary(results):
    """JSON-ready roll-up of a battery run."""
    return {
        "passed": all(r.passed for r in results),
        "suites": [{
            "criterion": r.criterion, "name": r.name, "passed": r.passed,
            "elapsed_s": round(r.elapsed_s, 3), "details": r.details,
        } for r in results],
    }
