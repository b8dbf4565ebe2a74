"""The benchmark's workloads.

A workload turns a seed into a pool of inputs before any timing starts,
runs one call of the public ``shadowlp`` API on a pool item, checks the
answer against an independent reference, and renders the answer as a line
of the workload's fingerprint.  The calls on the first ``measured_items``
pool items are the run's measured set: its latencies, pivots and
fingerprint.

An operation is one ``solve_lp``, one ``section_edges``, or one trial of a
``run_pivot_experiment`` grid; one grid call therefore yields many
operations.  Each workload is bound by a different layer (see README.md).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.optimize import linprog

from shadowlp import experiments, interpolate, randgen, sections, shadow_walk
from tracing import patched

# Relative objective tolerance against HiGHS, with the scale floored at 1.
OBJECTIVE_RTOL = 1e-7

_HIGHS_STATUS = {0: interpolate.STATUS_OPTIMAL, 2: interpolate.STATUS_INFEASIBLE,
                 3: interpolate.STATUS_UNBOUNDED}


@dataclass
class Sample:
    """One operation: its latency, its pivot count and the exception type
    it raised, if any."""

    latency_s: float
    pivots: int | None
    error: str | None = None


@dataclass
class Call:
    """One call into the library: the operations it performed and its
    answer (None when the call raised)."""

    samples: list
    answer: object = None
    wall_s: float | None = None
    workers: int | None = None


def sub_seed(seed, *key):
    """63-bit seed for one pool item, derived from the workload seed."""
    return int(randgen.derive_rng(int(seed), *key).integers(0, 2 ** 63))


def _failed_call(start, exc, operations=1):
    return Call([Sample(time.perf_counter() - start, None, type(exc).__name__)
                 for _ in range(operations)])


@dataclass(frozen=True)
class SolveWorkload:
    """Closed-loop ``interpolate.solve_lp`` calls on smoothed programs.

    The rows follow ``experiments.replay_pivot_trial``: ``random_spec``
    centres, ``normalize``, ``sample_instance``.  With ``feasible`` the
    b-centres become |b| + 1 before ``normalize``, so the origin is strictly
    feasible and every verdict is ``optimal``."""

    name: str
    n: int
    d: int
    sigma: float
    feasible: bool
    pool: int
    measured_items: int
    kind: str = field(default="solve", init=False)

    def generate(self, seed):
        items = []
        for i in range(self.pool):
            trial = sub_seed(seed, i)
            spec = randgen.random_spec(self.n, self.d, self.sigma, randgen.derive_rng(trial, 0))
            if self.feasible:
                spec = replace(spec, centers_b=np.abs(spec.centers_b) + 1.0)
            lp = randgen.sample_instance(randgen.normalize(spec), randgen.derive_rng(trial, 1))
            # The integer solve_unit would draw from derive_rng(trial, 2), so a
            # repeated call on the same item repeats the same walk.
            items.append((lp, sub_seed(trial, 2)))
        return items

    def run(self, item, workers=None):
        lp, solve_seed = item
        start = time.perf_counter()
        try:
            result = interpolate.solve_lp(lp, rng=solve_seed)
        except Exception as exc:  # a raising solve is a failed operation
            return _failed_call(start, exc)
        latency = time.perf_counter() - start
        pivots = result.pivots_phase1 + result.pivots_phase2
        basis = tuple(sorted(result.basis)) if result.basis is not None else None
        answer = (result.status, basis, result.pivots_phase1, result.pivots_phase2,
                  result.objective_value(lp))
        return Call([Sample(latency, pivots)], answer)

    def reference(self, item):
        lp, _ = item
        res = linprog(-lp.z, A_ub=lp.A, b_ub=lp.b, bounds=[(None, None)] * lp.d,
                      method="highs")
        status = _HIGHS_STATUS.get(res.status, f"highs-status-{res.status}")
        objective = -float(res.fun) if status == interpolate.STATUS_OPTIMAL else None
        return status, objective

    def agrees(self, answer, ref):
        status, _, _, _, objective = answer
        ref_status, ref_objective = ref
        if status != ref_status:
            return False
        if status != interpolate.STATUS_OPTIMAL:
            return True
        return abs(objective - ref_objective) <= OBJECTIVE_RTOL * max(1.0, abs(ref_objective))

    def fingerprint_line(self, answer):
        status, basis, p1, p2, _ = answer
        return f"{status} {list(basis) if basis else []} {p1} {p2}"


class PivotCounter:
    """Sums ``WalkOutcome.pivots`` over every ``walk`` call while installed.

    ``section_edges`` reports no pivot count, so the section workload reads
    its pivots here: one extra Python frame per walk, two walks per call."""

    def __init__(self):
        self.pivots = 0

    def __call__(self, walk):
        def counted(*args, **kwargs):
            outcome = walk(*args, **kwargs)
            self.pivots += outcome.pivots
            return outcome
        return counted


@dataclass(frozen=True)
class SectionWorkload:
    """Closed-loop ``sections.section_edges`` calls on standard Gaussian
    point clouds in the plane, swept over the axis plane (all of R^2), so
    the section is the whole hull and Qhull can recount it."""

    name: str
    n: int
    pool: int
    measured_items: int
    kind: str = field(default="section", init=False)

    def generate(self, seed):
        items = []
        for i in range(self.pool):
            trial = sub_seed(seed, i)
            points = randgen.gaussian(randgen.derive_rng(trial, 0), (self.n, 2))
            items.append((points, sub_seed(trial, 1)))
        return items

    def run(self, item, workers=None):
        points, walk_seed = item
        plane = shadow_walk.SweepPlane(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        counter = PivotCounter()
        with patched({shadow_walk.walk: counter}):
            start = time.perf_counter()
            try:
                report = sections.section_edges(points, plane, rng=walk_seed)
            except Exception as exc:  # a raising count is a failed operation
                return _failed_call(start, exc)
            latency = time.perf_counter() - start
        return Call([Sample(latency, counter.pivots)], (report.edge_count, report.degenerate))

    def reference(self, item):
        from scipy.spatial import ConvexHull

        points, _ = item
        return len(ConvexHull(points).vertices)

    def agrees(self, answer, ref):
        edges, degenerate = answer
        return not degenerate and edges == ref

    def fingerprint_line(self, answer):
        edges, degenerate = answer
        return f"{edges} {int(degenerate)}"


@dataclass(frozen=True)
class GridWorkload:
    """Closed-loop ``experiments.run_pivot_experiment`` calls, each a grid
    of ``trials`` trials in one (n, d, sigma) cell, cycling over ``configs``
    base seeds.  Each trial is one operation, timed by its own
    ``wall_time_s`` column."""

    name: str
    n: int
    d: int
    sigma: float
    trials: int
    workers: int
    configs: int
    kind: str = field(default="grid", init=False)

    @property
    def measured_items(self):
        return self.configs

    def generate(self, seed):
        return [experiments.ExperimentConfig(n=self.n, d=self.d, sigma=self.sigma,
                                             trials=self.trials, seed=sub_seed(seed, k),
                                             threads=self.workers)
                for k in range(self.configs)]

    def run(self, config, workers=None):
        config = replace(config, threads=workers or self.workers)
        start = time.perf_counter()
        try:
            header, rows = experiments.run_pivot_experiment(config)
        except Exception as exc:  # the whole grid failed: every trial counts
            return _failed_call(start, exc, config.trials)
        wall = time.perf_counter() - start
        samples = []
        for row in experiments.rows_as_dicts(header, rows, kind="trial"):
            error = row["status"] if row["status"].startswith("error:") else None
            pivots = None if error else int(row["pivots_total"])
            samples.append(Sample(float(row["wall_time_s"]), pivots, error))
        return Call(samples, experiments.csv_text(header, rows, include_timing=False),
                    wall_s=wall, workers=config.threads)

    def reference(self, config):
        """The same grid on one worker; the determinism contract makes the
        timing-stripped CSV byte-identical."""
        return self.run(config, workers=1).answer

    def agrees(self, answer, ref):
        return answer == ref

    def fingerprint_line(self, answer):
        return answer


_KINDS = {"solve": SolveWorkload, "section": SectionWorkload, "grid": GridWorkload}


def from_spec(spec):
    """Rebuild a workload from its ``dataclasses.asdict`` form."""
    spec = dict(spec)
    return _KINDS[spec.pop("kind")](**spec)


WORKLOADS = {w.name: w for w in (
    SolveWorkload("solve-d3-n4096", n=4096, d=3, sigma=0.1, feasible=False,
                  pool=256, measured_items=256),
    SolveWorkload("solve-d10-feasible", n=400, d=10, sigma=0.1, feasible=True,
                  pool=512, measured_items=256),
    SectionWorkload("section-d2-n3k", n=3000, pool=64, measured_items=48),
    GridWorkload("grid-d3-n16", n=16, d=3, sigma=0.1, trials=128, workers=2, configs=4),
)}
