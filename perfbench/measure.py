"""Timed phases, reference checks and metrics of one benchmark run.

The load is a closed loop with one caller: the next call starts when the
previous one returns, cycling over the workload's input pool until the
phase's seconds are spent.  Reference checks, fingerprint answers the loop
did not reach, and set-up all happen outside the timed region.

Every reported time is scaled to the reference host by the calibration
samples taken around it (see calibrate.py); the raw wall-clock figures are
in the detail record.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
import scipy

import calibrate
import workloads
from tracing import PER_LAYER_UNITS, Tracer, per_layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_PROBES = 3
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "throughput_per_s": "1/s",
    "setup_s": "s",
    "success_fraction": "ratio",
    "pivots_mean": "count",
}


@dataclass
class Timed:
    """One call of a timed phase: its pool index, the call, its wall
    seconds and the factor that scales its times to the reference host."""

    index: int
    call: workloads.Call
    seconds: float
    scale: float

    @property
    def latencies(self):
        """Host-scaled seconds of the call's operations that did not raise."""
        return [s.latency_s * self.scale for s in self.call.samples if s.error is None]


@dataclass
class Phase:
    """The calls of one timed phase and its wall time."""

    calls: list
    wall_s: float

    @property
    def samples(self):
        return [s for timed in self.calls for s in timed.call.samples]

    @property
    def throughput_per_s(self):
        """Operations per host-scaled second spent in calls (the time of
        the calibration samples between calls is left out)."""
        return len(self.samples) / sum(t.seconds * t.scale for t in self.calls)

    @property
    def median_scale(self):
        return statistics.median(t.scale for t in self.calls)


def calibrated(workload, items, indices, kernel, workers=None):
    """Yield a Timed for each pool index in turn, with a calibration
    sample before the first call and after every call."""
    before = kernel.sample()
    for index in indices:
        start = time.perf_counter()
        call = workload.run(items[index], workers)
        seconds = time.perf_counter() - start
        after = kernel.sample()
        yield Timed(index, call, seconds, calibrate.scale(before, after))
        before = after


def timed_phase(workload, items, seconds, kernel, workers=None):
    calls = []
    start = time.perf_counter()
    deadline = start + seconds
    for timed in calibrated(workload, items, itertools.cycle(range(len(items))), kernel,
                            workers):
        calls.append(timed)
        if time.perf_counter() >= deadline:
            break
    return Phase(calls, time.perf_counter() - start)


def failed_operations(workload, items, calls, refs):
    """Operations that raised or whose call disagrees with the reference.
    References are computed once per pool item and cached in ``refs``."""
    failed = 0
    for timed in calls:
        call = timed.call
        errors = sum(1 for s in call.samples if s.error is not None)
        if call.answer is not None:
            if timed.index not in refs:
                refs[timed.index] = workload.reference(items[timed.index])
            if not workload.agrees(call.answer, refs[timed.index]):
                errors = len(call.samples)
        failed += errors
    return failed


def operation_latencies(repeats, scaled):
    """Latency of each operation of the measured set: the median over the
    calls on its pool item (a grid repeats the same trials on every call on
    its config, so each trial gets one value however often it ran).  Calls
    with a failed operation are left out."""
    latencies = []
    for calls in repeats:
        clean = [t for t in calls if all(s.error is None for s in t.call.samples)]
        per_call = [t.latencies if scaled else [s.latency_s for s in t.call.samples]
                    for t in clean]
        latencies += [statistics.median(ops) for ops in zip(*per_call)]
    return latencies


def tail(latencies):
    """Highest percentile with at least TAIL_BEYOND samples beyond it:
    (value, percentile, samples beyond).  Falls back to the maximum when
    there are too few samples."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, 0
    return xs[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def setup_seconds(workload, seed):
    """Raw seconds of importing shadowlp, generating the inputs and running
    one warm-up operation, in each of ``SETUP_PROBES`` fresh interpreters."""
    runs = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"),
             json.dumps(asdict(workload)), str(seed)],
            capture_output=True, text=True, check=True, timeout=150)
        runs.append(float(out.stdout.split()[-1]))
    return runs


def _cgroup_cpu_max():
    """cgroup v2 ``cpu.max``, or the v1 quota and period in the same form."""
    try:
        return Path("/sys/fs/cgroup/cpu.max").read_text().strip()
    except OSError:
        pass
    try:
        quota = Path("/sys/fs/cgroup/cpu/cpu.cfs_quota_us").read_text().strip()
        period = Path("/sys/fs/cgroup/cpu/cpu.cfs_period_us").read_text().strip()
    except OSError:
        return None
    return f"{'max' if quota == '-1' else quota} {period}"


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except OSError:
        return None
    return out.stdout.strip() or None


def environment():
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cgroup_cpu_max": _cgroup_cpu_max(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(),
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_THREADS")},
    }


def _metrics(values, units):
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def run_untraced(workload, seed, seconds):
    """End-to-end metrics, reference checks and the fingerprint.

    Latency, pivots and the fingerprint come from the measured set, the
    operations on the first ``measured_items`` pool items, so their sample
    count and percentiles do not depend on how many calls fit in the
    seconds; measured items the loop did not reach are run after it.
    Pivots and the fingerprint come from the first call on each item, and
    an operation's latency is its median over the calls on its item.
    Throughput and failures count every call of the timed phase.  Set-up
    is scaled by the timed phase's median calibration factor: a probe is
    one process start, so the samples right around it would add the
    host's sub-second jitter to the drift they correct."""
    setup_runs = setup_seconds(workload, seed)
    kernel = calibrate.Kernel()
    items = workload.generate(seed)
    workload.run(items[0])
    phase = timed_phase(workload, items, seconds, kernel)

    refs = {}
    samples = phase.samples
    failed = failed_operations(workload, items, phase.calls, refs)
    by_item = {}
    for timed in phase.calls:
        by_item.setdefault(timed.index, []).append(timed)
    unreached = [i for i in range(workload.measured_items) if i not in by_item]
    for timed in calibrated(workload, items, unreached, kernel):
        by_item[timed.index] = [timed]
    measured = [by_item[i][0] for i in range(workload.measured_items)]
    for i in range(len(measured)):
        if i not in refs:
            refs[i] = workload.reference(items[i])
    measured_ok = all(t.call.answer is not None and workload.agrees(t.call.answer, refs[i])
                      for i, t in enumerate(measured))
    digest = hashlib.sha256()
    for timed in measured:
        answer = timed.call.answer
        line = workload.fingerprint_line(answer) if answer is not None else "error"
        digest.update(line.encode() + b"\n")
    pivots = [s.pivots for t in measured for s in t.call.samples if s.pivots is not None]
    repeats = [by_item[i] for i in range(workload.measured_items)]
    latencies = operation_latencies(repeats, scaled=True) or [phase.wall_s]
    raw_latencies = operation_latencies(repeats, scaled=False) or [phase.wall_s]
    tail_value, tail_percentile, tail_beyond = tail(latencies)
    values = {
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail_value,
        "throughput_per_s": phase.throughput_per_s,
        "setup_s": statistics.median(setup_runs) * phase.median_scale,
        "success_fraction": 1.0 - failed / len(samples),
        "pivots_mean": statistics.fmean(pivots) if pivots else 0.0,
    }
    detail = {
        "fingerprint": "sha256:" + digest.hexdigest(),
        "measured_items": workload.measured_items,
        "failed_fraction": failed / len(samples),
        "errors": dict(Counter(s.error for s in samples if s.error is not None)),
        "latency_tail": {"percentile": tail_percentile, "beyond": tail_beyond,
                         "samples": len(latencies)},
        "calls": len(phase.calls),
        "wall_s": phase.wall_s,
        "calibration": {"ref_s": calibrate.REF_S, "median_scale": phase.median_scale},
        "raw": {"latency_p50_s": statistics.median(raw_latencies),
                "latency_tail_s": tail(raw_latencies)[0],
                "throughput_per_s": len(samples) / sum(t.seconds for t in phase.calls),
                "setup_runs_s": setup_runs},
    }
    result = {"correct": failed == 0 and measured_ok, "attempted": len(samples),
              "failed": failed, "metrics": _metrics(values, END_TO_END_UNITS)}
    return result, detail


def _grid_parallelism(phase):
    """Median over grid calls of the pool overhead (wall time minus trial
    time per worker, host-scaled) and the parallel efficiency."""
    overheads, efficiencies = [], []
    for timed in phase.calls:
        call = timed.call
        if call.wall_s is None:  # the grid raised
            continue
        busy = sum(s.latency_s for s in call.samples)
        overheads.append((call.wall_s - busy / call.workers) * timed.scale)
        efficiencies.append(busy / (call.workers * call.wall_s))
    if not overheads:
        return 0.0, 0.0
    return statistics.median(overheads), statistics.median(efficiencies)


def run_traced(workload, seed, seconds):
    """Per-layer metrics.  An untraced and a traced phase share the same
    settings (the grid on one worker), so their throughput difference is
    the tracing overhead.  The grid adds an untraced phase on its own
    worker count for the pool overhead and parallel efficiency.  Layer
    seconds are scaled by the traced phase's median calibration factor."""
    kernel = calibrate.Kernel()
    items = workload.generate(seed)
    workload.run(items[0])
    grid = isinstance(workload, workloads.GridWorkload)
    share = seconds / (3 if grid else 2)
    phases = []
    overhead_s = efficiency = 0.0
    if grid:
        parallel = timed_phase(workload, items, share, kernel)
        overhead_s, efficiency = _grid_parallelism(parallel)
        phases.append(parallel)
    serial_workers = 1 if grid else None
    untraced = timed_phase(workload, items, share, kernel, serial_workers)
    tracer = Tracer()
    with tracer.installed():
        traced = timed_phase(workload, items, share, kernel, serial_workers)
    phases += [untraced, traced]

    refs = {}
    calls = [c for phase in phases for c in phase.calls]
    failed = failed_operations(workload, items, calls, refs)
    attempted = sum(len(t.call.samples) for t in calls)
    values, largest, spans = per_layer_metrics(tracer, len(traced.samples))
    for name, unit in PER_LAYER_UNITS.items():
        if unit == "s" and name in values:
            values[name] *= traced.median_scale
    values["experiments.overhead_s"] = overhead_s
    values["experiments.parallel_efficiency"] = efficiency
    values["tracing.overhead_per_s"] = traced.throughput_per_s - untraced.throughput_per_s
    detail = {
        "largest_self_time_layer": largest,
        "spans": spans,
        "traced_operations": len(traced.samples),
        "untraced_throughput_per_s": untraced.throughput_per_s,
        "traced_throughput_per_s": traced.throughput_per_s,
        "calibration": {"ref_s": calibrate.REF_S, "median_scale": traced.median_scale},
        "failed_fraction": failed / attempted,
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": _metrics(values, PER_LAYER_UNITS)}
    return result, detail


def run(workload, seed, seconds, trace):
    """One benchmark run; returns (result line, detail record)."""
    if trace:
        result, detail = run_traced(workload, seed, seconds)
    else:
        result, detail = run_untraced(workload, seed, seconds)
    detail = {"workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": environment(), **detail}
    return result, detail
