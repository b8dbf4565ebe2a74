"""Reproducible experiment grids with CSV output.

Two experiments share one config and one CSV shape:

* pivot experiment — sample a smoothed instance per trial, run the two-phase
  solver, record pivot counts (``run_pivot_experiment``);
* section experiment — sample a random polytope per trial, count the edges of
  its planar section (``run_section_experiment``).

CSV contract
------------
Every file starts with a header row.  Each data row carries ``schema_version``
(currently ``1``) and a ``kind`` column: ``trial`` rows hold one measurement,
``mean`` and ``sem`` rows hold per-cell aggregates over the non-error trials
(standard error uses the sample standard deviation; in aggregate rows the
``trial`` column holds the number of trials aggregated and ``seed``/``status``
are blank).  Rows appear cell by cell in config grid order — the product of
the ``d``, ``sigma``, ``n`` lists, ``n`` fastest — with trials ascending, then
the two aggregate rows, so parallel execution never changes the bytes.

Per-trial failures are recorded in the row's status as ``error:<TypeName>``
with numeric fields blank; they never abort the sweep.

Seeds
-----
Each trial's seed is ``randgen.sub_seed(config.seed, purpose, cell_index,
trial)`` where ``purpose`` is ``PURPOSE_PIVOTS`` or ``PURPOSE_SECTIONS``.  The
trial seed is written to the CSV, and the trial consumes only streams derived
from it, so any single row can be replayed in isolation
(``replay_pivot_trial`` / ``replay_section_trial``).

``wall_time_s`` is the only timing column; it is excluded from the
determinism contract and can be stripped with ``strip_timing`` or omitted
when rendering (``csv_text(..., include_timing=False)``).

Workers
-------
A grid with ``threads > 1`` runs its trials on a process pool that the
module keeps between calls: one pool per process, forked at the first such
grid, reused by every later grid of the same worker count and shut down
and joined before a pool of another count forks.  Each pool has a counter
shared with its workers.  A grid resets it and submits one claim loop per
worker; each loop claims trials one at a time under the counter's lock,
so a worker that draws quick trials takes more of them, and sends all of
its rows in one message once no trial is left.  The parent puts the rows
back in task order.  A process runs one parallel grid at a time on its
pool, since the counter holds one grid; a grid the parent gave up (an
interrupt) stops its loops at their next claim.  If a worker has died
since the last grid (a signal, the OOM killer), the broken pool is dropped
and the grid runs once more on a fresh one; trials are pure functions of
their seeds, so the rerun gives the same rows.  A process forked from one
that holds the pool starts a pool of its own.  The workers end with the
interpreter, joined by ``concurrent.futures``' exit hook; each also ends
itself within a second of its parent, should the parent end without exit
hooks (SIGTERM, ``os._exit``, SIGKILL).  They run the library as it was
when they were forked: a module attribute patched later in the parent does
not reach them.
"""

from __future__ import annotations

import csv
import io
import multiprocessing
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

import numpy as np

from . import randgen, sections
from .interpolate import solve_lp
from .shadow_walk import SweepPlane

SCHEMA_VERSION = 1

PURPOSE_PIVOTS = 1
PURPOSE_SECTIONS = 2

PIVOT_COLUMNS = (
    "schema_version", "kind", "n", "d", "sigma", "trial", "seed", "status",
    "pivots_phase1_total", "pivots_phase2", "pivots_total", "iterations",
    "wall_time_s",
)

SECTION_COLUMNS = (
    "schema_version", "kind", "n", "d", "sigma", "trial", "seed", "status",
    "edge_count", "degenerate", "wall_time_s",
)

TIMING_COLUMNS = ("wall_time_s",)

# Aggregates are computed over these columns (those present in the header).
_AGGREGATE_COLUMNS = (
    "pivots_phase1_total", "pivots_phase2", "pivots_total", "iterations",
    "edge_count", "degenerate", "wall_time_s",
)

SECTION_MODELS = ("smoothed", "gaussian", "square", "degenerate")
SEED_LIMIT = 2 ** 64  # seeds are integers in [0, SEED_LIMIT)


def _as_tuple(value):
    return tuple(value) if isinstance(value, (list, tuple)) else (value,)


def _integer(name, value):
    """value as an int; ValueError naming the field unless it is an integer
    (a bool is not)."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    raise ValueError(f"config field '{name}': need an integer")


def _real(name, value):
    """value as a float; ValueError naming the field unless it is a real
    number (a bool or a string is not)."""
    if isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool):
        return float(value)
    raise ValueError(f"config field '{name}': need a number")


@dataclass(frozen=True)
class ExperimentConfig:
    """Grid over (n, d, sigma) with a trial count and a base seed.

    ``model`` selects the sampling model for the section experiment
    (``smoothed`` sphere centers + noise, ``gaussian`` centered Gaussians with
    scale sigma, or the fixed ``square`` / ``degenerate`` fixtures); the pivot
    experiment accepts only ``smoothed``.
    """

    n: tuple = (8,)
    d: tuple = (3,)
    sigma: tuple = (0.1,)
    trials: int = 1
    seed: int = 0
    out: str | os.PathLike | None = None
    threads: int = 1
    model: str = "smoothed"

    def __post_init__(self):
        for name in ("n", "d"):
            values = tuple(_integer(name, v) for v in _as_tuple(getattr(self, name)))
            object.__setattr__(self, name, values)
        for name in ("trials", "seed", "threads"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        object.__setattr__(self, "sigma", tuple(_real("sigma", v) for v in _as_tuple(self.sigma)))
        if self.out is not None and not isinstance(self.out, (str, os.PathLike)):
            raise ValueError("config field 'out': need a path")
        for name in ("n", "d", "sigma"):
            if not getattr(self, name):
                raise ValueError(f"config field '{name}': must be non-empty")
        for dv in self.d:
            if dv < 2:
                raise ValueError(f"config field 'd': need d >= 2, got {dv}")
        if self.model not in ("square", "degenerate"):
            for nv in self.n:
                for dv in self.d:
                    if nv <= dv:
                        raise ValueError(
                            f"config fields 'n'/'d': need n > d in every cell,"
                            f" got n={nv}, d={dv}")
        for sv in self.sigma:
            if not (sv > 0.0) or not np.isfinite(sv):
                raise ValueError(f"config field 'sigma': need sigma > 0, got {sv}")
        if self.trials < 1:
            raise ValueError(f"config field 'trials': need trials >= 1, got {self.trials}")
        if not (0 <= self.seed < SEED_LIMIT):
            raise ValueError(f"config field 'seed': need a 64-bit value, got {self.seed}")
        if self.threads < 1:
            raise ValueError(f"config field 'threads': need threads >= 1, got {self.threads}")
        if self.model not in SECTION_MODELS:
            raise ValueError(
                f"config field 'model': expected one of {SECTION_MODELS}, got {self.model!r}")

    @classmethod
    def from_mapping(cls, mapping):
        """Build a config from a parsed JSON object, rejecting unknown keys."""
        allowed = {"n", "d", "sigma", "trials", "seed", "out", "threads", "model"}
        unknown = sorted(set(mapping) - allowed)
        if unknown:
            raise ValueError(f"config: unknown fields {unknown}; allowed fields are {sorted(allowed)}")
        return cls(**mapping)

    def cells(self):
        """Grid cells as (n, d, sigma), n varying fastest."""
        return [(n, d, s) for d in self.d for s in self.sigma for n in self.n]


# ---------------------------------------------------------------------------
# Single trials


def replay_pivot_trial(seed, n, d, sigma, validate=False):
    """Sample one smoothed instance from ``seed`` and solve it.

    Returns a dict with status, the three pivot counters, and iterations.
    """
    spec = randgen.normalize(randgen.random_spec(n, d, sigma, randgen.derive_rng(seed, 0)))
    lp = randgen.sample_instance(spec, randgen.derive_rng(seed, 1))
    result = solve_lp(lp, rng=randgen.sub_seed(seed, 2), validate=validate)
    return {
        "status": result.status,
        "pivots_phase1_total": result.pivots_phase1,
        "pivots_phase2": result.pivots_phase2,
        "pivots_total": result.pivots_phase1 + result.pivots_phase2,
        "iterations": result.phase1_iterations,
    }


SQUARE_POINTS = np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])

# A blob strictly inside the halfspace x3 >= 12; the sweep plane x3 = 0
# misses its hull entirely.
_DEGENERATE_POINTS = np.array([
    [0.0, 0.0, 12.0], [1.0, 0.0, 13.0], [-1.0, 1.0, 13.0], [0.3, -1.0, 12.5],
])


def _section_points(seed, n, d, sigma, model):
    rng = randgen.derive_rng(seed, 0)
    if model == "smoothed":
        return randgen.smoothed_points(rng, n, d, sigma)
    if model == "gaussian":
        return randgen.gaussian(rng, (n, d), sigma=sigma)
    if model == "square":
        return SQUARE_POINTS.copy()
    if model == "degenerate":
        return _DEGENERATE_POINTS.copy()
    raise ValueError(f"unknown section model {model!r}")


def replay_section_trial(seed, n, d, sigma, model="smoothed", validate=False):
    """Sample one random polytope from ``seed`` and count its section edges."""
    points = _section_points(seed, n, d, sigma, model)
    plane = SweepPlane.axis(points.shape[1])
    report = sections.section_edges(points, plane, rng=randgen.sub_seed(seed, 1),
                                    validate=validate)
    return {
        "status": "degenerate" if report.degenerate else "ok",
        "edge_count": report.edge_count,
        "degenerate": int(report.degenerate),
    }


# ---------------------------------------------------------------------------
# Grid runners


def _run_one(task):
    kind, seed, n, d, sigma, model, validate = task
    start = time.perf_counter()
    try:
        if kind == "pivots":
            values = replay_pivot_trial(seed, n, d, sigma, validate=validate)
        else:
            values = replay_section_trial(seed, n, d, sigma, model, validate=validate)
    except Exception as exc:  # recorded in-row; the sweep must go on
        values = {"status": f"error:{type(exc).__name__}"}
    values["wall_time_s"] = time.perf_counter() - start
    return values


def _format(value):
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


# The kept worker pool (see the module docstring): (owner pid, workers,
# executor, counter) or None.  The counter is shared with the pool's
# workers and holds two integers under one lock: the number of the grid
# on the pool and the index of its next unclaimed trial.
_POOL = None

# In a pool worker, its pool's counter (set by ``_start_worker``).
_COUNTER = None


def _pool(workers):
    """The kept pool with ``workers`` workers and its counter; a pool of
    another count is shut down and joined before the new one forks.  A pool
    inherited through a fork is forgotten: its workers and its manager
    thread belong to the parent, and a grid submitted to it would wait
    forever."""
    global _POOL
    if _POOL is not None and _POOL[0] != os.getpid():
        _POOL = None
    if _POOL is not None and _POOL[1] != workers:
        _drop_pool()
    if _POOL is None:
        counter = multiprocessing.Array("q", 2)
        _POOL = (os.getpid(), workers, ProcessPoolExecutor(
            max_workers=workers, initializer=_start_worker,
            initargs=(os.getpid(), counter)), counter)
    return _POOL[2:]


def _start_worker(parent, counter):
    """Worker initializer: keep the pool's counter, and start a daemon
    thread that ends the worker once ``parent`` is gone.  An idle worker
    would never notice by itself, since it holds the write end of its own
    call queue; a parent that ends without exit hooks (SIGTERM,
    ``os._exit``, SIGKILL) would leave it waiting forever."""
    global _COUNTER
    _COUNTER = counter

    def watch():
        while os.getppid() == parent:
            time.sleep(0.5)
        os._exit(1)
    threading.Thread(target=watch, daemon=True).start()


def _drop_pool():
    global _POOL
    pool = _POOL[2]
    _POOL = None
    pool.shutdown()


def _claim_trials(tasks, grid):
    """A worker's share of grid number ``grid``: claim the next trial under
    the counter's lock and run it, until no trial is left or the counter
    holds another grid number (the parent gave this grid up), then answer
    with the (index, values) pairs in one message."""
    lock, counter = _COUNTER.get_lock(), _COUNTER.get_obj()  # raw: one lock per claim
    done = []
    while True:
        with lock:
            if counter[0] != grid or counter[1] >= len(tasks):
                return done
            i = counter[1]
            counter[1] = i + 1
        done.append((i, _run_one(tasks[i])))


def _claimed_grid(tasks, workers):
    """One grid on the kept pool: a new grid number and trial 0 in the
    counter, one claim loop per worker, the pairs put back in task order.
    An interrupted grid moves the grid number on, so its loops stop."""
    pool, counter = _pool(workers)
    with counter.get_lock():
        grid = counter[0] + 1
        counter[0], counter[1] = grid, 0
    loops = [pool.submit(_claim_trials, tasks, grid) for _ in range(workers)]
    results = [None] * len(tasks)
    try:
        for loop in loops:
            for i, values in loop.result():
                results[i] = values
    except KeyboardInterrupt:  # given up: the loops stop at their next claim
        with counter.get_lock():
            counter[0] = grid + 1
        raise
    return results


def _parallel_map(tasks, workers):
    """_run_one over tasks on the kept pool, results in task order: each
    worker claims trials from the pool's counter.  A pool broken since the
    last grid is replaced and the grid run once more; a second break
    raises."""
    try:
        return _claimed_grid(tasks, workers)
    except BrokenProcessPool:
        _drop_pool()
    return _claimed_grid(tasks, workers)


def _run_grid(config, kind, columns, validate):
    cells = config.cells()
    tasks = []
    for ci, (n, d, sigma) in enumerate(cells):
        purpose = PURPOSE_PIVOTS if kind == "pivots" else PURPOSE_SECTIONS
        for t in range(config.trials):
            seed = randgen.sub_seed(config.seed, purpose, ci, t)
            tasks.append((kind, seed, n, d, sigma, config.model, validate))

    if config.threads > 1:
        results = _parallel_map(tasks, config.threads)
    else:
        results = [_run_one(task) for task in tasks]

    rows = []
    for ci, (n, d, sigma) in enumerate(cells):
        cell_rows = []
        for t in range(config.trials):
            values = results[ci * config.trials + t]
            row = {col: "" for col in columns}
            row.update(schema_version=str(SCHEMA_VERSION), kind="trial",
                       n=str(n), d=str(d), sigma=_format(sigma), trial=str(t),
                       seed=str(tasks[ci * config.trials + t][1]))
            for col, value in values.items():
                row[col] = _format(value)
            cell_rows.append(row)
        rows.extend(cell_rows)
        rows.extend(_aggregate(cell_rows, columns))
    return columns, [[row[col] for col in columns] for row in rows]


def _aggregate(cell_rows, columns):
    ok = [row for row in cell_rows if not row["status"].startswith("error:")]
    mean_row = {col: "" for col in columns}
    sem_row = {col: "" for col in columns}
    shared = dict(schema_version=str(SCHEMA_VERSION),
                  n=cell_rows[0]["n"], d=cell_rows[0]["d"],
                  sigma=cell_rows[0]["sigma"], trial=str(len(ok)))
    mean_row.update(shared, kind="mean")
    sem_row.update(shared, kind="sem")
    for col in _AGGREGATE_COLUMNS:
        if col not in columns or not ok:
            continue
        data = np.array([float(row[col]) for row in ok])
        mean_row[col] = _format(float(data.mean()))
        sem = float(data.std(ddof=1) / np.sqrt(len(data))) if len(data) > 1 else 0.0
        sem_row[col] = _format(sem)
    return [mean_row, sem_row]


def run_pivot_experiment(config, validate=False):
    """Run the pivot-count grid; returns (header, rows of strings)."""
    if config.model != "smoothed":
        raise ValueError(f"pivot experiment supports only model='smoothed', got {config.model!r}")
    return _run_grid(config, "pivots", PIVOT_COLUMNS, validate)


def run_section_experiment(config, validate=False):
    """Run the section-edge-count grid; returns (header, rows of strings)."""
    return _run_grid(config, "sections", SECTION_COLUMNS, validate)


# ---------------------------------------------------------------------------
# CSV plumbing


def strip_timing(header, rows):
    """Drop timing columns; the remainder is the deterministic payload."""
    keep = [i for i, col in enumerate(header) if col not in TIMING_COLUMNS]
    return (tuple(header[i] for i in keep),
            [[row[i] for i in keep] for row in rows])


def csv_text(header, rows, include_timing=True):
    """Render to CSV text with a fixed line terminator."""
    if not include_timing:
        header, rows = strip_timing(header, rows)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def rows_as_dicts(header, rows, kind=None):
    """Rows as {column: string} dicts, optionally filtered by kind."""
    out = [dict(zip(header, row)) for row in rows]
    if kind is not None:
        out = [row for row in out if row["kind"] == kind]
    return out


def fit_log_slope(ns, means):
    """Least-squares slope of log(mean) against log(n)."""
    x = np.log(np.asarray(ns, dtype=float))
    y = np.log(np.asarray(means, dtype=float))
    return float(np.polyfit(x, y, 1)[0])
