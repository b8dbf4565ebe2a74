"""Experiment harness: config validation, grid order, CSV shape, aggregates,
per-row replay, error capture, and byte determinism."""

import os
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import shadowlp

from shadowlp import experiments
from shadowlp.experiments import (
    PIVOT_COLUMNS,
    SECTION_COLUMNS,
    ExperimentConfig,
    csv_text,
    fit_log_slope,
    replay_pivot_trial,
    replay_section_trial,
    rows_as_dicts,
    run_pivot_experiment,
    run_section_experiment,
    strip_timing,
)

from helpers import read_csv


def _small_config(**overrides):
    base = dict(n=[6, 8], d=[2], sigma=[0.3, 0.5], trials=3, seed=811)
    base.update(overrides)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# config


def test_config_coerces_scalars_and_orders_cells():
    config = ExperimentConfig(n=8, d=[2, 3], sigma=[0.1, 0.5], trials=2, seed=1)
    assert config.n == (8,)
    assert config.cells() == [(8, 2, 0.1), (8, 2, 0.5), (8, 3, 0.1), (8, 3, 0.5)]
    grid = ExperimentConfig(n=[5, 7], d=[2], sigma=[0.1], seed=1)
    assert grid.cells() == [(5, 2, 0.1), (7, 2, 0.1)]  # n varies fastest


@pytest.mark.parametrize("bad", [
    dict(n=[3], d=[3]),            # n <= d
    dict(sigma=[0.0]),             # sigma not positive
    dict(sigma=[-1.0]),
    dict(trials=0),
    dict(threads=0),
    dict(seed=-1),
    dict(model="hexagon"),
])
def test_config_rejects_bad_fields(bad):
    with pytest.raises(ValueError):
        ExperimentConfig(**{**dict(n=[8], d=[3], sigma=[0.1], seed=0), **bad})


def test_config_stores_integer_fields_as_int():
    config = ExperimentConfig(n=[np.int64(8)], d=np.int32(3), sigma=[0.1], trials=np.uint8(2),
                              seed=np.uint64(2 ** 64 - 1), threads=np.int64(1))
    assert (config.n, config.d, config.trials, config.threads) == ((8,), (3,), 2, 1)
    assert type(config.seed) is int and config.seed == 2 ** 64 - 1


def test_config_fixture_models_skip_grid_check():
    config = ExperimentConfig(n=[2], d=[3], sigma=[0.1], model="square", seed=0)
    assert config.model == "square"


def test_from_mapping_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown fields"):
        ExperimentConfig.from_mapping({"n": [8], "d": [3], "sigma": [0.1],
                                       "sigmas": [0.2]})


# ---------------------------------------------------------------------------
# single trials


def test_replay_pivot_trial_is_deterministic():
    a = replay_pivot_trial(12345, 8, 3, 0.2)
    b = replay_pivot_trial(12345, 8, 3, 0.2)
    assert a == b
    assert a["status"] in ("optimal", "unbounded", "infeasible")
    if a["status"] == "optimal":
        assert a["pivots_total"] == a["pivots_phase1_total"] + a["pivots_phase2"]


def test_replay_section_trial_fixtures():
    square = replay_section_trial(0, 8, 3, 0.1, model="square")
    assert square == {"status": "ok", "edge_count": 4, "degenerate": 0}
    degenerate = replay_section_trial(0, 8, 3, 0.1, model="degenerate")
    assert degenerate == {"status": "degenerate", "edge_count": 0, "degenerate": 1}


# ---------------------------------------------------------------------------
# grids


def test_pivot_grid_shape_and_row_order():
    header, rows = run_pivot_experiment(_small_config())
    assert header == PIVOT_COLUMNS
    # 4 cells x (3 trials + mean + sem)
    assert len(rows) == 4 * 5
    dicts = rows_as_dicts(header, rows)
    kinds = [row["kind"] for row in dicts]
    assert kinds == ["trial", "trial", "trial", "mean", "sem"] * 4
    assert all(row["schema_version"] == "1" for row in dicts)
    # cell order: (6,.3),(8,.3),(6,.5),(8,.5); trials ascending inside
    cells = [(row["n"], row["sigma"]) for row in dicts if row["kind"] == "trial"]
    assert cells == ([("6", "0.3")] * 3 + [("8", "0.3")] * 3
                     + [("6", "0.5")] * 3 + [("8", "0.5")] * 3)
    trials = [row["trial"] for row in dicts if row["kind"] == "trial"]
    assert trials == ["0", "1", "2"] * 4


def test_pivot_grid_aggregates_match_trial_rows():
    header, rows = run_pivot_experiment(_small_config())
    dicts = rows_as_dicts(header, rows)
    first_cell = dicts[:5]
    values = np.array([float(r["pivots_total"]) for r in first_cell[:3]])
    mean_row, sem_row = first_cell[3], first_cell[4]
    assert float(mean_row["pivots_total"]) == pytest.approx(values.mean())
    assert float(sem_row["pivots_total"]) == pytest.approx(
        values.std(ddof=1) / np.sqrt(3))
    # aggregate bookkeeping: trial column = ok count, seed/status blank
    assert mean_row["trial"] == "3"
    assert mean_row["seed"] == "" and mean_row["status"] == ""


def test_trial_rows_replay_in_isolation():
    header, rows = run_pivot_experiment(_small_config(trials=2))
    for row in rows_as_dicts(header, rows, kind="trial")[:4]:
        again = replay_pivot_trial(int(row["seed"]), int(row["n"]),
                                   int(row["d"]), float(row["sigma"]))
        assert row["status"] == again["status"]
        assert int(row["pivots_total"]) == again["pivots_total"]
        assert int(row["iterations"]) == again["iterations"]


def test_pivot_grid_rejects_non_smoothed_model():
    with pytest.raises(ValueError, match="smoothed"):
        run_pivot_experiment(_small_config(model="gaussian"))


def test_section_grid_square_and_degenerate_fixtures():
    header, rows = run_section_experiment(
        ExperimentConfig(n=[4], d=[2], sigma=[0.1], trials=2, seed=4,
                         model="square"))
    assert header == SECTION_COLUMNS
    for row in rows_as_dicts(header, rows, kind="trial"):
        assert (row["status"], row["edge_count"], row["degenerate"]) == ("ok", "4", "0")
    _, drows = run_section_experiment(
        ExperimentConfig(n=[4], d=[3], sigma=[0.1], trials=1, seed=4,
                         model="degenerate"))
    trial = rows_as_dicts(header, drows, kind="trial")[0]
    assert (trial["status"], trial["edge_count"], trial["degenerate"]) == ("degenerate", "0", "1")


def test_error_rows_recorded_without_aborting(monkeypatch):
    def boom(seed, n, d, sigma, validate=False):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(experiments, "replay_pivot_trial", boom)
    header, rows = run_pivot_experiment(_small_config(n=[6], sigma=[0.3]))
    dicts = rows_as_dicts(header, rows)
    trial_rows = [r for r in dicts if r["kind"] == "trial"]
    assert len(trial_rows) == 3
    for row in trial_rows:
        assert row["status"] == "error:RuntimeError"
        assert row["pivots_total"] == ""  # numeric fields stay blank
    mean_row = next(r for r in dicts if r["kind"] == "mean")
    assert mean_row["trial"] == "0"  # zero trials aggregated
    assert mean_row["pivots_total"] == ""


def test_aggregates_skip_the_failed_trials_of_a_cell(monkeypatch):
    config = _small_config(n=[6], sigma=[0.3])
    failing = experiments.randgen.sub_seed(config.seed, experiments.PURPOSE_PIVOTS, 0, 1)

    def flaky(seed, n, d, sigma, validate=False):
        if seed == failing:
            raise RuntimeError("synthetic failure")
        return replay_pivot_trial(seed, n, d, sigma, validate)

    monkeypatch.setattr(experiments, "replay_pivot_trial", flaky)
    trial0, trial1, trial2, mean_row, sem_row = rows_as_dicts(*run_pivot_experiment(config))
    assert trial1["status"] == "error:RuntimeError"
    ok = [int(trial0["pivots_total"]), int(trial2["pivots_total"])]
    for row in (mean_row, sem_row):
        assert (row["trial"], row["seed"], row["status"]) == ("2", "", "")
    assert mean_row["pivots_total"] == repr(float(np.mean(ok)))
    assert sem_row["pivots_total"] == repr(float(np.std(ok, ddof=1) / np.sqrt(2)))


def test_sem_of_a_single_trial_is_zero():
    trial, mean_row, sem_row = rows_as_dicts(
        *run_pivot_experiment(_small_config(n=[6], sigma=[0.3], trials=1)))
    assert mean_row["trial"] == sem_row["trial"] == "1"
    assert mean_row["pivots_total"] == repr(float(trial["pivots_total"]))
    assert sem_row["pivots_total"] == sem_row["wall_time_s"] == "0.0"


# ---------------------------------------------------------------------------
# CSV plumbing and determinism


def test_csv_roundtrip_and_strip_timing(tmp_path):
    header, rows = run_pivot_experiment(_small_config(trials=2, n=[6], sigma=[0.3]))
    path = tmp_path / "out.csv"
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(csv_text(header, rows))
    back_header, back_rows = read_csv(path)
    assert back_header == header
    assert back_rows == rows

    stripped_header, stripped_rows = strip_timing(header, rows)
    assert "wall_time_s" not in stripped_header
    assert len(stripped_header) == len(header) - 1
    assert all(len(r) == len(stripped_header) for r in stripped_rows)
    assert csv_text(header, rows, include_timing=False) == csv_text(
        stripped_header, stripped_rows)


def test_grid_bytes_deterministic_and_thread_independent():
    config = _small_config(trials=4, n=[6], sigma=[0.3])
    runs = [run_pivot_experiment(config) for _ in range(2)]
    threaded = run_pivot_experiment(_small_config(trials=4, n=[6], sigma=[0.3],
                                                  threads=2))
    texts = [csv_text(h, r, include_timing=False) for h, r in runs + [threaded]]
    assert texts[0] == texts[1] == texts[2]


# ---------------------------------------------------------------------------
# The kept worker pool


def _serial_and_parallel(run, config, workers):
    """Timing-free CSV texts of ``config`` on one worker and on ``workers``."""
    return tuple(csv_text(*run(replace(config, threads=t)), include_timing=False)
                 for t in (1, workers))


def _kept_pool():
    return experiments._POOL[2]


def _worker_pids():
    return set(_kept_pool()._processes)


def _python(code, *options, **run):
    """Run ``code`` in a fresh interpreter that imports this shadowlp."""
    src = str(Path(shadowlp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = {"capture_output": True, "text": True, **run}
    return subprocess.run([sys.executable, *options, "-c", code], env=env, timeout=60, **run)


def _gone(pid):
    """True once ``pid`` has ended: no such process, or a zombie that its
    new parent has not reaped yet (read from /proc where there is one)."""
    try:
        os.kill(pid, 0)
        stat = Path(f"/proc/{pid}/stat").read_text()
    except ProcessLookupError:
        return True
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] == "Z"


def test_consecutive_grids_reuse_the_pool_and_keep_the_bytes():
    config = _small_config(trials=4)
    serial, first = _serial_and_parallel(run_pivot_experiment, config, 2)
    pool, pids = _kept_pool(), _worker_pids()
    _, second = _serial_and_parallel(run_pivot_experiment, config, 2)
    assert _kept_pool() is pool and _worker_pids() == pids
    assert len(pids) == 2
    assert first == second == serial


def test_grids_of_other_sizes_in_a_row_each_claim_from_trial_zero():
    # A counter left at the previous grid's last index would skip trials.
    configs = [_small_config(n=[6], sigma=[0.3], trials=4),
               _small_config(sigma=[0.3], trials=5),
               _small_config(n=[8], sigma=[0.5], trials=3)]
    pools = []
    for config in configs:
        serial, parallel = _serial_and_parallel(run_pivot_experiment, config, 2)
        assert parallel == serial
        pools.append((_kept_pool(), _worker_pids()))
    assert all(pool is pools[0][0] and pids == pools[0][1] for pool, pids in pools)


@pytest.mark.parametrize("cells, trials", [(1, 2), (3, 1)])
def test_claim_loops_left_without_a_trial_keep_their_workers(cells, trials):
    config = _small_config(n=[6, 7, 8][:cells], sigma=[0.3], trials=trials)
    serial, parallel = _serial_and_parallel(run_pivot_experiment, config, 3)
    assert parallel == serial
    pids = _worker_pids()
    assert len(pids) == 3 and not any(_gone(pid) for pid in pids)


def test_every_trial_is_claimed_once_by_workers_racing_for_the_counter():
    # Three workers on fewer cores claim trials that fail at once (n = 0),
    # so they spend most of their time claiming; a claim outside the
    # counter's lock would take a trial twice or skip one.
    pool, counter = experiments._pool(3)
    tasks = [("pivots", seed, 0, 0, 0.1, "smoothed", False) for seed in range(5000)]
    with counter.get_lock():
        grid = counter[0] + 1
        counter[0], counter[1] = grid, 0
    loops = [pool.submit(experiments._claim_trials, tasks, grid) for _ in range(3)]
    claimed = sorted(i for loop in loops for i, _ in loop.result(timeout=60))
    assert claimed == list(range(len(tasks)))


def test_claim_loop_of_a_grid_given_up_claims_nothing():
    # The parent abandons a grid only when interrupted; the abandoned loops
    # must not take trials from the grid after it.
    run_pivot_experiment(_small_config(trials=2, threads=2))
    pool, counter = experiments._pool(2)
    grid, claimed = counter[0], counter[1]
    tasks = [("pivots", 5, 8, 2, 0.3, "smoothed", False)] * (claimed + 4)
    assert pool.submit(experiments._claim_trials, tasks, grid - 1).result() == []
    assert (counter[0], counter[1]) == (grid, claimed)


def test_grid_after_an_interrupted_one_gets_all_its_trials():
    # The interrupt must stop the grid's claim loops at their next claim,
    # and the next grid on the same pool must not lose trials to them.
    code = ("import signal, time\n"
            "from dataclasses import replace\n"
            "from shadowlp import experiments as e\n"
            "config = e.ExperimentConfig(n=[8], trials=6, seed=3)\n"
            "e.run_pivot_experiment(replace(config, threads=2))\n"
            "def interrupt(*_):\n"
            "    raise KeyboardInterrupt\n"
            "signal.signal(signal.SIGALRM, interrupt)\n"
            "signal.setitimer(signal.ITIMER_REAL, 0.3)\n"
            "try:\n"
            "    e.run_pivot_experiment(\n"
            "        e.ExperimentConfig(n=[16], trials=4000, seed=3, threads=2))\n"
            "except KeyboardInterrupt:\n"
            "    pass\n"
            "claimed = e._POOL[3][1]\n"
            "assert 0 < claimed < 4000, 'not interrupted while its trials ran'\n"
            "time.sleep(0.5)\n"
            "assert e._POOL[3][1] == claimed, 'the loops went on claiming'\n"
            "serial = e.csv_text(*e.run_pivot_experiment(config), include_timing=False)\n"
            "parallel = e.run_pivot_experiment(replace(config, threads=2))\n"
            "assert e.csv_text(*parallel, include_timing=False) == serial")
    out = _python(code)
    assert out.returncode == 0, out.stderr


def test_section_grid_runs_on_the_pool_a_pivot_grid_left():
    run_pivot_experiment(_small_config(trials=2, threads=2))
    pool, pids = _kept_pool(), _worker_pids()
    config = ExperimentConfig(n=[12, 24], d=[3, 5], sigma=[0.1], trials=4, seed=5)
    serial, parallel = _serial_and_parallel(run_section_experiment, config, 2)
    assert _kept_pool() is pool and _worker_pids() == pids
    assert parallel == serial


def test_grid_after_a_worker_was_killed_reruns_on_a_fresh_pool():
    config = _small_config(trials=4)
    serial, _ = _serial_and_parallel(run_pivot_experiment, config, 2)
    pool = _kept_pool()
    victim = pool.submit(os.getpid).result()
    os.kill(victim, signal.SIGKILL)
    _, after = _serial_and_parallel(run_pivot_experiment, config, 2)
    assert after == serial
    assert _kept_pool() is not pool and victim not in _worker_pids()


def test_another_worker_count_replaces_the_pool():
    config = _small_config(trials=4)
    serial, two = _serial_and_parallel(run_pivot_experiment, config, 2)
    old = _worker_pids()
    experiments._pool(3)
    assert all(_gone(pid) for pid in old)  # joined before the new pool forks
    _, three = _serial_and_parallel(run_pivot_experiment, config, 3)
    assert two == three == serial
    assert len(_worker_pids()) == 3


@pytest.mark.parametrize("entry", ["library", "cli"])
def test_interpreter_with_a_parallel_grid_exits_and_ends_its_workers(entry, tmp_path):
    config = tmp_path / "grid.json"
    config.write_text('{"n": [8], "trials": 4, "seed": 3}')
    grid = {"library": "e.run_pivot_experiment(e.ExperimentConfig(n=[8], trials=4, seed=3, threads=2))",
            "cli": (f"cli.main(['experiment-pivots', '--config', {str(config)!r}, '--threads', '2',"
                    f" '--out', {str(tmp_path / 'grid.csv')!r}])")}[entry]
    code = ("from shadowlp import cli, experiments as e\n"
            f"{grid}\n"
            "print(*e._POOL[2]._processes)")
    out = _python(code, "-X", "dev", "-W", "error")
    assert out.returncode == 0, out.stderr
    pids = [int(pid) for pid in out.stdout.splitlines()[-1].split()]
    assert len(pids) == 2 and all(_gone(pid) for pid in pids)


def test_workers_end_with_a_parent_that_skips_exit_hooks(tmp_path):
    # os._exit runs no exit hook, so nothing joins the pool; the workers
    # must see their parent go.  Their pids go to a file: a worker still
    # holding an inherited stdout pipe would keep subprocess.run waiting.
    pids_file = tmp_path / "pids"
    code = ("import os\n"
            "from shadowlp import experiments as e\n"
            "e.run_pivot_experiment(e.ExperimentConfig(n=[8], trials=4, seed=3, threads=2))\n"
            f"open({str(pids_file)!r}, 'w').write(' '.join(map(str, e._POOL[2]._processes)))\n"
            "os._exit(0)")
    out = _python(code, capture_output=False, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    assert out.returncode == 0
    pids = [int(pid) for pid in pids_file.read_text().split()]
    deadline = time.monotonic() + 10
    while not all(_gone(pid) for pid in pids) and time.monotonic() < deadline:
        time.sleep(0.1)
    alive = [pid for pid in pids if not _gone(pid)]
    for pid in alive:
        os.kill(pid, signal.SIGKILL)  # leave nothing running on failure
    assert len(pids) == 2 and not alive


def test_forked_child_runs_its_grid_on_a_pool_of_its_own():
    # The child inherits the parent's pool object but none of its workers or
    # threads; its grid must not be queued there.  The alarm ends a hung
    # child; it exits through SystemExit so that its own pool is joined.
    code = ("import os, signal\n"
            "from shadowlp import experiments as e\n"
            "config = e.ExperimentConfig(n=[8], trials=4, seed=3, threads=2)\n"
            "before = e.csv_text(*e.run_pivot_experiment(config), include_timing=False)\n"
            "pid = os.fork()\n"
            "if pid == 0:\n"
            "    signal.alarm(30)\n"
            "    text = e.csv_text(*e.run_pivot_experiment(config), include_timing=False)\n"
            "    raise SystemExit(0 if text == before else 1)\n"
            "print(os.waitpid(pid, 0)[1])")
    out = _python(code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["0"]  # the child's wait status: exit code 0


def test_fit_log_slope_recovers_power_law():
    ns = [16, 64, 256, 1024]
    means = [3.0 * n ** 0.37 for n in ns]
    assert fit_log_slope(ns, means) == pytest.approx(0.37, abs=1e-12)
