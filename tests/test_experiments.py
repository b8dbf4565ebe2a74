"""Experiment harness: config validation, grid order, CSV shape, aggregates,
per-row replay, error capture, and byte determinism."""

import numpy as np
import pytest

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


def test_fit_log_slope_recovers_power_law():
    ns = [16, 64, 256, 1024]
    means = [3.0 * n ** 0.37 for n in ns]
    assert fit_log_slope(ns, means) == pytest.approx(0.37, abs=1e-12)
