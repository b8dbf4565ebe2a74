"""Command-line interface: exit codes, JSON reports, diagnostics, and CSV
output."""

import csv
import io
import json

import pytest

from shadowlp import cli, verify
from shadowlp.geometry import SingularSystem
from shadowlp.interpolate import NumericFailure
from shadowlp.phase1 import GaveUp
from shadowlp.shadow_walk import CycleSuspected, WalkInvariantViolation, WalkStateError


OPTIMAL_INSTANCE = {
    "d": 2, "n": 3,
    "A": [[1.0, 0.0], [0.0, 1.0], [0.9, 0.9]],
    "b": [1.0, 1.0, 2.0],
    "z": [1.0, 1.0],
}

UNBOUNDED_INSTANCE = {
    "d": 2, "n": 3,
    "A": [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]],
    "b": [1.0, 1.0, 1.0],
    "z": [-1.0, 0.0],
}

INFEASIBLE_INSTANCE = {
    "d": 2, "n": 4,
    "A": [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
    "b": [-3.0, -3.0, 1.0, 1.0],
    "z": [1.0, 0.3],
}


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload) if isinstance(payload, dict) else payload)
    return str(path)


def _parse_csv(text):
    return list(csv.reader(io.StringIO(text)))


# ---------------------------------------------------------------------------
# solve


def test_solve_optimal_report(tmp_path, capsys):
    path = _write(tmp_path, "opt.json", OPTIMAL_INSTANCE)
    assert cli.main(["solve", path, "--seed", "3", "--validate"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "optimal"
    assert report["basis"] == [0, 1]
    assert report["x_opt"] == pytest.approx([1.0, 1.0], abs=1e-9)
    assert report["objective"] == pytest.approx(2.0, abs=1e-9)
    assert report["pivots_phase1"] >= 0
    assert report["phase1_iterations"] >= 1


def test_solve_unbounded_and_infeasible_exit_zero(tmp_path, capsys):
    for name, payload, status in (("unb.json", UNBOUNDED_INSTANCE, "unbounded"),
                                  ("inf.json", INFEASIBLE_INSTANCE, "infeasible")):
        path = _write(tmp_path, name, payload)
        assert cli.main(["solve", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == status
        assert report["basis"] is None
        assert report["x_opt"] is None
        assert report["objective"] is None


def test_solve_parse_error_names_the_line(tmp_path, capsys):
    path = _write(tmp_path, "trunc.json", '{"d": 2, "n": 3, "A": [[1, 0]')
    assert cli.main(["solve", path]) == 2
    err = capsys.readouterr().err
    assert "parse error" in err and "line 1" in err


def test_solve_rejects_unknown_and_missing_fields(tmp_path, capsys):
    bad = dict(OPTIMAL_INSTANCE, extra=1)
    assert cli.main(["solve", _write(tmp_path, "extra.json", bad)]) == 2
    assert "unknown fields ['extra']" in capsys.readouterr().err
    missing = {k: v for k, v in OPTIMAL_INSTANCE.items() if k != "z"}
    assert cli.main(["solve", _write(tmp_path, "missing.json", missing)]) == 2
    assert "missing fields ['z']" in capsys.readouterr().err


def test_solve_reports_bad_row_shape(tmp_path, capsys):
    bad = dict(OPTIMAL_INSTANCE, A=[[1.0, 0.0], [0.0], [0.9, 0.9]])
    assert cli.main(["solve", _write(tmp_path, "row.json", bad)]) == 2
    assert "row 1" in capsys.readouterr().err


def test_solve_missing_file(capsys):
    assert cli.main(["solve", "/nonexistent/instance.json"]) == 2
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("error", [NumericFailure, GaveUp, CycleSuspected, SingularSystem,
                                   WalkStateError, WalkInvariantViolation],
                         ids=lambda error: error.__name__)
def test_solve_numeric_failure_exits_one(tmp_path, capsys, monkeypatch, error):
    def boom(lp, rng=None, validate=False):
        raise error("synthetic degenerate state")

    monkeypatch.setattr(cli, "solve_lp", boom)
    path = _write(tmp_path, "opt.json", OPTIMAL_INSTANCE)
    assert cli.main(["solve", path]) == 1
    assert "numeric failure" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# experiments


PIVOT_CONFIG = {"n": [6], "d": [2], "sigma": [0.3], "trials": 3, "seed": 97}


def test_experiment_pivots_stdout_deterministic(tmp_path, capsys):
    path = _write(tmp_path, "config.json", PIVOT_CONFIG)
    outputs = []
    for _ in range(2):
        assert cli.main(["experiment-pivots", "--config", path]) == 0
        outputs.append(_parse_csv(capsys.readouterr().out))
    headers = outputs[0][0]
    assert headers[-1] == "wall_time_s"
    stripped = [[row[:-1] for row in run] for run in outputs]
    assert stripped[0] == stripped[1]
    # 3 trials + mean + sem, plus the header
    assert len(outputs[0]) == 1 + 5


def test_experiment_seed_override_changes_rows(tmp_path, capsys):
    path = _write(tmp_path, "config.json", PIVOT_CONFIG)
    assert cli.main(["experiment-pivots", "--config", path]) == 0
    base = _parse_csv(capsys.readouterr().out)
    assert cli.main(["experiment-pivots", "--config", path, "--seed", "98"]) == 0
    reseeded = _parse_csv(capsys.readouterr().out)
    seed_col = base[0].index("seed")
    assert base[1][seed_col] != reseeded[1][seed_col]


def test_experiment_out_writes_file(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    config = dict(PIVOT_CONFIG, out=str(out))
    path = _write(tmp_path, "config.json", config)
    assert cli.main(["experiment-pivots", "--config", path]) == 0
    assert f"wrote {out}" in capsys.readouterr().out
    rows = _parse_csv(out.read_text())
    assert rows[0][0] == "schema_version"
    assert len(rows) == 1 + 5


def test_experiment_threads_override_keeps_bytes(tmp_path, capsys):
    path = _write(tmp_path, "config.json", PIVOT_CONFIG)
    assert cli.main(["experiment-pivots", "--config", path]) == 0
    serial = _parse_csv(capsys.readouterr().out)
    assert cli.main(["experiment-pivots", "--config", path, "--threads", "2"]) == 0
    parallel = _parse_csv(capsys.readouterr().out)
    assert [r[:-1] for r in serial] == [r[:-1] for r in parallel]


def test_experiment_sections_square_model(tmp_path, capsys):
    config = {"n": [4], "d": [2], "sigma": [0.1], "trials": 2, "seed": 5,
              "model": "square"}
    path = _write(tmp_path, "config.json", config)
    assert cli.main(["experiment-sections", "--config", path]) == 0
    rows = _parse_csv(capsys.readouterr().out)
    header = rows[0]
    edge_col = header.index("edge_count")
    kind_col = header.index("kind")
    for row in rows[1:]:
        if row[kind_col] == "trial":
            assert row[edge_col] == "4"


def test_experiment_bad_config_field(tmp_path, capsys):
    path = _write(tmp_path, "config.json", {"n": [6], "d": [2], "sigma": [0.3],
                                            "rounds": 3})
    assert cli.main(["experiment-pivots", "--config", path]) == 2
    assert "unknown fields" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("trials", 2.5), ("threads", 1.5), ("seed", 1.7), ("n", [8.9]), ("d", [True]),
    ("seed", False),
])
def test_experiment_non_integer_config_field(tmp_path, capsys, field, value):
    path = _write(tmp_path, "config.json", dict(PIVOT_CONFIG, **{field: value}))
    assert cli.main(["experiment-pivots", "--config", path]) == 2
    assert f"config field '{field}': need an integer" in capsys.readouterr().err


@pytest.mark.parametrize("field, value, message", [
    ("sigma", True, "need a number"), ("sigma", "0.3", "need a number"), ("out", 7, "need a path"),
])
def test_experiment_config_field_of_the_wrong_type(tmp_path, capsys, field, value, message):
    # A bool or string sigma is not read as a number, and an integer out is
    # not opened as a file descriptor.
    path = _write(tmp_path, "config.json", dict(PIVOT_CONFIG, **{field: value}))
    assert cli.main(["experiment-pivots", "--config", path]) == 2
    captured = capsys.readouterr()
    assert f"config field '{field}': {message}" in captured.err
    assert captured.out == ""


# ---------------------------------------------------------------------------
# verify


def test_verify_single_suite_pass(tmp_path, capsys):
    out = tmp_path / "summary.json"
    code = cli.main(["verify", "--suites", "6", "--out", str(out)])
    printed = capsys.readouterr().out
    assert code == 0
    assert printed.startswith("PASS  criterion 6 (planar-bounds)")
    assert printed.count("elapsed_s=") == 1
    report = json.loads(out.read_text())
    assert report["passed"] is True
    assert [s["criterion"] for s in report["suites"]] == [6]
    # the suite's time is reported once, beside its details
    assert report["suites"][0]["elapsed_s"] > 0.0
    assert "elapsed_s" not in report["suites"][0]["details"]


def test_verify_failure_exits_one(monkeypatch, capsys):
    def fake_run_all(seed=None, echo=None, criteria=None):
        result = verify.SuiteResult(6, "planar-bounds", False, {})
        if echo:
            echo(verify.format_line(result))
        return [result]

    monkeypatch.setattr(cli.verify, "run_all", fake_run_all)
    assert cli.main(["verify", "--suites", "6"]) == 1
    assert "FAIL  criterion 6" in capsys.readouterr().out


def test_verify_rejects_bad_suite_lists(capsys):
    assert cli.main(["verify", "--suites", "0,9"]) == 2
    assert "out of range" in capsys.readouterr().err
    assert cli.main(["verify", "--suites", "abc"]) == 2
    assert "comma-separated" in capsys.readouterr().err
