"""Smoke test of the benchmark at tiny sizes.

Run from the root of a checkout: python3 -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import calibrate  # noqa: E402
import measure  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
FULL = workloads.WORKLOADS
TINY = {
    "solve-d3-n4096": replace(FULL["solve-d3-n4096"], n=48, pool=3, measured_items=2),
    "solve-d10-feasible": replace(FULL["solve-d10-feasible"], d=5, n=40, pool=3,
                                  measured_items=2),
    "section-d2-n3k": replace(FULL["section-d2-n3k"], n=200, pool=3, measured_items=2),
    "grid-d3-n16": replace(FULL["grid-d3-n16"], trials=6, configs=2),
}


def _run(name, trace):
    return measure.run(TINY[name], seed=5, seconds=0.2, trace=trace)


def test_benchmark_file_names_every_workload():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(FULL)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == measure.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == measure.PER_LAYER_UNITS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(TINY))
def test_every_metric_is_printed_with_its_unit(name, trace):
    result, detail = _run(name, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for metric in expected:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], float)
    if not trace:
        assert detail["fingerprint"].startswith("sha256:")
        assert result["metrics"]["pivots_mean"]["value"] > 0
        assert detail["raw"]["latency_p50_s"] > 0
    assert detail["calibration"]["median_scale"] > 0


def _flip_status(answer):
    status, basis, p1, p2, objective = answer
    return ("infeasible" if status == "optimal" else "optimal", basis, p1, p2, objective or 0.0)


def _nudge_objective(answer):
    status, basis, p1, p2, objective = answer
    return (status, basis, p1, p2, objective * (1 + 1e-5) + 1e-5)


def _extra_edge(answer):
    edges, degenerate = answer
    return edges + 1, degenerate


def _edit_csv(answer):
    return answer.replace("\n", "\r\n", 1)


@pytest.mark.parametrize("name, corrupt", [
    ("solve-d3-n4096", _flip_status),
    ("solve-d10-feasible", _nudge_objective),
    ("section-d2-n3k", _extra_edge),
    ("grid-d3-n16", _edit_csv),
])
def test_a_wrong_answer_is_counted_as_failed(monkeypatch, name, corrupt):
    workload = TINY[name]
    honest_run = type(workload).run
    calls = []

    def sabotaged(self, item, workers=None):
        call = honest_run(self, item, workers)
        calls.append(call)
        if len(calls) == 2:  # the first call is the warm-up
            call.answer = corrupt(call.answer)
        return call

    monkeypatch.setattr(measure, "setup_seconds", lambda workload, seed: [1.0])
    monkeypatch.setattr(type(workload), "run", sabotaged)
    result, detail = _run(name, 0)
    assert detail["failed_fraction"] > 0
    assert result["failed"] > 0 and not result["correct"]
    assert result["metrics"]["success_fraction"]["value"] < 1.0


def test_fingerprint_repeats_for_a_seed():
    first = _run("grid-d3-n16", 0)[1]["fingerprint"]
    assert _run("grid-d3-n16", 0)[1]["fingerprint"] == first


def test_times_are_scaled_by_the_calibration_around_them():
    assert calibrate.scale(calibrate.REF_S, calibrate.REF_S) == 1.0
    assert calibrate.scale(calibrate.REF_S, 3 * calibrate.REF_S) == 0.5
    timed = measure.Timed(0, workloads.Call([workloads.Sample(0.3, 1)]), 0.4, 0.5)
    assert timed.latencies == [0.15]
    assert measure.Phase([timed], 1.0).throughput_per_s == 1 / 0.2
    assert calibrate.Kernel().sample() > 0


def test_tail_has_ten_samples_beyond():
    assert measure.tail([float(x) for x in range(100)]) == (89.0, 90.0, 10)
    assert measure.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_run_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "grid-d3-n16",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert out.stdout == ""
