"""Battery plumbing and a mutation check that the oracle-equivalence suite
really detects a broken pivot rule."""

import numpy as np
import pytest
from scipy.optimize import linprog

from shadowlp import randgen, shadow_walk, verify
from shadowlp.geometry import make_facet
from shadowlp.verify import SuiteResult, format_line, run_all, summary


def test_format_line_shape():
    result = SuiteResult(3, "pivot-growth", True,
                         {"slope": 0.21, "mean_pivots": {"16": 5.0}}, 1.23456)
    line = format_line(result)
    # nested values stay out of the line; the suite's time closes it
    assert line == "PASS  criterion 3 (pivot-growth): slope=0.21, elapsed_s=1.235"
    failing = SuiteResult(5, "polygon-growth", False, {})
    assert format_line(failing) == "FAIL  criterion 5 (polygon-growth): elapsed_s=0.0"


def test_summary_rolls_up_pass_flags():
    results = [SuiteResult(1, "a", True, {"x": 1}, 0.5),
               SuiteResult(2, "b", False, {}, 0.1)]
    report = summary(results)
    assert report["passed"] is False
    assert [s["criterion"] for s in report["suites"]] == [1, 2]
    assert report["suites"][0]["details"] == {"x": 1}


def test_run_all_rejects_unknown_criteria():
    with pytest.raises(ValueError, match="unknown criteria"):
        run_all(criteria=[9])


def test_run_all_reports_crashing_suite_as_failure(monkeypatch):
    def boom(seed):
        raise RuntimeError("synthetic crash")

    monkeypatch.setattr(verify, "suite_determinism", boom)
    lines = []
    results = run_all(criteria=[8], echo=lines.append)
    assert len(results) == 1
    assert results[0].passed is False
    assert "RuntimeError" in results[0].details["error"]
    assert results[0].elapsed_s > 0.0
    assert lines[0].startswith("FAIL  criterion 8 (determinism)")


def test_oracle_equivalence_detects_sabotaged_pivot(monkeypatch):
    """Mutation check: replace the entering-index rule with a wrong one and
    the differential suite must stop reporting success."""
    real_pivot = shadow_walk.pivot
    calls = {"count": 0}

    def bad_pivot(points, facet, leaving, levels=None):
        calls["count"] += 1
        if calls["count"] > 200:
            raise RuntimeError("sabotage budget exhausted")
        out = real_pivot(points, facet, leaving, levels)
        if out is None:
            return None
        entering, new_facet = out
        others = [k for k in range(len(points))
                  if k not in facet.indices and k != entering]
        for fake in others:
            kept = tuple(i for i in facet.indices if i != leaving) + (fake,)
            try:
                return fake, make_facet(points, kept, levels)
            except Exception:
                continue
        return out

    monkeypatch.setattr(shadow_walk, "pivot", bad_pivot)
    try:
        result = verify.suite_oracle_equivalence(seed=verify.VERIFY_SEED,
                                                 instances=25)
        detected = not result.passed
    except Exception:
        detected = True  # crashing on impossible states also counts as detection
    assert detected
    assert calls["count"] > 0


def test_in_cone_screen_separates_directions_inside_and_outside():
    # Hand-built: the positive orthant's generators.
    orthant = np.eye(3)
    assert verify._in_cone(orthant, np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0))
    assert verify._in_cone(orthant, np.array([1.0, 0.0, 0.0]))  # on the boundary
    assert not verify._in_cone(orthant, np.array([-1.0, 1.0, 1.0]) / np.sqrt(3.0))
    # Suite-2-like clouds pushed off the origin along e_d, so their cones
    # range from the whole space to a narrow one: the screen must agree with
    # the feasibility LP sum_i x_i a_i = z, x >= 0 on every unit direction.
    rng = randgen.derive_rng(210)
    inside = outside = 0
    for d in (3, 4):
        for shift in (0.0, 1.0, 3.0):
            for _ in range(40):
                points = rng.standard_normal((50, d)) * 0.3
                points[:, -1] += shift
                z = rng.standard_normal(d)
                z /= np.linalg.norm(z)
                lp = linprog(np.zeros(50), A_eq=points.T, b_eq=z, bounds=(0, None),
                             method="highs")
                assert verify._in_cone(points, z) == (lp.status == 0)
                inside += lp.status == 0
                outside += lp.status != 0
    assert inside >= 60 and outside >= 60
