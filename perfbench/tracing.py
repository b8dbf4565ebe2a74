"""Spans around the public functions of each ``shadowlp`` layer.

The library has no tracing of its own, so the benchmark wraps functions from
the outside.  A ``from`` import makes a separate binding (``solve_linear``
is bound in ``geometry``, ``shadow_walk`` and ``interpolate``), so a
function is replaced in every ``shadowlp`` module namespace that binds it,
and put back afterwards.

Spans are kept in memory as ``[name, start, end, parent, extra]`` lists.  A
span's self time is its duration minus the time covered by its child spans;
calls nest on one thread, so children never overlap.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager

from shadowlp import experiments, geometry, interpolate, phase1, randgen, sections, shadow_walk


@contextmanager
def patched(replacements):
    """Replace each function ``f`` by ``make(f)`` in every ``shadowlp``
    module namespace that binds ``f``; restore every binding on exit."""
    undo = []
    try:
        for original, make in replacements.items():
            wrapper = make(original)
            for name, module in list(sys.modules.items()):
                if module is None or not (name == "shadowlp" or name.startswith("shadowlp.")):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        undo.append((module, attr, original))
        yield
    finally:
        for module, attr, original in reversed(undo):
            setattr(module, attr, original)


# Traced functions: span name, function, and what to keep from its result.
TRACED = (
    ("randgen.derive_rng", randgen.derive_rng, None),
    ("randgen.haar_rotation", randgen.haar_rotation, None),
    ("geometry.solve_linear", geometry.solve_linear, None),
    ("geometry.make_facet", geometry.make_facet, None),
    ("shadow_walk.exit_angle", shadow_walk.exit_angle, None),
    ("shadow_walk.pivot", shadow_walk.pivot, None),
    ("shadow_walk.walk", shadow_walk.walk, lambda outcome: outcome.pivots),
    ("shadow_walk.sweep_full", shadow_walk.sweep_full, None),
    ("phase1.add_constraints", phase1.add_constraints, lambda block: block is None),
    ("phase1.solve_unit", phase1.solve_unit, lambda unit: unit.iterations),
    ("interpolate.solve_lp", interpolate.solve_lp, None),
    ("sections.interior_point_in_slice", sections.interior_point_in_slice, None),
    ("sections.section_edges", sections.section_edges, None),
    ("experiments.replay_pivot_trial", experiments.replay_pivot_trial, None),
    ("experiments.run_pivot_experiment", experiments.run_pivot_experiment, None),
)


# Layers reported as calls and self seconds per operation.
CALL_LAYERS = ("shadow_walk.pivot", "geometry.solve_linear", "geometry.make_facet",
               "shadow_walk.exit_angle", "shadow_walk.walk", "phase1.add_constraints")

# Every per-layer metric with its unit.  The last three come from the
# untraced phases of a traced run (see measure.run_traced).
PER_LAYER_UNITS = {
    **{f"{layer}.{key}": unit for layer in CALL_LAYERS
       for key, unit in (("calls", "count"), ("self_s", "s"))},
    "shadow_walk.walk.pivots": "count",
    "phase1.walk_s": "s",
    "interpolate.lifted_walk_s": "s",
    "phase1.add_constraints.rejected": "count",
    "phase1.solve_unit.attempts": "count",
    "phase1.solve_unit.success_ratio": "ratio",
    "phase1.solve_unit.self_s": "s",
    "randgen.derive_rng.self_s": "s",
    "randgen.haar_rotation.self_s": "s",
    "sections.interior_point_in_slice.calls": "count",
    "sections.interior_point_in_slice.s": "s",
    "shadow_walk.sweep_full.self_s": "s",
    "experiments.overhead_s": "s",
    "experiments.parallel_efficiency": "ratio",
    "tracing.overhead_per_s": "1/s",
}


class Tracer:
    """Records one span per call of each function in ``TRACED``."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def _wrap(self, name, keep):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def make(fn):
            def traced(*args, **kwargs):
                span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
                stack.append(len(spans))
                spans.append(span)
                span[1] = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span[2] = clock()
                    stack.pop()
                if keep is not None:
                    span[4] = keep(result)
                return result
            return traced
        return make

    def installed(self):
        """Context manager that traces every function in ``TRACED``."""
        return patched({fn: self._wrap(name, keep) for name, fn, keep in TRACED})

    def layers(self):
        """Per span name: calls, total seconds, self seconds and the list of
        kept results; plus the walk time split by the walk's parent."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        stats = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "kept": []}
                 for name, _, _ in TRACED}
        walk_by_parent = {}
        for i, (name, start, end, parent, extra) in enumerate(self.spans):
            entry = stats[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - covered[i]
            if extra is not None:
                entry["kept"].append(extra)
            if name == "shadow_walk.walk":
                parent_name = self.spans[parent][0] if parent >= 0 else None
                walk_by_parent[parent_name] = walk_by_parent.get(parent_name, 0.0) + end - start
        return stats, walk_by_parent


def per_layer_metrics(tracer, operations):
    """The per-layer metrics of one traced phase, each per operation
    except the ratios, so that a faster program (more operations in the
    same seconds) does not read as more work per layer."""
    stats, walk_by_parent = tracer.layers()
    ops = max(operations, 1)

    def per_op(name, key):
        return stats[name][key] / ops

    unit = stats["phase1.solve_unit"]
    attempts = sum(unit["kept"])
    values = {}
    for name in CALL_LAYERS:
        values[f"{name}.calls"] = per_op(name, "calls")
        values[f"{name}.self_s"] = per_op(name, "self_s")
    values["shadow_walk.walk.pivots"] = sum(stats["shadow_walk.walk"]["kept"]) / ops
    values["phase1.walk_s"] = walk_by_parent.get("phase1.solve_unit", 0.0) / ops
    values["interpolate.lifted_walk_s"] = walk_by_parent.get("interpolate.solve_lp", 0.0) / ops
    values["phase1.add_constraints.rejected"] = sum(stats["phase1.add_constraints"]["kept"]) / ops
    values["phase1.solve_unit.attempts"] = attempts / ops
    values["phase1.solve_unit.success_ratio"] = len(unit["kept"]) / attempts if attempts else 0.0
    values["phase1.solve_unit.self_s"] = per_op("phase1.solve_unit", "self_s")
    values["randgen.derive_rng.self_s"] = per_op("randgen.derive_rng", "self_s")
    values["randgen.haar_rotation.self_s"] = per_op("randgen.haar_rotation", "self_s")
    values["sections.interior_point_in_slice.calls"] = per_op(
        "sections.interior_point_in_slice", "calls")
    values["sections.interior_point_in_slice.s"] = per_op(
        "sections.interior_point_in_slice", "total_s")
    values["shadow_walk.sweep_full.self_s"] = per_op("shadow_walk.sweep_full", "self_s")
    largest = max(stats, key=lambda name: stats[name]["self_s"])
    return values, largest, len(tracer.spans)
