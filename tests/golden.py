"""The solver's observable answers on a fixed corpus, pinned in
tests/data/golden.json and compared by tests/test_golden.py.

Programs: the replay model of the pivot experiment, programs feasible by
construction, the smoothed model at two further sigmas, and the degenerate
programs of tests/test_differential.py.  Each records its status, sorted
basis, pivots_phase1, pivots_phase2 and phase1_iterations; not x_opt, whose
last bits depend on the BLAS kernel.  Each program also records whether
its decision margin clears MARGIN_THRESHOLD (see decision_margin): a
program below it makes a choice that a rounding difference can turn, so
its pivot counts are compared only under the OpenBLAS kernel that wrote the
file (see changed).  Sections: the hull path with and without the
candidate-row prefilter, the cut path at d = 5 and 6, and the square and
degenerate models.  Each records its edge count, degenerate flag and facet
tuples in sweep order.  The file names the kernel that wrote it.

A change that moves an answer on purpose regenerates the file with

    PYTHONPATH=src python tests/golden.py

and names each changed entry and the reason in CHANGES.md."""

import ctypes
import glob
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from shadowlp import experiments, interpolate, phase1, randgen, sections, shadow_walk
from shadowlp.geometry import DEFAULT_TOL
from shadowlp.shadow_walk import TWO_PI, SweepPlane

from helpers import DEGENERATE_LPS, OUTSIDE_THE_CONE_LPS, feasible_lp, smoothed_lp

GOLDEN_PATH = Path(__file__).parent / "data" / "golden.json"
MARGIN_THRESHOLD = 1e-9
PIVOT_COUNTS = ("pivots_phase1", "pivots_phase2")

_REPLAY = [(8, 2), (16, 3), (64, 3), (256, 3), (40, 5), (200, 10)]
_FEASIBLE = [(8, 2), (12, 3), (64, 3), (30, 4), (100, 5), (400, 10)]
_SMOOTHED = [(16, 3), (64, 5), (200, 10)]
_SECTIONS = [
    # (path, model, n, d, seeds): the hull path takes d <= 4, and at d = 2
    # from n = 2500 on Qhull gets only the prefilter's candidate rows.  The
    # square and degenerate models are fixed point sets.
    ("hull-prefilter", "gaussian", 2500, 2, 10),
    ("hull-prefilter", "gaussian", 3000, 2, 10),
    ("hull", "gaussian", 300, 2, 5),
    ("hull", "smoothed", 30, 3, 5),
    ("hull", "smoothed", 300, 3, 5),
    ("hull", "gaussian", 100, 4, 5),
    ("hull", "smoothed", 300, 4, 5),
    ("cut", "smoothed", 30, 5, 5),
    ("cut", "smoothed", 100, 5, 5),
    ("cut", "gaussian", 60, 5, 5),
    ("cut", "smoothed", 30, 6, 5),
    ("cut", "smoothed", 100, 6, 5),
    ("cut", "gaussian", 60, 6, 5),
    ("hull", "square", 4, 2, 1),
    ("degenerate", "degenerate", 4, 3, 1),
]


def openblas_kernel():
    """The kernel numpy's OpenBLAS picked at run time, read as CI's builds
    step reads it, or None when numpy bundles no such library."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas64_*.so"))
    if len(libs) != 1:
        return None
    corename = ctypes.CDLL(libs[0]).scipy_openblas_get_corename64_
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


def _smallest_gap(values, scales):
    """(second smallest - smallest) / the larger of their scales, or inf
    with fewer than two values.  Ties count as a gap of 0."""
    if len(values) < 2:
        return math.inf
    first, second = np.argsort(values, kind="stable")[:2]
    return float((values[second] - values[first]) / max(scales[first], scales[second]))


def _exit_margin(facet, plane, theta):
    """The gap between the first and the second downward crossing that
    exit_angle compares at theta, as a fraction of a full turn."""
    deltas = []
    for vj, wj in zip(plane.basis1.dot(facet.inverse).tolist(),
                      plane.basis2.dot(facet.inverse).tolist()):
        if math.hypot(vj, wj) > 1e-300:
            delta = (math.atan2(wj, vj) + 0.5 * math.pi - theta) % TWO_PI
            deltas.append(0.0 if delta >= TWO_PI - DEFAULT_TOL.eps_angle else delta)
    return _smallest_gap(np.array(deltas), np.full(len(deltas), TWO_PI))


def _ratio_margin(ps, h, g, members):
    """The gap between the winning and the runner-up ratio of ratio_test
    over the rows outside members, relative to the terms each ratio is
    computed from: (|c_k| + |<h, a_k>|) / <g, a_k>."""
    den = ps.points.dot(g)
    outside = den > DEFAULT_TOL.eps_feas
    outside[list(members)] = False
    cand = outside.nonzero()[0]
    level = 1.0 if ps.levels is None else ps.levels[cand]
    dots = ps.points.dot(h)[cand]
    return _smallest_gap((level - dots) / den[cand], (np.abs(level) + np.abs(dots)) / den[cand])


def decision_margin(solve, *args, **kwargs):
    """(solve(*args, **kwargs), its decision margin): the smallest relative
    gap, over every pivot its walks made or tried, between the winning and
    the runner-up exit crossing and between the winning and the runner-up
    ratio.  inf when no choice had a runner-up."""
    margins = [math.inf]

    def recorded(ps, plane, start, theta_start, theta_target, **kwargs):
        outcome = shadow_walk.walk(ps, plane, start, theta_start, theta_target, **kwargs)
        theta = theta_start
        for facet in outcome.path if outcome.exit else outcome.path[:-1]:
            margins.append(_exit_margin(facet, plane, theta))
            theta, leaving = shadow_walk.exit_angle(facet, plane, theta)
            g = -facet.inverse[:, facet.indices.index(leaving)]
            margins.append(_ratio_margin(ps, facet.normal, g, facet.indices))
        return outcome

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(phase1, "walk", recorded)
        mp.setattr(interpolate, "walk", recorded)
        result = solve(*args, **kwargs)
    return result, min(margins)


def _program(lp, rng):
    result, margin = decision_margin(interpolate.solve_lp, lp, rng=rng)
    return {"status": result.status,
            "basis": None if result.basis is None else sorted(result.basis),
            "pivots_phase1": result.pivots_phase1, "pivots_phase2": result.pivots_phase2,
            "phase1_iterations": result.phase1_iterations,
            "margin_clears": margin > MARGIN_THRESHOLD}


def _section(points, rng):
    report = sections.section_edges(points, SweepPlane.axis(points.shape[1]), rng=rng)
    return {"edge_count": report.edge_count, "degenerate": report.degenerate,
            "facets": [list(f.indices) for f in report.facets]}


def answers():
    """Every entry of the corpus, answered by the code as it stands."""
    for n, d in _REPLAY:
        for seed in range(10):
            yield {"id": f"program/replay/n{n}-d{d}/seed{seed}",
                   **_program(smoothed_lp(n, d, seed), randgen.sub_seed(seed, 2))}
    for n, d in _FEASIBLE:
        for seed in range(10):
            yield {"id": f"program/feasible/n{n}-d{d}/seed{seed}",
                   **_program(feasible_lp(n, d, seed), seed)}
    for sigma in (0.01, 1.0):
        for n, d in _SMOOTHED:
            for seed in range(8):
                yield {"id": f"program/smoothed-sigma{sigma}/n{n}-d{d}/seed{seed}",
                       **_program(smoothed_lp(n, d, seed, sigma), seed)}
    for family, lps in (("degenerate", DEGENERATE_LPS), ("outside-the-cone", OUTSIDE_THE_CONE_LPS)):
        for name, lp in lps:
            for seed in range(3):
                yield {"id": f"program/{family}/{name}/seed{seed}", **_program(lp, seed)}
    for path, model, n, d, seeds in _SECTIONS:
        for seed in range(seeds):
            points = experiments._section_points(seed, n, d, 0.1, model)
            yield {"id": f"section/{path}/{model}-n{n}-d{d}/seed{seed}",
                   **_section(points, randgen.sub_seed(seed, 1))}


def changed(golden, got, kernel):
    """The ids of the entries of got that differ from the golden file's.
    Under the kernel that wrote the file every field counts.  Under another
    one, a program whose margin did not clear the threshold there may take
    other pivots, so its pivot counts, and the margin of the path it took,
    do not."""
    want = golden["entries"]
    if [e["id"] for e in got] != [e["id"] for e in want]:
        return ["the corpus itself"]
    free = () if kernel == golden["kernel"] else ("margin_clears", *PIVOT_COUNTS)

    def differs(w, g):
        skipped = () if w.get("margin_clears", True) else free
        return ({k: v for k, v in w.items() if k not in skipped}
                != {k: v for k, v in g.items() if k not in skipped})

    return [w["id"] for w, g in zip(want, got) if differs(w, g)]


def main():
    entries = list(answers())
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    # One entry per line, so that a regenerated file diffs entry by entry.
    GOLDEN_PATH.write_text(f'{{"kernel": {json.dumps(openblas_kernel())}, "entries": [\n'
                           + ",\n".join(json.dumps(e) for e in entries) + "\n]}\n",
                           encoding="utf-8")
    print(f"wrote {len(entries)} entries to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
