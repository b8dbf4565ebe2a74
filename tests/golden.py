"""The solver's observable answers on a fixed corpus, pinned in
tests/data/golden.json and compared by tests/test_golden.py.

Programs: the replay model of the pivot experiment, programs feasible by
construction, the smoothed model at two further sigmas, and the degenerate
programs of tests/test_differential.py.  Each records its status, sorted
basis, pivots_phase1, pivots_phase2 and phase1_iterations; not x_opt, whose
last bits depend on the BLAS kernel.  Sections: the hull path with and
without the candidate-row prefilter, the cut path at d = 5 and 6, and the
square and degenerate models.  Each records its edge count, degenerate flag
and facet tuples in sweep order.

A change that moves an answer on purpose regenerates the file with

    PYTHONPATH=src python tests/golden.py

and names each changed entry and the reason in CHANGES.md."""

import json
from pathlib import Path

from shadowlp import experiments, interpolate, randgen, sections
from shadowlp.shadow_walk import SweepPlane

from helpers import DEGENERATE_LPS, OUTSIDE_THE_CONE_LPS, feasible_lp, smoothed_lp

GOLDEN_PATH = Path(__file__).parent / "data" / "golden.json"

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


def _program(lp, rng):
    result = interpolate.solve_lp(lp, rng=rng)
    return {"status": result.status,
            "basis": None if result.basis is None else sorted(result.basis),
            "pivots_phase1": result.pivots_phase1, "pivots_phase2": result.pivots_phase2,
            "phase1_iterations": result.phase1_iterations}


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


def main():
    entries = list(answers())
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    # One entry per line, so that a regenerated file diffs entry by entry.
    GOLDEN_PATH.write_text("[\n" + ",\n".join(json.dumps(e) for e in entries) + "\n]\n",
                           encoding="utf-8")
    print(f"wrote {len(entries)} entries to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
