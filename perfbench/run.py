"""Benchmark for shadowlp.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload solve-d3-n4096 --seed 1 --seconds 15 --trace 0

Drives the public API (``interpolate.solve_lp``, ``sections.section_edges``,
``experiments.run_pivot_experiment``) from one process in a closed loop with
one caller.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps
the layers in spans and prints the per-layer metrics.  The last line of
standard output is the result as JSON; the line before it is the detail
record (environment, fingerprint, tail percentile, errors), also written to
``perfbench/results/``.  See perfbench/README.md for the workloads and for
which end-to-end metric each layer metric should move.
"""

import argparse
import json
import os
import sys
from pathlib import Path

# BLAS and OpenMP pools get one thread, set before numpy is first imported,
# so that no run uses more threads than cores (the grid workload already
# runs one process per core).  Child processes inherit the setting.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "shadowlp" / "__init__.py").is_file():
        print(f"perfbench: no shadowlp sources at {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")

    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import measure
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    result, detail = measure.run(workloads.WORKLOADS[args.workload], args.seed,
                                 args.seconds, args.trace)
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    record = {"detail": detail, "result": result}
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
