"""Time one benchmark set-up in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py '<workload spec JSON>' <seed>

Prints the seconds spent importing shadowlp, generating the workload's
inputs and running one warm-up operation.  Interpreter start-up is not
counted; the clock starts before the first import.
"""

import time

_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402


def main(argv):
    workload = workloads.from_spec(json.loads(argv[1]))
    items = workload.generate(int(argv[2]))
    workload.run(items[0])
    print(time.perf_counter() - _START)


if __name__ == "__main__":
    main(sys.argv)
