"""Host-speed calibration of the benchmark's timings.

On a shared virtual machine the speed of fixed work drifts by up to 1.8x
over seconds and minutes, because of load from outside the machine; it
shows in process CPU time as much as in wall time.  A slow period stretches
the program and any other computation alike, so the benchmark runs a fixed
calibration kernel between operations and scales each operation's time by
``REF_S / (calibration seconds around it)``.  A timing is then in seconds on
a host where one calibration sample takes ``REF_S``.

The kernel uses no ``shadowlp`` code, so a change to the program moves the
scaled timings exactly as it moves the raw ones.  Its work mixes what the
workloads spend their time on: small dense solves (``solve_linear``),
matrix-vector products over a point cloud (the ratio test) and interpreter
bytecode.
"""

from __future__ import annotations

import time

import numpy as np

# Seconds of one calibration sample on the reference host (a 2-vCPU Intel
# Xeon KVM guest, Python 3.11, numpy 2.4) in its fast periods.
REF_S = 0.004


class Kernel:
    """The fixed calibration work and its inputs, built once."""

    def __init__(self):
        rng = np.random.default_rng(20060404)
        self.small = [rng.standard_normal((d, d)) + d * np.eye(d) for d in (3, 4, 11)]
        self.points = rng.standard_normal((4096, 3))
        self.directions = rng.standard_normal((64, 3))

    def run(self):
        acc = 0.0
        for matrix in self.small:
            for _ in range(64):
                acc += float(np.linalg.solve(matrix, matrix[0])[0])
        for direction in self.directions:
            ratios = self.points @ direction
            acc += float(ratios[int(np.argmax(ratios))])
        total = 0
        for i in range(12000):
            total += (i * 7) % 13
        return acc + total

    def sample(self):
        """Seconds one run of the kernel takes now."""
        start = time.perf_counter()
        self.run()
        return time.perf_counter() - start


def scale(before, after):
    """Factor that brings a time measured between two calibration samples
    to the reference host."""
    return REF_S / ((before + after) / 2)
