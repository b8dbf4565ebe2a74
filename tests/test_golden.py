"""The solver's answers on a fixed corpus match those pinned in
tests/data/golden.json (see tests/golden.py, which writes the file), under
the OpenBLAS kernel this CPU runs and under each other kernel it can run."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import golden
import shadowlp

# The numpy CPU features each OpenBLAS kernel needs, so that no interpreter
# is started on a kernel whose instructions this CPU lacks.
KERNEL_FEATURES = {"SkylakeX": ("AVX512_SKX",), "Haswell": ("AVX2", "FMA3"),
                   "Sandybridge": ("AVX",), "Prescott": ("SSE3",)}


def _golden_file():
    return json.loads(golden.GOLDEN_PATH.read_text(encoding="utf-8"))


def test_answers_match_the_golden_file():
    changed = golden.changed(_golden_file(), list(golden.answers()), golden.openblas_kernel())
    assert not changed, f"{len(changed)} answers changed; first: {changed[:3]}"


def test_answers_match_the_golden_file_under_every_openblas_kernel():
    """The corpus in a fresh interpreter per kernel, all at once: each
    reads the golden file's answers, with the pivot counts of programs
    below the margin threshold free under a kernel other than the writer's."""
    if golden.openblas_kernel() is None:
        pytest.skip("numpy bundles no OpenBLAS whose kernel can be set")
    features = np._core._multiarray_umath.__cpu_features__
    kernels = [k for k, needs in KERNEL_FEATURES.items() if all(features.get(f) for f in needs)]
    path = [os.path.dirname(golden.__file__), os.path.dirname(os.path.dirname(shadowlp.__file__))]
    path += [os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []
    script = ("import json, golden\n"
              "print(golden.openblas_kernel())\n"
              "print(json.dumps(list(golden.answers())))")
    runs = {k: subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE, text=True,
                                env=dict(os.environ, OPENBLAS_CORETYPE=k,
                                         PYTHONPATH=os.pathsep.join(path)))
            for k in kernels}
    outputs = {k: (run.communicate(timeout=120)[0], run.returncode) for k, run in runs.items()}
    want = _golden_file()
    picked = {}
    for kernel, (out, returncode) in outputs.items():
        assert returncode == 0, kernel
        picked[kernel], answers = out.split("\n", 1)
        changed = golden.changed(want, json.loads(answers), picked[kernel])
        assert not changed, f"{kernel}: {len(changed)} answers changed; first: {changed[:3]}"
    assert len(set(picked.values())) == len(kernels), picked
