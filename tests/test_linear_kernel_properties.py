"""Property test of the linear kernel: on random, row-scaled,
rank-deficient, zero-row and NaN systems, with one and with d + 1
right-hand sides, geometry.solve_linear must return what the numpy
formulation in helpers returns, bit for bit, or raise SingularSystem with
the same message."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowlp.geometry import SingularSystem, solve_linear

from helpers import reference_solve_linear

KINDS = ("random", "row-scaled", "rank-deficient", "zero-row", "nan")


def _system(kind, d, seed):
    """(matrix, d + 1 right-hand sides) of one kind, drawn from the seed.
    A rank-deficient matrix repeats a row (an exact zero pivot) at even
    seeds and takes a combination of the others (a rounded one) at odd."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d, d))
    if kind == "row-scaled":
        a *= 10.0 ** rng.uniform(-6.0, 6.0, size=(d, 1))
    elif kind == "rank-deficient":
        a[-1] = a[0] if seed % 2 == 0 else rng.standard_normal(d - 1) @ a[:-1]
    elif kind == "zero-row":
        a[rng.integers(d)] = 0.0
    elif kind == "nan":
        a[rng.integers(d), rng.integers(d)] = np.nan
    return a, rng.standard_normal((d, d + 1))


def _outcome(solve, a, b):
    """The solution's shape and bytes, or the message of the SingularSystem
    raised."""
    try:
        x = solve(a, b)
    except SingularSystem as exc:
        return "raises", str(exc)
    return x.shape, x.tobytes()


@settings(max_examples=200)
@given(kind=st.sampled_from(KINDS), d=st.sampled_from([2, 3, 4, 11, 41]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_solve_linear_keeps_the_bits_of_the_numpy_formulation(kind, d, seed):
    a, rhs = _system(kind, d, seed)
    for b in (rhs[:, 0], rhs):
        assert _outcome(solve_linear, a, b) == _outcome(reference_solve_linear, a, b)
