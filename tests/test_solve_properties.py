"""Property tests of the two-phase solver: a program's verdict and optimal
basis are properties of its feasible set and objective, so they must not
change when rows of (A, b) are scaled by positive factors, and must follow
the rows when the rows are permuted."""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowlp import randgen
from shadowlp.interpolate import STATUS_OPTIMAL, GeneralLP, solve_lp

_SETTINGS = settings(max_examples=50, deadline=None, derandomize=True, database=None)
_PROGRAMS = dict(seed=st.integers(0, 10 ** 6), d=st.integers(2, 4), n=st.integers(8, 40),
                 sigma=st.sampled_from([0.02, 0.1, 0.3]), feasible=st.booleans(),
                 transform_seed=st.integers(0, 2 ** 32 - 1))


def _program(seed, d, n, sigma, feasible):
    """A smoothed program; with feasible, its b-centres are |b| + 1 before
    normalizing, so the origin is strictly feasible and the verdict is
    optimal or unbounded."""
    spec = randgen.random_spec(n, d, sigma, randgen.derive_rng(seed, 0))
    if feasible:
        spec = replace(spec, centers_b=np.abs(spec.centers_b) + 1.0)
    return randgen.sample_instance(randgen.normalize(spec), randgen.derive_rng(seed, 1))


def _assert_same_optimum(lp, result, other_lp, other, row_of):
    """other solves other_lp, whose row k is row row_of[k] of lp."""
    assert other.status == result.status
    if result.status != STATUS_OPTIMAL:
        return
    assert sorted(int(row_of[k]) for k in other.basis) == sorted(result.basis)
    want = result.objective_value(lp)
    assert abs(other.objective_value(other_lp) - want) <= 1e-9 * max(1.0, abs(want))


@_SETTINGS
@given(**_PROGRAMS)
def test_positive_row_scaling_keeps_status_and_basis(seed, d, n, sigma, feasible,
                                                      transform_seed):
    lp = _program(seed, d, n, sigma, feasible)
    factors = 10.0 ** np.random.default_rng(transform_seed).uniform(-1.0, 1.0, n)
    scaled = GeneralLP(A=lp.A * factors[:, None], b=lp.b * factors, z=lp.z)
    _assert_same_optimum(lp, solve_lp(lp, rng=seed),
                         scaled, solve_lp(scaled, rng=seed), np.arange(n))


@_SETTINGS
@given(**_PROGRAMS)
def test_row_permutation_permutes_the_basis(seed, d, n, sigma, feasible, transform_seed):
    lp = _program(seed, d, n, sigma, feasible)
    order = np.random.default_rng(transform_seed).permutation(n)
    permuted = GeneralLP(A=lp.A[order], b=lp.b[order], z=lp.z)
    _assert_same_optimum(lp, solve_lp(lp, rng=seed),
                         permuted, solve_lp(permuted, rng=seed), order)
