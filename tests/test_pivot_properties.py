"""Property test of the ratio test: on facets taken from real walks, pivot
must agree with a per-point reference loop bit for bit."""

import functools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from shadowlp import interpolate, shadow_walk
from shadowlp.geometry import DEFAULT_TOL, FacetIndexSet, SingularSystem, make_facet
from shadowlp.shadow_walk import pivot

from helpers import recorded_walks, smoothed_lp


@functools.cache
def _walks(n, seed):
    """(points, levels, facets) of every walk of one smoothed d=3 solve on
    the benchmark's model: Phase I's, with levels None, and the lifted
    one's, whose row 0 is the vertex at infinity."""
    walks = recorded_walks(interpolate.solve_lp, smoothed_lp(n, 3, seed), rng=seed)
    return [(points, levels, [entry.facet for entry in trace])
            for points, _, levels, trace in walks]


def _reference_ratio_test(points, facet, leaving, levels):
    """(ratio, entering) by one pass over the rows in index order, or None.
    It takes the same two matrix-vector products as pivot, so that their
    rounding is shared and only the selection is under test."""
    j = facet.indices.index(leaving)
    g = -facet.inverse[:, j]
    h = facet.normal
    den, dots = points @ g, points @ h
    best = None
    for i in range(points.shape[0]):
        if i in facet.indices or not den[i] > DEFAULT_TOL.eps_feas:
            continue
        level = 1.0 if levels is None else levels[i]
        ratio = float((level - dots[i]) / den[i])
        if best is None or ratio < best[0]:  # strict: the smaller index keeps a tie
            best = (ratio, i)
    return best


@settings(max_examples=100, suppress_health_check=[HealthCheck.too_slow])
@given(n=st.sampled_from([20, 4096]), seed=st.integers(0, 3), lifted=st.booleans(),
       duplicated=st.booleans(), reset_updates=st.booleans(), data=st.data())
def test_pivot_matches_a_per_point_reference(n, seed, lifted, duplicated, reset_updates, data):
    walks = [w for w in _walks(n, seed) if (w[1] is not None) == lifted]
    assert walks  # every solve has both kinds of walk, so no draw is vacuous
    points, levels, facets = data.draw(st.sampled_from(walks))
    facet = data.draw(st.sampled_from(facets))
    leaving = data.draw(st.sampled_from(facet.indices))
    if duplicated:
        # every point gets a twin at a larger index, so each ratio ties
        points = np.vstack([points, points])
        if levels is not None:
            levels = np.concatenate([levels, levels])
    if reset_updates:
        facet = replace(facet, updates=0)  # the pivot then tries the update

    expected = _reference_ratio_test(points, facet, leaving, levels)
    updates = []
    real_update = shadow_walk._updated_facet

    def spy(*args):
        updates.append(args)
        return real_update(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(shadow_walk, "_updated_facet", spy)
        try:
            step = pivot(points, facet, leaving, levels)
        except SingularSystem:
            step = SingularSystem
    if expected is None:
        assert step is None and not updates
        return
    ratio, entering = expected
    j = facet.indices.index(leaving)
    new_indices = tuple(sorted(facet.indices[:j] + facet.indices[j + 1:] + (entering,)))
    for args in updates:
        assert args[2:6] == (j, entering, ratio, new_indices)
    assert len(updates) == (facet.updates + 1 < len(facet.indices))
    if step is SingularSystem:
        with pytest.raises(SingularSystem):
            make_facet(points, new_indices, levels)
        return
    got_entering, new_facet = step
    assert got_entering == entering
    assert new_facet.indices == new_indices
    if new_facet.updates:
        assert np.array_equal(new_facet.normal, facet.normal - ratio * facet.inverse[:, j])
        rows = points[list(new_indices)]
        assert np.array_equal(new_facet.scales, np.abs(rows).max(axis=1))
    else:
        fresh = make_facet(points, new_indices, levels)
        for name in ("normal", "inverse", "scales"):
            assert np.array_equal(getattr(new_facet, name), getattr(fresh, name))


@pytest.mark.parametrize("outside, expected", [
    ([1.0, 0.5], (2.0, 2)),  # the member's ratio 1 is strictly the smallest
    ([1.0, 1.0], (1.0, 2)),  # the member ties, and has the smaller index
    ([3.0, -1.0], None),     # the member is the only point past the ridge
], ids=["smaller", "tied", "alone"])
def test_pivot_never_enters_a_member_with_the_smallest_ratio(outside, expected):
    # Hand-built facet (0, 1) with normal 0 and an inverse whose column 0 is
    # (0, -1): leaving index 0 gives g = (0, 1), so the ridge member 1 has
    # <g, a_1> = 1 > eps_feas and ratio (1 - 0) / 1 = 1.
    points = np.array([[1.0, 0.0], [0.0, 1.0], outside])
    facet = FacetIndexSet((0, 1), np.zeros(2), np.array([[0.0, 1.0], [-1.0, 0.0]]),
                          scales=np.ones(2))
    assert _reference_ratio_test(points, facet, 0, None) == expected
    step = pivot(points, facet, 0)
    if expected is None:
        assert step is None
        return
    entering, new_facet = step
    assert entering == expected[1]
    assert new_facet.indices == (1, 2)
