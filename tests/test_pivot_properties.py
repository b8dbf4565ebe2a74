"""Property tests of the ratio test: ratio_test must agree with a per-row
reference loop bit for bit on small integer sets, and so must pivot on
facets taken from real walks."""

import functools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from shadowlp import interpolate, shadow_walk
from shadowlp.geometry import DEFAULT_TOL, FacetIndexSet, PointSet, SingularSystem, make_facet
from shadowlp.shadow_walk import pivot, ratio_test

from helpers import recorded_walks, smoothed_lp


@functools.cache
def _walks(n, seed, d=3):
    """(points, levels, facets) of every walk of one smoothed solve on the
    benchmark's model: Phase I's, with levels None, and the lifted one's,
    whose row 0 is the vertex at infinity."""
    walks = recorded_walks(interpolate.solve_lp, smoothed_lp(n, d, seed), rng=seed)
    return [(points, levels, [facet for facet, _, _ in intervals])
            for points, _, levels, intervals in walks]


def _per_row_ratio_test(points, levels, h, g, members):
    """(ratio, row) by one pass over the rows in index order, or None.  It
    takes the same two matrix-vector products as ratio_test, so that their
    rounding is shared and only the selection is under test."""
    den, dots = points @ g, points @ h
    best = None
    for i in range(points.shape[0]):
        if i in members or not den[i] > DEFAULT_TOL.eps_feas:
            continue
        level = 1.0 if levels is None else levels[i]
        ratio = float((level - dots[i]) / den[i])
        if best is None or ratio < best[0]:  # strict: the smaller index keeps a tie
            best = (ratio, i)
    return best


def _reference_ratio_test(points, facet, leaving, levels):
    """The per-row loop for pivot's move: h is the facet's normal, g minus
    the leaving index's column of B^-1, and the members are the facet's."""
    g = -facet.inverse[:, facet.indices.index(leaving)]
    return _per_row_ratio_test(points, levels, facet.normal, g, facet.indices)


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

    ps = PointSet(points, levels)
    assert ps.scales.tobytes() == np.abs(points).max(axis=1).tobytes()
    expected = _reference_ratio_test(ps.points, facet, leaving, levels)
    updates = []
    real_update = shadow_walk._updated_facet

    def spy(*args):
        updates.append(args)
        return real_update(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(shadow_walk, "_updated_facet", spy)
        try:
            step = pivot(ps, facet, leaving)
        except SingularSystem:
            step = SingularSystem
    if expected is None:
        assert step is None and not updates
        return
    ratio, entering = expected
    j = facet.indices.index(leaving)
    new_indices = tuple(sorted(facet.indices[:j] + facet.indices[j + 1:] + (entering,)))
    for args in updates:
        assert args[0] is ps and args[2:6] == (j, entering, ratio, new_indices)
    assert len(updates) == (facet.updates + 1 < len(facet.indices))
    if step is SingularSystem:
        with pytest.raises(SingularSystem):
            make_facet(ps, new_indices)
        return
    assert step.indices == new_indices  # entering in place of leaving
    if step.updates:
        assert np.array_equal(step.normal, facet.normal - ratio * facet.inverse[:, j])
    else:
        fresh = make_facet(ps, new_indices)
        for name in ("normal", "inverse"):
            assert np.array_equal(getattr(step, name), getattr(fresh, name))


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
    facet = FacetIndexSet((0, 1), np.zeros(2), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert _reference_ratio_test(points, facet, 0, None) == expected
    ps = PointSet(points)
    assert ratio_test(ps, facet.normal, -facet.inverse[:, 0], facet.indices) == expected
    new_facet = pivot(ps, facet, 0)
    if expected is None:
        assert new_facet is None
        return
    assert new_facet.indices == (1, expected[1])


_SMALL = st.integers(-3, 3).map(float)


@settings(max_examples=300)
@given(n=st.integers(1, 10), d=st.integers(1, 4), levelled=st.booleans(),
       duplicated=st.booleans(), data=st.data())
def test_ratio_test_matches_a_per_row_loop(n, d, levelled, duplicated, data):
    """Small integer entries give exactly zero <g, a_k> (no candidate, so
    None) and exact ties; duplicated rows force a tie on every candidate,
    which the smaller index wins.  Members, drawn from every row, are never
    selected, even when the first minimum is one."""
    points = np.array(data.draw(st.lists(st.lists(_SMALL, min_size=d, max_size=d),
                                         min_size=n, max_size=n)))
    levels = None
    if levelled:
        levels = np.array(data.draw(st.lists(st.integers(0, 3).map(float),
                                             min_size=n, max_size=n)))
    if duplicated:
        points = np.vstack([points, points])
        levels = None if levels is None else np.concatenate([levels, levels])
    h, g = (np.array(data.draw(st.lists(_SMALL, min_size=d, max_size=d))) for _ in range(2))
    members = tuple(sorted(data.draw(st.sets(st.integers(0, len(points) - 1), max_size=d))))
    expected = _per_row_ratio_test(points, levels, h, g, members)
    assert ratio_test(PointSet(points, levels), h, g, members) == expected


@pytest.mark.parametrize("points, levels, members, expected", [
    # rows 1 and 2 tie at ratio 0.5; the smaller index wins
    ([[1.0, 0.0], [2.0, 0.0], [2.0, 0.0]], None, (), (0.5, 1)),
    # the first minimum, row 0, is a member; its twin row 1 wins
    ([[1.0, 0.0], [1.0, 0.0]], [2.0, 2.0], (0,), (2.0, 1)),
    # every candidate is a member
    ([[1.0, 0.0], [0.0, 1.0]], None, (0,), None),
    # no row has <g, a_k> > eps_feas
    ([[-1.0, 0.0], [0.0, 1.0], [1e-10, 5.0]], None, (), None),
    # a level-0 row (a direction) wins with ratio 0
    ([[1.0, 0.0], [3.0, 1.0]], [1.0, 0.0], (), (0.0, 1)),
], ids=["tie", "member-tie", "members-only", "no-candidate", "direction"])
def test_ratio_test_cases(points, levels, members, expected):
    # h = 0 and g = e_1: the ratio of row k is c_k / a_k1.
    ps = PointSet(np.array(points), None if levels is None else np.array(levels))
    assert ratio_test(ps, np.zeros(2), np.array([1.0, 0.0]), members) == expected


def test_pivot_takes_its_entering_row_from_ratio_test(monkeypatch):
    calls = []
    real = shadow_walk.ratio_test

    def spy(ps, h, g, members):
        calls.append((ps, h, g, members))
        return real(ps, h, g, members)

    monkeypatch.setattr(shadow_walk, "ratio_test", spy)
    ps = PointSet(np.array([[1.0, 0.0], [0.0, 1.0], [0.9, 0.9]]))
    facet = make_facet(ps, (0, 2))
    assert pivot(ps, facet, 0).indices == (1, 2)
    [(got_ps, h, g, members)] = calls
    assert got_ps is ps and members == facet.indices
    assert np.array_equal(h, facet.normal) and np.array_equal(g, -facet.inverse[:, 0])
