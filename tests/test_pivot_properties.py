"""Property test of the ratio test: on facets taken from real walks, pivot
must agree with a per-point reference loop bit for bit."""

import functools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from shadowlp import interpolate, phase1, randgen, shadow_walk
from shadowlp.geometry import DEFAULT_TOL, INFINITY_INDEX, SingularSystem, basis_rows, make_facet
from shadowlp.shadow_walk import pivot


@functools.cache
def _walks(n, seed):
    """(points, infinite_dir, facets) of every walk of one smoothed d=3
    solve on the benchmark's model: Phase I's, without a vertex at infinity,
    and the lifted one's, with it."""
    spec = randgen.normalize(randgen.random_spec(n, 3, 0.1, randgen.derive_rng(seed, 0)))
    lp = randgen.sample_instance(spec, randgen.derive_rng(seed, 1))
    walks = []

    def recorded(points, *args, **kwargs):
        outcome = shadow_walk.walk(points, *args, **kwargs)
        walks.append((points, kwargs.get("infinite_dir"),
                      [entry.facet for entry in outcome.trace]))
        return outcome

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(phase1, "walk", recorded)
        mp.setattr(interpolate, "walk", recorded)
        interpolate.solve_lp(lp, rng=seed)
    return walks


def _reference_ratio_test(points, facet, leaving, infinite_dir):
    """(ratio, entering) by one pass over the points in index order, or None.
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
        ratio = float((1.0 - dots[i]) / den[i])
        if best is None or ratio < best[0]:  # strict: the smaller index keeps a tie
            best = (ratio, i)
    if infinite_dir is not None and not facet.contains_infinite:
        den_inf = float(np.dot(g, infinite_dir))
        if den_inf > DEFAULT_TOL.eps_feas:
            ratio_inf = -float(np.dot(h, infinite_dir)) / den_inf
            if best is None or ratio_inf <= best[0]:
                best = (ratio_inf, INFINITY_INDEX)
    return best


@settings(max_examples=100, suppress_health_check=[HealthCheck.too_slow])
@given(n=st.sampled_from([20, 4096]), seed=st.integers(0, 3), lifted=st.booleans(),
       duplicated=st.booleans(), reset_updates=st.booleans(), data=st.data())
def test_pivot_matches_a_per_point_reference(n, seed, lifted, duplicated, reset_updates, data):
    walks = [w for w in _walks(n, seed) if (w[1] is not None) == lifted]
    assume(walks)
    points, infinite_dir, facets = data.draw(st.sampled_from(walks))
    facet = data.draw(st.sampled_from(facets))
    leaving = data.draw(st.sampled_from(facet.indices))
    if duplicated:
        # every point gets a twin at a larger index, so each ratio ties
        points = np.vstack([points, points])
    if reset_updates:
        facet = replace(facet, updates=0)  # the pivot then tries the update

    expected = _reference_ratio_test(points, facet, leaving, infinite_dir)
    updates = []
    real_update = shadow_walk._updated_facet

    def spy(*args):
        updates.append(args)
        return real_update(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(shadow_walk, "_updated_facet", spy)
        try:
            step = pivot(points, facet, leaving, infinite_dir)
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
            make_facet(points, new_indices, infinite_dir)
        return
    got_entering, new_facet = step
    assert got_entering == entering
    assert new_facet.indices == new_indices
    if new_facet.updates:
        assert np.array_equal(new_facet.normal, facet.normal - ratio * facet.inverse[:, j])
        rows, _ = basis_rows(points, new_indices, infinite_dir)
        assert np.array_equal(new_facet.scales, np.abs(rows).max(axis=1))
    else:
        fresh = make_facet(points, new_indices, infinite_dir)
        for name in ("normal", "inverse", "scales"):
            assert np.array_equal(getattr(new_facet, name), getattr(fresh, name))
