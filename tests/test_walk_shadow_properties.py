"""Property test of the paper's reduction: a shadow-vertex walk is no
longer than the shadow it walks on.  Every facet that a Phase-I walk of
solve_unit visits is pierced by its sweep plane, so it is an edge of the
planar section of conv(points, 0) by that plane, and the walk, which never
repeats a facet, has at most as many steps as the section has edges."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowlp import phase1, randgen
from shadowlp.sections import section_edges

from helpers import recorded_walks


@settings(max_examples=60)
@given(seed=st.integers(0, 10 ** 6), d=st.sampled_from([2, 3, 4]), data=st.data())
def test_phase1_walks_stay_on_the_section_of_their_plane(seed, d, data):
    n = data.draw(st.integers(d + 2, 60))
    stream = randgen.derive_rng(1300, seed)
    points = randgen.smoothed_points(stream, n, d, 0.3)
    z = randgen.gaussian(stream, (d,))
    walks = recorded_walks(phase1.solve_unit, points, z, rng=seed)
    assert walks
    for walk_points, plane, _, intervals in walks:
        report = section_edges(np.vstack([walk_points, np.zeros(d)]), plane)
        if report.degenerate:
            continue
        assert len(intervals) <= report.edge_count
        section = set(report.facets)
        assert {facet.indices for facet, _, _ in intervals} <= section
