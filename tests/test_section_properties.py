"""Property tests of section counting: the edge count of a slice is a
property of the point set, so it must not change under a permutation of
the rows or a translation that moves the slice rigidly; in the plane it is
the number of hull vertices, also when a cloud carries a point inside one
of its hull edges."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull

from shadowlp.randgen import derive_rng, gaussian
from shadowlp.sections import section_edges
from shadowlp.shadow_walk import SweepPlane

_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)
_SHIFT = st.floats(-2.0, 2.0, allow_nan=False)


def _cloud(seed, n, d, edge_point):
    """n Gaussian points in R^d; with edge_point, one more row inside the
    segment between two adjacent hull vertices (edge_point is its weight)."""
    points = gaussian(derive_rng(1100, seed), (n, d))
    if edge_point is None:
        return points
    hull = ConvexHull(points)
    if d == 2:
        a, b = hull.vertices[0], hull.vertices[1]  # counterclockwise order
    else:
        a, b = hull.simplices[0][:2]  # two corners of one triangular face
    return np.vstack([points, (1.0 - edge_point) * points[a] + edge_point * points[b]])


def _count(points, plane, seed):
    return section_edges(points, plane, rng=seed).edge_count


@_SETTINGS
@given(seed=st.integers(0, 10 ** 6), n=st.integers(5, 40),
       edge_point=st.none() | st.floats(0.1, 0.9), order_seed=st.integers(0, 2 ** 32 - 1),
       shift=st.tuples(_SHIFT, _SHIFT))
def test_planar_count_is_the_hull_vertex_count_under_permutation_and_translation(
        seed, n, edge_point, order_seed, shift):
    points = _cloud(seed, n, 2, edge_point)
    plane = SweepPlane.axis(2)
    expected = len(ConvexHull(points).vertices)
    assert _count(points, plane, seed) == expected
    permuted = points[np.random.default_rng(order_seed).permutation(len(points))]
    assert _count(permuted, plane, seed) == expected
    moved = points + np.array(shift)
    assert len(ConvexHull(moved).vertices) == expected
    assert _count(moved, plane, seed) == expected


@_SETTINGS
@given(seed=st.integers(0, 10 ** 6), n=st.integers(8, 40),
       edge_point=st.none() | st.floats(0.1, 0.9), order_seed=st.integers(0, 2 ** 32 - 1),
       shift=st.tuples(_SHIFT, _SHIFT))
def test_spatial_count_survives_permutation_and_translation_within_the_plane(
        seed, n, edge_point, order_seed, shift):
    points = _cloud(seed, n, 3, edge_point)
    plane = SweepPlane.axis(3)
    expected = _count(points, plane, seed)
    permuted = points[np.random.default_rng(order_seed).permutation(len(points))]
    assert _count(permuted, plane, seed) == expected
    moved = points + shift[0] * plane.basis1 + shift[1] * plane.basis2
    assert _count(moved, plane, seed) == expected
