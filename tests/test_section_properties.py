"""Property tests of section counting: the edge count of a slice is a
property of the point set, so it must not change under a permutation of
the rows or a translation that moves the slice rigidly; in the plane it is
the number of hull vertices, also when a cloud carries a point inside one
of its hull edges.  The rows the prefilter keeps for Qhull hold every
vertex of the hull of all rows."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull, QhullError

from shadowlp.randgen import derive_rng, gaussian, smoothed_points
from shadowlp.sections import _candidate_rows, section_edges
from shadowlp.shadow_walk import SweepPlane

_SETTINGS = settings(max_examples=40)
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


def _hull_vertices(points):
    """The vertex rows of Qhull's hull of the points, or None when Qhull
    refuses the set."""
    try:
        return ConvexHull(points).vertices
    except QhullError:
        return None


@st.composite
def _prefilter_clouds(draw):
    """Gaussian, smoothed (sigma=0.1) or integer-lattice clouds, d in
    {2, 3, 4}, n from d + 1 to 400.  Lattice points in {-2..2}^d, shifted
    by 0 or 1000, bring duplicate, collinear and coplanar rows and ties
    among the extremes."""
    d = draw(st.integers(2, 4))
    n = draw(st.integers(d + 1, 400))
    kind = draw(st.sampled_from(["gaussian", "smoothed", "lattice"]))
    stream = derive_rng(1101, draw(st.integers(0, 10 ** 6)))
    if kind == "gaussian":
        return gaussian(stream, (n, d))
    if kind == "smoothed":
        return smoothed_points(stream, n, d, 0.1)
    shift = draw(st.sampled_from([0.0, 1000.0]))
    return stream.integers(-2, 3, (n, d)).astype(float) + shift


@settings(max_examples=150)
@given(points=_prefilter_clouds())
def test_candidate_rows_hold_every_hull_vertex(points):
    rows = _candidate_rows(points)
    assert np.array_equal(rows, np.unique(rows)) and rows.size
    assert 0 <= rows[0] and rows[-1] < len(points)
    vertices = _hull_vertices(points)
    # Qhull refuses the candidate rows exactly when it refuses them all.
    assert (vertices is None) == (_hull_vertices(points[rows]) is None)
    if vertices is not None:
        assert np.isin(vertices, rows).all()
