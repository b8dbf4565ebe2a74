"""Count the edges of a planar section of a random polytope by sweeping.

A shadow-vertex walk inside a plane E can only visit facets that E actually
cuts, so the number of edges of Conv(points) intersect E bounds the pivot
count.  ``section_edges`` measures that quantity directly: find a point deep
inside the slice, recenter, find the facet pierced by the start ray, and
sweep the objective through a full circle, counting distinct facets.  At
d <= 4 one Qhull hull gives all three: the interior point comes from a margin
LP over its facet equations, the start facet is one of its facets, and the
sweep runs on its vertices.  ``interior_point_in_slice`` below is the path
taken above d = 4: the same margin LP grown by cutting planes, each a hull
facet that Phase I finds beyond a margin point.  Every count is
cross-checked here against an independent brute-force enumeration of
supporting hyperplanes.
"""

import numpy as np

from shadowlp import section_edges, section_edge_count_bruteforce
from shadowlp.experiments import SQUARE_POINTS
from shadowlp.randgen import derive_rng, gaussian, sub_seed
from shadowlp.sections import interior_point_in_slice
from shadowlp.shadow_walk import SweepPlane

np.set_printoptions(precision=4, suppress=True)

plane = SweepPlane.axis(3)

# --- one polytope in detail --------------------------------------------------
points = gaussian(derive_rng(11), (9, 3))
x0 = interior_point_in_slice(points, plane)
print("9 Gaussian points in R^3, sweep plane = span(e1, e2)")
print("deepest interior point of the slice:", x0)

report = section_edges(points, plane, rng=12, validate=True)
print(f"walked edge count: {report.edge_count}")
print("facets met by the sweep (index sets):",
      [f.indices for f in report.facets])
print("brute-force count:", section_edge_count_bruteforce(points, plane))

# --- the two fixtures --------------------------------------------------------
plane2 = SweepPlane.axis(2)
print("\nsquare fixture:", section_edges(SQUARE_POINTS, plane2, rng=13).edge_count,
      "edges (a full polygon is its own section)")

blob = np.array([[0.0, 0.0, 12.0], [1.0, 0.0, 13.0],
                 [-1.0, 1.0, 13.0], [0.3, -1.0, 12.5]])
missed = section_edges(blob, plane, rng=14)
print("hull far above the plane: degenerate =", missed.degenerate,
      " edge count =", missed.edge_count)

# --- agreement over a batch --------------------------------------------------
print("\n30 random hulls, walked vs. brute-force:")
agree = 0
for case in range(30):
    stream = derive_rng(15, case)
    n = int(stream.integers(4, 11))
    pts = gaussian(stream, (n, 3)) + 0.3 * gaussian(stream, (3,))
    walked = section_edges(pts, plane, rng=sub_seed(15, case, 1))
    w = 0 if walked.degenerate else walked.edge_count
    b = section_edge_count_bruteforce(pts, plane)
    agree += (w == b)
print(f"  {agree}/30 agree exactly")
assert agree == 30
