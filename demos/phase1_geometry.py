"""Geometry and statistics of the randomized Phase-I construction.

Phase I needs a facet it can *prove* it knows: it drops a far-away regular
simplex of d extra constraints around a random direction z0, so facet(z0) is
the added block by construction.  The block is placed so far out (distance
2 * m0 where m0 rounds the largest row norm up onto the e^k grid) that with
probability at least 1/4 it lands inside a numb set: the original program
never notices it.  This script shows the construction's invariants and
measures the one-attempt success rate the acceptance battery bounds.
"""

import numpy as np

from shadowlp import add_constraints, derive_rng, solve_unit
from shadowlp.phase1 import simplex_vertices
from shadowlp.randgen import (
    added_sigma,
    gaussian,
    norm_ceiling,
    simplex_radius,
    smoothed_points,
)

np.set_printoptions(precision=4, suppress=True)
rng = derive_rng(20260825)

# --- the added simplex in its reference position ----------------------------
d = 3
anchor, vertices = simplex_vertices(d, simplex_radius(d))
print(f"reference simplex for d={d} (anchor = last axis, radius"
      f" {simplex_radius(d):.5f}):")
print(vertices)
print("centroid:", vertices.mean(axis=0), " distances to anchor:",
      np.linalg.norm(vertices - anchor, axis=1))

# --- one attempt on a concrete unit program ---------------------------------
n = 40
raw = gaussian(rng, (n, d))
points = 0.8 * raw / np.linalg.norm(raw, axis=1, keepdims=True)
max_norm = float(np.max(np.linalg.norm(points, axis=1)))
print(f"\nunit program with n={n} rows, max |a_i| = 0.8 -> grid bound"
      f" m0 = {norm_ceiling(max_norm)}")
print(f"added-block smoothing deviation: {added_sigma(d, n):.2e} (relative)")

# One attempt draws its rotation and then its block from the stream, and
# places the block at distance 2 * m0.
block = add_constraints(points, max_norm, rng)
print("attempt result:", "accepted" if block is not None else "rejected")
if block is not None:
    print("start objective z0 =", block.start_objective,
          " |z0| =", np.linalg.norm(block.start_objective))
    print("added rows sit at distance"
          f" {1.0 / np.linalg.norm(np.linalg.solve(block.added_points, np.ones(d))):.4f}"
          f" from the origin (must exceed max |a_i| = 0.8)")

# --- solving the unit program end to end ------------------------------------
z = gaussian(rng, (d,))
z /= np.linalg.norm(z)
# The seed is a word of the demo's stream, so the draws below come after it.
result = solve_unit(points, z, rng=int(rng.integers(0, 2 ** 63)), validate=True)
print(f"\nsolve_unit: status={result.status} facet={result.facet.indices}"
      f" pivots={result.pivots_total} attempts={result.iterations}")

# the witness halfspace certifies why retries are rare: any added block below
# aff(facet(z)), whose normal is the witness, is invisible to the walk
witness = result.facet.normal
dots = points @ witness
print("numb-halfspace witness h: max <h, a_i> over all rows ="
      f" {float(np.max(dots)):.6f} (equality holds exactly on the facet;"
      " everything else is strictly below)")

# --- one-attempt success rate ------------------------------------------------
print("\none-attempt success rate (block accepted AND below the witness):")
for d in (3, 4):
    successes = 0
    trials = 300
    for t in range(trials):
        stream = derive_rng(99, d, t)
        pts = smoothed_points(stream, 50, d, 0.3)
        zt = gaussian(stream, (d,))
        zt /= np.linalg.norm(zt)
        unit = solve_unit(pts, zt, rng=int(stream.integers(0, 2 ** 63)))
        if unit.status != "optimal":
            continue
        h = unit.facet.normal
        blk = add_constraints(pts, float(np.max(np.linalg.norm(pts, axis=1))), stream)
        if blk is not None and float(np.max(blk.added_points @ h)) <= 1.0 + 1e-8:
            successes += 1
    print(f"  d={d}: {successes}/{trials} = {successes / trials:.2f}"
          "  (the guarantee is only 0.25)")
