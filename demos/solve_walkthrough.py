"""Walk through one two-phase solve, step by step.

The solver never runs a textbook simplex: it solves the *unit* program
max <z, x> s.t. <a_i, x> <= 1 by walking facets of the polar polytope
P = Conv(0, a_1..a_n), then reaches the general right-hand side b through a
one-dimension-up interpolation.  This script makes every intermediate object
visible on a small instance and cross-checks the result against the
exhaustive oracle.
"""

import numpy as np

from shadowlp import (
    GeneralLP,
    classify_lp,
    facet_of,
    lift,
    solve_lp,
)

np.set_printoptions(precision=4, suppress=True)

lp = GeneralLP(
    A=[[1.0, 0.0], [0.0, 1.0], [0.9, 0.9], [-0.5, 0.25]],
    b=[1.0, 1.0, 2.0, 1.5],
    z=[1.0, 0.8],
)

print("instance: maximize <z, x> subject to A x <= b")
print("A =\n", lp.A)
print("b =", lp.b)
print("z =", lp.z)

# --- Phase I ingredient: the polar view of the unit program ----------------
# facet_of answers "which facet of Conv(0, rows) does the ray through z
# pierce?"; the tight rows of the unit optimum are exactly its indices.
unit_facet = facet_of(lp.A, lp.z)
print("\nunit program: facet pierced by z ->", unit_facet.indices)
print("facet normal h (unit optimum is h / <h, h> scaled to the hull):",
      unit_facet.normal)

# --- the lift ---------------------------------------------------------------
# lift returns the lifted walk's two inputs: its point set and its plane.
lifted_points, sweep_plane = lift(lp)
print("\nlifted rows: the vertex at infinity (level 0), then (a_i, 1 - b_i),")
print("then the top constraint:")
print(lifted_points.points)
print("levels:", lifted_points.levels)
print("row scales (each row's largest |entry|):", lifted_points.scales)
print("the sweep turns the objective a half turn, from straight down (angle 0)")
print("to straight up (angle pi), in", sweep_plane)

# --- the full pipeline -------------------------------------------------------
result = solve_lp(lp, rng=7, validate=True)
print("\nsolve_lp: status =", result.status)
print("optimal basis (tight constraints):", result.basis,
      "- note it differs from the unit facet; the lift does that work")
print("x_opt =", result.x_opt)
print("objective value =", result.objective_value(lp))
print("pivots: phase 1 =", result.pivots_phase1,
      " phase 2 =", result.pivots_phase2,
      " phase-1 attempts =", result.phase1_iterations)

# --- cross-check -------------------------------------------------------------
verdict = classify_lp(lp)
print("\nexhaustive oracle:", verdict.status, "basis", verdict.basis,
      "value", round(verdict.value, 12))
assert verdict.status == result.status == "optimal"
assert set(verdict.basis) == set(result.basis)
assert abs(verdict.value - result.objective_value(lp)) <= 1e-9
print("solver and oracle agree.")

# The same machinery classifies unbounded and infeasible programs: the
# objective leaving the cone of the rows ends Phase I, and a final facet
# missing the top constraint certifies infeasibility.
unbounded = solve_lp(GeneralLP(A=lp.A[:3], b=lp.b[:3], z=[-1.0, 0.0]), rng=7)
print("\nobjective outside cone(rows):", unbounded.status)

infeasible = solve_lp(GeneralLP(
    A=[[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
    b=[-3.0, -3.0, 1.0, 1.0], z=[1.0, 0.3]), rng=7)
print("contradictory constraints:", infeasible.status)
