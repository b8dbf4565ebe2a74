"""Shadow-vertex simplex pipeline for smoothed linear programs.

The solver works on the polar polytope P = Conv(0, a_1, ..., a_n): the
optimal basis of a unit program max <z, x> s.t. Ax <= 1 is the facet of P
pierced by the objective ray, and the simplex path is a rotation of the
objective inside a fixed 2-plane, tracking the pierced facet from one
angular interval to the next.  General programs are reduced to unit form by
an interpolation lift with one extra coordinate; the starting facet comes
from a randomized phase that adds a far-away, well-conditioned block of
constraints.

Public layers:

* :mod:`shadowlp.geometry` — facet normals, cone tests, planar distance bounds,
  and the program type, verdicts and failure family every layer shares;
* :mod:`shadowlp.shadow_walk` — the parametric facet walk on a sweep plane;
* :mod:`shadowlp.phase1` — randomized constraint addition and the unit solver;
* :mod:`shadowlp.interpolate` — the lift and the two-phase general solver;
* :mod:`shadowlp.oracle` — brute-force enumeration double-checks;
* :mod:`shadowlp.sections` — edge counts of planar sections of polytopes;
* :mod:`shadowlp.randgen` — seeded smoothed-instance generation;
* :mod:`shadowlp.experiments` — CSV experiment grids;
* :mod:`shadowlp.verify` — the eight-suite acceptance battery.
"""

from .geometry import (
    DEFAULT_TOL,
    STATUS_INFEASIBLE,
    STATUS_OPTIMAL,
    STATUS_UNBOUNDED,
    FacetIndexSet,
    GeneralLP,
    NoViewpoint,
    NumericFailure,
    PointSet,
    SingularSystem,
    Tolerance,
    angular_distance,
    viewpoint_for_edge,
)
from .shadow_walk import (
    CycleSuspected,
    SweepPlane,
    WalkInvariantViolation,
    WalkOutcome,
    sweep_full,
    walk,
)
from .randgen import SmoothedSpec, derive_rng, normalize, random_spec, sample_instance
from .phase1 import GaveUp, UnitResult, add_constraints, solve_unit
from .interpolate import LPResult, lift, solve_lp
from .oracle import OracleVerdict, classify_lp, facet_of, section_edge_count_bruteforce
from .sections import SectionReport, interior_point_in_slice, section_edges
from .experiments import ExperimentConfig, run_pivot_experiment, run_section_experiment
from .verify import SuiteResult, run_all

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_TOL", "FacetIndexSet", "NoViewpoint", "PointSet", "SingularSystem",
    "Tolerance", "angular_distance", "viewpoint_for_edge",
    "CycleSuspected", "SweepPlane", "WalkInvariantViolation", "WalkOutcome",
    "sweep_full", "walk",
    "SmoothedSpec", "derive_rng", "normalize", "random_spec", "sample_instance",
    "GaveUp", "UnitResult", "add_constraints", "solve_unit",
    "STATUS_INFEASIBLE", "STATUS_OPTIMAL", "STATUS_UNBOUNDED",
    "GeneralLP", "LPResult", "NumericFailure", "lift", "solve_lp",
    "OracleVerdict", "classify_lp", "facet_of", "section_edge_count_bruteforce",
    "SectionReport", "interior_point_in_slice", "section_edges",
    "ExperimentConfig", "run_pivot_experiment", "run_section_experiment",
    "SuiteResult", "run_all",
]
