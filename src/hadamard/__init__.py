"""Computation toolkit for Hadamard (complete CAT(0)) spaces.

Model spaces (Euclidean, hyperboloid, metric trees, products), the
quasilinearization pairing, metric projection onto convex sets with a
certificate, perturbed fixed-point iteration of nonexpansive mappings, and a
randomized property harness for the underlying inequalities.
"""

from .convex import (
    Ball,
    ConvexSetDescriptor,
    HalfSpace,
    ProjectionResult,
    Segment,
    Subtree,
    WholeSpace,
    characterization_residual,
    compile_set,
    contains,
    probe_points,
    project,
    project_point,
    project_segment,
)
from .geometry import quasilinearization
from .harness import (
    CorruptedSpace,
    PropertyReport,
    check_lemmas,
    check_space_axioms,
    liu_recursion,
    trace_diagnostics,
)
from .mappings import (
    Composition,
    GeodesicAverage,
    Identity,
    MappingDescriptor,
    ProjectionOnto,
    Rotation,
    Translation,
    compile_mapping,
    known_fixed_set,
)
from .sampling import (
    random_point,
    sample_in_ball,
    sampler,
    sphere,
    stream,
)
from .solvers import (
    Condition,
    InnerBudgetError,
    IterationTrace,
    PowerLaw,
    Schedule,
    ScheduleError,
    implicit_step,
    nearest_fixed_point_residual,
    run_explicit,
    run_implicit,
    validate_schedules,
)
from .spaces import (
    Euclidean,
    Hyperbolic,
    InvalidSpaceError,
    Point,
    Product,
    SpaceDescriptor,
    SpaceMismatchError,
    TreeTopology,
    WeightedTree,
    euclidean_point,
    hyperboloid_point,
    make_space,
    tree_point,
    validate_point,
)

__all__ = [
    # convex
    "Ball", "ConvexSetDescriptor", "HalfSpace", "ProjectionResult", "Segment", "Subtree",
    "WholeSpace", "characterization_residual", "compile_set", "contains", "probe_points",
    "project", "project_point", "project_segment",
    # geometry
    "quasilinearization",
    # harness
    "CorruptedSpace", "PropertyReport", "check_lemmas", "check_space_axioms", "liu_recursion",
    "trace_diagnostics",
    # mappings
    "Composition", "GeodesicAverage", "Identity", "MappingDescriptor", "ProjectionOnto",
    "Rotation", "Translation", "compile_mapping", "known_fixed_set",
    # sampling
    "random_point", "sample_in_ball", "sampler", "sphere", "stream",
    # solvers
    "Condition", "InnerBudgetError", "IterationTrace", "PowerLaw", "Schedule", "ScheduleError",
    "implicit_step", "nearest_fixed_point_residual", "run_explicit", "run_implicit",
    "validate_schedules",
    # spaces
    "Euclidean", "Hyperbolic", "InvalidSpaceError", "Point", "Product", "SpaceDescriptor",
    "SpaceMismatchError", "TreeTopology", "WeightedTree", "euclidean_point", "hyperboloid_point",
    "make_space", "tree_point", "validate_point",
]
__version__ = "0.1.0"
