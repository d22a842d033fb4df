import types

import hadamard as hd


def test_public_names_are_pinned():
    # a change to the package's public surface shows in the diff of this list
    assert sorted(hd.__all__) == [
        "Ball", "Composition", "Condition", "ConvexSetDescriptor", "CorruptedSpace",
        "Euclidean", "GeodesicAverage", "HalfSpace", "Hyperbolic", "Identity",
        "InnerBudgetError", "InvalidSpaceError", "IterationTrace", "MappingDescriptor",
        "Point", "PowerLaw", "Product", "ProjectionOnto", "ProjectionResult",
        "PropertyReport", "Rotation", "Schedule", "ScheduleError", "Segment",
        "SpaceDescriptor", "SpaceMismatchError", "Subtree", "Translation",
        "TreeTopology", "WeightedTree", "WholeSpace", "characterization_residual",
        "check_lemmas", "check_space_axioms", "compile_mapping", "compile_set",
        "contains", "euclidean_point", "hyperboloid_point", "implicit_step",
        "known_fixed_set", "liu_recursion", "make_space", "nearest_fixed_point_residual",
        "probe_points", "project", "project_point", "project_segment", "quasilinearization",
        "random_point", "run_explicit", "run_implicit", "sample_in_ball", "sampler",
        "sphere", "stream", "trace_diagnostics", "tree_point", "validate_point",
        "validate_schedules",
    ]


def test_submodules_stay_attributes_outside_the_public_names():
    # `from hadamard import *` exports no module, but hadamard.convex and the
    # other submodules stay reachable as attributes of the package
    for name in ("convex", "geometry", "harness", "mappings", "sampling", "serialize", "solvers", "spaces"):
        assert isinstance(getattr(hd, name), types.ModuleType) and name not in hd.__all__
