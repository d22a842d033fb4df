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
        "contains", "convex", "euclidean_point", "geometry", "harness",
        "hyperboloid_point", "implicit_step", "known_fixed_set", "liu_recursion",
        "make_space", "mappings", "nearest_fixed_point_residual", "probe_points",
        "project", "project_point", "project_segment", "quasilinearization",
        "random_point", "run_explicit", "run_implicit", "sample_in_ball", "sampler",
        "sampling", "serialize", "solvers", "spaces", "sphere", "stream",
        "trace_diagnostics", "tree_point", "validate_point", "validate_schedules",
    ]
