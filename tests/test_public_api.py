import ast
import os
import subprocess
import sys
import types
from pathlib import Path

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


# functions that nothing under src/ names and __all__ does not list, each
# kept for a reason; a new helper without a caller shows in this list's diff
UNREACHED_KEPT = {
    "replay_witness": "an acceptance criterion's own tool: recomputes a report's worst margin from its witness",
    "TraceDiagnostics.within": "an acceptance criterion's own tool: the tolerance test on trace diagnostics",
    "write_trace_csv": "the reference writer that TraceFile is compared against; perfbench wraps it too",
    "ProductSpace.pair": "the tests' constructor of product points",
}


def test_every_function_is_reached_or_listed():
    # each module-level function and method under src/hadamard is named
    # somewhere under src/ outside its own body, is in __all__, or is kept above
    trees = {path: ast.parse(path.read_text()) for path in sorted(Path(hd.__file__).parent.glob("*.py"))}
    names = [
        (path, node.lineno, getattr(node, "id", None) or node.attr)
        for path, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    ]
    unreached = []
    for path, tree in trees.items():
        scopes = [("", tree)] + [(node.name + ".", node) for node in tree.body if isinstance(node, ast.ClassDef)]
        for prefix, scope in scopes:
            for fn in scope.body:
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) or fn.name.startswith("__"):
                    continue
                elsewhere = any(
                    name == fn.name and not (p == path and fn.lineno <= line <= fn.end_lineno)
                    for p, line, name in names
                )
                if not elsewhere and fn.name not in hd.__all__:
                    unreached.append(prefix + fn.name)
    assert set(unreached) == set(UNREACHED_KEPT)


_REIMPORT = """
import gc, importlib, sys, weakref
alive = []
for _ in range(5):
    for name in [m for m in sys.modules if m == "hadamard" or m.startswith("hadamard.")]:
        del sys.modules[name]
    importlib.import_module("hadamard.cli")
    alive.append(weakref.ref(sys.modules["hadamard.spaces"].Space))
gc.collect()
print(sum(ref() is not None for ref in alive))
"""


def test_a_fresh_import_frees_the_one_before_it():
    # typing's caches keep each subscription such as Union[A, B] made at
    # import, and with it the classes, their functions' globals and so the
    # whole package: every earlier copy stayed alive.  The unions are written
    # A | B and Projection through collections.abc, which typing does not
    # cache.  In a fresh interpreter, so that no test sees two copies of a class
    src = str(Path(hd.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", _REIMPORT], capture_output=True, text=True, env=env, timeout=120)
    assert done.stdout.strip() == "1", done.stdout + done.stderr
