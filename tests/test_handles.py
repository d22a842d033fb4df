"""Every function runs on any handle of a model descriptor.

A space's family is chosen from ``space.descriptor``; structure (a tree's
parent links, a product's factors, the hyperboloid's lift) comes from the
model handle ``space.model``, and the primitives ``distance`` and
``geodesic_point`` from the handle passed in.
"""

import ast
from pathlib import Path

import pytest

import hadamard as hd
from conftest import Forwarding, OffsetMetric, ept, hpt_polar, shuffled_random_tree
from hadamard import convex
from test_solvers import CountingH2

HANDLE_CLASSES = {
    "EuclideanSpace", "EuclideanPlane", "HyperbolicSpace", "HyperbolicPlane", "TreeSpace", "ProductSpace",
}


@pytest.fixture(scope="module")
def shuffled_tree():
    return hd.make_space(hd.WeightedTree(shuffled_random_tree(60, 3)))


@pytest.fixture(scope="module")
def E2_tree(E2, tree):
    # a product with a tree factor: its draws give the tree factor its
    # share of the distance through the tree's own sphere
    return hd.make_space(hd.Product(E2.descriptor, tree.descriptor))


def _explicit(space, C, T, sched, base, x0, ref):
    return hd.run_explicit(space, C, T, sched, base, x0, budget=20, seed=1, reference=ref)


def _implicit(space, C, T, sched, base, x0, ref):
    return hd.run_implicit(space, C, T, sched, base, budget=4, seed=1, max_inner=500, reference=ref)


@pytest.mark.parametrize("family", ["E2", "E3", "H2", "shuffled_tree", "prod", "E2_tree"])
def test_forwarding_handle_gives_the_model_bits(request, family):
    model = request.getfixturevalue(family)
    wrapped = Forwarding(model)
    rng = hd.stream(11, 1)
    x0, a, b, x, o = (hd.random_point(model, rng) for _ in range(5))

    def same(fn):
        want = fn(model)
        assert fn(wrapped) == want
        return want

    # both solvers, on the default sampling radius with a nonzero perturbation
    sched = hd.Schedule(hd.PowerLaw(1.0, 0.7, 2.0), hd.PowerLaw(1.0, 1.0, 2.0), mixing=0.5)
    C, T = hd.Ball(x0, 2.0), hd.ProjectionOnto(hd.Segment(a, b))
    for run in (_explicit, _implicit):
        assert same(lambda s: run(s, C, T, sched, o, x0, a)).rows
    same(lambda s: hd.check_space_axioms(s, 30, seed=2))
    # segments: closed forms on E2, H2 and trees, golden-section search on products only
    u, iterations = same(lambda s: hd.project_point(s, hd.Segment(a, b), x))
    assert iterations == (convex.GOLDEN_STEPS if family in ("prod", "E2_tree") else 0)
    for cset in (hd.Ball(a, 1.5), hd.WholeSpace()):
        same(lambda s: hd.probe_points(s, cset, a, 40, seed=4))
    if family == "shuffled_tree":
        v = model.child[x.data[0]]
        sets = [hd.Subtree(frozenset({v, model.parent[v], model.parent[model.parent[v]]}))]
    elif family == "E2":
        sets = [hd.HalfSpace((1.0, 2.0), 0.5)]
    elif family == "E3":
        sets = [hd.HalfSpace((1.0, 2.0, -0.5), 0.5)]
    else:
        sets = []
    for cset in sets:
        same(lambda s: [hd.compile_set(s, cset)(p) for p in (x0, a, b, x)])
        same(lambda s: hd.probe_points(s, cset, hd.project_point(s, cset, x)[0], 40, seed=4))
    if family in ("E2", "H2"):
        same(lambda s: hd.compile_mapping(s, hd.Rotation(a, 0.7))(x))


def test_make_space_writes_out_only_the_euclidean_plane():
    # E^2 gets written-out kernels; the E3 family above keeps the generic
    # n-dimensional handle under test
    from hadamard.spaces import EuclideanPlane, EuclideanSpace

    assert type(hd.make_space(hd.Euclidean(2))) is EuclideanPlane
    assert type(hd.make_space(hd.Euclidean(3))) is EuclideanSpace


def test_explicit_run_on_a_corrupted_handle_ends_in_a_status(H2):
    # the default sampling radius and a nonzero perturbation: the run samples
    space = hd.CorruptedSpace(H2)
    sched = hd.Schedule(hd.PowerLaw(1.0, 0.7, 2.0), hd.PowerLaw(1.0, 1.0, 2.0), mixing=0.5)
    T = hd.ProjectionOnto(hd.Ball(H2.base, 1.0))
    x0 = hpt_polar(H2, 3.0, 0.3)
    trace = hd.run_explicit(space, hd.WholeSpace(), T, sched, H2.base, x0, 50)
    assert trace.status in ("converged", "budget") and len(trace.rows) > 1


def test_only_spaces_names_a_handle_class():
    # the family decision stays in spaces.py: every other module reads the
    # descriptor and takes structure from space.model
    offenders = []
    for path in sorted(Path(hd.__file__).parent.glob("*.py")):
        if path.name == "spaces.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if isinstance(node, ast.alias):
                name = node.name
            if name in HANDLE_CLASSES:
                offenders.append(f"{path.name}:{node.lineno}: {name}")
    assert not offenders


def test_every_handle_names_its_model(E2, E3, H2, tree, prod):
    # each class make_space builds is its own model, cached or not
    handles = [E2, E3, H2, hd.make_space(hd.Hyperbolic(3)), tree, prod]
    assert len({type(space) for space in handles}) == len(HANDLE_CLASSES)
    for space in handles:
        fresh = type(space)(space.descriptor)
        assert fresh is not hd.make_space(space.descriptor)
        assert space.model is space and fresh.model is fresh

    # a wrapper names the model it wraps, through any depth, and its sets
    # keep no extreme points, where the model's sets have them
    e2_sets = [hd.Ball(ept(E2, 0.0, 0.0), 1.0), hd.Segment(ept(E2, 0.0, 0.0), ept(E2, 1.0, 2.0))]
    tree_sets = [
        hd.Ball(tree.vertex_point(1), 0.5),
        hd.Segment(tree.vertex_point(0), tree.vertex_point(2)),
        hd.Subtree(frozenset({0, 1, 2})),
    ]
    h2_sets = [hd.Ball(H2.base, 0.5), hd.Segment(H2.base, hpt_polar(H2, 1.0, 0.5))]
    wrapped = [
        (hd.CorruptedSpace(E2), E2, e2_sets),
        (hd.CorruptedSpace(hd.CorruptedSpace(tree)), tree, tree_sets),
        (OffsetMetric(tree), tree, tree_sets),
        (Forwarding(E2), E2, e2_sets),
        (CountingH2(H2), H2, h2_sets),
    ]
    for space, model, sets in wrapped:
        assert space.model is model
        for cset in sets:
            exact = convex._compile(model, cset).extremes is not None
            assert exact == (model is not H2)
            assert convex._compile(space, cset).extremes is None

    # a directly built E^2 handle of the generic class is its own model: it
    # certifies over extreme points as the make_space handle does, where it
    # used to read 1.05e-4 over 1000 probes
    from hadamard.spaces import EuclideanSpace

    generic = EuclideanSpace(hd.Euclidean(2))
    ball, x = hd.Ball(ept(E2, 0.0, 0.0), 1.0), ept(E2, 3.0, 0.4)
    assert convex._compile(generic, ball).extremes is not None
    result = hd.project(generic, ball, x, probes=1000)
    assert result == hd.project(E2, ball, x, probes=1000)
    assert abs(result.certificate_residual) < 1e-30
    probes = hd.probe_points(generic, ball, result.u, 1000)
    assert hd.characterization_residual(generic, ball, x, result.u, probes) > 1e-4


def test_no_module_outside_spaces_recovers_a_model():
    # the model is named once, by space.model: outside spaces.py no module
    # looks it up with make_space(<handle>.descriptor), compares handle
    # classes with type(...) is type(...) or probes a handle for a kernel
    # with getattr or hasattr, since every model handle has each it uses
    kernels = {"sphere", "exponential", "distances", "geodesic", "uniform"}

    def is_call(node, name):
        func = getattr(node, "func", None)
        return isinstance(node, ast.Call) and name in (getattr(func, "id", None), getattr(func, "attr", None))

    offenders = []
    for path in sorted(Path(hd.__file__).parent.glob("*.py")):
        if path.name == "spaces.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            lookup = is_call(node, "make_space") and any(
                isinstance(arg, ast.Attribute) and arg.attr == "descriptor" for arg in node.args
            )
            gate = isinstance(node, ast.Compare) and any(
                isinstance(op, (ast.Is, ast.IsNot)) and is_call(left, "type") and is_call(right, "type")
                for op, left, right in zip(node.ops, [node.left] + node.comparators, node.comparators)
            )
            probe = (is_call(node, "getattr") or is_call(node, "hasattr")) and any(
                isinstance(arg, ast.Constant) and arg.value in kernels for arg in node.args[1:2]
            )
            if lookup or gate or probe:
                offenders.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert not offenders
