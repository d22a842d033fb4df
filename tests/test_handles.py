"""Every function runs on any handle of a model descriptor.

A space's family is chosen from ``space.descriptor``; structure (a tree's
parent links, a product's factors, the hyperboloid's lift) comes
from the model handle ``make_space(space.descriptor)``, and the primitives
``distance`` and ``geodesic_point`` from the handle passed in.
"""

import ast
from pathlib import Path

import pytest

import hadamard as hd
from conftest import Forwarding, hpt_polar, shuffled_random_tree

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
    # segments: closed forms on E2, H2 and trees, ternary search on products only
    u, iterations = same(lambda s: hd.project_point(s, hd.Segment(a, b), x))
    assert (iterations == 0) == (family not in ("prod", "E2_tree"))
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
    # descriptor and takes structure from make_space(descriptor)
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
