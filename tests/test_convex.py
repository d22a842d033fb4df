import ast
import math
import operator
import struct
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import hadamard as hd
from hadamard import convex, sampling
from hadamard.cli import random_tree_topology
from hadamard.convex import IncompatibleSetError
from conftest import CATERPILLAR, OffsetMetric, ept, hpt_polar, shuffled_random_tree
import oracles


def test_contains_ball_and_segment(E2):
    ball = hd.Ball(ept(E2, 0.0, 0.0), 2.0)
    assert hd.contains(E2, ball, ept(E2, 1.0, 1.0))
    assert not hd.contains(E2, ball, ept(E2, 2.0, 1.0))
    seg = hd.Segment(ept(E2, 0.0, 0.0), ept(E2, 4.0, 0.0))
    assert hd.contains(E2, seg, ept(E2, 1.5, 0.0))
    assert not hd.contains(E2, seg, ept(E2, 1.5, 0.1))
    assert not hd.contains(E2, seg, ept(E2, 5.0, 0.0))


def test_contains_halfspace(E2):
    hs = hd.HalfSpace((0.0, 1.0), 1.0)
    assert hd.contains(E2, hs, ept(E2, 7.0, 1.5))
    assert not hd.contains(E2, hs, ept(E2, 0.0, 0.9))


def test_set_space_compatibility_enforced(E2, H2, tree):
    # each of the nine messages, through the public calls that compile a set
    with pytest.raises(IncompatibleSetError, match="subtree sets require a tree space"):
        hd.contains(E2, hd.Subtree(frozenset({0, 1})), ept(E2, 0.0, 0.0))
    for space, p, normal in ((tree, hd.tree_point(tree, 0, 0.5), (1.0,)), (H2, H2.base, (1.0, 0.0))):
        with pytest.raises(IncompatibleSetError, match="half-space sets require Euclidean space"):
            hd.contains(space, hd.HalfSpace(normal, 0.0), p)
    # |normal|^2 is 0, underflows or overflows
    for normal in ((0.0, 0.0), (0.0, 5e-324), (1e-160, 0.0), (1e200, 0.0)):
        with pytest.raises(IncompatibleSetError, match="half-space normal is zero or its squared norm is out of"):
            hd.project_point(E2, hd.HalfSpace(normal, 1.0), ept(E2, -1.0, 0.0))
    # the length is checked before the squared norm, which these also fail
    for normal in ((1.0, 0.0, 0.0), (), (1e200, 1e200, 1e200)):
        with pytest.raises(IncompatibleSetError, match="half-space normal has the wrong dimension"):
            hd.project_point(E2, hd.HalfSpace(normal, 1.0), ept(E2, -1.0, 0.0))
    with pytest.raises(IncompatibleSetError, match="subtree vertex set is not connected"):
        # vertices 0 and 4 are not adjacent in the caterpillar
        hd.project_point(tree, hd.Subtree(frozenset({0, 4})), hd.tree_point(tree, 0, 0.5))
    empty, out_of_range = "subtree vertex set is empty", "subtree vertex out of range"
    for vertices, message in ((frozenset(), empty), (frozenset({0, 99}), out_of_range)):
        with pytest.raises(IncompatibleSetError, match=message):
            hd.project_point(tree, hd.Subtree(vertices), hd.tree_point(tree, 0, 0.5))
    # a ball radius and a half-space offset must be finite
    for space, center in ((E2, ept(E2, 0.0, 0.0)), (H2, H2.base)):
        for radius in (math.nan, math.inf, -math.inf):
            with pytest.raises(IncompatibleSetError, match="ball radius must be positive and finite"):
                hd.project_point(space, hd.Ball(center, radius), center)
            with pytest.raises(IncompatibleSetError, match="ball radius must be positive and finite"):
                hd.project(space, hd.Ball(center, radius), center, probes=10)
    for offset in (math.nan, math.inf, -math.inf):
        with pytest.raises(IncompatibleSetError, match="half-space offset must be finite"):
            hd.project_point(E2, hd.HalfSpace((1.0, 0.0), offset), ept(E2, 0.0, 0.0))


def test_ball_projection_euclidean_oracle(E3):
    rng = np.random.default_rng(31)
    center = ept(E3, 0.5, -1.0, 2.0)
    ball = hd.Ball(center, 1.5)
    for _ in range(50):
        x = ept(E3, *rng.normal(scale=4.0, size=3))
        u, _ = hd.project_point(E3, ball, x)
        cx, xx = np.array(center.data), np.array(x.data)
        d = np.linalg.norm(xx - cx)
        want = xx if d <= 1.5 else cx + 1.5 * (xx - cx) / d
        assert np.allclose(u.data, want, atol=1e-12)


def test_ball_projection_hyperbolic_lands_on_boundary(H2):
    center = hpt_polar(H2, 0.5, 0.0)
    ball = hd.Ball(center, 1.0)
    x = hpt_polar(H2, 4.0, 2.0)
    u, _ = hd.project_point(H2, ball, x)
    assert H2.distance(center, u) == pytest.approx(1.0, abs=1e-10)
    # geodesic optimality: u is on the center-x geodesic
    d_cx = H2.distance(center, x)
    assert H2.distance(center, u) + H2.distance(u, x) == pytest.approx(d_cx, abs=1e-9)


def test_halfspace_projection_matches_affine_formula(E2):
    hs = hd.HalfSpace((3.0, -4.0), 2.0)
    x = ept(E2, -1.0, 2.0)
    u, _ = hd.project_point(E2, hs, x)
    n = np.array([3.0, -4.0])
    xx = np.array(x.data)
    want = xx + (2.0 - n @ xx) / (n @ n) * n
    assert np.allclose(u.data, want, atol=1e-12)
    assert hd.contains(E2, hs, u, 1e-9)


def test_halfspace_projection_far_offset_stays_finite(E2):
    # offset / |normal|^2 = 1e310 overflows unless the normal is scaled first
    u, _ = hd.project_point(E2, hd.HalfSpace((1e-150, 0.0), 1e10), ept(E2, 0.0, 0.0))
    assert u.data[0] == pytest.approx(1e160, rel=1e-12)
    assert u.data[1] == 0.0


def test_subtree_validation_matches_networkx_connectivity():
    topo = shuffled_random_tree(40, 6)
    tree = hd.make_space(hd.WeightedTree(topo))
    graph = oracles.tree_graph(topo)
    rng = np.random.default_rng(7)
    verdicts = set()
    for _ in range(400):
        # grow a connected set from a random vertex, then perhaps drop or add one
        chosen = {int(rng.integers(topo.vertex_count))}
        for _ in range(int(rng.integers(0, 10))):
            frontier = sorted({w for v in chosen for w in graph.neighbors(v)} - chosen)
            chosen.add(frontier[int(rng.integers(len(frontier)))])
        r = rng.random()
        if r < 1 / 3 and len(chosen) > 1:
            chosen.discard(sorted(chosen)[int(rng.integers(len(chosen)))])
        elif r < 2 / 3:
            chosen.add(int(rng.integers(topo.vertex_count)))
        want = oracles.tree_vertex_set_connected(graph, chosen)
        try:
            hd.compile_set(tree, hd.Subtree(frozenset(chosen)))
            got = True
        except IncompatibleSetError as exc:
            assert "not connected" in str(exc)
            got = False
        assert got == want, sorted(chosen)
        verdicts.add(got)
    assert verdicts == {True, False}


def test_segment_projection_euclidean_grid_oracle(E3):
    rng = np.random.default_rng(17)
    for _ in range(30):
        a, b, x = (ept(E3, *rng.normal(scale=3.0, size=3)) for _ in range(3))
        lam, u, _ = hd.project_segment(E3, a, b, x)
        want = oracles.euclid_segment_argmin(a.data, b.data, x.data, 100001)
        assert abs(lam - want) <= 2e-5


def test_segment_projection_hyperbolic_grid_oracle(H2):
    rng = np.random.default_rng(19)
    for _ in range(30):
        a = hpt_polar(H2, rng.uniform(0, 3), rng.uniform(-3, 3))
        b = hpt_polar(H2, rng.uniform(0, 3), rng.uniform(-3, 3))
        x = hpt_polar(H2, rng.uniform(0, 3), rng.uniform(-3, 3))
        lam, u, _ = hd.project_segment(H2, a, b, x)
        want = oracles.hyper_segment_argmin(a.data, b.data, x.data, 100001)
        assert abs(lam - want) <= 2e-5


def test_segment_projection_tree_grid_oracle(tree):
    rng = np.random.default_rng(29)
    vdist = oracles.tree_vertex_distances(CATERPILLAR)
    for _ in range(30):
        pts = []
        for _ in range(3):
            e = int(rng.integers(5))
            pts.append((e, float(rng.uniform(0, CATERPILLAR.edges[e][2]))))
        (a, b, x) = pts
        pa, pb, px = (hd.tree_point(tree, *p) for p in pts)
        if tree.distance(pa, pb) < 1e-9:
            continue
        lam, u, _ = hd.project_segment(tree, pa, pb, px)
        want = oracles.tree_segment_argmin(CATERPILLAR, a, b, x, 100001, vdist)
        # compare by projected point, not lambda: the oracle grid is coarse
        d_here = tree.distance(px, u)
        d_want = tree.distance(px, tree.geodesic_point(pa, pb, want))
        assert d_here <= d_want + 1e-6


def test_segment_projection_tree_closed_form():
    topo = shuffled_random_tree(200, 6)
    tree = hd.make_space(hd.WeightedTree(topo))
    rng = np.random.default_rng(31)

    def point():
        eid = int(rng.integers(len(topo.edges)))
        return hd.Point(tree.descriptor, (eid, topo.edges[eid][2] * float(rng.random())))

    grid = np.linspace(0.0, 1.0, 1001).tolist()
    for _ in range(300):
        a, b, x = point(), point(), point()
        lam, u, iterations = hd.project_segment(tree, a, b, x)
        assert iterations == 0
        assert u == tree.geodesic_point(a, b, lam)
        best = min(tree.distance(x, tree.geodesic_point(a, b, g)) for g in grid)
        assert tree.distance(x, u) <= best + 1e-12
    assert hd.project_segment(tree, a, a, x) == (1.0, a, 0)


def _product_points(space):
    """Points of ``space``, a product, with coordinates up to 1e300, where
    the distances overflow."""
    desc = space.descriptor
    if isinstance(desc, hd.Product):
        return st.builds(space.pair, _product_points(space.left), _product_points(space.right))
    if isinstance(desc, hd.WeightedTree):
        edges = desc.topology.edges
        return st.builds(lambda e, f: hd.tree_point(space, e, f * edges[e][2]), st.integers(0, len(edges) - 1), _unit)
    coords = st.lists(st.builds(operator.mul, st.floats(-1.0, 1.0), st.sampled_from((1.0, 5.0, 1e300))),
                      min_size=desc.dim, max_size=desc.dim)
    if isinstance(desc, hd.Euclidean):
        return coords.map(lambda c: hd.Point(desc, tuple(c)))
    return coords.map(space._lift)


def test_product_segment_search_returns_a_point_it_evaluated(E2, tree, prod):
    # GOLDEN_STEPS on every product family, on a == b and where the
    # distances overflow, which must not raise: the point is the segment's
    # at the lam returned, to the bit
    E1, H3 = hd.Euclidean(1), hd.Hyperbolic(3)
    spaces = [prod] + [hd.make_space(hd.Product(*d)) for d in (
        (H3, E1), (E2.descriptor, tree.descriptor), (prod.descriptor, hd.Product(E1, tree.descriptor)))]

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def check(data):
        space = data.draw(st.sampled_from(spaces))
        points = _product_points(space)
        a, x = data.draw(points), data.draw(points)
        b = data.draw(st.one_of(st.just(a), points))
        lam, u, steps = hd.project_segment(space, a, b, x)
        assert steps == convex.GOLDEN_STEPS
        assert repr(u) == repr(space.geodesic_point(a, b, lam))  # nan included

    check()


def test_flat_product_segment_search_reaches_the_affine_foot():
    # E2 x E1 and E1 x E1 are E3 and E2: the search's d(x, u)^2 is within
    # 1e-11 relative of the clamped affine foot's, at scales 1e-3 to 1e6
    E1 = hd.Euclidean(1)
    rng = np.random.default_rng(3)
    for space in (hd.make_space(hd.Product(hd.Euclidean(2), E1)), hd.make_space(hd.Product(E1, E1))):
        n = space.descriptor.left.dim
        for scale in (1e-3, 1.0, 1e3, 1e6):
            for _ in range(150):
                a, b, x = (scale * rng.normal(size=n + 1) for _ in range(3))
                w = a - b
                lam = min(1.0, max(0.0, float((x - b) @ w / (w @ w))))
                a, b, x = (space.pair(hd.Point(space.descriptor.left, tuple(p[:n].tolist())),
                                      hd.Point(E1, tuple(p[n:].tolist()))) for p in (a, b, x))
                exact = space.distance(x, space.geodesic_point(a, b, lam))
                d = space.distance(x, hd.project_segment(space, a, b, x)[1])
                assert d * d <= exact * exact * (1.0 + 1e-11), (d, exact)


def test_a_product_segment_projection_measures_once_per_search_point(prod):
    # one geodesic_point and one distance at each of the 2 + GOLDEN_STEPS
    # points of the search, and none to return the best of them
    space, rng = Counting(prod), hd.stream(14, 1)
    a, b, x = (hd.random_point(prod, rng) for _ in range(3))
    got = hd.project_segment(space, a, b, x)
    assert space.calls == {"distance": 65, "geodesic_point": 65}
    assert got == hd.project_segment(prod, a, b, x)


def test_a_product_segment_projection_passes_criterion_2(E2, H2, prod):
    # the true projection of x onto [a, b]: a search on d^2 that rounding
    # stalled 1e-8 away in lam certified it at -2.44e-8, below the bound of
    # -1e-8 (1 + d(x, u)^2) = -1.78e-8
    a = prod.pair(ept(E2, 0.0, 0.0), hd.hyperboloid_point(H2, 3.3166247903554, 1.0, 3.0))
    b, x = prod.pair(ept(E2, 0.0, 1.0), H2.base), prod.pair(ept(E2, 0.0, 0.0), H2.base)
    res = hd.project(prod, hd.Segment(a, b), x, probes=1000)
    d = prod.distance(x, res.u)
    assert res.iterations_used == convex.GOLDEN_STEPS
    assert res.certificate_residual >= -1e-8 * (1.0 + d * d), res.certificate_residual


def test_a_product_segment_search_far_beyond_the_squared_float_range(E2, H2, prod):
    # every distance along [a, b] squares past the float range: a search on
    # d^2 compared inf with inf, kept its left bracket and returned lam 2.6e-14,
    # 1.9e200 from x.  The foot lies 0.95 of the way from b, within 1.5e-15 of
    # the segment's length, the search's own resolution
    a, b = prod.pair(ept(E2, -1e200, 0.0), H2.base), prod.pair(ept(E2, 1e200, 0.0), H2.base)
    x = prod.pair(ept(E2, -9e199, 1.0), H2.base)
    lam, u, _ = hd.project_segment(prod, a, b, x)
    assert abs(lam - 0.95) <= 1e-12, lam
    assert prod.distance(x, u) <= 1e-14 * prod.distance(a, b)


def test_segment_projection_of_a_point_just_off_the_segment(E2, H2):
    # d(a, x) + d(x, b) - d(a, b) grows only quadratically in x's height over
    # the segment: about 2e-10 at height 1e-5, below the membership
    # tolerance, yet the projection must still land on the segment
    e_seg = hd.Segment(ept(E2, 0.0, 0.0), ept(E2, 1.0, 0.0))
    h_seg = hd.Segment(hpt_polar(H2, 1.0, 0.0), hpt_polar(H2, 1.0, math.pi))
    for h in (1e-5, 1.5e-5, 2e-5):
        x = ept(E2, 0.5, h)
        u, _ = hd.project_point(E2, e_seg, x)
        assert u.data == (0.5, 0.0)
        assert hd.contains(E2, e_seg, u)
        assert hd.project(E2, e_seg, x, probes=1000).u == u
        # the midpoint of the H2 segment is the sheet base point
        x = hpt_polar(H2, h, 0.5 * math.pi)
        u, _ = hd.project_point(H2, h_seg, x)
        assert H2.distance(u, H2.base) <= 1e-9 * h
        assert H2.distance(x, u) == pytest.approx(h, rel=1e-6)
        Tx = hd.compile_mapping(H2, hd.ProjectionOnto(h_seg))(x)
        assert H2.distance(x, Tx) == pytest.approx(h, rel=1e-6)


def test_subtree_projection_gate_vertex(tree):
    cset = hd.Subtree(frozenset({0, 1}))
    # a point deep on edge (3,4) must exit through vertex 1
    x = hd.tree_point(tree, 3, 1.2)
    u, _ = hd.project_point(tree, cset, x)
    assert u == tree.vertex_point(1)
    # brute force over a dense sample of the subtree
    best = min(
        tree.distance(x, hd.tree_point(tree, 0, t)) for t in np.linspace(0, 1.0, 2001)
    )
    assert tree.distance(x, u) <= best + 1e-12


def test_subtree_gate_matches_nearest_vertex():
    # the projection of an outside point is the set vertex nearest to it
    topo = shuffled_random_tree(300, 4)
    tree = hd.make_space(hd.WeightedTree(topo))
    graph = oracles.tree_graph(topo)
    draw = hd.sampler(tree)
    rng = np.random.default_rng(11)
    outside = 0
    for _ in range(200):
        chosen = {int(rng.integers(topo.vertex_count))}
        for _ in range(int(rng.integers(0, 40))):
            frontier = sorted({w for v in chosen for w in graph.neighbors(v)} - chosen)
            chosen.add(frontier[int(rng.integers(len(frontier)))])
        cset = hd.Subtree(frozenset(chosen))
        project = hd.compile_set(tree, cset)
        for _ in range(30):
            x = draw(rng)
            if hd.contains(tree, cset, x):
                continue
            outside += 1
            nearest = min(chosen, key=lambda v: tree.distance(x, tree.vertex_point(v)))
            assert project(x) == tree.vertex_point(nearest)
    assert outside > 4000


def test_projection_idempotent_and_inside(E2, H2):
    cases = [
        (E2, hd.Ball(ept(E2, 1.0, 1.0), 2.0), ept(E2, 5.0, 5.0)),
        (E2, hd.Segment(ept(E2, -1.0, 0.0), ept(E2, 1.0, 2.0)), ept(E2, 3.0, -3.0)),
        (H2, hd.Segment(hpt_polar(H2, 1.0, 0.0), hpt_polar(H2, 1.0, 2.0)), hpt_polar(H2, 3.0, -1.5)),
    ]
    for space, cset, x in cases:
        u, _ = hd.project_point(space, cset, x)
        assert hd.contains(space, cset, u, 1e-9)
        u2, _ = hd.project_point(space, cset, u)
        assert space.distance(u, u2) <= 1e-9


def test_probe_points_stay_in_set(E2, tree):
    # every kind draws count probes and blends count // 8 of them toward u,
    # a subtree of one vertex included
    cases = [
        (E2, hd.WholeSpace()),
        (E2, hd.Ball(ept(E2, 0.0, 0.0), 2.0)),
        (E2, hd.Segment(ept(E2, 0.0, 0.0), ept(E2, 3.0, 1.0))),
        (E2, hd.HalfSpace((0.6, -0.8), 1.5)),
        (tree, hd.Subtree(frozenset({1, 3, 5}))),
        (tree, hd.Subtree(frozenset({3}))),
    ]
    for space, cset in cases:
        u, _ = hd.project_point(space, cset, hd.random_point(space, hd.stream(0, 9)))
        pts = hd.probe_points(space, cset, u, 64, seed=3)
        assert len(pts) == 64 + 64 // 8
        for p in pts:
            assert hd.contains(space, cset, p, 1e-8)



def test_probe_blends_each_read_their_own_probe(E2):
    # the 125 blends of a 1,000-probe certificate pull 125 different probes
    # toward u, not one probe at three weights
    pts = hd.probe_points(E2, hd.Ball(ept(E2, 0.0, 0.0), 1.0), ept(E2, 1.0, 0.0), 1000, seed=3)
    blends = pts[-125:]
    assert len(pts) == 1125 and len(set(blends)) == 125

def test_certificate_accepts_true_projection(E2):
    seg = hd.Segment(ept(E2, -2.0, 1.0), ept(E2, 2.0, 1.0))
    x = ept(E2, 0.5, 4.0)
    res = hd.project(E2, seg, x, probes=500)
    assert res.certificate_residual is not None
    scale = 1.0 + E2.distance(x, res.u) ** 2
    assert res.certificate_residual >= -1e-8 * scale
    assert res.u.data == pytest.approx((0.5, 1.0), abs=1e-9)


def test_certificate_rejects_displaced_candidate(E2):
    seg = hd.Segment(ept(E2, -2.0, 1.0), ept(E2, 2.0, 1.0))
    x = ept(E2, 0.5, 4.0)
    wrong = ept(E2, 1.5, 1.0)  # in the set, but not the nearest point
    res = hd.characterization_residual(E2, seg, x, wrong, probes=500)
    assert res < -1e-3


def test_certificate_requires_membership(E2):
    seg = hd.Segment(ept(E2, -2.0, 1.0), ept(E2, 2.0, 1.0))
    with pytest.raises(ValueError):
        hd.characterization_residual(E2, seg, ept(E2, 0.0, 4.0), ept(E2, 0.0, 2.0), probes=50)


def test_projection_nonexpansive_spot_check(E2):
    ball = hd.Ball(ept(E2, 0.0, 0.0), 1.0)
    rng = np.random.default_rng(41)
    for _ in range(200):
        x = ept(E2, *rng.normal(scale=3.0, size=2))
        y = ept(E2, *rng.normal(scale=3.0, size=2))
        ux, _ = hd.project_point(E2, ball, x)
        uy, _ = hd.project_point(E2, ball, y)
        assert E2.distance(ux, uy) <= E2.distance(x, y) + 1e-12


def test_whole_space_projection_is_identity(E2):
    x = ept(E2, 2.0, -3.0)
    u, _ = hd.project_point(E2, hd.WholeSpace(), x)
    assert u == x


# every set kind each space family supports, for the compiled-closure check
_SET_KINDS = {
    "euclidean": ("whole", "ball", "segment", "halfspace"),
    "hyperbolic": ("whole", "ball", "segment"),
    "tree": ("whole", "ball", "segment", "subtree"),
    "product": ("whole", "ball", "segment"),
}
# the kinds whose certificate takes its minimum over extreme points, and
# those that take it, for a member u, by search or in closed form
_EXACT_KINDS = {("euclidean", "ball"), ("euclidean", "segment"), ("tree", "ball"), ("tree", "segment"),
                ("tree", "subtree")}
_MEMBER_KINDS = {("hyperbolic", "ball"), ("hyperbolic", "segment"), ("product", "segment"), ("euclidean", "halfspace")}
_coord = st.floats(-4.0, 4.0, allow_nan=False)
_unit = st.floats(0.0, 1.0)


def _point_strategy(family, spaces):
    E2, H2, tree, prod = spaces
    e2 = st.builds(lambda x, y: ept(E2, x, y), _coord, _coord)
    h2 = st.builds(lambda r, t: hpt_polar(H2, 3.0 * r, 2.0 * math.pi * t), _unit, _unit)
    edges = CATERPILLAR.edges
    tr = st.builds(
        lambda e, f: hd.tree_point(tree, e, f * edges[e][2]),
        st.integers(0, len(edges) - 1),
        _unit,
    )
    return {
        "euclidean": e2,
        "hyperbolic": h2,
        "tree": tr,
        "product": st.builds(prod.pair, e2, h2),
    }[family]


def _set_strategy(kind, points):
    if kind == "whole":
        return st.just(hd.WholeSpace())
    if kind == "ball":
        return st.builds(hd.Ball, points, st.floats(0.1, 3.0))
    if kind == "segment":
        return st.builds(hd.Segment, points, points)
    if kind == "halfspace":
        # the normals _halfspace accepts
        normal = st.tuples(_coord, _coord).filter(lambda n: n[0] ** 2 + n[1] ** 2 >= sys.float_info.min)
        return st.builds(hd.HalfSpace, normal, _coord)
    # connected vertex sets of the caterpillar
    return st.sampled_from(
        [frozenset({1}), frozenset({0, 1}), frozenset({1, 3}), frozenset({1, 2, 3, 5}), frozenset(range(6))]
    ).map(hd.Subtree)


@pytest.mark.parametrize(
    "family, kind", [(f, k) for f, kinds in _SET_KINDS.items() for k in kinds]
)
def test_compiled_set_equals_project_point(E2, H2, tree, prod, family, kind):
    space = {"euclidean": E2, "hyperbolic": H2, "tree": tree, "product": prod}[family]
    points = _point_strategy(family, (E2, H2, tree, prod))

    @settings(max_examples=60, deadline=None)
    @given(_set_strategy(kind, points), points)
    def check(cset, x):
        # a compiled set returns the point; the count belongs to the set
        u = hd.compile_set(space, cset)(x)
        steps = convex.GOLDEN_STEPS if (family, kind) == ("product", "segment") else 0
        assert (u, steps) == hd.project_point(space, cset, x)
        assert hd.contains(space, cset, u, 1e-9)

    check()


@pytest.mark.parametrize(
    "family, kind", [(f, k) for f, kinds in _SET_KINDS.items() for k in kinds]
)
def test_certificate_is_the_min_pairing(E2, H2, tree, prod, family, kind):
    # min over y of quasilinearization(space, x, u, u, y), bit for bit: over
    # a given probe list, and for a probe count over the set's extreme points
    # or minimizers where the kind has them, else over its drawn probes
    space = {"euclidean": E2, "hyperbolic": H2, "tree": tree, "product": prod}[family]
    points = _point_strategy(family, (E2, H2, tree, prod))

    @settings(max_examples=20, deadline=None)
    @given(_set_strategy(kind, points), points, st.integers(0, 2**31))
    def check(cset, x, seed):
        u = hd.project_point(space, cset, x)[0]
        probes = hd.probe_points(space, cset, u, 40, seed)
        want = min(hd.quasilinearization(space, x, u, u, y) for y in probes)
        assert hd.characterization_residual(space, cset, x, u, probes) == want
        compiled = convex._compile(space, cset)
        assert (compiled.extremes is not None) == ((family, kind) in _EXACT_KINDS)
        assert (compiled.minimizers is not None) == ((family, kind) in _MEMBER_KINDS)
        exact = compiled.extremes or compiled.minimizers
        if exact is not None:
            want = min(hd.quasilinearization(space, x, u, u, y) for y in exact(x, u))
        assert hd.characterization_residual(space, cset, x, u, 40, seed) == want

    check()


# ---------------------------------------------------------------------------
# exact certificates: E^n balls and segments, tree balls, segments and subtrees


_EXACT_CASES = [
    (family, kind)
    for family in ("E2", "E3", "tree", "tree-30")
    for kind in ("ball", "segment") + (("subtree",) if family.startswith("tree") else ())
]


# the kinds that certify a member u exactly: by search along H^n and product
# segments and on one circle of an H^n ball's sphere, and in closed form over
# an E^n half-space within R of u
_MEMBER_CASES = [("H2", "ball"), ("H3", "ball"), ("H2", "segment"), ("H3", "segment"), ("prod", "segment"),
                 ("E2", "halfspace"), ("E3", "halfspace")]


def _exact_space(request, family):
    if family == "tree-30":
        return hd.make_space(hd.WeightedTree(shuffled_random_tree(30, 4)))
    if family == "H3":
        return hd.make_space(hd.Hyperbolic(3))
    return request.getfixturevalue(family)


def _model_points(space):
    """Points of the model ``space``, within about 3 of the origin in each
    factor."""
    desc = space.descriptor
    if isinstance(desc, hd.Product):
        return st.builds(space.pair, _model_points(space.left), _model_points(space.right))
    if isinstance(desc, hd.Hyperbolic):
        lift = lambda s: hd.hyperboloid_point(space, math.sqrt(1.0 + sum(c * c for c in s)), *s)
        return st.lists(_coord, min_size=desc.dim, max_size=desc.dim).map(lift)
    return st.lists(_coord, min_size=desc.dim, max_size=desc.dim).map(lambda c: ept(space, *c))


def _exact_strategies(space, kind):
    """(set, point) strategies for one exact kind on the model ``space``."""
    desc = space.descriptor
    if not isinstance(desc, hd.WeightedTree):
        points = _model_points(space)
        if kind == "halfspace":
            normal = st.lists(_coord, min_size=desc.dim, max_size=desc.dim).map(tuple)
            normal = normal.filter(lambda n: sum(c * c for c in n) >= sys.float_info.min)
            return st.builds(hd.HalfSpace, normal, _coord), points
    else:
        edges = desc.topology.edges
        points = st.builds(
            lambda e, f: hd.tree_point(space, e, f * edges[e][2]), st.integers(0, len(edges) - 1), _unit
        )
    if kind == "ball":
        return st.builds(hd.Ball, points, st.floats(0.1, 3.0)), points
    if kind == "segment":
        return st.builds(hd.Segment, points, points), points

    def grown(start, size):
        # a connected vertex set, grown breadth-first from ``start``
        chosen = [start]
        for v in chosen:
            chosen += [w for w, _ in space.adj[v] if w not in chosen][: size - len(chosen)]
        return hd.Subtree(frozenset(chosen))

    return st.builds(grown, st.integers(0, space.n - 1), st.integers(1, 12)), points


def _far_member(space, cset, u):
    """The set's defining point farthest from u: a ball's center, a
    segment's farther end, a subtree's farthest vertex."""
    if isinstance(cset, hd.Ball):
        return cset.center
    ends = [cset.a, cset.b] if isinstance(cset, hd.Segment) else [space.vertex_point(v) for v in sorted(cset.vertices)]
    return max(ends, key=lambda p: space.distance(u, p))


@pytest.mark.parametrize("family, kind", _EXACT_CASES + _MEMBER_CASES)
def test_exact_certificate_is_at_most_the_probe_minimum(request, family, kind):
    # the minimum over the extreme points is the infimum over the set, and
    # so is the search's along a segment or on an H^n ball's circle, so no
    # probe of the set goes lower, at the projection or at a member u.  A
    # half-space's closed form is the infimum over its part within R of u:
    # at the projection that is the infimum over the set, 0, and at another
    # member u it is compared with the probes within R of u.  At the
    # projection the infimum is 0, so the certificate also passes criterion
    # 2's bound, except on a product segment: its foot comes from a
    # golden-section search on d^2, whose comparisons rounding can still
    # stall near 1e-8 in lam
    space = _exact_space(request, family)
    sets, points = _exact_strategies(space, kind)

    @settings(max_examples=25, deadline=None)
    @given(sets, points, points, st.integers(0, 2**31))
    def check(cset, x, other, seed):
        foot = hd.project_point(space, cset, x)[0]
        for u in (foot, hd.project_point(space, cset, other)[0]):
            exact = hd.characterization_residual(space, cset, x, u, 1000, seed)
            probes = hd.probe_points(space, cset, u, 1000, seed)
            if kind == "halfspace" and u != foot:
                R = 1.0 + abs(cset.offset) + math.hypot(*u.data)
                probes = [y for y in probes if space.distance(u, y) <= R]
            probed = hd.characterization_residual(space, cset, x, u, probes)
            scale = 1.0 + space.distance(x, u) ** 2
            assert exact <= probed + 1e-12 * scale, (exact, probed)
            assert u != foot or family == "prod" or exact >= -1e-8 * scale, exact

    check()


def _along(space, cset, u, far):
    """u moved 1e-2 inside the set: toward ``far`` on a segment, ball or
    subtree, and along the boundary hyperplane of a half-space, on the
    direction of the coordinate axis least aligned with its normal."""
    if not isinstance(cset, hd.HalfSpace):
        return space.geodesic_point(u, far, 1.0 - 1e-2 / space.distance(u, far))
    n = cset.normal
    k = min(range(len(n)), key=lambda i: abs(n[i]))
    e = [float(i == k) for i in range(len(n))]
    e = [ei - n[k] / sum(c * c for c in n) * ni for ei, ni in zip(e, n)]
    scale = 1e-2 / math.hypot(*e)
    return ept(space, *[ui + scale * ei for ui, ei in zip(u.data, e)])


@pytest.mark.parametrize("family, kind", _EXACT_CASES + _MEMBER_CASES)
def test_exact_certificate_flags_every_displacement(request, family, kind):
    # criterion 3's construction with a probe count: u moved 1e-2 inside the
    # set toward its farthest defining point.  The pairing at the true
    # projection is then at most -1e-4, so every case is flagged.  On a
    # half-space u moves along the boundary, and the pairing within R of u
    # is then at most -1e-2 R
    space = _exact_space(request, family)
    sets, points = _exact_strategies(space, kind)

    @settings(max_examples=25, deadline=None)
    @given(sets, points, st.integers(0, 2**31))
    def check(cset, x, seed):
        u = hd.project_point(space, cset, x)[0]
        far = None if kind == "halfspace" else _far_member(space, cset, u)
        assume(far is None or space.distance(u, far) >= 2e-2)
        # the pairing within R of u rounds at about 1e-16 R^2, for R >= |u|
        assume(far is not None or math.hypot(*u.data) <= 1e6)
        moved = _along(space, cset, u, far)
        assert hd.characterization_residual(space, cset, x, moved, 1000, seed) < 0.0

    check()


def test_half_space_certificates_where_g_is_nearly_parallel_to_the_normal(E2):
    # g = u - x along a coordinate normal leaves its part along the plane
    # at rounding size, pointing anywhere: unprojected, the point on the cut
    # left the half-space by R, and the true projection read -3.5
    cset = hd.HalfSpace((0.0, 0.8908833437973476), 1.0)
    res = hd.project(E2, cset, ept(E2, 0.0, 0.0), probes=1000)
    assert -1e-15 <= res.certificate_residual <= 0.0
    # a part along the plane of 9e-9 |g|, from which one pass of taking off
    # the normal loses the normal's share: over C within R = 1 of u the
    # least pairing is -9.04e-9, at (1, 9.04e-9), and one pass read 0
    cset = hd.HalfSpace((9.039350396437613e-09, -1.0), 0.0)
    res = hd.characterization_residual(E2, cset, ept(E2, 0.0, 1.0), ept(E2, 0.0, 0.0), 1000)
    assert res == pytest.approx(-9.039350396437613e-09, abs=1e-15)


@pytest.mark.parametrize("family, kind", _MEMBER_CASES)
def test_member_kinds_certify_without_drawing_probes(request, monkeypatch, family, kind):
    # on the model handle a certificate of these kinds takes its exact form
    # and draws no probe.  On CorruptedSpace, which is not CAT(0), it draws
    # them, and so does nearest_fixed_point_residual, whose q need not lie
    # in the set
    model = _exact_space(request, family)
    sets, points = _exact_strategies(model, kind)
    draw, drawn = convex._probes, Counter()

    def guarded(space, *args):
        if space is model:
            raise AssertionError("a certificate on the model handle drew probes")
        drawn["convex"] += 1
        return draw(space, *args)

    def counted(*args):
        drawn["solvers"] += 1
        return draw(*args)

    monkeypatch.setattr(convex, "_probes", guarded)
    monkeypatch.setattr(hd.solvers, "_probes", counted)

    @settings(max_examples=5, deadline=None)
    @given(sets, points, points)
    def check(cset, x, base):
        drawn.clear()
        assert hd.project(model, cset, x, probes=1000).certificate_residual is not None
        assert not drawn
        hd.project(hd.CorruptedSpace(model), cset, x, probes=1000)
        hd.nearest_fixed_point_residual(model, x, base, cset, probes=1000)
        assert drawn == {"convex": 1, "solvers": 1}

    check()


# ---------------------------------------------------------------------------
# H^n balls: the pairing's minimum lies on one circle of the sphere


def _direction(dim):
    """Unit vectors of R^dim, as tangent coordinates at a point of H^dim."""
    vectors = st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim).filter(lambda g: math.hypot(*g) >= 0.1)
    return vectors.map(lambda g: [gi / math.hypot(*g) for gi in g])


def _at(space, c, g, s):
    """The point s from c along the unit tangent coordinates g, in the frame
    of ``HyperbolicSpace.exponential``."""
    return space.exponential(c)[1](None, g, s)


def _orthogonal(g, h):
    """h less its part along the unit vector g, normalized, or None when
    little of h is left."""
    t = sum(map(operator.mul, g, h))
    b = [hi - t * gi for gi, hi in zip(g, h)]
    n = math.hypot(*b)
    return [bi / n for bi in b] if n >= 1e-3 else None


@pytest.mark.parametrize("dim", [2, 3])
def test_a_ball_certificate_flags_u_moved_along_the_boundary(dim):
    # the projection of x moved 1e-2 of arc along the sphere.  Over 1,000
    # probes such points read from +8.7e-6 to +6.6e-4 on 12 of the 20 seed-5
    # certify H^2 balls: no probe fell where the pairing is negative.  The
    # circle search finds its minimum, of order -1e-4
    space = hd.make_space(hd.Hyperbolic(dim))
    direction = _direction(dim)

    @settings(max_examples=25, deadline=None)
    @given(direction, st.floats(0.0, 3.0), st.floats(0.5, 3.0), direction, st.floats(0.1, 3.0), direction,
           st.integers(0, 2**31))
    def check(gc, dc, r, g, s, h, seed):
        c = _at(space, space.base, gc, dc)
        b = _orthogonal(g, h)
        assume(b is not None)
        x, ball, phi = _at(space, c, g, r + s), hd.Ball(c, r), 1e-2 / math.sinh(r)
        moved = _at(space, c, [math.cos(phi) * gi + math.sin(phi) * bi for gi, bi in zip(g, b)], r)
        assert hd.characterization_residual(space, ball, x, moved, 1000, seed) < 0.0

    check()


@pytest.mark.parametrize("dim", [2, 3])
def test_a_ball_certificate_is_at_most_the_circle_grid_minimum(dim):
    # the search finds the minimum on its circle if the pairing has one local
    # minimum there, which is checked here, not proved: for c within 3 of the
    # base point, r in [0.1, 4], x within 3 of c and a member u, the
    # certificate is at most the least pairing over 20,000 points of the
    # circle through x's and u's directions at c, and in H^3 over 20,000
    # points spread over the whole sphere, plus 1e-9 (1 + d(x, u)^2)
    space = hd.make_space(hd.Hyperbolic(dim))
    direction, n = _direction(dim), 20_000
    # in H^3, a Fibonacci lattice of n directions, even over the unit sphere
    golden_angle = math.pi * (3.0 - math.sqrt(5.0))
    spread = [
        [math.sqrt(1.0 - z * z) * math.cos(i * golden_angle), math.sqrt(1.0 - z * z) * math.sin(i * golden_angle), z]
        for i in range(n)
        for z in [1.0 - 2.0 * (i + 0.5) / n]
    ] if dim == 3 else None

    @settings(max_examples=10, deadline=None)
    @given(direction, st.floats(0.0, 3.0), st.floats(0.1, 4.0), direction, st.floats(0.0, 3.0), direction,
           st.floats(0.0, 1.0))
    def check(gc, dc, r, g, s, h, t):
        c = _at(space, space.base, gc, dc)
        b = _orthogonal(g, h)
        assume(b is not None)
        x, u = _at(space, c, g, s), _at(space, c, h, t * r)
        bound = hd.characterization_residual(space, hd.Ball(c, r), x, u, 1000) - 1e-9 * (1.0 + space.distance(x, u) ** 2)
        angles = [2.0 * math.pi * i / n for i in range(n)]
        circle = ([math.cos(a) * gi + math.sin(a) * bi for gi, bi in zip(g, b)] for a in angles)
        assert bound <= _least_pairing(space, x, u, c, r, circle)
        assert spread is None or bound <= _least_pairing(space, x, u, c, r, spread)

    check()


def _least_pairing(space, x, u, c, r, directions):
    """The least <xu, uy> over the points y at distance r from c along the
    unit tangent coordinates ``directions``."""
    exp, dxu = space.exponential(c)[1], space.distance(x, u)
    pts = [exp(None, e, r) for e in directions]
    return min(0.5 * (a * a - d * d - dxu * dxu) for a, d in zip(space.distances(x, pts), space.distances(u, pts)))


# ---------------------------------------------------------------------------
# the certificate searches: Brent's method, against the golden-section search

_SEARCH_CASES = [case for case in _MEMBER_CASES if case[1] != "halfspace"]


def test_a_certificate_search_measures_two_distances_per_point():
    # on a model handle, whose distance is counted on the instance, and so
    # is every call of ``distances``, which loops over it: a wrapper handle
    # would drop the minimizers and draw probes.  Each point the search
    # evaluates costs d(x, y) and d(u, y); the rest is the certificate's own
    # (membership, d(x, u), the pairings' d(u, u) and d(x, u), the segment's
    # length and geodesic kernel, and d(x, y) and d(u, y) at each point it
    # returns), 19 distances on a segment's 4 points and 11 on a ball's 2,
    # whose grid of 12 angles costs 2 each too.  The golden-section search
    # took 2 * 65 for its points
    space, calls = hd.make_space(hd.Hyperbolic(2)), Counter()
    inner = space.distance

    def distance(a, b):
        calls["distance"] += 1
        return inner(a, b)

    space.distance = distance
    rng = hd.stream(43, 1)
    a, b, x, c = (hd.random_point(space, rng, 3.0) for _ in range(4))
    for cset, points in ((hd.Segment(a, b), 9), (hd.Ball(c, 1.5), 4)):
        u = hd.project_point(space, cset, x)[0]
        calls.clear()
        assert hd.characterization_residual(space, cset, x, u, 1000) == 0.0
        fixed = 19 if isinstance(cset, hd.Segment) else 11 + 2 * 12
        assert calls == {"distance": fixed + 2 * points}, (cset, calls)


@pytest.mark.parametrize("family, kind", _SEARCH_CASES)
def test_no_certificate_search_evaluates_more_points_than_the_golden_section_search(
    request, monkeypatch, family, kind
):
    # at most 2 + GOLDEN_STEPS values of f per search, for the projection
    # and for another member u
    space = _exact_space(request, family)
    sets, points = _exact_strategies(space, kind)
    brent, counts = convex._brent, []

    def counted(at, f, *start):
        n = Counter()

        def g(y):
            n["f"] += 1
            return f(y)

        found = brent(at, g, *start)
        counts.append(n["f"])
        return found

    monkeypatch.setattr(convex, "_brent", counted)

    @settings(max_examples=25, deadline=None)
    @given(sets, points, points)
    def check(cset, x, other):
        for u in (hd.project_point(space, cset, x)[0], hd.project_point(space, cset, other)[0]):
            hd.characterization_residual(space, cset, x, u, 1000)

    check()
    assert counts and max(counts) <= 2 + convex.GOLDEN_STEPS, max(counts)


@pytest.mark.parametrize("family, kind", _SEARCH_CASES)
def test_a_certificate_search_agrees_with_the_golden_section_search(request, monkeypatch, family, kind):
    # the same at and f, searched by convex._golden: the certificates agree
    # to 1e-12 (1 + d(x, u)^2), at the projection and at another member u
    space = _exact_space(request, family)
    sets, points = _exact_strategies(space, kind)

    def golden(at, f, *start):
        return convex._golden(at, f)

    @settings(max_examples=25, deadline=None)
    @given(sets, points, points)
    def check(cset, x, other):
        for u in (hd.project_point(space, cset, x)[0], hd.project_point(space, cset, other)[0]):
            brent = hd.characterization_residual(space, cset, x, u, 1000)
            with monkeypatch.context() as m:
                m.setattr(convex, "_brent", golden)
                want = hd.characterization_residual(space, cset, x, u, 1000)
            assert abs(brent - want) <= 1e-12 * (1.0 + space.distance(x, u) ** 2), (brent, want)

    check()


@pytest.mark.parametrize("wrapper", [hd.CorruptedSpace, OffsetMetric])
@pytest.mark.parametrize("family, kind", _EXACT_CASES)
def test_exact_kinds_keep_their_probes_on_a_wrapper(request, wrapper, family, kind):
    # a wrapper's metric need not be piecewise linear along the set, so its
    # certificates stay the probe extremum, bit for bit.  OffsetMetric's
    # balls and segments hold no member (d(p, p) = 1), so there only the
    # subtree, which tests membership without measuring, is certified
    model = _exact_space(request, family)
    space = wrapper(model)
    sets, points = _exact_strategies(model, kind)

    @settings(max_examples=10, deadline=None)
    @given(sets, points, points, st.integers(0, 2**31))
    def check(cset, x, base, seed):
        u = hd.project_point(space, cset, x)[0]
        if wrapper is hd.CorruptedSpace or kind == "subtree":
            probes = hd.probe_points(space, cset, u, 60, seed)
            want = min(hd.quasilinearization(space, x, u, u, y) for y in probes)
            assert hd.characterization_residual(space, cset, x, u, 60, seed) == want
        probes = hd.probe_points(space, cset, u, 60, seed=hd.solvers.stream_seed(seed))
        want = max(hd.quasilinearization(space, x, base, x, p) for p in probes)
        assert hd.nearest_fixed_point_residual(space, x, base, cset, probes=60, seed=seed) == want

    check()


@pytest.mark.parametrize("family, kind", _EXACT_CASES)
def test_exact_certificates_do_not_depend_on_the_space_cache(request, family, kind):
    # a handle that make_space's cache no longer holds, as after it has
    # evicted the handle for newer ones, is still its own model: its sets
    # keep their extreme points and certify as the cached handle does.
    # Over probes, project(E2, Ball((0, 0), 1), (3, 0.4), probes=1000) read
    # 1.05e-4 on such a handle against -6.5e-33 on the cached one
    model = _exact_space(request, family)
    fresh = type(model)(model.descriptor)
    assert fresh is not hd.make_space(model.descriptor)
    sets, points = _exact_strategies(model, kind)

    @settings(max_examples=10, deadline=None)
    @given(sets, points, points, st.integers(0, 2**31))
    def check(cset, x, base, seed):
        u = hd.project_point(model, cset, x)[0]
        assert convex._compile(fresh, cset).extremes is not None
        for probes in (1, 60):
            want = hd.characterization_residual(model, cset, x, u, probes, seed)
            assert hd.characterization_residual(fresh, cset, x, u, probes, seed) == want
            want = hd.nearest_fixed_point_residual(model, x, base, cset, probes, seed)
            assert hd.nearest_fixed_point_residual(fresh, x, base, cset, probes, seed) == want

    check()


@pytest.mark.parametrize("count", [0, -1])
def test_a_certificate_refuses_a_probe_count_below_one(E2, H2, count):
    # the E^2 ball certifies over its extreme points and the H^2 ball by its
    # circle search; both refuse the count before they pick their points
    for space, center, x in ((E2, ept(E2, 0.0, 0.0), ept(E2, 3.0, 0.4)), (H2, H2.base, hpt_polar(H2, 3.0, 0.4))):
        ball = hd.Ball(center, 1.0)
        u = hd.project_point(space, ball, x)[0]
        refusals = [
            lambda: hd.characterization_residual(space, ball, x, u, count),
            lambda: hd.nearest_fixed_point_residual(space, u, x, ball, probes=count),
            lambda: hd.probe_points(space, ball, u, count),
        ]
        if count:  # project reads probes=0 as no certificate
            refusals.append(lambda: hd.project(space, ball, x, probes=count))
        for refusal in refusals:
            with pytest.raises(ValueError, match="^probe count must be positive$"):
                refusal()
        with pytest.raises(ValueError, match="^need at least one probe point$"):
            hd.characterization_residual(space, ball, x, u, [])


def test_tree_ball_inside_one_edge(tree):
    # radius 0.4 about the middle of the caterpillar's edge 1 (length 2): the
    # extreme points are the projection and the two ends, c - r and c + r
    ball = hd.Ball(hd.tree_point(tree, 1, 1.0), 0.4)
    x = tree.vertex_point(2)
    u = hd.project_point(tree, ball, x)[0]
    assert u.data == (1, 1.4)
    assert [p.data for p in convex._compile(tree, ball).extremes(x, u)] == [(1, 1.4), (1, 0.6), (1, 1.4)]
    assert hd.project(tree, ball, x, probes=1000).certificate_residual == 0.0
    # 0.1 toward the center the pairing at u is -(0.7^2 - 0.6^2 + 0.1^2) / 2
    moved = hd.tree_point(tree, 1, 1.3)
    assert hd.characterization_residual(tree, ball, x, moved, 1000) == pytest.approx(-0.07, abs=1e-15)


def test_euclidean_ball_with_x_inside(E2):
    # x is its own projection and the pairing vanishes: the center alone is
    # the extreme point, and the residual is 0
    ball = hd.Ball(ept(E2, 0.0, 0.0), 2.0)
    x = ept(E2, 0.5, -0.5)
    assert convex._compile(E2, ball).extremes(x, x) == [ball.center]
    res = hd.project(E2, ball, x, probes=1000)
    assert res.u == x and res.certificate_residual == 0.0


def test_nearest_fixed_point_residual_on_a_tree_segment(tree):
    # the segment from vertex 0 to vertex 2 passes vertex 1, which is the
    # point of it nearest vertex 4, 2 away: the residual there is 0; half a
    # unit on toward vertex 2 it is (0.5^2 + 2.5^2 - 2^2) / 2 = 1.25
    seg = hd.Segment(tree.vertex_point(0), tree.vertex_point(2))
    base = tree.vertex_point(4)
    q = hd.project_point(tree, seg, base)[0]
    assert q == tree.vertex_point(1)
    assert hd.nearest_fixed_point_residual(tree, q, base, seg) == 0.0
    assert hd.nearest_fixed_point_residual(tree, hd.tree_point(tree, 1, 0.5), base, seg) == 1.25


@pytest.mark.parametrize("wrapper", [hd.CorruptedSpace, OffsetMetric])
@pytest.mark.parametrize("family", ["E2", "H2"])
def test_certificate_is_the_min_pairing_on_broken_metrics(request, wrapper, family):
    # the pairing's d(u, u) term is kept: OffsetMetric has d(u, u) = 1
    inner = request.getfixturevalue(family)
    space = wrapper(inner)
    draw, rng = hd.sampler(inner), hd.stream(5, 1)
    pts = [draw(rng) for _ in range(60)]
    x, u, probes = pts[0], pts[1], pts[2:]
    want = min(hd.quasilinearization(space, x, u, u, y) for y in probes)
    assert hd.characterization_residual(space, hd.WholeSpace(), x, u, probes) == want


def test_certified_projection_validates_once(E2, H2, tree, monkeypatch):
    # one certified projection validates and compiles its set once, in its
    # kind function
    validated = []
    for cls, kind in list(convex._KINDS.items()):
        monkeypatch.setitem(convex._KINDS, cls, lambda *args, kind=kind: validated.append(1) or kind(*args))
    cases = [
        (E2, hd.WholeSpace(), ept(E2, 2.0, 1.0)),
        (E2, hd.Ball(ept(E2, 0.0, 0.0), 1.0), ept(E2, 2.0, 1.0)),
        (E2, hd.Segment(ept(E2, 0.0, 0.0), ept(E2, 1.0, 0.0)), ept(E2, 2.0, 1.0)),
        (E2, hd.HalfSpace((1.0, 0.0), 0.5), ept(E2, -2.0, 1.0)),
        (H2, hd.WholeSpace(), hpt_polar(H2, 1.0, 0.5)),
        (H2, hd.Ball(H2.base, 0.5), hpt_polar(H2, 1.0, 0.5)),
        (H2, hd.Segment(hpt_polar(H2, 1.0, 0.0), hpt_polar(H2, 1.0, 2.0)), hpt_polar(H2, 2.0, -1.0)),
        (tree, hd.WholeSpace(), hd.tree_point(tree, 3, 1.2)),
        (tree, hd.Ball(tree.vertex_point(1), 0.5), hd.tree_point(tree, 3, 1.2)),
        (tree, hd.Segment(tree.vertex_point(0), tree.vertex_point(2)), hd.tree_point(tree, 3, 1.2)),
        (tree, hd.Subtree(frozenset({0, 1, 2})), hd.tree_point(tree, 3, 1.2)),
    ]
    for space, cset, x in cases:
        validated.clear()
        result = hd.project(space, cset, x, probes=200)
        assert result.certificate_residual is not None
        assert len(validated) == 1, cset


def test_only_the_kind_table_dispatches_on_a_set_class():
    # each set kind is written once: no function in convex.py names a set
    # class (annotations aside); the kind table maps each class to the
    # function that validates and compiles it
    set_classes = {"WholeSpace", "Ball", "Segment", "Subtree", "HalfSpace"}

    class StripAnnotations(ast.NodeTransformer):
        def visit_arg(self, node):
            node.annotation = None
            return node

        def visit_FunctionDef(self, node):
            node.returns = None
            return self.generic_visit(node)

    tree = StripAnnotations().visit(ast.parse(Path(convex.__file__).read_text()))
    offenders = [
        f"{fn.name}:{node.lineno}: {node.id}"
        for fn in tree.body
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Name) and node.id in set_classes
    ]
    assert not offenders
    assert {cls.__name__ for cls in convex._KINDS} == set_classes


def test_hyperbolic_ball_far_out_certifies_without_raising(H2):
    # the probes of a ball of radius 25 are drawn up to 20 from u, itself 20
    # from the sheet base point, and their coordinates reach about 1.2e17:
    # that far out the distance from the base point rounds to 0, so the
    # projection keeps them, and the residual need only be finite
    out = hd.sphere(H2, H2.base)
    for seed in range(20):
        x = out(hd.stream(seed, 19), 20.0)
        res = hd.project(H2, hd.Ball(H2.base, 25.0), x, probes=1000, seed=seed)
        assert res.u == x and math.isfinite(res.certificate_residual)


@pytest.mark.parametrize("family", ["E2", "H2", "tree", "prod"])
def test_wrapper_certificates_keep_their_metric(request, family):
    # a certificate measures through space.distances, which a wrapper
    # inherits as a loop over its own distance: on CorruptedSpace it must
    # equal the per-probe loop of its pairing
    from hadamard.geometry import pairing_against

    model = request.getfixturevalue(family)
    space = hd.CorruptedSpace(model)
    draw, rng = hd.sampler(model), hd.stream(7, 1)
    for _ in range(4):
        a, b, x = draw(rng), draw(rng), draw(rng)
        for cset in (hd.WholeSpace(), hd.Ball(a, 1.5), hd.Segment(a, b)):
            result = hd.project(space, cset, x, probes=120, seed=3)
            u = result.u
            pairing = pairing_against(space, x, u, u)
            pts = hd.probe_points(space, cset, u, 120, seed=3)
            want = min(pairing(space.distance(x, y), space.distance(u, y)) for y in pts)
            assert result.certificate_residual == want
            assert want == min(hd.quasilinearization(space, x, u, u, y) for y in pts)


class Counting(hd.CorruptedSpace):
    """The wrapped handle's metric, unchanged, with a count of the calls of
    each primitive: ``distances``, ``geodesic`` and ``_geodesic`` reach the
    wrapper through these two."""

    def __init__(self, inner):
        super().__init__(inner)
        self.calls = Counter()

    def distance(self, a, b):
        self.calls["distance"] += 1
        return self.inner.distance(a, b)

    def geodesic_point(self, x, y, lam):
        self.calls["geodesic_point"] += 1
        return self.inner.geodesic_point(x, y, lam)


@pytest.mark.parametrize("family", ["tree", "E2_tree"])
def test_a_wrapper_draws_its_ball_probes_like_its_model_without_measuring(E2, tree, family):
    # every draw is a function of the model and the stream: a wrapper around
    # a tree, or around a product with a tree factor, draws the model's bits
    # and calls none of its primitives
    if family == "tree":
        model, center = tree, tree.vertex_point(1)
    else:
        model = hd.make_space(hd.Product(E2.descriptor, tree.descriptor))
        center = model.pair(ept(E2, 0.5, -1.0), tree.vertex_point(1))
    space = Counting(model)

    def draws(handle):
        at, inside, rng = hd.sphere(handle, center), sampling.ball_sampler(handle, center, 1.2), hd.stream(12, 1)
        return [(at(rng, 0.9), inside(rng)) for _ in range(40)]

    assert draws(space) == draws(model)
    assert not space.calls


@pytest.mark.parametrize("family", ["E2", "H2", "tree", "prod"])
def test_a_foreign_probe_is_rejected(request, E3, family):
    space = request.getfixturevalue(family)
    draw, rng = hd.sampler(space), hd.stream(8, 1)
    x, pts = draw(rng), [draw(rng) for _ in range(5)]
    foreign = hd.random_point(E3, rng)
    with pytest.raises(hd.SpaceMismatchError):
        hd.characterization_residual(space, hd.WholeSpace(), x, x, pts[:2] + [foreign] + pts[2:])


# ---------------------------------------------------------------------------
# the local probe draw of every set without a draw of its own


def _local_draw_cases(E2, E3, H2, tree, prod):
    # signed zeros in normals, offsets and u; a normal at the validated floor
    # |n|^2 >= sys.float_info.min; u near 1e300, where a step of 2 is lost
    # in rounding; a subtree of one vertex and one of three; balls of radius
    # below and above 1, with u on the boundary and inside
    floor = math.sqrt(sys.float_info.min)
    normals = [(0.0, 1.0), (-0.0, -1.0), (0.6, -0.8), (floor, 0.0), (0.75 * floor, 0.75 * floor), (3e150, -2e150)]
    offsets = [0.0, -0.0, 1.5, -2.0]
    us = [(-0.0, -0.0), (0.5, -1.25), (1e300, 5.0)]
    cases = [(E2, hd.HalfSpace(n, o), hd.project_point(E2, hd.HalfSpace(n, o), hd.Point(E2.descriptor, u))[0])
             for n in normals for o in offsets for u in us]
    cases += [(E3, hd.HalfSpace((1.0, -0.0, 0.5), -2.0), ept(E3, 0.0, -0.0, 1.0))]
    cases += [(space, hd.WholeSpace(), hd.sampler(space)(hd.stream(4, 1))) for space in (E2, E3, H2, tree, prod)]
    cases += [(tree, hd.Subtree(frozenset({3})), tree.vertex_point(3)),
              (tree, hd.Subtree(frozenset({1, 3, 5})), hd.Point(tree.descriptor, (2, 0.25)))]
    tree_200 = hd.make_space(hd.WeightedTree(random_tree_topology(200, 0)))
    for space in (E2, H2, tree_200, prod):
        draw, rng = hd.sampler(space, 3.0), hd.stream(44, 2)
        for radius in (0.6, 2.5):
            ball, x = hd.Ball(draw(rng), radius), draw(rng)
            cases += [(space, ball, hd.project_point(space, ball, x)[0]), (space, ball, ball.center)]
    return cases


@pytest.mark.parametrize("wrap", [lambda s: s, hd.CorruptedSpace, OffsetMetric], ids=["model", "corrupted", "offset"])
def test_a_set_without_its_own_draw_projects_a_draw_near_u(E2, E3, H2, tree, prod, wrap):
    # probe_points(...)[:count] is kind.project of ball_sampler's draws in the
    # ball of radius 2 * scale about u, from the probe stream, bit for bit;
    # the scale is a ball's radius when above 1, and 1 for every other set
    coords = lambda p: [c for q in p.data for c in coords(q)] if isinstance(p.data[0], hd.Point) else list(p.data)
    bits = lambda pts: [(p.space, struct.pack(f"<{len(coords(p))}d", *coords(p))) for p in pts]
    for space, cset, u in _local_draw_cases(E2, E3, H2, tree, prod):
        handle = wrap(space)
        kind = convex._compile(handle, cset)
        # a half-space's tol is a distance times |normal|
        tol = 1e-9 * (math.hypot(*cset.normal) if isinstance(cset, hd.HalfSpace) else 1.0)
        ball = isinstance(cset, hd.Ball)
        assert kind.probes is None and kind.scale == (max(cset.radius, 1.0) if ball else 1.0)
        assert hd.contains(space, cset, u, tol)
        for seed, count in ((0, 24), (5, 64)):
            draw, rng = sampling.ball_sampler(handle, u, 2.0 * kind.scale), hd.stream(seed, 0xC0)
            want = [kind.project(draw(rng)) for _ in range(count)]
            got = hd.probe_points(handle, cset, u, count, seed=seed)
            assert len(got) == count + count // 8 and bits(got[:count]) == bits(want)
            if isinstance(space.descriptor, hd.Euclidean):
                assert all(type(c) is float for p in got for c in p.data)
            # each projected draw is a member within 2 * scale of u: the
            # projection is nonexpansive and fixes u.  A wrapper projects onto
            # a ball by its own metric, so its draws need not be members of
            # the model's ball
            if ball and handle is not space:
                continue
            for p in got[:count]:
                assert hd.contains(space, cset, p, tol) and space.distance(u, p) <= 2.0 * kind.scale * (1.0 + 1e-12)
    # the draw is built about u, so a foreign u is refused by its tag first
    for space, cset in ((E2, hd.HalfSpace((1.0, 0.0), 0.0)), (E2, hd.WholeSpace()), (tree, hd.Subtree(frozenset({3})))):
        with pytest.raises(hd.SpaceMismatchError):
            hd.probe_points(wrap(space), cset, ept(E3, 1.0, 2.0, 3.0), 8)


def test_only_a_segment_compiles_with_its_own_probe_draw(E2, E3, H2, tree, prod):
    # the set kinds that compile with a probe draw of their own, on every
    # family and on a wrapper: a new own draw, or a deleted one, shows in
    # the diff of this table
    handles = {"E2": E2, "E3": E3, "H2": H2, "H3": hd.make_space(hd.Hyperbolic(3)), "tree": tree, "prod": prod,
               "corrupted-H2": hd.CorruptedSpace(H2)}
    own, kinds = {}, set()
    for name, space in handles.items():
        draw, rng = hd.sampler(space, 3.0), hd.stream(44, 3)
        a, b = draw(rng), draw(rng)
        sets = [hd.WholeSpace(), hd.Ball(a, 1.5), hd.Ball(a, 30.0), hd.Segment(a, b)]
        if isinstance(space.descriptor, hd.Euclidean):
            sets.append(hd.HalfSpace((1.0,) * space.descriptor.dim, 0.5))
        if isinstance(space.descriptor, hd.WeightedTree):
            sets.append(hd.Subtree(frozenset({0, 1})))
        kinds |= {type(cset) for cset in sets}
        own[name] = sorted({type(cset).__name__ for cset in sets if convex._compile(space, cset).probes})
    assert kinds == set(convex._KINDS)
    assert own == {name: ["Segment"] for name in handles}


@pytest.mark.parametrize("factors", [(hd.Euclidean(2), hd.Hyperbolic(2)), (hd.Hyperbolic(2), hd.Hyperbolic(2))],
                         ids=["E2xH2", "H2xH2"])
def test_product_ball_probes_flag_a_displaced_projection(factors):
    # criterion 3's construction on product balls, which certify over
    # probes: u = P x moved 1e-2 toward the center.  Drawn about the center,
    # on the boundary and on interior shells, 1,000 probes read at least 0
    # in 33 (E2xH2) and 34 (H2xH2) of these 40 cases; drawn near u they flag
    # every one, and the true projection still passes criterion 2's bound
    space = hd.make_space(hd.Product(*factors))
    draw, rng = hd.sampler(space, 3.0), hd.stream(44, 1)
    for _ in range(40):
        c, radius = draw(rng), 0.5 + 2.5 * rng.random()
        x = draw(rng)
        while space.distance(c, x) <= radius + 0.1:
            x = draw(rng)
        ball = hd.Ball(c, radius)
        u = hd.project_point(space, ball, x)[0]
        scale = 1.0 + space.distance(x, u) ** 2
        assert hd.characterization_residual(space, ball, x, u, 1000, seed=3) >= -1e-8 * scale
        moved = space.geodesic_point(u, c, 1.0 - 1e-2 / space.distance(u, c))
        assert hd.characterization_residual(space, ball, x, moved, 1000, seed=3) < 0.0


@pytest.mark.parametrize(
    "kind", ["halfspace", "E2-ball", "E2-segment", "tree-ball", "tree-segment", "subtree", "prod-segment"]
)
def test_a_certificate_far_beyond_the_squared_float_range_is_nan(E2, H2, prod, kind):
    # d(x, u) = 1e200 squares past the float range: the certificate's scale
    # is inf, and the certificate reads nan rather than raising.  No H2
    # point lies that far out (its coordinates overflow near d = 710), so
    # the segment search is reached through the E2 factor of a product
    far = hd.make_space(hd.WeightedTree(hd.TreeTopology(4, ((0, 1, 1.0), (1, 2, 1.0), (1, 3, 1e200)))))
    if kind == "halfspace":
        space, cset, x = E2, hd.HalfSpace((1.0, 0.0), 0.0), ept(E2, -1e300, 0.0)
    elif kind == "prod-segment":
        space, x = prod, prod.pair(ept(E2, 0.5, 1e200), hpt_polar(H2, 2.0, 0.0))
        cset = hd.Segment(prod.pair(ept(E2, 0.0, 0.0), H2.base), prod.pair(ept(E2, 1.0, 0.0), hpt_polar(H2, 1.0, 0.0)))
    elif kind.startswith("E2"):
        space, x = E2, ept(E2, 0.5, 1e200)
        cset = hd.Ball(ept(E2, 0.0, 0.0), 1.0) if kind == "E2-ball" else hd.Segment(ept(E2, 0.0, 0.0), ept(E2, 1.0, 0.0))
    else:
        space, x = far, hd.Point(far.descriptor, (2, 1e200))
        cset = {
            "tree-ball": hd.Ball(far.vertex_point(0), 1.0),
            "tree-segment": hd.Segment(far.vertex_point(0), far.vertex_point(2)),
            "subtree": hd.Subtree(frozenset({0, 1, 2})),
        }[kind]
    res = hd.project(space, cset, x, probes=200, seed=1)
    assert res.u == hd.project_point(space, cset, x)[0]
    assert space.distance(x, res.u) > 1e199 and math.isnan(res.certificate_residual)
