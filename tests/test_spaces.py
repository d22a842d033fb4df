import dataclasses
import math

import numpy as np
import pytest

import hadamard as hd
from conftest import CATERPILLAR, ept, hpt_polar, shuffled_random_tree, shuffled_tree
import oracles


def test_euclidean_distance_matches_numpy(E3):
    rng = np.random.default_rng(7)
    for _ in range(100):
        a, b = rng.normal(size=3), rng.normal(size=3)
        pa, pb = ept(E3, *a), ept(E3, *b)
        assert E3.distance(pa, pb) == pytest.approx(np.linalg.norm(a - b), abs=1e-14)


def test_euclidean_geodesic_is_affine(E2):
    a, b = ept(E2, 1.0, 2.0), ept(E2, -3.0, 6.0)
    z = E2.geodesic_point(a, b, 0.25)
    assert z.data == pytest.approx((0.25 * 1.0 + 0.75 * -3.0, 0.25 * 2.0 + 0.75 * 6.0))
    assert E2.geodesic_point(a, b, 1.0) == a
    assert E2.geodesic_point(a, b, 0.0) == b


def test_geodesic_distance_split_contract(E2, H2, tree):
    # d(z, x) = (1 - lam) d(x, y) and d(z, y) = lam d(x, y), all spaces
    cases = [
        (E2, ept(E2, 0.5, -2.0), ept(E2, 4.0, 1.0)),
        (H2, hpt_polar(H2, 1.2, 0.3), hpt_polar(H2, 2.1, -1.0)),
        (tree, hd.tree_point(tree, 1, 0.7), hd.tree_point(tree, 3, 1.1)),
    ]
    for space, x, y in cases:
        d = space.distance(x, y)
        for lam in (0.0, 0.17, 0.5, 0.83, 1.0):
            z = space.geodesic_point(x, y, lam)
            assert space.distance(z, x) == pytest.approx((1 - lam) * d, abs=1e-10)
            assert space.distance(z, y) == pytest.approx(lam * d, abs=1e-10)


def test_hyperbolic_distance_matches_arccosh_oracle(H2):
    rng = np.random.default_rng(3)
    for _ in range(200):
        r1, r2 = rng.uniform(0, 5, size=2)
        t1, t2 = rng.uniform(-math.pi, math.pi, size=2)
        a, b = hpt_polar(H2, r1, t1), hpt_polar(H2, r2, t2)
        expect = oracles.hyper_distance(a.data, b.data)
        assert H2.distance(a, b) == pytest.approx(expect, rel=1e-10, abs=1e-10)


def test_hyperbolic_distance_from_base_is_radius(H2):
    for r in (0.0, 0.1, 1.0, 4.5):
        p = hpt_polar(H2, r, 0.7)
        assert H2.distance(H2.base, p) == pytest.approx(r, abs=1e-12)


def test_hyperbolic_close_points_stable(H2):
    # the asinh chord form must not lose the distance of nearby points
    a = hpt_polar(H2, 1.0, 0.0)
    b = hpt_polar(H2, 1.0 + 1e-9, 0.0)
    assert H2.distance(a, b) == pytest.approx(1e-9, rel=1e-5)
    mid = H2.geodesic_point(a, b, 0.5)
    assert not H2.point_violations(mid)


def test_hyperbolic_distance_far_out_never_raises(H2):
    # 20 from the sheet base point, coordinates near 2.4e8 cannot resolve a
    # unit distance, and the chord and Minkowski forms disagree; the
    # distance must still be finite and exactly symmetric
    out, rng = hd.sphere(H2, H2.base), hd.stream(2, 2)
    for _ in range(500):
        a = out(rng, 20.0)
        b = hd.sphere(H2, a)(rng, 1.0)
        d = H2.distance(a, b)
        assert math.isfinite(d) and d == H2.distance(b, a)


def test_hyperbolic_geodesic_far_out_stays_on_the_sheet(H2):
    # 20 from the sheet base point the Minkowski squares reach about 6e16,
    # and every geodesic point must still exist and lie on the sheet
    out, rng = hd.sphere(H2, H2.base), hd.stream(19, 1)
    for _ in range(500):
        a = out(rng, 20.0)
        b = hd.sphere(H2, a)(rng, 1.0)
        for lam in (0.5, rng.random()):
            z = H2.geodesic_point(a, b, lam)
            assert hd.validate_point(H2, z) is None, (a, b, lam)


def test_hyperbolic_point_validation(H2):
    off_sheet = hd.Point(H2.descriptor, (1.0, 1.0, 0.0))
    assert hd.validate_point(H2, off_sheet)
    lower = hd.Point(H2.descriptor, (-math.cosh(1.0), math.sinh(1.0), 0.0))
    assert hd.validate_point(H2, lower)
    assert hd.validate_point(H2, hpt_polar(H2, 2.0, 1.0)) is None


_EDGES = len(CATERPILLAR.edges)


@pytest.mark.parametrize(
    "family, data, message",
    [
        ("E3", (0.0, math.nan, 1.0), "non-finite coordinate"),
        ("E3", (math.inf, 0.0, 1.0), "non-finite coordinate"),
        ("H2", (math.inf, 0.0, 0.0), "non-finite coordinate"),
        ("H2", (1.0, math.nan, 0.0), "non-finite coordinate"),
        ("tree", (0, 0.5, 1.0), "tree point must be (edge_id, offset)"),
        ("tree", (0,), "tree point must be (edge_id, offset)"),
        ("tree", (-1, 0.5), "edge id -1 out of range"),
        ("tree", (_EDGES, 0.5), f"edge id {_EDGES} out of range"),
        ("tree", (0.0, 0.5), "edge id 0.0 out of range"),
        ("tree", (0, math.nan), "offset must be a finite number"),
        ("tree", (0, -math.inf), "offset must be a finite number"),
        ("tree", (0, "0.5"), "offset must be a finite number"),
    ],
)
def test_point_violations_name_what_is_wrong(request, family, data, message):
    space = request.getfixturevalue(family)
    assert hd.validate_point(space, hd.Point(space.descriptor, data)) == message


def test_product_point_violations_name_the_faulty_part(E2, H2, prod):
    e, h = ept(E2, 1.0, 2.0), hpt_polar(H2, 1.0, 0.5)
    not_a_pair = "product point must be a (Point, Point) pair"
    left, right = "left component carries the wrong space tag", "right component carries the wrong space tag"
    cases = [
        ((e,), not_a_pair),
        ((e, h, e), not_a_pair),
        ((e, (1.0, 0.0, 0.0)), not_a_pair),
        ((h, h), left),
        ((e, e), right),
        ((h, e), f"{left}; {right}"),
        ((hd.Point(E2.descriptor, (math.nan, 0.0)), h), "left: non-finite coordinate"),
    ]
    for data, message in cases:
        assert hd.validate_point(prod, hd.Point(prod.descriptor, data)) == message, data
    assert hd.validate_point(prod, hd.Point(prod.descriptor, (e, h))) is None


def test_hyperbolic_sheet_tolerance_is_relative(H2):
    # the residual is a difference of squares of size x0^2: far out it
    # scales with them, near the base point it stays 1e-9, and a residual
    # that overflows is never admitted
    far = (math.cosh(20.0), math.sinh(20.0), 0.0)
    assert hd.validate_point(H2, hd.Point(H2.descriptor, far)) is None
    assert hd.validate_point(H2, hd.Point(H2.descriptor, (far[0] * (1.0 + 1e-6), *far[1:])))
    assert hd.validate_point(H2, hd.Point(H2.descriptor, (1.0 + 1e-9, 0.0, 0.0)))
    for big in ((1e200, 0.0, 0.0), (1e200, 1e200, 0.0)):
        assert hd.validate_point(H2, hd.Point(H2.descriptor, big)), big


def test_tree_vertex_distances_match_networkx(tree):
    vdist = oracles.tree_vertex_distances(CATERPILLAR)
    for u in range(tree.n):
        for v in range(tree.n):
            ours = tree.distance(tree.vertex_point(u), tree.vertex_point(v))
            assert ours == pytest.approx(vdist[u][v], abs=1e-12)


def test_tree_point_distance_matches_oracles(tree):
    rng = np.random.default_rng(11)
    vdist = oracles.tree_vertex_distances(CATERPILLAR)
    for _ in range(100):
        e1, e2 = rng.integers(5, size=2)
        p = (int(e1), float(rng.uniform(0, CATERPILLAR.edges[e1][2])))
        q = (int(e2), float(rng.uniform(0, CATERPILLAR.edges[e2][2])))
        pp, qq = hd.tree_point(tree, *p), hd.tree_point(tree, *q)
        expect = oracles.tree_point_distance(CATERPILLAR, p, q, vdist)
        assert tree.distance(pp, qq) == pytest.approx(expect, abs=1e-12)
        coarse = oracles.tree_dijkstra_distance(CATERPILLAR, p, q, resolution=0.01)
        assert tree.distance(pp, qq) == pytest.approx(coarse, abs=0.02)


def test_large_tree_distances_match_networkx_dijkstra():
    topo = shuffled_random_tree(10**4, 0)
    tree = hd.make_space(hd.WeightedTree(topo))
    rng = np.random.default_rng(1)
    graph = oracles.tree_graph(topo)
    for source in rng.integers(topo.vertex_count, size=3):
        want = oracles.tree_source_distances(graph, int(source))
        s = tree.vertex_point(int(source))
        worst = max(
            abs(tree.distance(s, tree.vertex_point(v)) - want[v]) for v in range(topo.vertex_count)
        )
        # a point inside an edge is reached through the nearer end
        for eid, (u, v, length) in enumerate(topo.edges):
            t = length * float(rng.random())
            expect = min(want[u] + t, want[v] + (length - t))
            worst = max(worst, abs(tree.distance(s, hd.Point(tree.descriptor, (eid, t))) - expect))
        assert worst <= 1e-9


def test_tree_distance_is_exactly_symmetric():
    topo = shuffled_random_tree(2000, 3)
    tree = hd.make_space(hd.WeightedTree(topo))
    rng = np.random.default_rng(4)

    def point():
        eid = int(rng.integers(len(topo.edges)))
        return hd.Point(tree.descriptor, (eid, topo.edges[eid][2] * float(rng.random())))

    for _ in range(2000):
        a, b = point(), point()
        assert tree.distance(a, b) == tree.distance(b, a)


@pytest.mark.parametrize("seed", [0, 1])
def test_tree_geodesic_points_match_networkx(seed):
    topo = shuffled_random_tree(2000, seed)
    tree = hd.make_space(hd.WeightedTree(topo))
    rng = np.random.default_rng(seed + 40)
    graph = oracles.tree_graph(topo)
    vdist = {}

    def oracle_distance(p, q):
        for w in topo.edges[p.data[0]][:2]:
            if w not in vdist:
                vdist[w] = oracles.tree_source_distances(graph, w)
        return oracles.tree_point_distance(topo, p.data, q.data, vdist)

    def point(eid):
        return hd.Point(tree.descriptor, (eid, topo.edges[eid][2] * float(rng.random())))

    def random_edge():
        return int(rng.integers(len(topo.edges)))

    def ancestor_edge(eid):
        # an edge on the way from eid's child end up to the root
        chain = [eid]
        v = tree.parent[tree.child[eid]]
        while v != 0:
            chain.append(tree.parent_edge[v])
            v = tree.parent[v]
        return chain[int(rng.integers(1, len(chain)))] if len(chain) > 1 else eid

    pairs = []
    for _ in range(8):
        low = random_edge()
        while tree.parent[tree.child[low]] == 0:
            low = random_edge()
        up = ancestor_edge(low)
        pairs.append((point(low), point(up)))  # climb only
        pairs.append((point(up), point(low)))  # descend only
        pairs.append((point(random_edge()), point(random_edge())))  # mostly turning
        eid = random_edge()
        pairs.append((point(eid), point(eid)))  # same edge
        # the top end of an ancestor edge, where rounding may overshoot
        up_vertex = tree.parent[tree.child[up]]
        pairs.append((point(low), tree.vertex_point(up_vertex)))
        v = int(rng.integers(topo.vertex_count))
        pairs.append((tree.vertex_point(0), point(random_edge())))
        pairs.append((point(random_edge()), tree.vertex_point(0)))
        pairs.append((tree.vertex_point(v), tree.vertex_point(0)))
    shapes = {"climb": 0, "descend": 0, "turn": 0}
    for x, y in pairs:
        if x.data[0] != y.data[0]:
            cx, cy = tree.child[x.data[0]], tree.child[y.data[0]]
            top = tree._lca(cx, cy)
            shapes["descend" if top == cx else "climb" if top == cy else "turn"] += 1
    assert min(shapes.values()) >= 8

    root = tree.vertex_point(0)
    for x, y in pairs:
        d = oracle_distance(x, y)
        assert tree.distance(x, y) == pytest.approx(d, abs=1e-9 * (1 + d))
        # the path's highest point lies (y|root)_x from x
        rise = 0.5 * (d + oracle_distance(x, root) - oracle_distance(y, root))
        at_top = min(1.0, max(0.0, 1.0 - rise / d)) if d else 0.5
        for lam in (0.0, 1.0, 1e-300, 1.0 - 1e-16, float(rng.random()), at_top):
            z = tree.geodesic_point(x, y, lam)
            assert hd.validate_point(tree, z) is None
            assert abs(oracle_distance(x, z) - (1.0 - lam) * d) <= 1e-9 * (1 + d)
            assert abs(oracle_distance(y, z) - lam * d) <= 1e-9 * (1 + d)
        assert tree.geodesic_point(x, y, 1.0) == tree.canonical(x)
        assert tree.geodesic_point(x, y, 0.0) == tree.canonical(y)


def test_tree_geodesic_never_climbs_past_the_root():
    # lengths for which the target height of the root rounds below 0
    a, b = 0.6839532159441665, 7.908553959073681
    tree = hd.make_space(hd.WeightedTree(hd.TreeTopology(3, ((1, 0, a), (0, 2, b)))))
    x, y = tree.vertex_point(1), tree.vertex_point(2)
    assert tree.geodesic_point(x, y, 1.0 - a / (a + b)) == tree.vertex_point(0)


class _ReferenceTree:
    """The tree kernels as they stood before the per-edge record: heights
    from the edge's endpoints and ``child``, and an LCA walk that compares
    depths at every step.  They read only a handle's rooted-tree lists, so
    the handle's own kernels must give the same floats and points."""

    def __init__(self, tree):
        self.t = tree

    def _height(self, eid, off):
        u, v, length = self.t.topology.edges[eid]
        if self.t.child[eid] == v:
            return self.t.root_dist[u] + off
        return self.t.root_dist[v] + (length - off)

    def _lca(self, x, y):
        depth, parent = self.t.depth, self.t.parent
        while x != y:
            if depth[x] >= depth[y]:
                x = parent[x]
            else:
                y = parent[y]
        return x

    def _path(self, ea, ta, eb, tb):
        ha, hb = self._height(ea, ta), self._height(eb, tb)
        ca, cb = self.t.child[ea], self.t.child[eb]
        top = self._lca(ca, cb)
        if top == ca:
            return ha, hb, ha, self.t.parent[ca]
        if top == cb:
            return ha, hb, hb, self.t.parent[cb]
        return ha, hb, self.t.root_dist[top], top

    def distance(self, a, b):
        ea, ta = a.data
        eb, tb = b.data
        if ea == eb:
            return abs(ta - tb)
        ha, hb, peak, _ = self._path(ea, ta, eb, tb)
        return ha + hb - 2.0 * peak

    def _climb(self, eid, h, top):
        parent, root_dist = self.t.parent, self.t.root_dist
        v = self.t.child[eid]
        while parent[v] != top and h < root_dist[parent[v]]:
            v = parent[v]
        eid = self.t.parent_edge[v]
        u, w, length = self.t.topology.edges[eid]
        off = h - root_dist[u] if w == v else length - (h - root_dist[w])
        return self.t.canonical(hd.Point(self.t.descriptor, (eid, min(length, max(0.0, off)))))

    def geodesic_point(self, x, y, lam):
        if lam == 1.0:
            return self.t.canonical(x)
        if lam == 0.0:
            return self.t.canonical(y)
        ex, tx = x.data
        ey, ty = y.data
        if ex == ey:
            return self.t.canonical(hd.Point(self.t.descriptor, (ex, tx + (ty - tx) * (1.0 - lam))))
        hx, hy, peak, top = self._path(ex, tx, ey, ty)
        d = hx + hy - 2.0 * peak
        t = (1.0 - lam) * d
        if t <= hx - peak:
            return self._climb(ex, hx - t, top)
        return self._climb(ey, hy - (d - t), top)


def _kernel_trees():
    rng = np.random.default_rng(30)
    path = [(i, i + 1, 0.5 + 1.5 * float(rng.random())) for i in range(5000)]
    star = [(0, k, 0.5 + 1.5 * float(rng.random())) for k in range(1, 60)]
    trees = [
        pytest.param(shuffled_random_tree(n, seed), id=f"random-{n}-{seed}")
        for n, seed in ((200, 0), (200, 1), (200, 5), (2000, 1), (2000, 5))
    ]
    return trees + [
        pytest.param(shuffled_tree(hd.TreeTopology(5001, tuple(path)), 31), id="path-5000"),
        pytest.param(shuffled_tree(hd.TreeTopology(60, tuple(star)), 32), id="star-59"),
    ]


@pytest.mark.parametrize("topo", _kernel_trees())
def test_tree_kernels_match_the_depth_compare_walk_bit_for_bit(topo):
    # each float is compared by repr, which tells every bit apart, -0.0
    # from 0.0 too (a point's own repr would spell out the whole tree)
    tree = hd.make_space(hd.WeightedTree(topo))
    ref = _ReferenceTree(tree)
    rng = np.random.default_rng(len(topo.edges))
    n_edges = len(topo.edges)

    def point(eid):
        return hd.Point(tree.descriptor, (eid, topo.edges[eid][2] * float(rng.random())))

    def ends(eid):
        # the edge's two vertices at offsets 0 and length, as given
        return [hd.Point(tree.descriptor, (eid, 0.0)), hd.Point(tree.descriptor, (eid, topo.edges[eid][2]))]

    def ancestor_edge(eid):
        chain, v = [], tree.parent[tree.child[eid]]
        while v != 0:
            chain.append(tree.parent_edge[v])
            v = tree.parent[v]
        return chain[int(rng.integers(len(chain)))] if chain else None

    pairs = []
    for _ in range(150 if n_edges > 2000 else 300):
        a, b = int(rng.integers(n_edges)), int(rng.integers(n_edges))
        pairs.append((point(a), point(b)))
        pairs.append((point(a), point(a)))
        up = ancestor_edge(a)
        if up is not None:
            pairs += [(point(a), point(up)), (point(up), point(a))]
        pairs += [(p, q) for p in ends(a) for q in ends(b) + [point(b)]]
        v = int(rng.integers(topo.vertex_count))
        pairs += [(tree.vertex_point(v), point(b)), (point(a), tree.vertex_point(0))]

    shapes = {"same edge": 0, "climb": 0, "descend": 0, "turn": 0}
    for x, y in pairs:
        if x.data[0] == y.data[0]:
            shapes["same edge"] += 1
            continue
        cx, cy = tree.child[x.data[0]], tree.child[y.data[0]]
        top = ref._lca(cx, cy)
        assert tree._lca(cx, cy) == top and tree._lca(cy, cx) == top
        shapes["descend" if top == cx else "climb" if top == cy else "turn"] += 1
    assert min(shapes.values()) >= 20, shapes

    for x, y in pairs:
        d = tree.distance(x, y)
        assert repr(d) == repr(ref.distance(x, y))
        lams = [0.0, 1.0, float(rng.random())]
        if x.data[0] != y.data[0] and d > 0.0:
            hx, _, peak, _ = ref._path(*x.data, *y.data)
            lams.append(min(1.0, max(0.0, 1.0 - (hx - peak) / d)))  # the path's top
        for lam in lams:
            z, want = tree.geodesic_point(x, y, lam), ref.geodesic_point(x, y, lam)
            assert z.space is want.space and repr(z.data) == repr(want.data)


def test_tree_vertex_points_are_canonical(tree):
    # any (edge, endpoint) description of a vertex collapses to one encoding
    v3 = tree.vertex_point(3)
    via_edge2 = tree.canonical(hd.Point(tree.descriptor, (2, 0.5)))  # edge (1,3) end
    via_edge3 = tree.canonical(hd.Point(tree.descriptor, (3, 0.0)))  # edge (3,4) start
    assert via_edge2 == v3
    assert via_edge3 == v3
    assert tree.distance(via_edge2, via_edge3) == 0.0


def test_tree_star_midpoint_is_hub():
    star = hd.make_space(
        hd.WeightedTree(hd.TreeTopology(4, ((0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0))))
    )
    a = hd.tree_point(star, 0, 1.0)  # leaf 1
    b = hd.tree_point(star, 1, 1.0)  # leaf 2
    mid = star.geodesic_point(a, b, 0.5)
    assert mid == star.vertex_point(0)
    assert star.distance(mid, a) == pytest.approx(1.0)


def test_tree_rejects_bad_topologies():
    with pytest.raises(hd.InvalidSpaceError):
        hd.make_space(hd.WeightedTree(hd.TreeTopology(3, ((0, 1, 1.0),))))
    with pytest.raises(hd.InvalidSpaceError):
        hd.make_space(hd.WeightedTree(hd.TreeTopology(2, ((0, 1, -2.0),))))
    with pytest.raises(hd.InvalidSpaceError):
        # cycle: 3 vertices, 3 edges is already the wrong count; use a real cycle
        hd.make_space(
            hd.WeightedTree(hd.TreeTopology(4, ((0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0))))
        )


def test_point_constructors_check_their_points(E2, H2):
    assert hd.hyperboloid_point is hd.euclidean_point
    for make in (
        lambda: ept(E2, 1.0, 2.0, 3.0),
        lambda: hd.hyperboloid_point(H2, 1.0, 0.0),
        lambda: hd.hyperboloid_point(H2, 1.0, 1.0, 0.0),  # off the sheet
    ):
        with pytest.raises(ValueError):
            make()


def test_product_metric_is_l2(prod, E2, H2):
    pa = prod.pair(ept(E2, 0.0, 0.0), hpt_polar(H2, 0.0, 0.0))
    pb = prod.pair(ept(E2, 3.0, 0.0), hpt_polar(H2, 4.0, 0.0))
    assert prod.distance(pa, pb) == pytest.approx(5.0, abs=1e-12)
    z = prod.geodesic_point(pa, pb, 0.5)
    assert prod.distance(z, pa) == pytest.approx(2.5, abs=1e-12)
    # components interpolate in their own geometry
    assert z.data[0].data == pytest.approx((1.5, 0.0))
    assert H2.distance(z.data[1], H2.base) == pytest.approx(2.0, abs=1e-12)


def test_product_depth_cap():
    desc = hd.Euclidean(1)
    for _ in range(4):
        desc = hd.Product(desc, hd.Euclidean(1))
    with pytest.raises(hd.InvalidSpaceError):
        hd.make_space(hd.Product(desc, hd.Euclidean(1)))


def test_space_mismatch_rejected(E2, E3):
    with pytest.raises(hd.SpaceMismatchError):
        E2.distance(ept(E2, 0.0, 0.0), ept(E3, 0.0, 0.0, 0.0))


def test_make_space_caches_handles():
    assert hd.make_space(hd.Euclidean(2)) is hd.make_space(hd.Euclidean(2))


class _CountedLength(float):
    """An edge length that counts how often it is hashed."""

    hashes = 0

    def __hash__(self):
        _CountedLength.hashes += 1
        return float.__hash__(self)


def test_tree_topology_keeps_its_hash():
    # a cached make_space lookup must not rehash every edge of a large tree
    edges = tuple((u, v, float(length)) for u, v, length in shuffled_random_tree(300, 4).edges)
    one, two = hd.TreeTopology(301, edges), hd.TreeTopology(301, tuple(list(edges)))
    assert one is not two and one == two and hash(one) == hash(two)
    assert repr(one) == repr(two) == f"TreeTopology(vertex_count=301, edges={edges!r})"
    assert hash(one) == hash((301, edges))
    assert hd.make_space(hd.WeightedTree(one)) is hd.make_space(hd.WeightedTree(two))
    assert [f.name for f in dataclasses.fields(one)] == ["vertex_count", "edges"]

    counted = hd.TreeTopology(2, ((0, 1, _CountedLength(1.5)),))
    for _ in range(3):
        hash(counted)
        hash(hd.WeightedTree(counted))
    assert _CountedLength.hashes == 1


def _point_pairs(E2, H2, tree, prod):
    """Two points of each space family, tagged by the handles themselves."""
    return [
        (E2, ept(E2, 0.5, -2.0), ept(E2, 4.0, 1.0)),
        (H2, hpt_polar(H2, 1.2, 0.3), hpt_polar(H2, 2.1, -1.0)),
        (tree, hd.tree_point(tree, 1, 0.7), hd.tree_point(tree, 3, 1.1)),
        (
            prod,
            prod.pair(ept(E2, 0.5, -2.0), hpt_polar(H2, 1.2, 0.3)),
            prod.pair(ept(E2, 4.0, 1.0), hpt_polar(H2, 2.1, -1.0)),
        ),
    ]


def _retag(p):
    """``p`` tagged with an equal copy of its descriptor, not the same object."""
    return hd.Point(dataclasses.replace(p.space), p.data)


def test_equal_descriptor_copy_takes_the_checked_path(E2, H2, tree, prod):
    for space, x, y in _point_pairs(E2, H2, tree, prod):
        rx, ry = _retag(x), _retag(y)
        assert rx.space is not space.descriptor and rx.space == space.descriptor
        assert space.distance(rx, ry) == space.distance(x, y)
        assert space.distance(x, ry) == space.distance(x, y)
        assert space.geodesic_point(rx, ry, 0.3) == space.geodesic_point(x, y, 0.3)
        assert space.geodesic_point(x, ry, 0.3) == space.geodesic_point(x, y, 0.3)
    # canonical too checks only a point tagged with another descriptor object
    for p in (hd.tree_point(tree, 1, 0.7), hd.tree_point(tree, 2, 0.5), hd.Point(tree.descriptor, (3, 0.0))):
        rp = _retag(p)
        assert rp.space is not tree.descriptor and tree.canonical(rp) == tree.canonical(p)


def test_foreign_point_rejected_in_every_family(E2, E3, H2, tree, prod):
    foreign = ept(E3, 0.0, 0.0, 0.0)
    for space, x, _ in _point_pairs(E2, H2, tree, prod):
        for call in (
            lambda: space.distance(x, foreign),
            lambda: space.distance(foreign, x),
            lambda: space.geodesic_point(x, foreign, 0.5),
            lambda: space.geodesic_point(foreign, x, 0.5),
        ):
            with pytest.raises(hd.SpaceMismatchError):
                call()
    for p in (foreign, hd.Point(E2.descriptor, (1, 0.5))):
        with pytest.raises(hd.SpaceMismatchError):
            tree.canonical(p)
    # a foreign center, when its ball or rotation is compiled: the ball once
    # failed at its first projection, the H2 rotation turned points about a
    # center off the sheet, and the E2 rotation failed on unpacking
    center = ept(E3, 0.5, 0.1, 0.2)
    for compile_ in (
        lambda: hd.compile_set(H2, hd.Ball(center, 1.0)),
        lambda: hd.compile_mapping(H2, hd.Rotation(center, 1.0)),
        lambda: hd.compile_mapping(E2, hd.Rotation(center, 1.0)),
    ):
        with pytest.raises(hd.SpaceMismatchError):
            compile_()
    # the same point, to project: the compiled closures check nothing, so
    # the public functions check it.  Segments, half-spaces and the whole
    # space once returned a point of the wrong space, or of the right space
    # from the wrong coordinates: (1.0, 0.1) for the E2 half-space below
    sets = {E2: [hd.HalfSpace((1.0, 0.0), 1.0)], tree: [hd.Subtree(frozenset({0, 1}))]}
    for space, x, y in _point_pairs(E2, H2, tree, prod):
        for cset in [hd.WholeSpace(), hd.Ball(x, 1.0), hd.Segment(x, y)] + sets.get(space, []):
            for call in (
                lambda: hd.project_point(space, cset, center),
                lambda: hd.project(space, cset, center, probes=0),
                lambda: hd.project(space, cset, center, probes=100),
                lambda: hd.contains(space, cset, center),
            ):
                with pytest.raises(hd.SpaceMismatchError):
                    call()
        with pytest.raises(hd.SpaceMismatchError):
            hd.project_segment(space, x, y, center)


@pytest.mark.parametrize("lam", [-0.1, 1.5, -math.inf, math.nan])
def test_lambda_range_enforced_in_every_family(E2, E3, H2, tree, prod, lam):
    # E3 keeps the generic E^n kernel's check under test
    e3_pair = (E3, ept(E3, 0.0, 1.0, 2.0), ept(E3, 3.0, -1.0, 0.5))
    for space, x, y in [e3_pair, *_point_pairs(E2, H2, tree, prod)]:
        with pytest.raises(ValueError, match="outside"):
            space.geodesic_point(x, y, lam)


def _random_points(space, count, seed):
    rng = np.random.default_rng(seed)
    draw = hd.sampler(space)
    return [draw(rng) for _ in range(count)]


@pytest.mark.parametrize("dim", [2, 3])
def test_hyperbolic_geodesic_at_known_distance_is_geodesic_point(dim):
    # the form callers use when they hold d(x, y) already, bit for bit
    space = hd.make_space(hd.Hyperbolic(dim))
    pts = _random_points(space, 41, dim)
    rng = np.random.default_rng(dim + 10)
    pairs = list(zip(pts, pts[1:]))
    # close pairs take the chord branch (d < 1e-7), equal pairs have d = 0
    pairs += [(x, space.geodesic_point(x, y, 1.0 - 10.0 ** -k)) for k, (x, y) in zip(range(8, 13), pairs)]
    pairs += [(x, x) for x in pts[:3]]
    assert sum(0.0 < space.distance(x, y) < 1e-7 for x, y in pairs) >= 5
    for x, y in pairs:
        d = space.distance(x, y)
        for lam in (0.0, 1.0, float(rng.random()), float(rng.random())):
            want = repr(space.geodesic_point(x, y, lam))
            assert repr(space._geodesic(x, y, lam, d)) == want
            assert repr(hd.Point(space.descriptor, _sinh_weighted_point(x.data, y.data, lam, d))) == want


def _sinh_weighted_point(xd, yd, lam, d):
    """The hyperbolic geodesic kernel's formula, operation by operation: the
    sinh-weighted (below d = 1e-7, chord) combination of the spatial
    coordinates, lifted onto the upper sheet by the time coordinate
    sqrt(1 + |spatial|^2)."""
    if d < 1e-7:
        c = tuple(lam * a + (1.0 - lam) * b for a, b in zip(xd[1:], yd[1:]))
    else:
        sd = math.sinh(d)
        wx, wy = math.sinh(lam * d) / sd, math.sinh((1.0 - lam) * d) / sd
        c = tuple(wx * a + wy * b for a, b in zip(xd[1:], yd[1:]))
    return (math.hypot(1.0, *c), *c)


def test_geodesic_at_known_distance_falls_back_to_geodesic_point(E2, H2, tree, prod):
    # every family but the hyperbolic one ignores the distance it is given
    for space, x, y in _point_pairs(E2, H2, tree, prod):
        if space is H2:
            continue
        d = space.distance(x, y)
        for lam in (0.0, 0.3, 1.0):
            want = repr(space.geodesic_point(x, y, lam))
            assert repr(space._geodesic(x, y, lam, d)) == want
            assert repr(space._geodesic(x, y, lam, d + 1.0)) == want


@pytest.mark.parametrize("family", ["E2", "H2", "H3", "E2xH2"])
def test_distance_is_exactly_symmetric(family):
    # callers reuse d(a, b) as d(b, a), and traces rely on it bit for bit
    e2, h2 = hd.Euclidean(2), hd.Hyperbolic(2)
    desc = {"E2": e2, "H2": h2, "H3": hd.Hyperbolic(3), "E2xH2": hd.Product(e2, h2)}[family]
    space = hd.make_space(desc)
    pts = _random_points(space, 400, 7)
    for a, b in zip(pts[::2], pts[1::2]):
        assert space.distance(a, b) == space.distance(b, a)
        c = space.geodesic_point(a, b, 1.0 - 1e-9)  # a close pair
        assert space.distance(a, c) == space.distance(c, a)


def test_point_keeps_the_dataclass_behaviour(H2):
    # Point's own __init__ stores through the slots; everything else is the
    # frozen slots dataclass's
    import copy
    import pickle

    desc, data = H2.descriptor, (1.0, 0.0, -0.0)
    p = hd.Point(desc, data)
    assert p == hd.Point(space=desc, data=data) == hd.Point(desc, data=data)
    assert p != hd.Point(desc, (1.0, 0.0, 1e-300))
    assert hash(p) == hash((desc, data))
    assert repr(p) == "Point(space=Hyperbolic(dim=2), data=(1.0, 0.0, -0.0))"
    assert not hasattr(p, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.data = (2.0,)
    with pytest.raises(dataclasses.FrozenInstanceError):
        del p.space
    for other in (pickle.loads(pickle.dumps(p)), copy.copy(p), copy.deepcopy(p)):
        assert type(other) is hd.Point and other == p and repr(other) == repr(p)
    moved = dataclasses.replace(p, data=(2.0, 1.0, 1.0))
    assert moved.space is desc and moved.data == (2.0, 1.0, 1.0) and p.data is data
    assert [f.name for f in dataclasses.fields(hd.Point)] == ["space", "data"]
    with pytest.raises(TypeError, match=r"^Point\.__init__\(\) missing 1 required positional argument: 'data'"):
        hd.Point(desc)
    with pytest.raises(TypeError, match=r"^Point\.__init__\(\) got an unexpected keyword argument 'coords'"):
        hd.Point(desc, data, coords=data)


def test_hyperbolic_plane_kernels_are_the_generic_kernels_bit_for_bit(H2):
    # make_space gives H^2 its written-out kernels; the generic n-dimensional
    # handle, built directly, must give the same floats and points with ==
    from hadamard.spaces import HyperbolicPlane, HyperbolicSpace, minkowski

    assert type(H2) is HyperbolicPlane
    assert type(hd.make_space(hd.Hyperbolic(3))) is HyperbolicSpace
    generic = HyperbolicSpace(hd.Hyperbolic(2))
    rng = hd.stream(21, 1)
    near, out = hd.sampler(H2), hd.sphere(H2, H2.base)
    pairs = [(near(rng), near(rng)) for _ in range(200)]
    # pairs about 1.8 apart 19 to 20 out, where rounding can break q = 1 + m/2
    for _ in range(200):
        a = out(rng, 19.0 + rng.random())
        pairs.append((a, hd.sphere(H2, a)(rng, 1.8)))
    pairs += [(x, H2.geodesic_point(x, y, 1.0 - 10.0 ** -k)) for k, (x, y) in zip(range(8, 13), pairs)]
    pairs += [(x, x) for x, _ in pairs[:3]]

    branches = {"equal": 0, "chord": 0, "acosh": 0, "fallback": 0}
    for x, y in pairs:
        d = H2.distance(x, y)
        assert d == generic.distance(x, y)
        t = tuple(a - b for a, b in zip(x.data, y.data))
        m, q = minkowski(t, t), -minkowski(x.data, y.data)
        branches["equal" if m <= 0.0 else "chord" if m <= 4.0 else "acosh" if q > 3.0 else "fallback"] += 1
        assert H2.minkowski(x.data, y.data) == generic.minkowski(x.data, y.data)
        assert H2.minkowski(t, x.data) == generic.minkowski(t, x.data)
        for lam in (0.0, 1.0, rng.random()):
            assert H2._geodesic(x, y, lam, d) == generic._geodesic(x, y, lam, d)
            assert H2.geodesic_point(x, y, lam) == generic.geodesic_point(x, y, lam)
        spatial = [x.data[1] - y.data[2], 1e8 * y.data[1]]
        assert H2._lift(spatial) == generic._lift(spatial)
    assert min(branches.values()) >= 3, branches
    assert sum(0.0 < H2.distance(x, y) < 1e-7 for x, y in pairs) >= 5

    # the same draws, rotations and segment projections on the generic
    # handle, its own model: the draws compare H2.sphere with
    # spaces.normals and the generic exponential map
    def build(space):
        draws = []
        seeded = hd.stream(22, 1)
        for x, y in pairs[::10]:
            at = hd.sphere(space, x)
            draws += [at(seeded, t) for t in (0.0, 1e-9, 0.7, 20.0)]
            draws.append(hd.compile_mapping(space, hd.Rotation(x, 0.7))(y))
            draws.append(hd.project_segment(space, x, y, pairs[0][0]))
        return draws

    assert generic.model is generic
    assert build(generic) == build(H2)


def test_euclidean_plane_kernels_are_the_generic_kernels_bit_for_bit(E2):
    # make_space gives E^2 its written-out kernels; the generic n-dimensional
    # handle, built directly, must give the same floats and points.  repr
    # tells the bits apart, -0.0 from 0.0 too
    from hadamard import sampling
    from hadamard.spaces import EuclideanPlane, EuclideanSpace

    assert type(E2) is EuclideanPlane
    generic = EuclideanSpace(hd.Euclidean(2))
    rng = hd.stream(23, 1)
    draw = hd.sampler(E2)
    # signed zeros, subnormals and coordinates near 1e300, where a sum can
    # overflow and the rounding of each term shows
    special = (0.0, -0.0, 5e-324, -2.2e-310, 1e300, -1.7e300, 3.25)
    edge = [hd.Point(E2.descriptor, (a, b)) for a in special for b in special]
    pts = edge + [draw(rng) for _ in range(60)]
    pairs = list(zip(pts, pts[::-1])) + list(zip(pts, pts[1:] + pts[:1])) + [(x, x) for x in edge]

    for x, y in pairs:
        for lam in (0.0, 1.0, rng.random()):
            assert repr(E2.geodesic_point(x, y, lam)) == repr(generic.geodesic_point(x, y, lam))
            assert repr(E2._geodesic(x, y, lam, 0.0)) == repr(generic._geodesic(x, y, lam, 0.0))

    # the affine segment projection is the generator sum's lam, clamped,
    # and the generic geodesic point there
    for (a, b), x in zip(pairs[::3], pts[5:]):
        w = tuple(ai - bi for ai, bi in zip(a.data, b.data))
        ww = sum(wi * wi for wi in w)
        if ww == 0.0 or not math.isfinite(ww):
            continue
        lam = sum((xi - bi) * wi for xi, bi, wi in zip(x.data, b.data, w)) / ww
        lam = min(1.0, max(0.0, lam))
        assert repr(hd.project_segment(E2, a, b, x)) == repr((lam, generic.geodesic_point(a, b, lam), 0))

    # the same draws and probes on the generic handle, its own model,
    # E2.sphere against spaces.normals and the generic exponential map
    # among them
    def build(space):
        seeded = hd.stream(24, 1)
        draws = []
        for x, y in pairs[::7]:
            at, ball = hd.sphere(space, x), sampling.ball_sampler(space, x, 1.5)
            draws += [at(seeded, t) for t in (0.0, 1e-300, 0.7, 1e10)]
            draws += [ball(seeded) for _ in range(3)]
            for cset in (hd.Ball(x, 2.0), hd.Segment(x, y), hd.WholeSpace()):
                draws += hd.probe_points(space, cset, x, 20, seed=4)
            draws.append(hd.project_segment(space, x, y, pairs[0][0]))
        return repr(draws)

    assert generic.model is generic
    assert build(generic) == build(E2)


# ---------------------------------------------------------------------------
# kernels bound to a fixed point: each must give, bit for bit, what the
# primitives it replaces give, compared by repr (which tells -0.0 from 0.0)


def _kernel_spaces():
    """(handle, points) per family: E2 and E3 with signed zeros, H2 from the
    base point out to 20 (where distances take the acosh branch), the
    caterpillar, the path-5000 tree of the walk test and E2 x H2."""
    from hadamard import sampling

    rng = hd.stream(25, 1)
    E2, E3, H2 = (hd.make_space(d) for d in (hd.Euclidean(2), hd.Euclidean(3), hd.Hyperbolic(2)))
    signed = [hd.Point(E2.descriptor, (a, b)) for a in (0.0, -0.0, 3.5) for b in (-0.0, 0.0, -1e300)]
    e2 = signed + [hd.random_point(E2, rng) for _ in range(30)]
    e3 = [hd.Point(E3.descriptor, (0.0, -0.0, 1.0))] + [hd.random_point(E3, rng) for _ in range(30)]
    out = hd.sphere(H2, H2.base)
    far = [out(rng, 15.0 + 5.0 * rng.random()) for _ in range(20)]
    near = [hd.random_point(H2, rng) for _ in range(20)]
    # pairs 1e-9 apart, near the base point and far out, for the chord weights
    h2 = [H2.base] + far + near + [p for c in far[:3] + near[:3] for p in (c, hd.sphere(H2, c)(rng, 1e-9))]
    lengths = np.random.default_rng(30).random(5000)
    path = hd.TreeTopology(5001, tuple((i, i + 1, 0.5 + 1.5 * float(f)) for i, f in enumerate(lengths)))
    trees = []
    for topo in (CATERPILLAR, shuffled_tree(path, 31)):
        tree = hd.make_space(hd.WeightedTree(topo))
        draw = sampling.sampler(tree)
        ends = [hd.Point(tree.descriptor, (e, off)) for e in (0, 1, 3) for off in (0.0, topo.edges[e][2])]
        same = [hd.Point(tree.descriptor, (2, topo.edges[2][2] * f)) for f in (0.25, 0.5)]
        trees.append((tree, ends + same + [tree.vertex_point(v) for v in (0, 1, 4)] + [draw(rng) for _ in range(40)]))
    prod = hd.make_space(hd.Product(E2.descriptor, H2.descriptor))
    pp = [prod.pair(a, b) for a, b in zip(e2, h2)]
    return [(E2, e2), (E3, e3), (H2, h2), trees[0], trees[1], (prod, pp)]


@pytest.fixture(scope="module")
def kernel_spaces():
    return _kernel_spaces()


def _bits(p):
    # a tree point's own repr would spell out the whole tree
    return (p.space, repr(p.data)) if isinstance(p.space, hd.WeightedTree) else repr(p)


def test_written_out_kernels_are_pinned():
    # the kernels each handle class defines itself rather than inherits: a
    # new second kernel, or a deleted one, shows in the diff of this table
    from hadamard import spaces

    kernels = (
        "distance", "geodesic_point", "_geodesic", "_lift", "minkowski", "exponential",
        "distances", "geodesic", "sphere", "uniform",
    )
    own = {
        name: sorted(k for k in kernels if k in vars(cls))
        for name, cls in vars(spaces).items()
        if isinstance(cls, type) and issubclass(cls, spaces.Space)
    }
    assert own == {
        "Space": ["_geodesic", "distances", "geodesic", "sphere"],
        "EuclideanSpace": ["distance", "exponential", "geodesic_point"],
        "EuclideanPlane": ["geodesic_point", "sphere"],
        "HyperbolicSpace": ["_geodesic", "_lift", "distance", "exponential", "geodesic_point", "minkowski"],
        "HyperbolicPlane": ["_geodesic", "distance", "distances", "geodesic", "minkowski", "sphere"],
        "TreeSpace": ["distance", "exponential", "geodesic_point", "sphere", "uniform"],
        "ProductSpace": ["distance", "exponential", "geodesic_point"],
    }


def test_distances_is_the_per_point_distance_bit_for_bit(kernel_spaces):
    from hadamard.spaces import HyperbolicSpace

    generic = HyperbolicSpace(hd.Hyperbolic(2))
    acosh = 0
    for space, pts in kernel_spaces:
        for a in pts[::3]:
            want = [space.distance(a, p) for p in pts]
            assert repr(space.distances(a, pts)) == repr(want)
            if isinstance(space.descriptor, hd.Hyperbolic):
                assert repr(want) == repr([generic.distance(a, p) for p in pts])
                acosh += sum(d > 2.0 * math.asinh(1.0) for d in want)
        assert space.distances(pts[0], []) == []
    assert acosh >= 100


def test_geodesic_is_geodesic_point_bit_for_bit(kernel_spaces):
    rng = hd.stream(26, 1)
    lams = [0.0, 1.0, 0.5, 1e-17, 1.0 - 1e-16] + [rng.random() for _ in range(5)]
    shapes = {"short": 0, "one edge": 0}
    for space, pts in kernel_spaces:
        for x, y in zip(pts, pts[1:] + pts[:1]):
            at = space.geodesic(x, y)
            for lam in lams:
                assert _bits(at(lam)) == _bits(space.geodesic_point(x, y, lam))
            if isinstance(space.descriptor, hd.Hyperbolic):
                shapes["short"] += space.distance(x, y) < 1e-7
            if isinstance(space.descriptor, hd.WeightedTree):
                shapes["one edge"] += x.data[0] == y.data[0]
    assert min(shapes.values()) >= 3, shapes


def test_sphere_is_the_generic_draw_bit_for_bit(kernel_spaces):
    # each handle's sphere(c) against the composition sampling.sphere used
    # to build: normals, then each factor's exponential map, the generic
    # class's on E^n and H^n, a tree's draw toward a sampler point at
    # |g_0| s, and a product's split of g; on a tree alone, a sampler draw,
    # its distance and the retraction toward it.  A corrupted wrapper draws
    # as its model.  t runs from 0 and -0.0 past the H2 cap of 20
    from hadamard import sampling, spaces
    from hadamard.spaces import EuclideanSpace, HyperbolicSpace

    def toward_draw(tree):
        sample = sampling.sampler(tree)

        def draw(c, rng, t):
            w = sample(rng)
            d = tree.distance(c, w)
            return tree._geodesic(c, w, max(0.0, 1.0 - t / d), d) if d > 0.0 else c

        return draw

    def exponential(space, c):
        desc = space.descriptor
        if isinstance(desc, (hd.Euclidean, hd.Hyperbolic)):
            generic = (EuclideanSpace if isinstance(desc, hd.Euclidean) else HyperbolicSpace)(desc)
            return desc.dim, generic.exponential(c)[1]
        if isinstance(desc, hd.WeightedTree):
            toward = toward_draw(space)
            return 1, lambda rng, g, s: toward(c, rng, abs(g[0]) * s)
        (n, left), (m, right) = exponential(space.left, c.data[0]), exponential(space.right, c.data[1])
        return n + m, lambda rng, g, s: hd.Point(desc, (left(rng, g[:n], s), right(rng, g[n:], s)))

    def along_normal(space):
        def draw(c, rng, t):
            dim, exp = exponential(space, c)
            g = spaces.normals(rng, dim)
            nrm = math.hypot(*g)
            return exp(rng, g, t / nrm) if nrm > 0.0 else c

        return draw

    (E2, e2), _, _, (caterpillar, cat), *_ = kernel_spaces
    e2_tree = hd.make_space(hd.Product(E2.descriptor, caterpillar.descriptor))
    mixed = [e2_tree.pair(a, b) for a, b in zip(e2, cat)]
    cases = kernel_spaces + [(e2_tree, mixed), (hd.CorruptedSpace(e2_tree), mixed)]
    ts = [0.0, -0.0, 1e-300, 1e-9, 0.3, 1.0, 7.5, 19.0, 20.0, 25.0, 1e6] + [3.0 * k / 7 for k in range(7)]
    zero = type("Zero", (), {"random": staticmethod(lambda: 0.0)})
    for space, pts in cases:
        tree = isinstance(space.descriptor, hd.WeightedTree)
        want = toward_draw(space) if tree else along_normal(space.model)
        for k, c in enumerate(pts[::2]):
            at, got_rng, want_rng = hd.sphere(space, c), hd.stream(27, k), hd.stream(27, k)
            for t in ts:
                assert _bits(at(got_rng, t)) == _bits(want(c, want_rng, t)), (k, t)
            # random() = 0 draws g = (-0.0, -0.0), whose norm 0 gives back
            # the center, and a tree's first vertex
            assert _bits(at(zero, 1.0)) == _bits(want(c, zero, 1.0))
    assert len(cases) == 8
    # a draw that lands on the center returns the center as given, here
    # vertex 0 on edge 1 rather than on its canonical edge 0
    star = hd.make_space(hd.WeightedTree(hd.TreeTopology(3, ((0, 1, 1.0), (0, 2, 2.0)))))
    c = hd.Point(star.descriptor, (1, 0.0))
    assert star.sphere(c)(zero, 0.5) is c is toward_draw(star)(c, zero, 0.5)
