"""Independent reference implementations used by the tests.

Everything here is deliberately written against numpy / networkx primitives
rather than the package's own metric code, so agreement between the two is a
real check and not a tautology.
"""

import math
from functools import lru_cache

import networkx as nx
import numpy as np


@lru_cache(maxsize=1)
def lambda_grid(n_grid):
    """``np.linspace(0, 1, n_grid)``, built once for the grid searches below
    and shared read-only."""
    lams = np.linspace(0.0, 1.0, n_grid)
    lams.flags.writeable = False
    return lams


# ---------------------------------------------------------------------------
# Euclidean

def euclid_quasilin(a, b, c, d):
    """<ab, cd> as a plain dot product of displacement vectors."""
    a, b, c, d = (np.asarray(p, dtype=float) for p in (a, b, c, d))
    return float(np.dot(b - a, d - c))


def euclid_segment_argmin(a, b, x, n_grid):
    """Brute-force lambda grid minimizing |x - (lam*a + (1-lam)*b)|.  The
    squared distances are summed one coordinate column at a time, in place,
    each column's operations in the row-wise order."""
    a, b, x = (np.asarray(p, dtype=float) for p in (a, b, x))
    lams = lambda_grid(n_grid)
    mu = 1.0 - lams
    d2 = np.zeros(n_grid)
    col, tmp = np.empty(n_grid), np.empty(n_grid)
    for ak, bk, xk in zip(a, b, x):
        np.multiply(lams, ak, out=col)
        col += np.multiply(mu, bk, out=tmp)
        col -= xk
        col *= col
        d2 += col
    return float(lams[int(np.argmin(d2))])


# ---------------------------------------------------------------------------
# hyperboloid model

def mink(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(-a[0] * b[0] + np.dot(a[1:], b[1:]))


def hyper_distance(a, b):
    """arccosh form of the hyperbolic distance (the package uses the asinh
    chord form, so matching this is a genuine cross-check)."""
    return float(np.arccosh(max(1.0, -mink(a, b))))


def hyper_geodesic(a, b, lam):
    """sinh-weighted combination, renormalized onto the sheet."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    d = hyper_distance(a, b)
    if d < 1e-9:
        c = lam * a + (1.0 - lam) * b
    else:
        c = (math.sinh(lam * d) * a + math.sinh((1.0 - lam) * d) * b) / math.sinh(d)
    return c / math.sqrt(-mink(c, c))


def hyper_segment_argmin(a, b, x, n_grid):
    """Brute-force lambda grid minimizing d(x, gamma(lam)), with gamma(lam)
    the sinh-weighted combination renormalized onto the sheet.  Built one
    coordinate column at a time, in place, each column's operations in the
    row-wise order; the spatial pairing with x is one matrix product, as
    the row-wise form had it."""
    a, b, x = (np.asarray(p, dtype=float) for p in (a, b, x))
    d = hyper_distance(a, b)
    lams = lambda_grid(n_grid)
    if d < 1e-12:
        return 1.0
    sd = math.sinh(d)
    w_a = lams * d
    np.sinh(w_a, out=w_a)
    w_a /= sd
    w_b = 1.0 - lams
    w_b *= d
    np.sinh(w_b, out=w_b)
    w_b /= sd
    tmp = np.empty(n_grid)
    time = w_a * a[0]
    time += np.multiply(w_b, b[0], out=tmp)
    spatial = np.empty((n_grid, len(a) - 1))
    square = np.zeros(n_grid)
    for k in range(1, len(a)):
        col = spatial[:, k - 1]
        np.multiply(w_a, a[k], out=col)
        col += np.multiply(w_b, b[k], out=tmp)
        square += np.multiply(col, col, out=tmp)
    # renormalize each row onto the sheet
    q = time * time
    q -= square
    np.sqrt(q, out=q)
    time /= q
    spatial /= q[:, None]
    # -<pt, x>_M
    inner = spatial @ x[1:]
    time *= x[0]
    inner -= time
    np.negative(inner, out=inner)
    np.maximum(inner, 1.0, out=inner)
    np.arccosh(inner, out=inner)
    return float(lams[int(np.argmin(inner))])


# ---------------------------------------------------------------------------
# metric trees, via networkx

def tree_graph(topology):
    g = nx.Graph()
    g.add_nodes_from(range(topology.vertex_count))
    for u, v, length in topology.edges:
        g.add_edge(u, v, weight=length)
    return g


def tree_vertex_distances(topology):
    g = tree_graph(topology)
    return dict(nx.all_pairs_dijkstra_path_length(g, weight="weight"))


def tree_source_distances(graph, source):
    """Vertex distances from one source vertex of a ``tree_graph``, by
    networkx Dijkstra."""
    return nx.single_source_dijkstra_path_length(graph, source, weight="weight")


def tree_vertex_set_connected(graph, vertices):
    """Whether ``vertices`` induce a connected subgraph of ``graph``."""
    return nx.is_connected(graph.subgraph(vertices))


def tree_point_distance(topology, p, q, vdist=None):
    """Distance between two (edge, offset) points from networkx vertex
    distances and the four endpoint detours."""
    (e1, t1), (e2, t2) = p, q
    if e1 == e2:
        return abs(t1 - t2)
    if vdist is None:
        vdist = tree_vertex_distances(topology)
    u1, v1, l1 = topology.edges[e1]
    u2, v2, l2 = topology.edges[e2]
    best = math.inf
    for w1, o1 in ((u1, t1), (v1, l1 - t1)):
        for w2, o2 in ((u2, t2), (v2, l2 - t2)):
            best = min(best, o1 + vdist[w1][w2] + o2)
    return best


def tree_dijkstra_distance(topology, p, q, resolution=0.01):
    """Fully independent check: subdivide every edge into short pieces and run
    Dijkstra on the discretized graph.  Accurate to ~2*resolution."""
    g = nx.Graph()
    node_of = {}

    def edge_node(e, k):
        return ("e", e, k)

    for eid, (u, v, length) in enumerate(topology.edges):
        n_seg = max(1, int(math.ceil(length / resolution)))
        prev = ("v", u)
        for k in range(1, n_seg):
            cur = edge_node(eid, k)
            g.add_edge(prev, cur, weight=length / n_seg)
            prev = cur
        g.add_edge(prev, ("v", v), weight=length / n_seg)
        node_of[eid] = n_seg

    def snap(point):
        eid, off = point
        u, v, length = topology.edges[eid]
        n_seg = node_of[eid]
        k = int(round(off / length * n_seg))
        if k <= 0:
            return ("v", u)
        if k >= n_seg:
            return ("v", v)
        return edge_node(eid, k)

    return nx.dijkstra_path_length(g, snap(p), snap(q), weight="weight")


def tree_segment_argmin(topology, a, b, x, n_grid, vdist=None):
    """Grid argmin of d(x, gamma(lam)) using the V-shape profile: on the
    a-b path, d(x, .) = h + |s - s_x| in arc length s from a."""
    if vdist is None:
        vdist = tree_vertex_distances(topology)
    L = tree_point_distance(topology, a, b, vdist)
    if L == 0.0:
        return 1.0
    dxa = tree_point_distance(topology, x, a, vdist)
    dxb = tree_point_distance(topology, x, b, vdist)
    s_x = 0.5 * (dxa - dxb + L)  # foot of x on the path, arc length from a
    lams = lambda_grid(n_grid)
    s = (1.0 - lams) * L
    d = (dxa - s_x) + np.abs(s - s_x)
    return float(lams[int(np.argmin(d))])
