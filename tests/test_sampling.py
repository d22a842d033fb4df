import ast
import math
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import hadamard as hd
from hadamard import sampling
from hadamard.cli import random_tree_topology
from hadamard.spaces import ProductSpace, TreeSpace, minkowski
from conftest import CATERPILLAR, ept, hpt_polar


def test_stream_is_deterministic_and_keyed():
    def five(rng):
        return [rng.random() for _ in range(5)]

    a = five(hd.stream(42, 7))
    b = five(hd.stream(42, 7))
    c = five(hd.stream(42, 8))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_euclidean_box_sampling(E2):
    # sampling radius r draws from the box [-r, r]^n
    rng = hd.stream(6, 1)
    for radius in (0.0, 2.0, 5.0):
        draw = hd.sampler(E2, radius)
        for _ in range(100):
            assert max(abs(c) for c in draw(rng).data) <= radius + 1e-12


def test_hyperbolic_sampling_stays_in_ball_and_on_sheet(H2):
    draw, rng = hd.sampler(H2, 3.0), hd.stream(1, 1)
    for _ in range(200):
        p = draw(rng)
        assert hd.validate_point(H2, p) is None
        assert H2.distance(H2.base, p) <= 3.0 + 1e-9
    far = hd.sampler(H2, 20.0)
    for _ in range(50):
        assert hd.validate_point(H2, far(rng)) is None
    with pytest.raises(ValueError, match=r"sampling radius 20.5 outside \[0, 20.0\]"):
        hd.sampler(H2, 20.5)


def test_tree_sampling_frequencies():
    # uniform over total length: each edge gets its share of the length, and
    # offsets are uniform along it, on a 3-ray star and on the caterpillar's
    # unequal edges.  A tree ignores the sampling radius, however large.
    star = hd.TreeTopology(4, ((0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)))
    rng = hd.stream(2, 1)
    n = 6000
    for topo in (star, CATERPILLAR):
        space = hd.make_space(hd.WeightedTree(topo))
        draw = hd.sampler(space, 1e9)
        counts, fractions = Counter(), Counter()
        for _ in range(n):
            p = draw(rng)
            assert hd.validate_point(space, p) is None
            eid, off = p.data
            counts[eid] += 1
            fractions[eid] += off / topo.edges[eid][2]
        total = sum(length for _, _, length in topo.edges)
        for eid, (_, _, length) in enumerate(topo.edges):
            assert abs(counts[eid] / n - length / total) < 0.03
            assert abs(fractions[eid] / counts[eid] - 0.5) < 0.05


def test_product_sampling_components_valid(prod, H2):
    # each factor is drawn at the same sampling radius
    draw, rng = hd.sampler(prod, 1.5), hd.stream(3, 1)
    for _ in range(100):
        p = draw(rng)
        assert hd.validate_point(prod, p) is None
        assert max(abs(c) for c in p.data[0].data) <= 1.5
        assert H2.distance(H2.base, p.data[1]) <= 1.5 + 1e-9
    with pytest.raises(ValueError, match="outside"):
        hd.sampler(prod, 21.0)


@pytest.mark.parametrize("radius", [-1.0, -1e-300, math.nan, math.inf, -math.inf])
def test_bad_radius_is_rejected_when_the_sampler_is_built(E2, H2, tree, prod, radius):
    rng = hd.stream(10, 1)
    for space in (E2, H2, tree, prod):
        center = hd.random_point(space, rng)
        with pytest.raises(ValueError, match="not a finite number >= 0"):
            hd.sampler(space, radius)
        with pytest.raises(ValueError, match="not a finite number >= 0"):
            hd.random_point(space, rng, radius)
        with pytest.raises(ValueError, match="not a finite number >= 0"):
            hd.sample_in_ball(space, center, radius, rng)


def test_euclidean_radius_must_keep_squared_distances_finite(E2, E3, tree, prod):
    # 4 (2r)^2 n is finite: twice the square of the longest distance in the
    # box, so that the sums of squared distances in a pairing stay finite
    for space, n in ((E2, 2), (E3, 3), (prod, 2)):
        top = math.sqrt(sys.float_info.max / (16.0 * n))
        if space is not prod:  # whose H^2 factor refuses any radius above 20
            hd.sampler(space, 0.99 * top)
        with pytest.raises(ValueError, match=f"in E\\^{n} is so large that squared distances overflow"):
            hd.sampler(space, 1.01 * top)
    hd.sampler(tree, 1e300)  # a tree ignores the radius


def test_sample_in_ball_respects_radius(E3, H2, tree):
    rng = hd.stream(4, 1)
    centers = [
        (E3, ept(E3, 1.0, -1.0, 0.5)),
        (H2, hpt_polar(H2, 1.0, 0.5)),
        (tree, hd.tree_point(tree, 1, 1.0)),
    ]
    for space, center in centers:
        for _ in range(100):
            p = hd.sample_in_ball(space, center, 0.8, rng)
            assert space.distance(center, p) <= 0.8 + 1e-9


def test_euclidean_ball_sampling_is_not_boundary_biased(E2):
    # polar sampling with the r^(1/dim) law: about a quarter of the mass in
    # the half-radius disc
    rng = hd.stream(5, 1)
    center = ept(E2, 0.0, 0.0)
    inside = sum(
        1 for _ in range(4000) if E2.distance(center, hd.sample_in_ball(E2, center, 1.0, rng)) < 0.5
    )
    assert abs(inside / 4000 - 0.25) < 0.04


def test_default_region_radius(E2):
    # random_point draws from [-r, r]^n, with r = 5 when no radius is given
    rng = hd.stream(6, 1)
    for radius, draw in ((2.0, lambda: hd.random_point(E2, rng, 2.0)), (5.0, lambda: hd.random_point(E2, rng))):
        for _ in range(100):
            assert max(abs(c) for c in draw().data) <= radius + 1e-12


def exact_floats(space, p) -> bool:
    """Every real in the point is a Python ``float`` (a tree edge id an
    ``int``): no numpy scalar leaks from the random draws into point data."""
    if isinstance(space, ProductSpace):
        return exact_floats(space.left, p.data[0]) and exact_floats(space.right, p.data[1])
    if isinstance(space, TreeSpace):
        return type(p.data[0]) is int and type(p.data[1]) is float
    return all(type(c) is float for c in p.data)


def test_sampled_and_probe_coordinates_are_floats(E2, H2, tree, prod):
    rng = hd.stream(7, 1)
    for space in (E2, H2, tree, prod):
        center = hd.random_point(space, rng)
        assert exact_floats(space, center)
        for _ in range(20):
            assert exact_floats(space, hd.random_point(space, rng))
            assert exact_floats(space, hd.sample_in_ball(space, center, 0.8, rng))
    far = hd.random_point(H2, rng)
    sets = [
        (E2, hd.Ball(ept(E2, 1.0, 0.0), 2.0)),
        (E2, hd.Segment(ept(E2, -1.0, 0.5), ept(E2, 2.0, 1.0))),
        (E2, hd.HalfSpace((1.0, 2.0), 0.5)),
        (E2, hd.WholeSpace()),
        (H2, hd.Ball(H2.base, 1.5)),
        (H2, hd.Segment(H2.base, far)),
        (H2, hd.WholeSpace()),
        (tree, hd.Ball(hd.tree_point(tree, 1, 1.0), 1.0)),
        (tree, hd.Subtree(frozenset({1, 3, 4}))),
        (prod, hd.WholeSpace()),
    ]
    for space, cset in sets:
        u = hd.project_point(space, cset, hd.random_point(space, rng))[0]
        probes = hd.probe_points(space, cset, u, 64, seed=3)
        assert probes and all(exact_floats(space, p) for p in probes), cset


def _sphere_cases():
    for n in range(1, 5):
        E = hd.make_space(hd.Euclidean(n))
        yield f"E{n}", E, hd.Point(E.descriptor, tuple(0.5 - 0.75 * i for i in range(n)))
        H = hd.make_space(hd.Hyperbolic(n))
        yield f"H{n}-base", H, H.base
        yield f"H{n}-off-base", H, hd.hyperboloid_point(H, math.cosh(1.0), *(0.0,) * (n - 1), math.sinh(1.0))
    E2, H2 = hd.make_space(hd.Euclidean(2)), hd.make_space(hd.Hyperbolic(2))
    prod = hd.make_space(hd.Product(E2.descriptor, H2.descriptor))
    yield "E2xH2", prod, prod.pair(ept(E2, 0.5, -1.0), hpt_polar(H2, 1.0, 0.3))


@pytest.mark.parametrize("space, center", [case[1:] for case in _sphere_cases()],
                         ids=[case[0] for case in _sphere_cases()])
def test_sphere_draws_at_the_given_distance(space, center):
    at = hd.sphere(space, center)
    rng = hd.stream(8, 1)
    for t in (0.0, 1e-9, 0.5, 5.0, 20.0):
        for _ in range(50):
            p = at(rng, t)
            assert hd.validate_point(space, p) is None
            assert abs(space.distance(center, p) - t) <= 1e-12 * (1.0 + t), t


def test_sphere_direction_is_uniform_off_the_sheet_base(H2):
    # the initial unit tangent of the geodesic from c to each draw, read in
    # the polar frame at c (radial e_r, rotational e_phi): its angle must be
    # uniform.  Chi-square over 20 bins of 10^4 angles, at p = 0.001.
    R, phi = 2.0, 0.7
    c = hpt_polar(H2, R, phi)
    e_r = (math.sinh(R), math.cosh(R) * math.cos(phi), math.cosh(R) * math.sin(phi))
    e_phi = (0.0, -math.sin(phi), math.cos(phi))
    at, rng = hd.sphere(H2, c), hd.stream(9, 1)
    bins, n, t = 20, 10_000, 1.0
    counts = [0] * bins
    for _ in range(n):
        p = at(rng, t)
        w = [(pi - math.cosh(t) * ci) / math.sinh(t) for pi, ci in zip(p.data, c.data)]
        angle = math.atan2(minkowski(w, e_phi), minkowski(w, e_r)) % (2.0 * math.pi)
        counts[min(bins - 1, int(angle / (2.0 * math.pi) * bins))] += 1
    expected = n / bins
    chi2 = sum((k - expected) ** 2 / expected for k in counts)
    assert chi2 < 43.82, counts


def test_numpy_generator_still_draws(E2, H2, tree, prod):
    # the library asks a stream for random() alone, which a numpy Generator has
    rng = np.random.default_rng(0)
    for space in (E2, H2, tree, prod):
        center = hd.random_point(space, rng)
        for p in (hd.sample_in_ball(space, center, 0.8, rng), hd.sphere(space, center)(rng, 0.5)):
            assert hd.validate_point(space, p) is None and exact_floats(space, p)


def test_a_foreign_center_is_rejected_when_the_draw_is_built(E2, E3, H2, tree, prod):
    # an E2 center on E3 once drew 2-coordinate points tagged E3; on E2 and
    # H2 a foreign center failed on unpacking, at the first draw
    e2, h2 = ept(E2, 1.0, 2.0), H2.base
    cases = [(E3, e2), (E2, h2), (H2, e2), (tree, e2), (prod, e2), (hd.CorruptedSpace(tree), h2)]
    for space, center in cases:
        with pytest.raises(hd.SpaceMismatchError):
            hd.sphere(space, center)
        with pytest.raises(hd.SpaceMismatchError):
            sampling.ball_sampler(space, center, 1.0)


def test_no_draw_measures():
    # every draw is a function of the model and the random stream: nothing
    # in sampling.py calls a metric or geodesic primitive, on any handle
    measuring = {"distance", "distances", "geodesic_point", "_geodesic", "geodesic", "retract"}
    tree = ast.parse(Path(sampling.__file__).read_text())
    calls = [
        f"{node.lineno}: {name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        for name in [getattr(node.func, "attr", None) or getattr(node.func, "id", None)]
        if name in measuring
    ]
    assert not calls


@pytest.fixture(scope="module")
def E2_random_tree(E2):
    # E2 x a 20-edge random tree, centered at (origin, vertex 0)
    tree = hd.make_space(hd.WeightedTree(random_tree_topology(20, 1)))
    space = hd.make_space(hd.Product(E2.descriptor, tree.descriptor))
    return space, space.pair(ept(E2, 0.0, 0.0), tree.vertex_point(0))


def test_a_tree_factor_draws_its_share_at_any_distance(E2_random_tree):
    # a tree factor takes one coordinate of the normal vector and stops at
    # min(share, d(c_T, w)): no draw passes t, and the draws whose tree
    # share fits land at t, however far t is
    space, c = E2_random_tree
    at, rng = hd.sphere(space, c), hd.stream(13, 1)
    for t in (1.0, 9.0, 15.0, 30.0):
        ds = []
        for _ in range(500):
            p = at(rng, t)
            assert hd.validate_point(space, p) is None and exact_floats(space, p)
            ds.append(space.distance(c, p))
        assert max(ds) <= t * (1.0 + 1e-12), t
        assert sum(abs(d - t) <= 1e-9 * t for d in ds) >= 20, t


def test_ball_draws_and_probes_reach_the_radius_on_products(E2_random_tree, prod):
    space, c = E2_random_tree
    draw, rng = sampling.ball_sampler(space, c, 50.0), hd.stream(13, 2)
    assert max(space.distance(c, draw(rng)) for _ in range(2000)) > 25.0
    probes = hd.probe_points(space, hd.Ball(c, 50.0), c, 500, seed=1)
    assert abs(max(space.distance(c, p) for p in probes) - 50.0) <= 1e-9
    E2, H2 = prod.left, prod.right
    center = prod.pair(ept(E2, 0.0, 0.0), H2.base)
    draw = sampling.ball_sampler(prod, center, 30.0)
    reach = [prod.distance(center, draw(rng)) for _ in range(2000)]
    assert 25.0 < max(reach) <= 30.0 * (1.0 + 1e-12)
