"""Seeded random point generation for the model spaces.

Randomness is organized as one master seed plus per-purpose derived streams
(a standard-library ``random.Random`` seeded by a string naming the seed and
the purpose), so e.g. solver perturbations and harness sampling never share a
stream and stay reproducible independently of each other.  Every draw here
asks its stream for ``random()`` alone, so a numpy ``Generator`` passed in
its place works too.
"""

from __future__ import annotations

import bisect
import math
import random
from typing import Callable

from .geometry import retract
from .spaces import (
    MAX_HYPERBOLIC_RADIUS,
    Euclidean,
    Hyperbolic,
    Point,
    Product,
    Space,
    WeightedTree,
    make_space,
)


def stream(seed: int, *key: int) -> random.Random:
    """Derived random stream: deterministic in (seed, key)."""
    return random.Random(f"hadamard:{seed}:{key}")


def _check_radius(radius: float) -> None:
    if not 0.0 <= radius < math.inf:
        raise ValueError(f"sampling radius {radius} is not a finite number >= 0")


def normals(rng, n: int) -> list[float]:
    """``n`` standard normal values built from ``rng.random()`` by the
    Box-Muller transform: Python pins the ``random()`` sequence of a seeded
    stream, not that of ``gauss`` or ``normalvariate``."""
    out: list[float] = []
    while len(out) < n:
        # 1 - random() lies in (0, 1], so the log is finite
        r = math.sqrt(-2.0 * math.log(1.0 - rng.random()))
        theta = 2.0 * math.pi * rng.random()
        out += (r * math.cos(theta), r * math.sin(theta))
    del out[n:]
    return out


def sampler(space: Space, radius: float = 5.0) -> Callable[..., Point]:
    """``rng ->`` a random point of ``space`` as a closure, drawn at the
    sampling radius r: uniform in the box [-r, r]^n in E^n; at a distance
    uniform up to r from the sheet base point in H^n, where r may not
    exceed ``MAX_HYPERBOLIC_RADIUS``; uniform over total edge length in a
    tree, whatever r; each factor at r in a product.  Every draw passes
    point validation for ``space``.  The radius is checked and the model
    handle ``make_space(space.descriptor)`` looked up once, here; drawing
    calls no primitive, so every handle of a descriptor samples alike."""
    _check_radius(radius)
    model = make_space(space.descriptor)
    desc = model.descriptor
    if isinstance(desc, Euclidean):
        bounds = ((-radius, radius),) * desc.dim

        def draw_box(rng) -> Point:
            return Point(desc, tuple([lo + (hi - lo) * rng.random() for lo, hi in bounds]))

        return draw_box
    if isinstance(desc, Hyperbolic):
        if radius > MAX_HYPERBOLIC_RADIUS:
            raise ValueError(f"sampling radius {radius} outside [0, {MAX_HYPERBOLIC_RADIUS}]")
        at = sphere(model, model.base)
        # uniform in distance up to the radius, not in volume
        return lambda rng: at(rng, radius * rng.random())
    if isinstance(desc, WeightedTree):
        cumulative, edges = model.cumulative_length, desc.topology.edges

        def draw_edge(rng) -> Point:
            # uniform over total edge length
            t = rng.random() * model.total_length
            eid = bisect.bisect_left(cumulative, t)
            start = cumulative[eid - 1] if eid else 0.0
            return model.canonical(Point(desc, (eid, min(t - start, edges[eid][2]))))

        return draw_edge
    left, right = sampler(model.left, radius), sampler(model.right, radius)
    return lambda rng: Point(desc, (left(rng), right(rng)))


def random_point(space: Space, rng, radius: float = 5.0) -> Point:
    """One draw of ``sampler(space, radius)`` from the stream ``rng``.  A
    loop draws from one :func:`sampler`."""
    return sampler(space, radius)(rng)


def _exponential(model: Space, c: Point):
    """``(dim, exp)``: ``exp(g, s)`` is the exponential map at c of the
    tangent vector s*g, the point s*|g| from c along g, for the coordinates
    g of a tangent vector in an orthonormal frame at c of dimension
    ``dim``.  None for a space with a tree factor, which has no tangent
    space."""
    desc = model.descriptor
    if isinstance(desc, (Euclidean, Hyperbolic)):
        return desc.dim, model.exponential(c)
    if isinstance(desc, Product):
        left = _exponential(model.left, c.data[0])
        right = _exponential(model.right, c.data[1])
        if left is None or right is None:
            return None
        (n, exp_left), (m, exp_right) = left, right
        return n + m, lambda g, s: Point(desc, (exp_left(g[:n], s), exp_right(g[n:], s)))
    return None


def sphere(space: Space, center: Point) -> Callable[..., Point]:
    """``(rng, t) ->`` the point at distance t >= 0 from center in a
    direction uniform at center, built once per center.

    In E^n this is center + t g/|g| for a standard normal g; in H^n it is
    cosh t * center + sinh t * v for the unit tangent v = sum g_i f_i / |g|
    in an orthonormal frame f at center, with t capped at
    ``MAX_HYPERBOLIC_RADIUS``; in a product of these, each factor takes its
    part of g, so t splits between them in proportion to the two parts.  A
    space with a tree factor has no tangent space: there a point w is drawn
    by ``sampler(space)`` and the result lies min(t, d(center, w)) along the
    geodesic toward w.  Only that fallback calls the handle's
    primitives.  The center's tag is checked once, here.

    The draw is the passed handle's own ``sphere(center)`` where it has one,
    so a wrapper keeps its own metric."""
    space._check(center)
    own = getattr(space, "sphere", None)
    if own is not None:
        return own(center)
    model = make_space(space.descriptor)
    kernel = _exponential(model, center)
    if kernel is not None:
        dim, exp = kernel

        def along_normal(rng, t):
            g = normals(rng, dim)
            nrm = math.hypot(*g)
            return exp(g, t / nrm) if nrm > 0.0 else center

        return along_normal
    draw = sampler(model)

    def toward_draw(rng, t):
        w = draw(rng)
        d = space.distance(center, w)
        return retract(space, center, w, t, d) if d > 0.0 else center

    return toward_draw


def ball_sampler(space: Space, center: Point, radius: float) -> Callable[..., Point]:
    """``rng ->`` a point at distance <= radius from center, built once like
    :func:`sampler`'s closure.  In E^n it is uniform in volume; in H^n its
    distance is uniform up to min(radius, ``MAX_HYPERBOLIC_RADIUS``); both
    draw a uniform direction from :func:`sphere`.  Elsewhere draws of
    ``sampler(space)`` that overshoot are pulled back along the geodesic to
    a uniform depth inside the ball.  The radius must be a finite number
    >= 0; it and the center's tag are checked once, here or in
    :func:`sphere`."""
    _check_radius(radius)
    desc = space.descriptor
    if isinstance(desc, Euclidean):
        at = sphere(space, center)
        return lambda rng: at(rng, radius * rng.random() ** (1.0 / desc.dim))
    if isinstance(desc, Hyperbolic):
        at, r = sphere(space, center), min(radius, MAX_HYPERBOLIC_RADIUS)
        return lambda rng: at(rng, r * rng.random())
    space._check(center)
    draw = sampler(space)

    def pull_back(rng) -> Point:
        w = draw(rng)
        d = space.distance(center, w)
        if d <= radius or d == 0.0:
            return w
        # pull back to a uniformly random depth inside the ball
        return retract(space, center, w, radius * rng.random(), d)

    return pull_back


def sample_in_ball(space: Space, center: Point, radius: float, rng) -> Point:
    """One draw of ``ball_sampler(space, center, radius)``."""
    return ball_sampler(space, center, radius)(rng)
