"""Seeded random point generation for the model spaces.

Randomness is organized as one master seed plus per-purpose derived streams
(numpy ``SeedSequence`` spawn keys), so e.g. solver perturbations and harness
sampling never share a stream and stay reproducible independently of each
other.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .geometry import retract
from .spaces import (
    Euclidean,
    Hyperbolic,
    Point,
    Product,
    Space,
    WeightedTree,
    make_space,
    minkowski,
)

# cosh overflow guard: a HyperbolicBall rejects a radius beyond this
MAX_HYPERBOLIC_RADIUS = 20.0


@dataclass(frozen=True)
class EuclideanBox:
    lo: tuple[float, ...]
    hi: tuple[float, ...]


@dataclass(frozen=True)
class HyperbolicBall:
    center: Point
    radius: float

    def __post_init__(self):
        if not 0.0 <= self.radius <= MAX_HYPERBOLIC_RADIUS:
            raise ValueError(
                f"sampling radius {self.radius} outside [0, {MAX_HYPERBOLIC_RADIUS}]"
            )


@dataclass(frozen=True)
class TreeWhole:
    pass


@dataclass(frozen=True)
class ProductRegion:
    left: "SamplingRegion"
    right: "SamplingRegion"


SamplingRegion = Union[EuclideanBox, HyperbolicBall, TreeWhole, ProductRegion]


def stream(seed: int, *key: int) -> np.random.Generator:
    """Derived random stream: deterministic in (seed, key)."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def _as_rng(seed_or_rng) -> np.random.Generator:
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return stream(int(seed_or_rng))


def default_region(space: Space, radius: float = 5.0) -> SamplingRegion:
    """A reasonable sampling region per space family: a coordinate box for
    Euclidean space, a geodesic ball about the sheet base point for
    hyperbolic space, the whole tree for trees, componentwise for products."""
    desc = space.descriptor
    if isinstance(desc, Euclidean):
        return EuclideanBox((-radius,) * desc.dim, (radius,) * desc.dim)
    if isinstance(desc, Hyperbolic):
        return HyperbolicBall(make_space(desc).base, radius)
    if isinstance(desc, WeightedTree):
        return TreeWhole()
    if isinstance(desc, Product):
        left, right = make_space(desc.left), make_space(desc.right)
        return ProductRegion(default_region(left, radius), default_region(right, radius))
    raise ValueError(f"no default region for {desc!r}")


def _draw_hyperbolic(model: Space, center: Point, radius: float, rng) -> Point:
    """Exponential map: walk a uniform distance up to ``radius`` from center
    along a random unit tangent."""
    direction = rng.standard_normal(len(center.data)).tolist()
    r = radius * rng.random()
    c = center.data
    # project the ambient direction onto the tangent space at c
    dot = minkowski(c, direction)
    v = [di + dot * ci for di, ci in zip(direction, c)]
    vv = minkowski(v, v)
    if vv <= 0.0:
        return center
    inv = 1.0 / math.sqrt(vv)
    ch, sh = math.cosh(r), math.sinh(r)
    return model._renormalize([ch * ci + sh * inv * vi for ci, vi in zip(c, v)])


def sampler(space: Space, region: Optional[SamplingRegion] = None) -> Callable[..., Point]:
    """``rng -> random_point(space, region, rng)`` as a closure, on
    ``default_region(space)`` by default.  The region is checked and the
    model handle ``make_space(space.descriptor)`` looked up once, here;
    drawing calls no primitive, so every handle of a descriptor samples alike."""
    model = make_space(space.descriptor)
    desc = model.descriptor
    if region is None:
        region = default_region(model)
    elif not isinstance(region, type(default_region(model))):
        raise ValueError(f"{type(desc).__name__} space has no {type(region).__name__} region")
    if isinstance(desc, Euclidean):
        if not len(region.lo) == len(region.hi) == desc.dim:
            raise ValueError("box dimensions do not match the space")
        bounds = tuple(zip(region.lo, region.hi))

        def draw_box(rng) -> Point:
            u = rng.random(desc.dim).tolist()
            return Point(desc, tuple(lo + (hi - lo) * ui for (lo, hi), ui in zip(bounds, u)))

        return draw_box
    if isinstance(desc, Hyperbolic):
        return lambda rng: _draw_hyperbolic(model, region.center, region.radius, rng)
    if isinstance(desc, WeightedTree):
        cumulative, edges = model.cumulative_length, desc.topology.edges

        def draw_edge(rng) -> Point:
            # uniform over total edge length
            t = rng.random() * model.total_length
            eid = bisect.bisect_left(cumulative, t)
            start = cumulative[eid - 1] if eid else 0.0
            return model.canonical(Point(desc, (eid, min(t - start, edges[eid][2]))))

        return draw_edge
    left, right = sampler(model.left, region.left), sampler(model.right, region.right)
    return lambda rng: Point(desc, (left(rng), right(rng)))


def random_point(space: Space, region: SamplingRegion, seed_or_rng) -> Point:
    """Deterministic seeded sample from ``region``; the result always passes
    point validation for ``space``.  A loop draws from one :func:`sampler`."""
    return sampler(space, region)(_as_rng(seed_or_rng))


def ball_sampler(space: Space, center: Point, radius: float) -> Callable[..., Point]:
    """``rng ->`` a point at distance <= radius from center, built once like
    :func:`sampler`'s closure.  Overshooting draws from the space's natural
    region are pulled back along the geodesic to the center; the boundary
    therefore carries positive mass, which the certificate probes rely on."""
    desc = space.descriptor
    if isinstance(desc, Euclidean):
        def draw_euclidean(rng) -> Point:
            g = rng.standard_normal(desc.dim)
            nrm = math.sqrt(float(np.dot(g, g)))
            if nrm == 0.0:
                return center
            r = radius * rng.random() ** (1.0 / desc.dim)
            return Point(desc, tuple(c + r * d / nrm for c, d in zip(center.data, g.tolist())))

        return draw_euclidean
    if isinstance(desc, Hyperbolic):
        return sampler(space, HyperbolicBall(center, min(radius, MAX_HYPERBOLIC_RADIUS)))
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
    return ball_sampler(space, center, radius)(_as_rng(rng))
