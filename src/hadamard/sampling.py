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
from typing import Union

import numpy as np

from .spaces import (
    Euclidean,
    EuclideanSpace,
    Hyperbolic,
    HyperbolicSpace,
    Point,
    Product,
    ProductSpace,
    Space,
    TreeSpace,
    WeightedTree,
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
        return HyperbolicBall(space.base, radius)
    if isinstance(desc, WeightedTree):
        return TreeWhole()
    if isinstance(desc, Product):
        assert isinstance(space, ProductSpace)
        return ProductRegion(
            default_region(space.left, radius), default_region(space.right, radius)
        )
    raise ValueError(f"no default region for {desc!r}")


def _hyperbolic_exp(space: HyperbolicSpace, center: Point, direction, r: float) -> Point:
    """Exponential map: walk distance r from center along a unit tangent."""
    c = center.data
    # project the ambient direction onto the tangent space at c
    dot = minkowski(c, direction)
    v = [di + dot * ci for di, ci in zip(direction, c)]
    vv = minkowski(v, v)
    if vv <= 0.0:
        return center
    inv = 1.0 / math.sqrt(vv)
    ch, sh = math.cosh(r), math.sinh(r)
    return space._renormalize([ch * ci + sh * inv * vi for ci, vi in zip(c, v)])


def random_point(space: Space, region: SamplingRegion, seed_or_rng) -> Point:
    """Deterministic seeded sample from ``region``; the result always passes
    point validation for ``space``."""
    rng = _as_rng(seed_or_rng)
    if isinstance(space, EuclideanSpace):
        if not isinstance(region, EuclideanBox):
            raise ValueError("Euclidean space needs a EuclideanBox region")
        if len(region.lo) != space.dim or len(region.hi) != space.dim:
            raise ValueError("box dimensions do not match the space")
        u = rng.random(space.dim).tolist()
        return Point(
            space.descriptor,
            tuple(lo + (hi - lo) * ui for lo, hi, ui in zip(region.lo, region.hi, u)),
        )
    if isinstance(space, HyperbolicSpace):
        if not isinstance(region, HyperbolicBall):
            raise ValueError("hyperbolic space needs a HyperbolicBall region")
        direction = rng.standard_normal(space.dim + 1).tolist()
        r = region.radius * rng.random()
        return _hyperbolic_exp(space, region.center, direction, r)
    if isinstance(space, TreeSpace):
        if not isinstance(region, TreeWhole):
            raise ValueError("tree space needs a TreeWhole region")
        # uniform over total edge length
        t = rng.random() * space.total_length
        eid = bisect.bisect_left(space.cumulative_length, t)
        start = space.cumulative_length[eid - 1] if eid else 0.0
        length = space.topology.edges[eid][2]
        return space.canonical(Point(space.descriptor, (eid, min(t - start, length))))
    if isinstance(space, ProductSpace):
        if not isinstance(region, ProductRegion):
            raise ValueError("product space needs a ProductRegion region")
        return space.pair(
            random_point(space.left, region.left, rng),
            random_point(space.right, region.right, rng),
        )
    raise ValueError(f"unsupported space handle {space!r}")


def sample_in_ball(space: Space, center: Point, radius: float, rng) -> Point:
    """A random point at distance <= radius from center, any model space.

    Samples from the space's natural region and pulls overshooting samples
    back along the geodesic to the center; the boundary therefore carries
    positive mass, which the projection certificate probes rely on.
    """
    rng = _as_rng(rng)
    if isinstance(space, EuclideanSpace):
        direction = rng.standard_normal(space.dim)
        nrm = math.sqrt(float(np.dot(direction, direction)))
        if nrm == 0.0:
            return center
        r = radius * rng.random() ** (1.0 / space.dim)
        return Point(
            space.descriptor,
            tuple(c + r * d / nrm for c, d in zip(center.data, direction.tolist())),
        )
    if isinstance(space, HyperbolicSpace):
        return random_point(space, HyperbolicBall(center, min(radius, MAX_HYPERBOLIC_RADIUS)), rng)
    w = random_point(space, default_region(space), rng)
    d = space.distance(center, w)
    if d <= radius or d == 0.0:
        return w
    # pull back to a uniformly random depth inside the ball
    target = radius * rng.random()
    return space.geodesic_point(center, w, 1.0 - target / d)
