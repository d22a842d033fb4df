"""Seeded random point generation for the model spaces.

Randomness is organized as one master seed plus per-purpose derived streams
(a standard-library ``random.Random`` seeded by a string naming the seed and
the purpose), so e.g. solver perturbations and harness sampling never share a
stream and stay reproducible independently of each other.  Every draw here
asks its stream for ``random()`` alone, so a numpy ``Generator`` passed in
its place works too.
"""

from __future__ import annotations

import math
import random
from typing import Callable

from .spaces import MAX_HYPERBOLIC_RADIUS, Euclidean, Hyperbolic, Point, Space, WeightedTree


def stream(seed: int, *key: int) -> random.Random:
    """Derived random stream: deterministic in (seed, key)."""
    return random.Random(f"hadamard:{seed}:{key}")


def _check_radius(radius: float) -> None:
    if not 0.0 <= radius < math.inf:
        raise ValueError(f"sampling radius {radius} is not a finite number >= 0")


def sampler(space: Space, radius: float = 5.0) -> Callable[..., Point]:
    """``rng ->`` a random point of ``space`` as a closure, drawn at the
    sampling radius r: uniform in the box [-r, r]^n in E^n, where
    4 (2r)^2 n must be finite; :func:`ball_sampler`'s draw about the sheet
    base point in H^n, where r may not exceed ``MAX_HYPERBOLIC_RADIUS``;
    uniform over total edge length in a tree, whatever r, by the model's
    own ``uniform`` draw; each factor at r in a product.  Every draw passes
    point validation for ``space``.  The radius is checked once, here, and
    the draw is the model's, ``space.model``: it calls no primitive, so a
    wrapper samples as the handle it wraps."""
    _check_radius(radius)
    model = space.model
    desc = model.descriptor
    if isinstance(desc, Euclidean):
        # the pairings sum squared distances of box points up to 2r sqrt(n) apart
        if not 4.0 * (2.0 * radius) * (2.0 * radius) * desc.dim < math.inf:
            raise ValueError(
                f"sampling radius {radius} in E^{desc.dim} is so large that squared distances overflow"
            )
        bounds = ((-radius, radius),) * desc.dim

        def draw_box(rng) -> Point:
            return Point(desc, tuple([lo + (hi - lo) * rng.random() for lo, hi in bounds]))

        return draw_box
    if isinstance(desc, Hyperbolic):
        if radius > MAX_HYPERBOLIC_RADIUS:
            raise ValueError(f"sampling radius {radius} outside [0, {MAX_HYPERBOLIC_RADIUS}]")
        return ball_sampler(model, model.base, radius)
    if isinstance(desc, WeightedTree):
        return model.uniform()
    left, right = sampler(model.left, radius), sampler(model.right, radius)
    return lambda rng: Point(desc, (left(rng), right(rng)))


def random_point(space: Space, rng, radius: float = 5.0) -> Point:
    """One draw of ``sampler(space, radius)`` from the stream ``rng``.  A
    loop draws from one :func:`sampler`."""
    return sampler(space, radius)(rng)


def sphere(space: Space, center: Point) -> Callable[..., Point]:
    """``(rng, t) ->`` the point at distance t >= 0 from center in a
    direction uniform at center, built once per center: the model's own
    draw, ``space.model.sphere(center)``, whose docstrings give each
    family's law.  It calls no primitive of the handle passed in, so a
    wrapper draws as the handle it wraps.  The center's tag is checked
    once, here."""
    space._check(center)
    return space.model.sphere(center)


def ball_sampler(space: Space, center: Point, radius: float) -> Callable[..., Point]:
    """``rng ->`` a point at distance <= radius from center, built once like
    :func:`sampler`'s closure, in a direction drawn by :func:`sphere`.  Its
    distance is radius * U^(1/n) in E^n, uniform in volume; uniform up to
    min(radius, ``MAX_HYPERBOLIC_RADIUS``) in H^n; and uniform up to the
    radius elsewhere.  The radius must be a finite number >= 0; it and the
    center's tag are checked once, here or in :func:`sphere`."""
    _check_radius(radius)
    desc, at = space.descriptor, sphere(space, center)
    if isinstance(desc, Euclidean):
        return lambda rng: at(rng, radius * rng.random() ** (1.0 / desc.dim))
    r = min(radius, MAX_HYPERBOLIC_RADIUS) if isinstance(desc, Hyperbolic) else radius
    return lambda rng: at(rng, r * rng.random())


def sample_in_ball(space: Space, center: Point, radius: float, rng) -> Point:
    """One draw of ``ball_sampler(space, center, radius)``."""
    return ball_sampler(space, center, radius)(rng)
