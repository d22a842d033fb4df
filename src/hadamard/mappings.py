"""Catalog of nonexpansive self-maps with known fixed-point structure.

Fixed-point iteration needs test mappings whose fixed-point sets are known in
closed form: rotations fix exactly their center, metric projections fix
exactly their target set, geodesic averages inherit the fixed points of the
averaged map.  A fixed-point-free translation is included as a negative
control for the convergence diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from . import convex
from .convex import ConvexSetDescriptor, compile_set
from .spaces import Euclidean, Hyperbolic, Point, Space, _FrozenRecord


@dataclass(init=False, eq=False, repr=False)
class Identity(_FrozenRecord):
    """The identity map."""


@dataclass(init=False, eq=False, repr=False)
class Rotation(_FrozenRecord):
    """Isometric rotation about a center; Euclidean(2) or Hyperbolic(2)."""

    center: Point
    angle: float


@dataclass(init=False, eq=False, repr=False)
class ProjectionOnto(_FrozenRecord):
    """The metric projection onto ``target``."""

    target: ConvexSetDescriptor


@dataclass(init=False, eq=False, repr=False)
class GeodesicAverage(_FrozenRecord):
    """x -> the point at fraction (1 - weight) along the geodesic from x to
    inner(x); weight 1 is the identity."""

    weight: float
    inner: "MappingDescriptor"


@dataclass(init=False, eq=False, repr=False)
class Composition(_FrozenRecord):
    """The composition of ``parts``, applied in order, first part first."""

    parts: tuple["MappingDescriptor", ...]


@dataclass(init=False, eq=False, repr=False)
class Translation(_FrozenRecord):
    """Euclidean shift by a fixed vector; fixed-point free when nonzero.
    Ships as a negative control only."""

    vector: tuple[float, ...]


MappingDescriptor = Identity | Rotation | ProjectionOnto | GeodesicAverage | Composition | Translation


def _euclidean_rotation(center, angle) -> Callable[[Point], Point]:
    c, s = math.cos(angle), math.sin(angle)
    cx, cy = center.data

    def apply(p: Point) -> Point:
        x, y = p.data[0] - cx, p.data[1] - cy
        return Point(p.space, (cx + c * x - s * y, cy + s * x + c * y))

    return apply


def _boost_to(point_data) -> list[list[float]]:
    """Lorentz boost taking the sheet base point (1, 0, 0) to the given
    hyperboloid point."""
    p0, p1, p2 = point_data
    f = 1.0 / (1.0 + p0)
    return [
        [p0, p1, p2],
        [p1, 1.0 + p1 * p1 * f, p1 * p2 * f],
        [p2, p1 * p2 * f, 1.0 + p2 * p2 * f],
    ]


def _mat_mul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3)] for i in range(3)
    ]


def _hyperbolic_rotation(model: Space, center: Point, angle) -> Callable:
    # conjugate a spatial rotation at the base point by the boost to center
    c, s = math.cos(angle), math.sin(angle)
    rot = [[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]]
    fwd = _boost_to(center.data)
    p0, p1, p2 = center.data
    back = _boost_to((p0, -p1, -p2))
    m = _mat_mul(_mat_mul(fwd, rot), back)

    # only the spatial rows are applied; the lift supplies the time coordinate
    rows = m[1:]

    def apply(p: Point) -> Point:
        x = p.data
        return model._lift([mi[0] * x[0] + mi[1] * x[1] + mi[2] * x[2] for mi in rows])

    return apply


def _require_finite(name: str, *values: float) -> None:
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"{name} must be finite, got {', '.join(map(repr, values))}")


def compile_mapping(space: Space, mapping: MappingDescriptor) -> Callable[[Point], Point]:
    """Precompiled fast application closure for use in iteration loops,
    validated here and built afresh on each call: nothing outlives it."""
    desc = space.descriptor
    if isinstance(mapping, Identity):
        return lambda p: p
    if isinstance(mapping, Rotation):
        if not (isinstance(desc, (Euclidean, Hyperbolic)) and desc.dim == 2):
            raise ValueError("rotations are supported in Euclidean(2) and Hyperbolic(2) only")
        space._check(mapping.center)
        _require_finite("rotation angle", mapping.angle)
        _require_finite("rotation center", *mapping.center.data)
        if isinstance(desc, Euclidean):
            return _euclidean_rotation(mapping.center, mapping.angle)
        return _hyperbolic_rotation(space.model, mapping.center, mapping.angle)
    if isinstance(mapping, ProjectionOnto):
        return compile_set(space, mapping.target)
    if isinstance(mapping, GeodesicAverage):
        if not (0.0 <= mapping.weight <= 1.0):
            raise ValueError("average weight must lie in [0, 1]")
        inner = _compile_mapping(space, mapping.inner)
        w = mapping.weight

        def apply_avg(p: Point) -> Point:
            return space.geodesic_point(p, inner(p), w)

        return apply_avg
    if isinstance(mapping, Composition):
        fns = [_compile_mapping(space, part) for part in mapping.parts]

        def apply_comp(p: Point) -> Point:
            for f in fns:
                p = f(p)
            return p

        return apply_comp
    if isinstance(mapping, Translation):
        vec = mapping.vector
        if not isinstance(desc, Euclidean):
            raise ValueError("translations are Euclidean only")
        if len(vec) != desc.dim:
            raise ValueError(f"translation vector has {len(vec)} coordinates, expected {desc.dim}")
        _require_finite("translation vector", *vec)

        def apply_shift(p: Point) -> Point:
            return Point(p.space, tuple([c + v for c, v in zip(p.data, vec)]))

        return apply_shift
    raise ValueError(f"unknown mapping {mapping!r}")


# nested levels compile through this name: a wrapper of the public one sees each mapping once
_compile_mapping = compile_mapping


FixedSet = ConvexSetDescriptor | list


def known_fixed_set(mapping: MappingDescriptor) -> Optional[FixedSet]:
    """The mapping's fixed-point set when derivable from its construction.

    Returns a convex-set descriptor, an explicit point list (possibly empty
    for fixed-point-free maps), or None when unknown.
    """
    if isinstance(mapping, Identity):
        return convex.WholeSpace()
    if isinstance(mapping, Rotation):
        if mapping.angle % (2.0 * math.pi) == 0.0:
            return convex.WholeSpace()
        return [mapping.center]
    if isinstance(mapping, ProjectionOnto):
        return mapping.target
    if isinstance(mapping, GeodesicAverage):
        if mapping.weight == 1.0:
            return convex.WholeSpace()
        return known_fixed_set(mapping.inner)
    if isinstance(mapping, Composition):
        inner = [known_fixed_set(p) for p in mapping.parts]
        if all(isinstance(s, convex.WholeSpace) for s in inner):
            return convex.WholeSpace()
        non_trivial = [s for s in inner if not isinstance(s, convex.WholeSpace)]
        if len(non_trivial) == 1 and non_trivial[0] is not None:
            return non_trivial[0]
        return None
    if isinstance(mapping, Translation):
        if all(v == 0.0 for v in mapping.vector):
            return convex.WholeSpace()
        return []
    return None
