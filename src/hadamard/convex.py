"""Convex sets and the metric projection.

Each supported convex set knows how to test membership and how to compute the
nearest-point (metric) projection.  A projection can additionally be
*certified*: the projection of x onto C is the unique u in C with
``<xu, uy> >= 0`` for every y in C, so the minimum of that pairing over a
probe sample of C is a checkable certificate.  For true projections the
minimum is nonnegative up to rounding; for points sufficiently far from the
projection some probe goes strictly negative.

Any finite probe family only approximates the "for every y" quantifier; probe
density trades run time against the smallest detectable displacement, and the
defaults here are tuned for displacements of order 1e-2 on unit-scale sets.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

from .geometry import pairing_against
from .sampling import ball_sampler, stream
from .spaces import Euclidean, Hyperbolic, Point, Space, WeightedTree, make_space, minkowski

TERNARY_MAX_ITER = 200
DEFAULT_LAMBDA_TOL = 1e-12
MEMBERSHIP_TOL = 1e-9


@dataclass(frozen=True)
class WholeSpace:
    pass


@dataclass(frozen=True)
class Ball:
    center: Point
    radius: float


@dataclass(frozen=True)
class Segment:
    a: Point
    b: Point


@dataclass(frozen=True)
class Subtree:
    vertices: frozenset[int]


@dataclass(frozen=True)
class HalfSpace:
    """Euclidean half-space {p : normal . p >= offset}."""

    normal: tuple[float, ...]
    offset: float


ConvexSetDescriptor = Union[WholeSpace, Ball, Segment, Subtree, HalfSpace]


@dataclass(frozen=True)
class ProjectionResult:
    u: Point
    certificate_residual: Optional[float]
    iterations_used: int


class IncompatibleSetError(ValueError):
    pass


# a compiled metric projection, x -> (u, iterations); see compile_set
Projection = Callable[[Point], tuple[Point, int]]


def _validate_set(space: Space, cset: ConvexSetDescriptor) -> None:
    desc = space.descriptor
    if isinstance(cset, Ball):
        if cset.radius <= 0.0:
            raise IncompatibleSetError("ball radius must be positive")
    elif isinstance(cset, Subtree):
        if not isinstance(desc, WeightedTree):
            raise IncompatibleSetError("subtree sets require a tree space")
        if not cset.vertices:
            raise IncompatibleSetError("subtree vertex set is empty")
        if not all(0 <= v < desc.topology.vertex_count for v in cset.vertices):
            raise IncompatibleSetError("subtree vertex out of range")
        # each component of the induced forest has exactly one vertex whose
        # parent lies outside the set
        parent = make_space(desc).parent
        if sum(parent[v] not in cset.vertices for v in cset.vertices) != 1:
            raise IncompatibleSetError("subtree vertex set is not connected")
    elif isinstance(cset, HalfSpace):
        if not isinstance(desc, Euclidean):
            raise IncompatibleSetError("half-space sets require Euclidean space")
        # the projection divides by |normal|^2: it must not underflow to a
        # subnormal or 0, nor overflow
        if not sys.float_info.min <= sum(c * c for c in cset.normal) < math.inf:
            raise IncompatibleSetError(
                "half-space normal is zero or its squared norm is out of floating-point range"
            )
        if len(cset.normal) != desc.dim:
            raise IncompatibleSetError("half-space normal has the wrong dimension")


def _subtree_contains_point(space: Space, cset: Subtree, p: Point, tol: float) -> bool:
    eid, off = p.data
    u, v, length = space.descriptor.topology.edges[eid]
    if u in cset.vertices and v in cset.vertices:
        return True
    if u in cset.vertices and off <= tol:
        return True
    if v in cset.vertices and off >= length - tol:
        return True
    return False


def contains(space: Space, cset: ConvexSetDescriptor, p: Point, tol: float = 0.0) -> bool:
    """Membership within additive tolerance on the defining inequality."""
    _validate_set(space, cset)
    if isinstance(cset, WholeSpace):
        return True
    if isinstance(cset, Ball):
        return space.distance(cset.center, p) <= cset.radius + tol
    if isinstance(cset, Segment):
        dab = space.distance(cset.a, cset.b)
        return space.distance(cset.a, p) + space.distance(p, cset.b) <= dab + tol
    if isinstance(cset, Subtree):
        return _subtree_contains_point(space, cset, p, tol)
    if isinstance(cset, HalfSpace):
        dot = sum(n * c for n, c in zip(cset.normal, p.data))
        return dot >= cset.offset - tol
    raise IncompatibleSetError(f"unknown set {cset!r}")


def project_segment(space: Space, a: Point, b: Point, x: Point) -> tuple[float, Point, int]:
    """Minimize d(x, .)^2 over the geodesic segment [a, b].

    Euclidean, hyperboloid and tree spaces get exact closed forms (clamped
    affine projection, clamped atanh of the Minkowski components, clamped
    Gromov product).  Ternary search serves products only: there the squared
    distance is convex along geodesics, so derivative-free search applies.
    Returns (lam, point, iterations) where lam weights endpoint ``a``; for
    the ternary path the bracket width at exit is below
    ``DEFAULT_LAMBDA_TOL`` (or the 200-iteration cap was hit).
    """
    return _segment_projector(space, a, b)(x)


def _segment_projector(space: Space, a: Point, b: Point) -> Callable[[Point], tuple[float, Point, int]]:
    """``x -> project_segment(space, a, b, x)``, with every constant of the
    segment computed here, once.  Closed forms for Euclidean, hyperboloid and
    tree spaces; ternary search for products only."""
    if isinstance(space.descriptor, Euclidean):
        w = tuple(ai - bi for ai, bi in zip(a.data, b.data))
        ww = sum(wi * wi for wi in w)
        if ww == 0.0:
            return lambda x: (1.0, a, 0)
        bd = b.data

        def affine(x: Point) -> tuple[float, Point, int]:
            lam = sum((xi - bi) * wi for xi, bi, wi in zip(x.data, bd, w)) / ww
            lam = min(1.0, max(0.0, lam))
            return lam, space.geodesic_point(a, b, lam), 0

        return affine

    if isinstance(space.descriptor, Hyperbolic):
        d = space.distance(a, b)
        if d == 0.0:
            return lambda x: (1.0, a, 0)
        sd = math.sinh(d)
        cd = math.cosh(d)
        # unit tangent at b toward a; gamma(t) = cosh(t) b + sinh(t) v
        v = tuple((ai - cd * bi) / sd for ai, bi in zip(a.data, b.data))
        bd = b.data

        def hyperbolic(x: Point) -> tuple[float, Point, int]:
            A = -minkowski(x.data, bd)
            B = -minkowski(x.data, v)
            if abs(B) >= A:  # only at rounding extremes; fall back to the endpoints
                t = 0.0 if B > 0.0 else d
            else:
                t = min(d, max(0.0, math.atanh(-B / A)))
            lam = t / d
            return lam, space._geodesic(a, b, lam, d), 0

        return hyperbolic

    if isinstance(space.descriptor, WeightedTree):
        dab = space.distance(a, b)
        if dab == 0.0:
            return lambda x: (1.0, a, 0)

        def gromov(x: Point) -> tuple[float, Point, int]:
            # in an R-tree the foot of x on [a, b] lies (x|b)_a from a
            t = 0.5 * (space.distance(a, x) + dab - space.distance(b, x))
            lam = 1.0 - min(dab, max(0.0, t)) / dab
            return lam, space.geodesic_point(a, b, lam), 0

        return gromov

    def ternary(x: Point) -> tuple[float, Point, int]:
        def g(lam: float) -> float:
            d = space.distance(x, space.geodesic_point(a, b, lam))
            return d * d

        lo, hi = 0.0, 1.0
        it = 0
        while hi - lo > DEFAULT_LAMBDA_TOL and it < TERNARY_MAX_ITER:
            m1 = lo + (hi - lo) / 3.0
            m2 = hi - (hi - lo) / 3.0
            if g(m1) <= g(m2):
                hi = m2
            else:
                lo = m1
            it += 1
        lam = 0.5 * (lo + hi)
        return lam, space.geodesic_point(a, b, lam), it

    return ternary


def compile_set(space: Space, cset: ConvexSetDescriptor) -> Projection:
    """The metric projection onto ``cset`` as a closure ``x -> (u, iterations)``.

    The set is validated against the space once, here, and its constants
    (segment length and direction, ball center and radius, half-space normal
    over its squared norm) are computed once; the closure checks nothing, so
    it is what the solver loops call.  ``iterations`` counts ternary-search
    steps and is 0 for every closed form.  The closure looks up
    ``space.distance`` and ``space.geodesic_point`` on each call, so a
    wrapped handle sees every primitive call.
    """
    _validate_set(space, cset)
    if isinstance(cset, WholeSpace):
        return lambda x: (x, 0)
    if isinstance(cset, Ball):
        center, radius = cset.center, cset.radius

        def project_ball(x: Point) -> tuple[Point, int]:
            d = space.distance(center, x)
            if d <= radius:
                return x, 0
            return space._geodesic(center, x, 1.0 - radius / d, d), 0

        return project_ball
    if isinstance(cset, Segment):
        a, b = cset.a, cset.b
        # the membership test of ``contains`` at MEMBERSHIP_TOL
        bound = space.distance(a, b) + MEMBERSHIP_TOL
        nearest = _segment_projector(space, a, b)

        def project_seg(x: Point) -> tuple[Point, int]:
            if space.distance(a, x) + space.distance(x, b) <= bound:
                return x, 0
            _, u, it = nearest(x)
            return u, it

        return project_seg
    if isinstance(cset, Subtree):
        model = make_space(space.descriptor)
        verts, parent, depth = cset.vertices, model.parent, model.depth
        # the set's top vertex: the one whose parent lies outside the set
        top = next(v for v in verts if parent[v] not in verts)

        def project_subtree(x: Point) -> tuple[Point, int]:
            if _subtree_contains_point(model, cset, x, 0.0):
                return model.canonical(x), 0
            # from outside, the geodesic to any subtree point enters through
            # one gate vertex: the first set vertex above x when x hangs
            # below the top vertex, else the top vertex itself
            v = model.child[x.data[0]]
            while v not in verts and depth[v] > depth[top]:
                v = parent[v]
            return model.vertex_point(v if v in verts else top), 0

        return project_subtree
    if isinstance(cset, HalfSpace):
        normal, offset, desc = cset.normal, cset.offset, space.descriptor
        # normal / |normal|^2: finite for every validated normal, so a far
        # offset cannot overflow an intermediate step
        nn = sum(n * n for n in normal)
        w = tuple(n / nn for n in normal)

        def project_halfspace(x: Point) -> tuple[Point, int]:
            dot = sum(n * c for n, c in zip(normal, x.data))
            if dot >= offset:
                return x, 0
            t = offset - dot
            return Point(desc, tuple(c + t * wi for c, wi in zip(x.data, w))), 0

        return project_halfspace
    raise IncompatibleSetError(f"unknown set {cset!r}")


def project_point(space: Space, cset: ConvexSetDescriptor, x: Point) -> tuple[Point, int]:
    """Nearest point of the set, without certification. Returns (u, iterations).

    Compiles the set on every call; a loop that projects many points onto
    one set should call :func:`compile_set` once and reuse its closure.
    """
    return compile_set(space, cset)(x)


# ---------------------------------------------------------------------------
# certificate probes


def _set_scale(space: Space, cset: ConvexSetDescriptor) -> float:
    if isinstance(cset, Ball):
        return max(cset.radius, 1.0)
    if isinstance(cset, Segment):
        return max(space.distance(cset.a, cset.b), 1.0)
    return 1.0


def probe_points(
    space: Space,
    cset: ConvexSetDescriptor,
    u: Point,
    count: int,
    seed: int = 0,
) -> list[Point]:
    """Probe sample of the set for certification.

    Mixes a deterministic parametrization grid (segment lambdas, ball boundary
    plus interior shells, subtree edge grids), seeded random members, and
    geodesic blends toward ``u`` so the sample is adversarially dense near the
    candidate projection.
    """
    if count <= 0:
        raise ValueError("probe count must be positive")
    _validate_set(space, cset)
    rng = stream(seed, 0xC0)
    pts: list[Point] = []

    if isinstance(cset, Segment):
        grid = max(2, count // 2)
        for i in range(grid):
            pts.append(space.geodesic_point(cset.a, cset.b, i / (grid - 1)))
        while len(pts) < count:
            pts.append(space.geodesic_point(cset.a, cset.b, float(rng.random())))
    elif isinstance(cset, Ball):
        # the first half on the boundary, the rest on interior shells
        shells = (0.25, 0.5, 0.75, 0.9)
        draw = ball_sampler(space, cset.center, cset.radius)
        while len(pts) < count:
            w = draw(rng)
            d = space.distance(cset.center, w)
            if len(pts) < count // 2:
                r = cset.radius
            else:
                r = cset.radius * shells[len(pts) % len(shells)]
            if d > 0.0:
                pts.append(space._geodesic(cset.center, w, max(0.0, 1.0 - r / d), d))
            else:
                pts.append(w)
    elif isinstance(cset, Subtree):
        model = make_space(space.descriptor)
        verts = sorted(cset.vertices)
        edges = [
            eid
            for eid, (a, b, _) in enumerate(model.topology.edges)
            if a in cset.vertices and b in cset.vertices
        ]
        for v in verts:
            pts.append(model.vertex_point(v))
        grid = max(1, (count - len(pts)) // max(1, len(edges)) if edges else 0)
        for eid in edges:
            length = model.topology.edges[eid][2]
            for i in range(1, grid + 1):
                pts.append(
                    model.canonical(
                        Point(model.descriptor, (eid, length * i / (grid + 1)))
                    )
                )
        while len(pts) < count and edges:
            eid = int(rng.integers(len(edges)))
            length = model.topology.edges[edges[eid]][2]
            pts.append(
                model.canonical(
                    Point(model.descriptor, (edges[eid], length * float(rng.random())))
                )
            )
        pts = pts[:count]
    elif isinstance(cset, HalfSpace):
        scale = 1.0 + abs(cset.offset) + math.sqrt(sum(c * c for c in u.data))
        project_halfspace = compile_set(space, cset)
        while len(pts) < count:
            w = Point(
                space.descriptor,
                tuple(
                    c + scale * g
                    for c, g in zip(u.data, rng.standard_normal(space.descriptor.dim).tolist())
                ),
            )
            pts.append(project_halfspace(w)[0])
    else:  # WholeSpace
        draw = ball_sampler(space, u, 2.0)
        while len(pts) < count:
            pts.append(draw(rng))

    # adversarial refinement: blend a slice of the probes toward u
    n_near = max(1, count // 8)
    blend = (0.9, 0.99, 0.999)
    for i in range(min(n_near, len(pts))):
        w = pts[-1 - i]
        lam = blend[i % len(blend)]
        pts.append(space.geodesic_point(u, w, lam))
    return pts[: count + n_near]


def characterization_residual(
    space: Space,
    cset: ConvexSetDescriptor,
    x: Point,
    u: Point,
    probes: Union[int, Sequence[Point]] = 1000,
    seed: int = 0,
) -> float:
    """min over probes y of <xu, uy>.

    Nonnegative (up to rounding) exactly when u is the metric projection of x
    onto the set; strictly negative for some probe when u is displaced far
    enough from the projection relative to probe density.
    """
    scale = 1.0 + space.distance(x, u) ** 2
    if not contains(space, cset, u, 1e-6 * _set_scale(space, cset) * scale):
        raise ValueError("candidate u is not a member of the set")
    if isinstance(probes, int):
        pts = probe_points(space, cset, u, probes, seed)
    else:
        pts = list(probes)
        if not pts:
            raise ValueError("need at least one probe point")
    pairing = pairing_against(space, x, u, u)
    return min(pairing(y, space.distance(x, y)) for y in pts)


def project(
    space: Space,
    cset: ConvexSetDescriptor,
    x: Point,
    probes: int = 256,
    seed: int = 0,
) -> ProjectionResult:
    """Metric projection with a certificate.

    Pass ``probes=0`` to skip certification (the solvers do, for speed).
    """
    u, it = project_point(space, cset, x)
    cert = None
    if probes:
        cert = characterization_residual(space, cset, x, u, probes, seed)
    return ProjectionResult(u=u, certificate_residual=cert, iterations_used=it)
