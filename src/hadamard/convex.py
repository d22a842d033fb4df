"""Convex sets and the metric projection.

Each kind of convex set is written once, as a kind function in ``_KINDS``
that validates a set against the space and compiles it into one record: its
metric projection, its membership test, its scale and, where it has them,
its own probe draw and its extreme points.  Every public operation here
reads that record.  A projection can additionally be *certified*: the
projection of x onto C is the unique u in C with ``<xu, uy> >= 0`` for
every y in C, so the minimum of that pairing over C is a checkable
certificate.  For true projections the minimum is nonnegative up to
rounding; for any other member it is negative.

In E^n the pairing is linear in y, and along each edge of a tree it is
linear between the feet of x and of u, because the quadratic terms of the
two squared distances cancel.  So on an E^n or tree handle that is its own
model (``space.model is space``), a ball, a segment and a subtree take the
exact minimum over a few extreme points of the set.  For a member u, the
pairing is convex along each geodesic from u in a CAT(0) space: there an
H^n or product segment takes it by Brent's method, and an E^n half-space
(whose minimum is 0 or -inf) over its part near u, in closed form.  An H^n
ball of radius up to ``MAX_HYPERBOLIC_RADIUS`` takes a search minimum on
the one circle of its sphere that holds the minimum.  Product
balls, larger H^n balls, the whole space and every wrapper handle take it
over a probe sample instead, which only approximates the "for every y"
quantifier: probe density trades run time against the smallest detectable
displacement, and the defaults here are tuned for displacements of order
1e-2 on unit-scale sets.  A segment draws along its weights, and every
other set projects draws near u onto itself.
"""

from __future__ import annotations

import math
import operator
import sys
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple, Optional

from .geometry import pairing_against
from .sampling import ball_sampler, stream
from .spaces import MAX_HYPERBOLIC_RADIUS, Euclidean, Hyperbolic, Point, Space, WeightedTree, _FrozenRecord

GOLDEN_STEPS, GOLDEN = 63, (math.sqrt(5.0) - 1.0) / 2.0  # a bracket of 0.618^63 < 1e-13 < 0.618^62
BRENT_TOL = math.sqrt(sys.float_info.epsilon)  # a certificate search's stop in the weight, over 1 + lam
MEMBERSHIP_TOL = 1e-9


@dataclass(init=False, eq=False, repr=False)
class WholeSpace(_FrozenRecord):
    """The whole space, as a convex set."""


@dataclass(init=False, eq=False, repr=False)
class Ball(_FrozenRecord):
    """The closed ball of ``radius`` about ``center``."""

    center: Point
    radius: float


@dataclass(init=False, eq=False, repr=False)
class Segment(_FrozenRecord):
    """The geodesic segment from ``a`` to ``b``."""

    a: Point
    b: Point


@dataclass(init=False, eq=False, repr=False)
class Subtree(_FrozenRecord):
    """The subtree of a metric tree spanned by a connected vertex set."""

    vertices: frozenset[int]


@dataclass(init=False, eq=False, repr=False)
class HalfSpace(_FrozenRecord):
    """Euclidean half-space {p : normal . p >= offset}."""

    normal: tuple[float, ...]
    offset: float


ConvexSetDescriptor = WholeSpace | Ball | Segment | Subtree | HalfSpace


@dataclass(init=False, eq=False, repr=False)
class ProjectionResult(_FrozenRecord):
    """The projection ``u`` of a point, its certificate residual (None when
    not certified) and the iterations its solve used."""

    u: Point
    certificate_residual: Optional[float]
    iterations_used: int


class IncompatibleSetError(ValueError):
    pass


# a compiled metric projection, x -> u; see compile_set
Projection = Callable[[Point], Point]


def project_segment(space: Space, a: Point, b: Point, x: Point) -> tuple[float, Point, int]:
    """Minimize d(x, .) over the geodesic segment [a, b].

    Euclidean, hyperboloid and tree spaces get exact closed forms (clamped
    affine projection, clamped atanh of the Minkowski components, clamped
    Gromov product).  Golden-section search serves products only: there the
    distance, finite where its square overflows, is convex along geodesics,
    so derivative-free search applies.  Returns (lam, point, iterations)
    where lam weights endpoint ``a``; iterations is 0 for a closed form and
    ``GOLDEN_STEPS`` for the search, whose bracket is then below 1e-13.
    """
    space._check(x)
    foot, steps = _segment_projector(space, a, b)
    return (*foot(x), steps)


def _segment_projector(space: Space, a: Point, b: Point) -> tuple[Callable[[Point], tuple[float, Point]], int]:
    """``(x -> (lam, point), iterations)`` of :func:`project_segment`, with
    every constant of the segment computed here, once: a closed form, or on
    a product the golden-section search of d(x, .) along the segment."""
    if isinstance(space.descriptor, Euclidean):
        w = tuple(ai - bi for ai, bi in zip(a.data, b.data))
        ww = sum(wi * wi for wi in w)
        if ww == 0.0:
            return (lambda x: (1.0, a)), 0
        bd = b.data

        def affine(x: Point) -> tuple[float, Point]:
            lam = sum(map(operator.mul, map(operator.sub, x.data, bd), w)) / ww
            lam = min(1.0, max(0.0, lam))
            return lam, space.geodesic_point(a, b, lam)

        return affine, 0

    if isinstance(space.descriptor, Hyperbolic):
        d = space.distance(a, b)
        if d == 0.0:
            return (lambda x: (1.0, a)), 0
        sd = math.sinh(d)
        cd = math.cosh(d)
        # unit tangent at b toward a; gamma(t) = cosh(t) b + sinh(t) v
        v = tuple((ai - cd * bi) / sd for ai, bi in zip(a.data, b.data))
        bd = b.data
        minkowski = space.model.minkowski
        at = space.geodesic(a, b)

        def hyperbolic(x: Point) -> tuple[float, Point]:
            A = -minkowski(x.data, bd)
            B = -minkowski(x.data, v)
            if abs(B) >= A:  # only at rounding extremes; fall back to the endpoints
                t = 0.0 if B > 0.0 else d
            else:
                t = min(d, max(0.0, math.atanh(-B / A)))
            lam = t / d
            return lam, at(lam)

        return hyperbolic, 0

    if isinstance(space.descriptor, WeightedTree):
        dab = space.distance(a, b)
        if dab == 0.0:
            return (lambda x: (1.0, a)), 0

        def gromov(x: Point) -> tuple[float, Point]:
            # in an R-tree the foot of x on [a, b] lies (x|b)_a from a
            t = 0.5 * (space.distance(a, x) + dab - space.distance(b, x))
            lam = 1.0 - min(dab, max(0.0, t)) / dab
            return lam, space.geodesic_point(a, b, lam)

        return gromov, 0

    at, distance = space.geodesic(a, b), space.distance

    def golden(x: Point) -> tuple[float, Point]:
        return _golden(at, partial(distance, x))

    return golden, GOLDEN_STEPS


def _golden(at: Callable[[float], Point], f: Callable[[Point], float]) -> tuple[float, Point]:
    """``(lam, at(lam))`` of least f among the points that a golden-section
    search for the minimum of a unimodal ``f(at(lam))`` on [0, 1] evaluates:
    1 - GOLDEN, GOLDEN, then one per step, to a bracket below 1e-13.  It
    serves the product segment projection, which returns a location and
    reports a fixed count of ``GOLDEN_STEPS``; certificates take
    :func:`_brent`."""

    def g(lam: float) -> tuple[float, Point, float]:
        y = at(lam)
        return f(y), y, lam

    lo, hi, p, q = 0.0, 1.0, g(1.0 - GOLDEN), g(GOLDEN)
    for _ in range(GOLDEN_STEPS):
        if p[0] <= q[0]:
            hi, q = q[2], p
            p = g(hi - GOLDEN * (hi - lo))
        else:
            lo, p = p[2], q
            q = g(lo + GOLDEN * (hi - lo))
    _, y, lam = p if p[0] <= q[0] else q
    return lam, y


def _brent(
    at: Callable[[float], Point], f: Callable[[Point], float], start: Optional[tuple[float, float, Point]] = None
) -> tuple[float, Point]:
    """``(lam, at(lam))`` of least f among the points that Brent's method
    (Brent 1973, ch. 5: a parabola through the three best points, or a
    golden-section step where the parabola's vertex does not shrink the
    bracket fast enough) evaluates in search of the minimum of
    ``f(at(lam))`` on [0, 1].  It starts at lam = 1 - GOLDEN, or from
    ``start = (lam, f, point)`` already measured, and stops once its best
    point lies within 2 tol of both bracket ends, tol = ``BRENT_TOL`` (1 +
    lam), or after ``GOLDEN_STEPS`` new points.  It serves the certificates,
    which need the least value alone: at an interior minimum of a unimodal f
    the value's error is quadratic in the weight's, at most (2 tol)^2 / 2
    times the largest f'' within 2 tol of the minimum."""

    def g(t: float) -> tuple[float, Point]:
        y = at(t)
        return f(y), y

    x, fx, y = start or (1.0 - GOLDEN, *g(1.0 - GOLDEN))
    a, b, w, fw, v, fv, d, e = 0.0, 1.0, x, fx, x, fx, 0.0, 0.0
    for _ in range(GOLDEN_STEPS):
        m, tol = 0.5 * (a + b), BRENT_TOL * (1.0 + x)
        if abs(x - m) <= 2.0 * tol - 0.5 * (b - a):
            break
        p = q = r = 0.0
        if abs(e) > tol:  # the parabola through x, w and v
            r, q = (x - w) * (fx - fv), (x - v) * (fx - fw)
            p, q = (x - v) * q - (x - w) * r, 2.0 * (q - r)
            p, q, r, e = (-p if q > 0.0 else p), abs(q), e, d
        if abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x):
            d = p / q
            if x + d - a < 2.0 * tol or b - x - d < 2.0 * tol:
                d = tol if x <= m else -tol
        else:
            e = (b if x < m else a) - x
            d = (1.0 - GOLDEN) * e
        t = x + (d if abs(d) >= tol else math.copysign(tol, d))
        ft, yt = g(t)
        if ft <= fx:
            a, b = (x, b) if t >= x else (a, x)
            v, fv, w, fw, x, fx, y = w, fw, x, fx, t, ft, yt
        else:
            a, b = (t, b) if t < x else (a, t)
            if ft <= fw or w == x:
                v, fv, w, fw = w, fw, t, ft
            elif ft <= fv or v == x or v == w:
                v, fv = t, ft
    return x, y


# ---------------------------------------------------------------------------
# set kinds: each validates its set, then turns it into the record every
# operation reads


class _Kind(NamedTuple):
    """A set compiled against a space, its constants computed once: the
    projection ``x -> u``, membership ``(p, tol)`` within additive tolerance
    on the defining inequality, the set's size in a certificate's membership
    tolerance and in the local probe draw, the iterations every projection
    takes (0 for a closed form, ``GOLDEN_STEPS`` for a product segment's
    golden-section search, which must return a location), a segment's own
    probe draw ``(u, count, rng)`` before the blend toward u, and
    ``(x, u) ->`` points of the set at which
    ``y -> <xu, uy>`` reaches its infimum over the set, for any x and u,
    where the set's family has them and the handle is its own model;
    ``minimizers``, such points for a member u only (for a half-space, over
    its part near u; for a segment and on one circle of an H^n ball's sphere,
    by Brent's method, which needs only the least value)."""

    project: Projection
    contains: Callable[[Point, float], bool]
    scale: float
    steps: int = 0
    probes: Optional[Callable[[Point, int, object], list[Point]]] = None
    extremes: Optional[Callable[[Point, Point], list[Point]]] = None
    minimizers: Optional[Callable[[Point, Point], list[Point]]] = None


def _whole(space: Space, cset: WholeSpace) -> _Kind:
    return _Kind(lambda x: x, lambda p, tol: True, 1.0)


def _ball(space: Space, cset: Ball) -> _Kind:
    center, radius = cset.center, cset.radius
    space._check(center)
    if not 0.0 < radius < math.inf:
        raise IncompatibleSetError("ball radius must be positive and finite")

    def project(x: Point) -> Point:
        d = space.distance(center, x)
        return x if d <= radius else space._geodesic(center, x, max(0.0, 1.0 - radius / d), d)

    def contains(p: Point, tol: float) -> bool:
        return space.distance(center, p) <= radius + tol

    desc, model = space.descriptor, space.model
    extremes = minimizers = None
    if isinstance(desc, Euclidean):
        cd = center.data

        def extremes(x: Point, u: Point) -> list[Point]:
            # <xu, uy> = <u - x, y - u> is least at c + r (x - u) / |x - u|
            d = math.dist(x.data, u.data)
            if d == 0.0:
                return [center]
            return [Point(desc, tuple([c + radius * (xi - ui) / d for c, xi, ui in zip(cd, x.data, u.data)]))]

    elif isinstance(desc, WeightedTree):
        edges, adj, (ec, tc) = desc.topology.edges, model.adj, center.data

        def extremes(x: Point, u: Point) -> list[Point]:
            # walk out from the center: each vertex within the radius, the
            # point at the radius on each edge that leaves the ball, and x
            # and u, the only breaks of the pairing inside an edge
            pts, todo = [p for p in (x, u) if contains(p, 0.0)], []
            a, b, length = edges[ec]
            for v, rest, cut in ((a, radius - tc, tc - radius), (b, radius - (length - tc), tc + radius)):
                if rest >= 0.0:
                    todo.append((v, ec, rest))
                else:
                    pts.append(Point(desc, (ec, cut)))
            for v, came, rest in todo:
                pts.append(model.vertex_point(v))
                for w, eid in adj[v]:
                    if eid != came:
                        length = edges[eid][2]
                        if length <= rest:
                            todo.append((w, eid, rest - length))
                        else:
                            off = rest if edges[eid][0] == v else length - rest
                            pts.append(model.canonical(Point(desc, (eid, off))))
            return pts

    elif isinstance(desc, Hyperbolic) and radius <= MAX_HYPERBOLIC_RADIUS:
        # For x != u the pairing f(y) = (d(x, y)^2 - d(u, y)^2 - d(x, u)^2) / 2
        # has gradient log_y u - log_y x, zero only where x = u, so its
        # minimum over the ball lies on the sphere S(c, r).  There, by the
        # law of cosines, f depends on y only through the cosines of its
        # angles at c with x and with u, and f's derivative in the first
        # never vanishes for x != c; so at a critical point on the sphere
        # (Lagrange) y lies in the plane of log_c x and log_c u, or, when
        # they are collinear, in any plane through them.  The minimum thus
        # lies on one circle of radius r about c (Bridson and Haefliger,
        # II.1-II.4).  That f has a single local minimum on that circle is
        # checked, not proved: the value is a search minimum, a grid of 12
        # angles and then Brent's method two grid steps wide, from the best.
        # Directions at c are taken in HyperbolicSpace.exponential's frame,
        # whose coordinates of p, of norm sinh d(c, p), are those of w = p - c
        # less k (w_0 + <w, w>_M / 2) c_i, which does not cancel near c.
        cs, k, minkowski = center.data[1:], 1.0 / (1.0 + center.data[0]), model.minkowski
        sh, step = math.sinh(radius), math.pi / 6.0
        ccs = [math.cosh(radius) * ci for ci in cs]  # the spatial coordinates of cosh r c

        def tangent(p: Point) -> list[float]:
            w = list(map(operator.sub, p.data, center.data))
            h = k * (w[0] + 0.5 * minkowski(w, w))
            return [wi - h * ci for wi, ci in zip(w[1:], cs)]

        def unit(v: list[float]) -> list[float]:
            n = math.hypot(*v) or 1.0
            return [vi / n for vi in v]

        def spatial(g: list[float]) -> list[float]:
            # the spatial coordinates of sinh r times the unit tangent g at c
            s = k * sum(map(operator.mul, cs, g))
            return [sh * (gi + s * ci) for gi, ci in zip(g, cs)]

        def minimizers(x: Point, u: Point) -> list[Point]:
            if space.distance(x, u) == 0.0:
                return [u]
            tx, tu = tangent(x), tangent(u)
            e1 = unit(tx if any(tx) else tu)
            # tu less its part along e1, taken off twice to keep e2 orthogonal
            # to e1 whatever rounding leaves of it; when that part is all of
            # tu to rounding, c, x and u are collinear and an axis serves
            e2 = tu
            for _ in range(2):
                t = sum(map(operator.mul, e2, e1))
                e2 = [a - t * b for a, b in zip(e2, e1)]
            if math.hypot(*e2) <= 1e-12 * math.hypot(*tu):
                j = min(range(len(e1)), key=lambda i: abs(e1[i]))
                e2 = [float(i == j) - e1[j] * b for i, b in enumerate(e1)]
            p, q = spatial(e1), spatial(unit(e2))

            def at(phi: float) -> Point:
                cp, sp = math.cos(phi), math.sin(phi)
                return space._lift([a + cp * b + sp * d for a, b, d in zip(ccs, p, q)])

            pairing = pairing_against(space, x, u, u)
            grid = [at(i * step) for i in range(12)]
            values = list(map(pairing, space.distances(x, grid), space.distances(u, grid)))
            best = min(range(12), key=values.__getitem__)
            distance, lo = space.distance, (best - 1) * step
            least = _brent(lambda lam: at(lo + 2.0 * step * lam), lambda y: pairing(distance(x, y), distance(u, y)),
                           (0.5, values[best], grid[best]))[1]
            return [u, least]

    return _Kind(project, contains, max(radius, 1.0), extremes=extremes, minimizers=minimizers)


def _segment(space: Space, cset: Segment) -> _Kind:
    a, b = cset.a, cset.b
    dab = space.distance(a, b)
    foot, steps = _segment_projector(space, a, b)

    def contains(p: Point, tol: float) -> bool:
        return space.distance(a, p) + space.distance(p, b) <= dab + tol

    def probes(u: Point, count: int, rng) -> list[Point]:
        at = space.geodesic(a, b)
        grid = max(2, count // 2)
        pts = [at(i / (grid - 1)) for i in range(grid)]
        while len(pts) < count:
            pts.append(at(rng.random()))
        return pts

    def extremes(x: Point, u: Point) -> list[Point]:
        # linear in y in E^n; in a tree, linear between the feet of x and of u
        return [a, b] if euclidean else [a, b, foot(x)[1], foot(u)[1]]

    def search(x: Point, u: Point) -> list[Point]:
        # the pairing along the segment is convex and 0 at u: its least value
        # lies in Brent's last bracket, or at a or b
        pairing, distance = pairing_against(space, x, u, u), space.distance
        least = _brent(space.geodesic(a, b), lambda y: pairing(distance(x, y), distance(u, y)))[1]
        return [a, b, u, least]

    euclidean = isinstance(space.descriptor, Euclidean)
    exact = (extremes, None) if euclidean or isinstance(space.descriptor, WeightedTree) else (None, search)
    return _Kind(lambda x: foot(x)[1], contains, max(dab, 1.0), steps, probes, *exact)


def _subtree(space: Space, cset: Subtree) -> _Kind:
    desc, verts = space.descriptor, cset.vertices
    if not isinstance(desc, WeightedTree):
        raise IncompatibleSetError("subtree sets require a tree space")
    if not verts:
        raise IncompatibleSetError("subtree vertex set is empty")
    if not all(0 <= v < desc.topology.vertex_count for v in verts):
        raise IncompatibleSetError("subtree vertex out of range")
    model = space.model
    parent, depth, edges = model.parent, model.depth, model.topology.edges
    # each component of the induced forest has exactly one vertex whose
    # parent lies outside the set; the set's top vertex is that one
    tops = [v for v in verts if parent[v] not in verts]
    if len(tops) != 1:
        raise IncompatibleSetError("subtree vertex set is not connected")
    top = tops[0]

    def contains(p: Point, tol: float) -> bool:
        eid, off = p.data
        u, v, length = edges[eid]
        return (u in verts and (v in verts or off <= tol)) or (v in verts and off >= length - tol)

    def project(x: Point) -> Point:
        if contains(x, 0.0):
            return model.canonical(x)
        # from outside, the geodesic to any subtree point enters through one
        # gate vertex: the first set vertex above x when x hangs below the
        # top vertex, else the top vertex itself
        v = model.child[x.data[0]]
        while v not in verts and depth[v] > depth[top]:
            v = parent[v]
        return model.vertex_point(v if v in verts else top)

    def extremes(x: Point, u: Point) -> list[Point]:
        # the pairing is linear along each edge of the set between its
        # vertices and x and u, when they lie on one
        return [model.vertex_point(v) for v in verts] + [p for p in (x, u) if contains(p, 0.0)]

    return _Kind(project, contains, 1.0, extremes=extremes)


def _halfspace(space: Space, cset: HalfSpace) -> _Kind:
    normal, offset, desc = cset.normal, cset.offset, space.descriptor
    if not isinstance(desc, Euclidean):
        raise IncompatibleSetError("half-space sets require Euclidean space")
    if len(normal) != desc.dim:
        raise IncompatibleSetError("half-space normal has the wrong dimension")
    # the projection divides by |normal|^2: it must not underflow to a
    # subnormal or 0, nor overflow, so that normal / |normal|^2 is finite
    # and a far offset cannot overflow an intermediate step
    nn = sum(n * n for n in normal)
    if not sys.float_info.min <= nn < math.inf:
        raise IncompatibleSetError("half-space normal is zero or its squared norm is out of floating-point range")
    if not math.isfinite(offset):
        raise IncompatibleSetError("half-space offset must be finite")
    w = tuple(n / nn for n in normal)

    def contains(p: Point, tol: float) -> bool:
        return sum(map(operator.mul, normal, p.data)) >= offset - tol

    def project(x: Point) -> Point:
        t = offset - sum(map(operator.mul, normal, x.data))
        return x if t <= 0.0 else Point(desc, tuple([c + t * wi for c, wi in zip(x.data, w)]))

    def minimizers(x: Point, u: Point) -> list[Point]:
        # <xu, uy> = <g, y - u> for g = u - x.  Within R of u (at least the
        # local probes' reach of 2 once |offset| + |u| >= 1) it is least at
        # u - R g/|g| if that is in the set, else where the plane cuts the
        # sphere, along -g' for g' the part of g along the plane (taken off
        # twice to keep its direction; the projection undoes noise)
        ud, g = u.data, tuple(map(operator.sub, u.data, x.data))
        R, gn = 1.0 + abs(offset) + math.sqrt(sum(map(operator.mul, ud, ud))), math.hypot(*g) or 1.0
        y = tuple([c - R * (gi / gn) for c, gi in zip(ud, g)])
        if sum(map(operator.mul, normal, y)) < offset:
            gp, t = g, offset - sum(map(operator.mul, normal, ud))
            for _ in range(2):
                gw = sum(map(operator.mul, gp, normal))
                gp = tuple([gi - gw * wi for gi, wi in zip(gp, w)])
            rho, gpn = R * math.sqrt(max(0.0, 1.0 - (t / R) ** 2 / nn)), math.hypot(*gp) or 1.0
            y = tuple([c + t * wi - rho * (gi / gpn) for c, wi, gi in zip(ud, w, gp)])
        return [u, project(Point(desc, y))]

    return _Kind(project, contains, 1.0, minimizers=minimizers)


_KINDS: dict[type, Callable[[Space, ConvexSetDescriptor], _Kind]] = {
    WholeSpace: _whole,
    Ball: _ball,
    Segment: _segment,
    Subtree: _subtree,
    HalfSpace: _halfspace,
}


def _compile(space: Space, cset: ConvexSetDescriptor) -> _Kind:
    kind = _KINDS.get(type(cset))
    if kind is None:
        raise IncompatibleSetError(f"unknown set {cset!r}")
    compiled = kind(space, cset)
    # extreme points and minimizers hold only under the model's own metric
    return compiled if space.model is space else compiled._replace(extremes=None, minimizers=None)


def _probes(space: Space, kind: _Kind, u: Point, count: int, seed: int) -> list[Point]:
    if count <= 0:
        raise ValueError("probe count must be positive")
    rng = stream(seed, 0xC0)
    if kind.probes:
        pts = kind.probes(u, count, rng)
    else:  # the pairing is convex along geodesics from u: look near u
        draw, project = ball_sampler(space, u, 2.0 * kind.scale), kind.project
        pts = [project(draw(rng)) for _ in range(count)]
    # adversarial refinement: blend the last probes drawn toward u, one each
    n_near = max(1, count // 8)
    blend = (0.9, 0.99, 0.999)
    pts += [space.geodesic_point(u, pts[-1 - i], blend[i % len(blend)]) for i in range(n_near)]
    return pts[: count + n_near]


def _residual(
    space: Space, kind: _Kind, x: Point, u: Point, probes: int | Sequence[Point], seed: int
) -> float:
    d = space.distance(x, u)
    scale = 1.0 + d * d
    if not kind.contains(u, 1e-6 * kind.scale * scale):
        raise ValueError("candidate u is not a member of the set")
    if isinstance(probes, int):
        if probes <= 0:
            raise ValueError("probe count must be positive")
        exact = kind.extremes or kind.minimizers
        pts = exact(x, u) if exact else _probes(space, kind, u, probes, seed)
    else:
        pts = list(probes)
        if not pts:
            raise ValueError("need at least one probe point")
    pairing = pairing_against(space, x, u, u)
    return min(map(pairing, space.distances(x, pts), space.distances(u, pts)))


def contains(space: Space, cset: ConvexSetDescriptor, p: Point, tol: float = 0.0) -> bool:
    """Membership within additive tolerance on the defining inequality."""
    space._check(p)
    return _compile(space, cset).contains(p, tol)


def compile_set(space: Space, cset: ConvexSetDescriptor) -> Projection:
    """The metric projection onto ``cset`` as a closure ``x -> u``.

    The set is validated against the space once, here, and its constants
    (segment length and direction, ball center and radius, half-space normal
    over its squared norm) are computed once; the closure checks nothing, so
    it is what the solver loops and ``ProjectionOnto`` mappings call.  It
    measures through the handle passed in: its ``distance`` and
    ``geodesic_point`` on each call, and a hyperbolic segment's
    ``geodesic(a, b)`` kernel, built here.  The iterations, which depend on
    the set alone, are :func:`project_point`'s to report.
    """
    return _compile(space, cset).project


def project_point(space: Space, cset: ConvexSetDescriptor, x: Point) -> tuple[Point, int]:
    """Nearest point of the set, without certification. Returns (u, iterations).

    Compiles the set on every call; a loop that projects many points onto
    one set should call :func:`compile_set` once and reuse its closure.
    """
    space._check(x)
    kind = _compile(space, cset)
    return kind.project(x), kind.steps


def probe_points(
    space: Space,
    cset: ConvexSetDescriptor,
    u: Point,
    count: int,
    seed: int = 0,
) -> list[Point]:
    """Probe sample of the set for certification: ``count`` members, then
    ``max(1, count // 8)`` geodesic blends of the last ones toward ``u``, so
    the sample is adversarially dense near the candidate projection.

    A segment draws on a grid of weights and then uniform ones.  Every other
    set projects draws from the ball of radius 2 * scale about ``u``, where
    a ball's scale is its radius when that exceeds 1 and every other set's
    is 1.  A certificate reads these probes only for a set without extreme
    points or minimizers: of the balls, those on a product or a wrapper
    handle, and an H^n ball of radius above ``MAX_HYPERBOLIC_RADIUS``.
    """
    space._check(u)
    return _probes(space, _compile(space, cset), u, count, seed)


def characterization_residual(
    space: Space,
    cset: ConvexSetDescriptor,
    x: Point,
    u: Point,
    probes: int | Sequence[Point] = 1000,
    seed: int = 0,
) -> float:
    """min over probes y of <xu, uy>.

    Nonnegative (up to rounding) exactly when u is the metric projection of x
    onto the set; strictly negative for some probe when u is displaced far
    enough from the projection relative to probe density.
    """
    return _residual(space, _compile(space, cset), x, u, probes, seed)


def project(
    space: Space,
    cset: ConvexSetDescriptor,
    x: Point,
    probes: int = 256,
    seed: int = 0,
) -> ProjectionResult:
    """Metric projection with a certificate.

    The set is validated and compiled once, and the certificate reads the
    same record as the projection.  Pass ``probes=0`` to skip certification
    (the solvers do, for speed).
    """
    space._check(x)
    kind = _compile(space, cset)
    u = kind.project(x)
    cert = _residual(space, kind, x, u, probes, seed) if probes else None
    return ProjectionResult(u=u, certificate_residual=cert, iterations_used=kind.steps)
