"""Hadamard (complete CAT(0)) model spaces.

Four concrete model families are provided: Euclidean space, real hyperbolic
space in the hyperboloid model, metric trees with positive edge lengths, and
binary products of the above.  A space handle built by :func:`make_space`
exposes the primitives ``distance`` and ``geodesic_point``, and kernels
bound to fixed points: ``distances`` from one point, the ``geodesic``
between two and the ``sphere`` draw about one.  Every handle composes
``distances`` from its ``distance``; only H^2 writes ``geodesic`` out, and
every other handle composes it from ``geodesic_point``.  E^2, H^2 and
trees write ``sphere`` out; every other handle draws it through its
``exponential`` map.  A tree also has the ``uniform`` draw over its total
edge length.

Points are immutable values tagged with their space descriptor.  All
operations return fresh values and keep no hidden state.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from dataclasses import MISSING, FrozenInstanceError, dataclass, fields
from functools import lru_cache, partial


class _Record:
    """Base of the package's records: a subclass is declared
    ``@dataclass(init=False, eq=False, repr=False)`` and takes its
    ``__init__``, ``__eq__`` and ``__repr__`` from here, written once over
    ``dataclasses.fields``.  Below Python 3.13 ``dataclass`` writes and
    ``exec``s each generated method per class, six for a frozen one, which
    cost 12 ms of every import of the package; declared this way a record
    generates none.  It stays a dataclass: ``fields``, ``replace``,
    ``is_dataclass`` and ``__match_args__`` work on it as before.

    The methods are the generated ones' in behaviour: ``==`` compares the
    field tuples of two instances of the same class, ``repr`` reads
    ``Name(field=value, ...)``, and a record with ``==`` and no ``__hash__``
    is unhashable.  They read every field, so no record sets a field's
    ``compare``, ``hash`` or ``repr`` flag.  Fields are stored through
    ``object.__setattr__`` and never through the instance ``__dict__``,
    whose first read on CPython 3.11 slows every later attribute load on
    that instance.  The generic methods take several times as long as the
    generated ones, so ``Point``, built on every primitive call, and
    ``solvers.TraceRow``, built on every solver step, keep their generated
    methods."""

    def __init__(self, *args, **kwargs):
        params = fields(self)
        if len(args) > len(params):
            raise self._call_error(
                f"takes {len(params) + 1} positional arguments but {len(args) + 1} were given"
            )
        for f, value in zip(params, args):
            if f.name in kwargs:
                raise self._call_error(f"got multiple values for argument {f.name!r}")
            object.__setattr__(self, f.name, value)
        for f in params[len(args):]:
            if f.name in kwargs:
                value = kwargs.pop(f.name)
            elif f.default is not MISSING:
                value = f.default
            elif f.default_factory is not MISSING:
                value = f.default_factory()
            else:
                raise self._call_error(f"missing required argument {f.name!r}")
            object.__setattr__(self, f.name, value)
        if kwargs:
            raise self._call_error(f"got an unexpected keyword argument {next(iter(kwargs))!r}")

    def _call_error(self, problem: str) -> TypeError:
        return TypeError(f"{type(self).__qualname__}.__init__() {problem}")

    def _values(self) -> tuple:
        return tuple(getattr(self, f.name) for f in fields(self))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        body = ", ".join(f"{f.name}={getattr(self, f.name)!r}" for f in fields(self))
        return f"{type(self).__qualname__}({body})"


class _FrozenRecord(_Record):
    """An immutable :class:`_Record`, hashed by its field tuple."""

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class SpaceMismatchError(ValueError):
    """Raised when points from different spaces are combined."""


class InvalidSpaceError(ValueError):
    """Raised when a space descriptor violates its invariants."""


# Nesting cap for product spaces (documented implementation limit).
MAX_PRODUCT_DEPTH = 4

# Cap on the dimension, ray count or edge count of a command-line space
# spec (documented implementation limit).  Without it hyperbolic:99999999999
# ran out of memory and euclidean:100000000 ran for minutes; at the cap one
# verify trial takes under a second.
MAX_SPEC_SIZE = 100_000

# Tolerance on the hyperboloid constraint <x,x>_M = -1, relative to
# max(1, x0^2).
HYPERBOLOID_TOL = 1e-9

# Space handles kept by make_space; a tree handle holds O(n) state.
SPACE_CACHE_SIZE = 32

# cosh overflow guard: the hyperbolic exponential map caps its distance, and
# hyperbolic sampling rejects a radius, beyond this
MAX_HYPERBOLIC_RADIUS = 20.0


# ---------------------------------------------------------------------------
# descriptors


@dataclass(init=False, eq=False, repr=False)
class Euclidean(_FrozenRecord):
    """Euclidean space E^dim."""

    dim: int


@dataclass(init=False, eq=False, repr=False)
class Hyperbolic(_FrozenRecord):
    """Real hyperbolic space H^dim of curvature -1."""

    dim: int


@dataclass(init=False, eq=False, repr=False)
class TreeTopology(_FrozenRecord):
    """A finite tree: ``vertex_count`` vertices, ``vertex_count - 1`` weighted
    edges given as (u, v, length) with all lengths > 0."""

    vertex_count: int
    edges: tuple[tuple[int, int, float], ...]

    # hashed once, outside the fields: a make_space lookup that hits the
    # cache must not rehash every edge
    _hash = None

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.vertex_count, self.edges)))
        return self._hash


@dataclass(init=False, eq=False, repr=False)
class WeightedTree(_FrozenRecord):
    """The metric tree with this topology."""

    topology: TreeTopology


@dataclass(init=False, eq=False, repr=False)
class Product(_FrozenRecord):
    """The l2 product of two spaces."""

    left: "SpaceDescriptor"
    right: "SpaceDescriptor"


SpaceDescriptor = Euclidean | Hyperbolic | WeightedTree | Product


@dataclass(frozen=True, slots=True)
class Point:
    """A space-tagged element.

    ``data`` is a tuple of coordinates for Euclidean points, a tuple of
    ``dim + 1`` hyperboloid coordinates for hyperbolic points, an
    ``(edge_id, offset)`` pair for tree points (offset measured from the
    edge's first endpoint, in arc length), and a ``(Point, Point)`` pair for
    product points.
    """

    space: SpaceDescriptor
    data: tuple


# Only the generated __init__ is replaced: it assigns through
# object.__setattr__, since the class is frozen, while the slots' own
# setters store the same two fields in three quarters of the time.
# Equality, hashing, repr, immutability, pickling and dataclasses.replace
# stay the dataclass's own.
_set_space, _set_data = Point.space.__set__, Point.data.__set__


def _point_init(self, space: SpaceDescriptor, data: tuple) -> None:
    _set_space(self, space)
    _set_data(self, data)


_point_init.__name__, _point_init.__qualname__ = "__init__", "Point.__init__"
Point.__init__ = _point_init


def product_depth(desc: SpaceDescriptor) -> int:
    if isinstance(desc, Product):
        return 1 + max(product_depth(desc.left), product_depth(desc.right))
    return 0


# ---------------------------------------------------------------------------
# space handles


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


class Space:
    """Validated handle for one model space.

    A handle measures with ``distance(a, b)``, and ``geodesic_point(x, y,
    lam)`` is the point ``z`` on the geodesic from ``x`` to ``y`` with
    ``d(z, x) = (1 - lam) * d(x, y)`` (weight ``lam`` on ``x``).  Its
    ``model`` is the handle of its descriptor's own metric: itself on a
    model handle, the wrapped model on a wrapper."""

    descriptor: SpaceDescriptor

    # a property: an attribute naming the handle itself would make a
    # reference cycle, and free an evicted tree handle only at a collection
    @property
    def model(self) -> Space:
        return self

    def _geodesic(self, x: Point, y: Point, lam: float, d: float) -> Point:
        """``geodesic_point(x, y, lam)`` for a caller that already holds
        ``d = distance(x, y)`` as this handle computes it and has checked
        ``lam``.  Only the hyperbolic handle uses ``d``."""
        return self.geodesic_point(x, y, lam)

    # -- kernels bound to fixed points, each built once per center, segment
    # or source point; a handle may write one out with every floating-point
    # operation of the primitives it replaces, in their order

    def distances(self, a: Point, pts) -> list[float]:
        """``[distance(a, p) for p in pts]``."""
        distance = self.distance
        return [distance(a, p) for p in pts]

    def geodesic(self, x: Point, y: Point):
        """``lam -> geodesic_point(x, y, lam)``, for weights in [0, 1]."""
        return partial(self.geodesic_point, x, y)

    def sphere(self, c: Point):
        """``(rng, t) ->`` the point at distance t >= 0 from c in a direction
        uniform at c: ``exp(rng, g, t/|g|)`` for g of :func:`normals`, where
        ``exponential(c)`` gives ``(dim, exp)`` and ``exp(rng, g, s)`` is the
        exponential map at c of s*g, for the coordinates g of a tangent
        vector in an orthonormal frame at c.  The caller has checked c."""
        dim, exp = self.exponential(c)

        def along_normal(rng, t):
            g = normals(rng, dim)
            nrm = math.hypot(*g)
            return exp(rng, g, t / nrm) if nrm > 0.0 else c

        return along_normal

    # -- shared plumbing
    #
    # ``distance`` and ``geodesic_point`` call these only off the fast path:
    # a point tagged with this handle's own descriptor object needs no
    # check, and neither does a weight inside [0, 1].

    def _check(self, *pts: Point) -> None:
        for p in pts:
            if p.space is not self.descriptor and p.space != self.descriptor:
                raise SpaceMismatchError(
                    f"point tagged {p.space!r} used in space {self.descriptor!r}"
                )

    def _check_lambda(self, lam: float) -> None:
        if not (0.0 <= lam <= 1.0):
            raise ValueError(f"interpolation weight {lam} outside [0, 1]")


class EuclideanSpace(Space):
    def __init__(self, desc: Euclidean):
        if desc.dim < 1:
            raise InvalidSpaceError("Euclidean dimension must be >= 1")
        self.descriptor = desc
        self.dim = desc.dim

    def distance(self, a: Point, b: Point) -> float:
        if a.space is not self.descriptor or b.space is not self.descriptor:
            self._check(a, b)
        return math.dist(a.data, b.data)

    def geodesic_point(self, x: Point, y: Point, lam: float) -> Point:
        if x.space is not self.descriptor or y.space is not self.descriptor:
            self._check(x, y)
        if not 0.0 <= lam <= 1.0:
            self._check_lambda(lam)
        xd, yd = x.data, y.data
        mu = 1.0 - lam
        return Point(self.descriptor, tuple([lam * a + mu * b for a, b in zip(xd, yd)]))

    def exponential(self, c: Point):
        """``(dim, exp)``, as :meth:`Space.sphere` reads it: ``exp(rng, g, s)``
        is the point c + s*g, in the standard frame."""
        cd, desc = c.data, self.descriptor
        return self.dim, lambda rng, g, s: Point(desc, tuple([ci + s * gi for ci, gi in zip(cd, g)]))

    def point_violations(self, p: Point) -> list[str]:
        out = []
        if len(p.data) != self.dim:
            out.append(f"expected {self.dim} coordinates, got {len(p.data)}")
            return out
        if not all(math.isfinite(c) for c in p.data):
            out.append("non-finite coordinate")
        return out


class EuclideanPlane(EuclideanSpace):
    """E^2: the kernels of :class:`EuclideanSpace` written out over two
    coordinates.  Every floating-point operation is the parent's, in the
    parent's order, so every result is the same to the bit; only the
    comprehension, which runs in a frame of its own, is gone.  ``distance``
    stays ``math.dist``, and ``_geodesic`` stays the base class's call of
    ``geodesic_point``; the exponential map is written out only inside
    :meth:`sphere`.  A class for the reason given at
    :class:`HyperbolicPlane`."""

    def geodesic_point(self, x: Point, y: Point, lam: float) -> Point:
        if x.space is not self.descriptor or y.space is not self.descriptor:
            self._check(x, y)
        if not 0.0 <= lam <= 1.0:
            self._check_lambda(lam)
        x1, x2 = x.data
        y1, y2 = y.data
        mu = 1.0 - lam
        return Point(self.descriptor, (lam * x1 + mu * y1, lam * x2 + mu * y2))

    def sphere(self, c: Point):
        """:meth:`Space.sphere` at c, ``(rng, t) ->`` c + t g/|g|: the
        Box-Muller pair of :func:`normals` and the exponential map in one
        frame.  The caller has checked c."""
        c1, c2 = c.data
        desc, log, sqrt, cos, sin, hypot = self.descriptor, math.log, math.sqrt, math.cos, math.sin, math.hypot

        def at(rng, t):
            r = sqrt(-2.0 * log(1.0 - rng.random()))
            theta = 2.0 * math.pi * rng.random()
            g1, g2 = r * cos(theta), r * sin(theta)
            nrm = hypot(g1, g2)
            if not nrm > 0.0:
                return c
            s = t / nrm
            return Point(desc, (c1 + s * g1, c2 + s * g2))

        return at


def minkowski(a, b) -> float:
    """Minkowski bilinear form -a0*b0 + sum_i>=1 ai*bi."""
    s = -a[0] * b[0]
    for i in range(1, len(a)):
        s += a[i] * b[i]
    return s


class HyperbolicSpace(Space):
    """Hyperboloid model of curvature -1: the sheet <x,x>_M = -1, x0 > 0."""

    minkowski = staticmethod(minkowski)

    def __init__(self, desc: Hyperbolic):
        if desc.dim < 1:
            raise InvalidSpaceError("hyperbolic dimension must be >= 1")
        self.descriptor = desc
        self.dim = desc.dim
        self._base = None

    @property
    def base(self) -> Point:
        """The sheet base point (1, 0, ..., 0), built on first use: a handle
        holds nothing that grows with ``dim`` until a caller needs it.  Kept
        by plain assignment: ``functools.cached_property`` writes through
        ``__dict__``, which on CPython 3.11 slows every later attribute load
        on the handle (``distance`` from 531 to 596 ns)."""
        if self._base is None:
            self._base = Point(self.descriptor, (1.0,) + (0.0,) * self.dim)
        return self._base

    def distance(self, a: Point, b: Point) -> float:
        if a.space is not self.descriptor or b.space is not self.descriptor:
            self._check(a, b)
        # acosh(-<a,b>_M), evaluated near the diagonal in the form
        # 2*asinh(sqrt(<a-b, a-b>_M)/2), which does not cancel there; the
        # chord's square is clamped so the argument never leaves the domain
        # under rounding.  Past d = 2*asinh(1) the chord's squares cancel
        # more than the Minkowski product does (at d = 20 they lose 1e-8).
        ad, bd = a.data, b.data
        t = ad[0] - bd[0]
        m = -(t * t)
        for i in range(1, len(ad)):
            t = ad[i] - bd[i]
            m += t * t
        if m <= 0.0:
            return 0.0
        if m > 4.0:
            q = ad[0] * bd[0]
            for i in range(1, len(ad)):
                q -= ad[i] * bd[i]
            # q = 1 + m/2 exactly; when rounding breaks that far from the
            # base point, the chord form decides and nothing raises
            if q > 3.0:
                return math.acosh(q)
        return 2.0 * math.asinh(0.5 * math.sqrt(m))

    def _lift(self, spatial) -> Point:
        """The point of the upper sheet with these spatial coordinates: its
        time coordinate is sqrt(1 + |spatial|^2).  Unlike a rescaling by a
        Minkowski norm, whose squares cancel far from the base point, the
        lift is exact to rounding at any distance and never leaves the sheet."""
        return Point(self.descriptor, (math.hypot(1.0, *spatial), *spatial))

    def geodesic_point(self, x: Point, y: Point, lam: float) -> Point:
        if x.space is not self.descriptor or y.space is not self.descriptor:
            self._check(x, y)
        if not 0.0 <= lam <= 1.0:
            self._check_lambda(lam)
        return self._geodesic(x, y, lam, self.distance(x, y))

    def exponential(self, c: Point):
        """``(dim, exp)``, as :meth:`Space.sphere` reads it: ``exp(rng, g,
        s)`` is the point min(s*|g|, ``MAX_HYPERBOLIC_RADIUS``) from c along
        g, in the frame f_i = e_i + c_i / (1 + c_0) * (e_0 + c), i >= 1.
        That frame is the boost taking the sheet base point to c applied to
        e_i: Minkowski orthonormal and tangent at c.  Only its constant k is
        kept."""
        cs = c.data[1:]
        k = 1.0 / (1.0 + c.data[0])

        def exp(rng, g, s):
            nrm = math.hypot(*g)
            if nrm == 0.0:
                return c
            t = min(s * nrm, MAX_HYPERBOLIC_RADIUS)
            # the spatial part of cosh t * c + sinh t * sum g_i f_i / |g|
            sh = math.sinh(t) / nrm
            a = math.cosh(t) + sh * k * sum(map(operator.mul, cs, g))
            return self._lift([a * ci + sh * gi for ci, gi in zip(cs, g)])

        return self.dim, exp

    def _geodesic(self, x: Point, y: Point, lam: float, d: float) -> Point:
        # the weights combine the spatial coordinates only; the lift then
        # supplies the time coordinate
        xs, ys = x.data[1:], y.data[1:]
        if d < 1e-7:
            # chord weights; exact to O(d^3)
            mu = 1.0 - lam
            return self._lift([lam * a + mu * b for a, b in zip(xs, ys)])
        sd = math.sinh(d)
        wx = math.sinh(lam * d) / sd
        wy = math.sinh((1.0 - lam) * d) / sd
        return self._lift([wx * a + wy * b for a, b in zip(xs, ys)])

    def point_violations(self, p: Point) -> list[str]:
        out = []
        if len(p.data) != self.dim + 1:
            out.append(f"expected {self.dim + 1} coordinates, got {len(p.data)}")
            return out
        if not all(math.isfinite(c) for c in p.data):
            out.append("non-finite coordinate")
            return out
        # the residual is a difference of squares of size p0^2, so the
        # tolerance scales with them; a residual or scale that overflows fails
        p0 = p.data[0]
        resid = minkowski(p.data, p.data) + 1.0
        if not abs(resid) <= HYPERBOLOID_TOL * max(1.0, p0 * p0) < math.inf:
            out.append(f"hyperboloid constraint residual {resid:.3e}")
        if p.data[0] <= 0.0:
            out.append("first coordinate must be positive (upper sheet)")
        return out


class HyperbolicPlane(HyperbolicSpace):
    """H^2: the kernels of :class:`HyperbolicSpace` written out over three
    coordinates.  Every floating-point operation is the parent's, in the
    parent's order, so every result is the same to the bit; only the
    loops, slices and lists around them are gone, which on three
    coordinates cost more than the arithmetic does.  A class rather than
    per-instance bindings, so that wrapping the primitives on a handle and
    deleting the wrappers again leaves these methods in place."""

    @staticmethod
    def minkowski(a, b) -> float:
        return -a[0] * b[0] + a[1] * b[1] + a[2] * b[2]

    def distance(self, a: Point, b: Point) -> float:
        if a.space is not self.descriptor or b.space is not self.descriptor:
            self._check(a, b)
        a0, a1, a2 = a.data
        b0, b1, b2 = b.data
        t0 = a0 - b0
        t1 = a1 - b1
        t2 = a2 - b2
        m = -(t0 * t0) + t1 * t1 + t2 * t2
        if m <= 0.0:
            return 0.0
        if m > 4.0:
            q = a0 * b0 - a1 * b1 - a2 * b2
            if q > 3.0:
                return math.acosh(q)
        return 2.0 * math.asinh(0.5 * math.sqrt(m))

    def _geodesic(self, x: Point, y: Point, lam: float, d: float) -> Point:
        _, x1, x2 = x.data
        _, y1, y2 = y.data
        if d < 1e-7:
            mu = 1.0 - lam
            s1 = lam * x1 + mu * y1
            s2 = lam * x2 + mu * y2
        else:
            sd = math.sinh(d)
            wx = math.sinh(lam * d) / sd
            wy = math.sinh((1.0 - lam) * d) / sd
            s1 = wx * x1 + wy * y1
            s2 = wx * x2 + wy * y2
        return Point(self.descriptor, (math.hypot(1.0, s1, s2), s1, s2))

    def geodesic(self, x: Point, y: Point):
        # d and sinh d once; the chord weights of a short segment stay _geodesic's
        d = self.distance(x, y)
        if d < 1e-7:
            return lambda lam: self._geodesic(x, y, lam, d)
        _, x1, x2 = x.data
        _, y1, y2 = y.data
        desc, sinh, hypot, sd = self.descriptor, math.sinh, math.hypot, math.sinh(d)

        def at(lam):
            wx = sinh(lam * d) / sd
            wy = sinh((1.0 - lam) * d) / sd
            s1 = wx * x1 + wy * y1
            s2 = wx * x2 + wy * y2
            return Point(desc, (hypot(1.0, s1, s2), s1, s2))

        return at

    def sphere(self, c: Point):
        """As :meth:`EuclideanPlane.sphere`, through this exponential map."""
        # the parent's sum starts from the int 0, which can only turn a -0.0
        # into 0.0, and a signed zero added to cosh t >= 1 leaves the same a
        _, c1, c2 = c.data
        k = 1.0 / (1.0 + c.data[0])
        desc, log, sqrt, cos, sin, hypot = self.descriptor, math.log, math.sqrt, math.cos, math.sin, math.hypot

        def at(rng, t):
            r = sqrt(-2.0 * log(1.0 - rng.random()))
            theta = 2.0 * math.pi * rng.random()
            g1, g2 = r * cos(theta), r * sin(theta)
            nrm = hypot(g1, g2)
            if not nrm > 0.0:
                return c
            t = min(t / nrm * nrm, MAX_HYPERBOLIC_RADIUS)
            sh = math.sinh(t) / nrm
            a = math.cosh(t) + sh * k * (c1 * g1 + c2 * g2)
            s1 = a * c1 + sh * g1
            s2 = a * c2 + sh * g2
            return Point(desc, (hypot(1.0, s1, s2), s1, s2))

        return at


class TreeSpace(Space):
    """Metric tree; points live on edges as (edge_id, offset) pairs.

    The handle keeps the tree rooted at vertex 0 and nothing larger than
    O(n): each vertex's parent, the edge to it, its depth in edges and its
    distance from the root (its height); each vertex's (neighbour, edge)
    pairs ``adj`` and its lowest-indexed incident edge; each edge's child
    endpoint (the end farther from the root) and its record ``edge_rec``;
    and the running sums of the edge lengths.  A distance walks up to the
    lowest common ancestor, and a geodesic point then climbs from one end
    until its height is reached, so each costs O(depth): O(log n) on random
    trees, O(n) on a path-shaped tree.  The ``distances`` and ``geodesic``
    kernels are the base class's compositions of these two primitives, and
    the ``sphere`` draw is one of each toward a ``uniform`` draw.
    """

    def __init__(self, desc: WeightedTree):
        topo = desc.topology
        n = topo.vertex_count
        if n < 2:
            raise InvalidSpaceError(f"a tree needs at least 2 vertices, got {n}")
        if len(topo.edges) != n - 1:
            raise InvalidSpaceError(
                f"a tree on {n} vertices needs {n - 1} edges, got {len(topo.edges)}"
            )
        adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for eid, (u, v, length) in enumerate(topo.edges):
            if not (0 <= u < n and 0 <= v < n) or u == v:
                raise InvalidSpaceError(f"bad edge endpoints ({u}, {v})")
            if not (length > 0.0 and math.isfinite(length)):
                raise InvalidSpaceError(f"edge length must be positive, got {length}")
            adj[u].append((v, eid))
            adj[v].append((u, eid))

        # BFS from vertex 0: connectivity check plus the rooted tree.
        parent = [-1] * n
        parent_edge = [-1] * n
        depth = [0] * n
        root_dist = [0.0] * n
        child = [0] * (n - 1)
        order = [0]
        seen = [False] * n
        seen[0] = True
        for v in order:
            for w, eid in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    parent[w] = v
                    parent_edge[w] = eid
                    depth[w] = depth[v] + 1
                    root_dist[w] = root_dist[v] + topo.edges[eid][2]
                    child[eid] = w
                    order.append(w)
        if not all(seen):
            raise InvalidSpaceError("tree topology is disconnected or cyclic")

        self.descriptor = desc
        self.topology = topo
        self.n = n
        self.parent = parent
        self.parent_edge = parent_edge
        self.depth = depth
        self.root_dist = root_dist
        self.child = child
        self.adj = adj
        # per edge (child, base, length, down): its child end, the height of
        # its other end, its length, and whether the child end is the second
        # endpoint; the point at offset t on it has height base + t when
        # down, else base + (length - t)
        self.edge_rec = [
            (c, root_dist[u if c == v else v], length, c == v)
            for c, (u, v, length) in zip(child, topo.edges)
        ]
        self.incident = [min(eid for _, eid in a) for a in adj]
        self.cumulative_length = list(itertools.accumulate(e[2] for e in topo.edges))
        self.total_length = self.cumulative_length[-1]

    # -- representation helpers

    def vertex_point(self, v: int) -> Point:
        """Canonical representation of a vertex: offset 0 or full length on
        its lowest-indexed incident edge."""
        eid = self.incident[v]
        u, w, length = self.topology.edges[eid]
        return Point(self.descriptor, (eid, 0.0 if v == u else length))

    def canonical(self, p: Point) -> Point:
        if p.space is not self.descriptor:
            self._check(p)
        eid, off = p.data
        u, v, length = self.topology.edges[eid]
        if off == 0.0:
            return self.vertex_point(u)
        if off == length:
            return self.vertex_point(v)
        return p

    def point_violations(self, p: Point) -> list[str]:
        out = []
        if len(p.data) != 2:
            return ["tree point must be (edge_id, offset)"]
        eid, off = p.data
        if not (isinstance(eid, int) and 0 <= eid < len(self.topology.edges)):
            return [f"edge id {eid} out of range"]
        length = self.topology.edges[eid][2]
        if not (isinstance(off, (int, float)) and math.isfinite(off)):
            out.append("offset must be a finite number")
        elif not (0.0 <= off <= length):
            out.append(f"offset {off} outside [0, {length}]")
        return out

    # -- metric

    def _lca(self, x: int, y: int) -> int:
        """Lowest common ancestor of vertices x and y: the deeper one first
        climbs to the other's depth, then both climb together."""
        depth, parent = self.depth, self.parent
        k = depth[x] - depth[y]
        if k < 0:
            x, y, k = y, x, -k
        for _ in range(k):
            x = parent[x]
        while x != y:
            x, y = parent[x], parent[y]
        return x

    def _path(self, ea: int, ta: float, eb: int, tb: float) -> tuple[float, float, float, int]:
        """The geodesic between points on distinct edges ``ea`` and ``eb``:
        their heights ``ha`` and ``hb``, the height of the path's highest
        point, and the path's top vertex, which no climb along it passes.
        The length of the path is ``ha + hb - 2 * peak``."""
        ca, base, length, down = self.edge_rec[ea]
        ha = base + ta if down else base + (length - ta)
        cb, base, length, down = self.edge_rec[eb]
        hb = base + tb if down else base + (length - tb)
        top = self._lca(ca, cb)
        # when b lies below a's edge the path only descends from a, and vice
        # versa; otherwise it climbs to top and descends
        if top == ca:
            return ha, hb, ha, self.parent[ca]
        if top == cb:
            return ha, hb, hb, self.parent[cb]
        return ha, hb, self.root_dist[top], top

    def distance(self, a: Point, b: Point) -> float:
        if a.space is not self.descriptor or b.space is not self.descriptor:
            self._check(a, b)
        ea, ta = a.data
        eb, tb = b.data
        if ea == eb:
            return abs(ta - tb)
        # _path's heights and peak, without the top vertex it also returns
        ca, base, length, down = self.edge_rec[ea]
        ha = base + ta if down else base + (length - ta)
        cb, base, length, down = self.edge_rec[eb]
        hb = base + tb if down else base + (length - tb)
        top = self._lca(ca, cb)
        peak = ha if top == ca else hb if top == cb else self.root_dist[top]
        return ha + hb - 2.0 * peak

    def _climb(self, eid: int, h: float, top: int) -> Point:
        """The point at height ``h`` on the way up from edge ``eid`` to its
        ancestor vertex ``top``; a height that rounding puts past ``top``
        stops at ``top``."""
        parent, root_dist = self.parent, self.root_dist
        v = self.child[eid]
        while parent[v] != top and h < root_dist[parent[v]]:
            v = parent[v]
        eid = self.parent_edge[v]
        _, base, length, down = self.edge_rec[eid]
        off = h - base if down else length - (h - base)
        return self.canonical(Point(self.descriptor, (eid, min(length, max(0.0, off)))))

    def geodesic_point(self, x: Point, y: Point, lam: float) -> Point:
        if x.space is not self.descriptor or y.space is not self.descriptor:
            self._check(x, y)
        if not 0.0 <= lam <= 1.0:
            self._check_lambda(lam)
        if lam == 1.0:
            return self.canonical(x)
        if lam == 0.0:
            return self.canonical(y)
        ex, tx = x.data
        ey, ty = y.data
        if ex == ey:
            return self.canonical(Point(self.descriptor, (ex, tx + (ty - tx) * (1.0 - lam))))
        hx, hy, peak, top = self._path(ex, tx, ey, ty)
        d = hx + hy - 2.0 * peak
        t = (1.0 - lam) * d
        # the point is t along the climb from x, or d - t up from y
        if t <= hx - peak:
            return self._climb(ex, hx - t, top)
        return self._climb(ey, hy - (d - t), top)

    def uniform(self):
        """``rng ->`` a point drawn uniformly over total edge length."""
        desc, edges, cum, total = self.descriptor, self.topology.edges, self.cumulative_length, self.total_length
        canonical = self.canonical

        def draw(rng) -> Point:
            s = rng.random() * total
            eid = bisect.bisect_left(cum, s)
            return canonical(Point(desc, (eid, min(s - (cum[eid - 1] if eid else 0.0), edges[eid][2]))))

        return draw

    def sphere(self, c: Point):
        """:meth:`Space.sphere` at c, ``(rng, t) ->`` the point
        min(t, d(c, w)) from c toward a point w of :meth:`uniform`: a
        ``distance`` and a ``geodesic_point``, each one path search.  The
        caller has checked c."""
        draw, distance, geodesic_point = self.uniform(), self.distance, self.geodesic_point

        def at(rng, t):
            w = draw(rng)
            d = distance(c, w)
            return geodesic_point(c, w, max(0.0, 1.0 - t / d)) if d > 0.0 else c

        return at

    def exponential(self, c: Point):
        """``(1, exp)``: a tree has no tangent space, so ``exp(rng, g, s)``
        is :meth:`sphere`'s draw at |g_0|*s from c, its direction drawn from
        rng."""
        at = self.sphere(c)
        return 1, lambda rng, g, s: at(rng, abs(g[0]) * s)


class ProductSpace(Space):
    """l2 product of two Hadamard spaces."""

    def __init__(self, desc: Product):
        if product_depth(desc) > MAX_PRODUCT_DEPTH:
            raise InvalidSpaceError(
                f"product nesting deeper than {MAX_PRODUCT_DEPTH} is not supported"
            )
        self.descriptor = desc
        self.left = make_space(desc.left)
        self.right = make_space(desc.right)

    def pair(self, a: Point, b: Point) -> Point:
        return Point(self.descriptor, (a, b))

    def distance(self, a: Point, b: Point) -> float:
        if a.space is not self.descriptor or b.space is not self.descriptor:
            self._check(a, b)
        dl = self.left.distance(a.data[0], b.data[0])
        dr = self.right.distance(a.data[1], b.data[1])
        return math.hypot(dl, dr)

    def geodesic_point(self, x: Point, y: Point, lam: float) -> Point:
        if x.space is not self.descriptor or y.space is not self.descriptor:
            self._check(x, y)
        if not 0.0 <= lam <= 1.0:
            self._check_lambda(lam)
        return Point(
            self.descriptor,
            (
                self.left.geodesic_point(x.data[0], y.data[0], lam),
                self.right.geodesic_point(x.data[1], y.data[1], lam),
            ),
        )

    def exponential(self, c: Point):
        """``(n + m, exp)``: the factors' maps, the first n coordinates of g
        to the left factor's and the other m to the right's."""
        (n, left), (m, right) = self.left.exponential(c.data[0]), self.right.exponential(c.data[1])
        desc = self.descriptor
        return n + m, lambda rng, g, s: Point(desc, (left(rng, g[:n], s), right(rng, g[n:], s)))

    def point_violations(self, p: Point) -> list[str]:
        if len(p.data) != 2 or not all(isinstance(c, Point) for c in p.data):
            return ["product point must be a (Point, Point) pair"]
        out = []
        lpt, rpt = p.data
        if lpt.space != self.descriptor.left:
            out.append("left component carries the wrong space tag")
        else:
            out.extend("left: " + v for v in self.left.point_violations(lpt))
        if rpt.space != self.descriptor.right:
            out.append("right component carries the wrong space tag")
        else:
            out.extend("right: " + v for v in self.right.point_violations(rpt))
        return out


@lru_cache(maxsize=SPACE_CACHE_SIZE)
def make_space(desc: SpaceDescriptor) -> Space:
    """Build (and cache) the validated handle for a space descriptor."""
    if isinstance(desc, Euclidean):
        return EuclideanPlane(desc) if desc.dim == 2 else EuclideanSpace(desc)
    if isinstance(desc, Hyperbolic):
        return HyperbolicPlane(desc) if desc.dim == 2 else HyperbolicSpace(desc)
    if isinstance(desc, WeightedTree):
        return TreeSpace(desc)
    if isinstance(desc, Product):
        return ProductSpace(desc)
    raise InvalidSpaceError(f"unknown space descriptor {desc!r}")


def validate_point(space: Space, p: Point):
    """Return None if ``p`` is a valid point of ``space``, else a description
    of the violated invariant."""
    if p.space != space.descriptor:
        return f"point tagged {p.space!r}, space is {space.descriptor!r}"
    violations = space.model.point_violations(p)
    return None if not violations else "; ".join(violations)


def _checked_point(space: Space, data: tuple) -> Point:
    p = Point(space.descriptor, data)
    problem = validate_point(space, p)
    if problem is not None:
        raise ValueError(problem)
    return p


def euclidean_point(space: Space, *coords: float) -> Point:
    """A Euclidean or hyperboloid point from its coordinates; ``ValueError``
    if they do not make a point of ``space``."""
    return _checked_point(space, tuple(float(c) for c in coords))


hyperboloid_point = euclidean_point


def tree_point(space: TreeSpace, edge: int, offset: float) -> Point:
    return space.canonical(_checked_point(space, (edge, float(offset))))
