"""Quasilinearization form and derived scalar quantities.

The quasilinearization pairing assigns to two ordered point pairs the value

    <ab, cd> = (d(a,d)^2 + d(b,c)^2 - d(a,c)^2 - d(b,d)^2) / 2,

which behaves like an inner product of the displacement "vectors" ab and cd.
In a CAT(0) space it obeys the Cauchy-Schwarz bound <ab, cd> <= d(a,b)d(c,d);
the signed gap of that bound is exposed here so the property harness can test
it directly.
"""

from __future__ import annotations

from typing import Callable

from .spaces import Basepoint, Point, Space


def quasilinearization(space: Space, a: Point, b: Point, c: Point, d: Point) -> float:
    dad = space.distance(a, d)
    dbc = space.distance(b, c)
    dac = space.distance(a, c)
    dbd = space.distance(b, d)
    return 0.5 * (dad * dad + dbc * dbc - dac * dac - dbd * dbd)


def pairing_against(space: Space, a: Point, b: Point, c: Point) -> Callable[[float, float], float]:
    """``(dad, dbd) -> quasilinearization(space, a, b, c, d)`` bit for bit,
    for a caller that holds ``dad = distance(a, d)`` and
    ``dbd = distance(b, d)`` already.

    The two distances without ``d`` are measured once, here, so a
    certificate over many probes d measures only the two distances it
    passes, each list in one ``space.distances`` call.
    """
    dbc = space.distance(b, c)
    dac = space.distance(a, c)
    dbc2, dac2 = dbc * dbc, dac * dac

    def pairing(dad: float, dbd: float) -> float:
        return 0.5 * (dad * dad + dbc2 - dac2 - dbd * dbd)

    return pairing


def retract(space: Space, c: Point, w: Point, r: float, d: float) -> Point:
    """The point at distance min(r, d) from ``c`` toward ``w``, for a caller
    that holds ``d = distance(c, w) > 0``."""
    return space._geodesic(c, w, max(0.0, 1.0 - r / d), d)


def cauchy_schwarz_gap(space: Space, a: Point, b: Point, c: Point, d: Point) -> float:
    """d(a,b)*d(c,d) - <ab, cd>; nonnegative (up to rounding) in CAT(0)."""
    return space.distance(a, b) * space.distance(c, d) - quasilinearization(
        space, a, b, c, d
    )


def norm(space: Space, x: Point, base: Basepoint) -> float:
    """Distance to the configured base point."""
    return space.distance(x, base.o)
