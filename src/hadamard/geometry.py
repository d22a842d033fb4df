"""The quasilinearization pairing.

The quasilinearization pairing assigns to two ordered point pairs the value

    <ab, cd> = (d(a,d)^2 + d(b,c)^2 - d(a,c)^2 - d(b,d)^2) / 2,

which behaves like an inner product of the displacement "vectors" ab and cd.
In a CAT(0) space it obeys the Cauchy-Schwarz bound <ab, cd> <= d(a,b)d(c,d)
(Berg and Nikolaev 2008).
"""

from __future__ import annotations

from typing import Callable

from .spaces import Point, Space


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
