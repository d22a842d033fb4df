"""Perturbed fixed-point iterations for nonexpansive mappings.

Two algorithms are implemented, both driven by a vanishing anchor weight and
a perturbation sequence whose distance to the base point follows a prescribed
decay law, each perturbation in a direction uniform at the base point:

* the *implicit* scheme solves, at every outer step, the fixed-point equation
  ``x = P_C(anchor_weight * u (+) (1 - anchor_weight) * T x)`` by Picard
  iteration (the right-hand side is a contraction with factor
  ``1 - anchor_weight``);
* the *explicit* scheme interleaves the same anchored step with geodesic
  averaging against the previous iterate.

Both converge, under the validated schedule conditions, to the fixed point of
T nearest the base point; ``nearest_fixed_point_residual`` certifies that
limit against the known fixed-point set, exactly where the set has extreme
points and against a probe sample of it elsewhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence, Union

from .convex import (
    MEMBERSHIP_TOL,
    ConvexSetDescriptor,
    Projection,
    _compile,
    _probes,
    compile_set,
    contains,
)
from .geometry import pairing_against
from .mappings import MappingDescriptor, compile_mapping
from .sampling import sphere, stream
from .spaces import Point, Space, _FrozenRecord, _Record

STREAM_PERTURBATION = 1
STREAM_PROBES = 2


class ScheduleError(ValueError):
    pass


class InnerBudgetError(RuntimeError):
    """Inner contraction loop ran out of iterations; carries the best iterate."""

    def __init__(self, best: Point, iterations: int, gap: float):
        super().__init__(
            f"inner loop exhausted after {iterations} iterations (error bound {gap:.3e})"
        )
        self.best = best
        self.iterations = iterations
        self.gap = gap


@dataclass(init=False, eq=False, repr=False)
class PowerLaw(_FrozenRecord):
    """value(n) = scale * (n + shift) ** (-power)."""

    scale: float
    power: float
    shift: float = 1.0

    def value(self, n: int) -> float:
        return self.scale * (n + self.shift) ** (-self.power)


@dataclass(init=False, eq=False, repr=False)
class Schedule(_FrozenRecord):
    """Iteration schedules: anchor weight law, constant averaging weight
    (explicit scheme only), and perturbation norm law."""

    anchor: PowerLaw
    perturbation: PowerLaw
    mixing: Optional[float] = None


@dataclass(init=False, eq=False, repr=False)
class Condition(_FrozenRecord):
    """One named schedule condition, whether it holds, and why."""

    name: str
    passed: bool
    detail: str


def _law_values(law: PowerLaw, name: str, first: int, last: int) -> tuple[float, float]:
    """The law's values on the run's first and last step.  A power law with
    scale >= 0, power >= 0 and shift > 0 is monotone, so these bound every
    value in between."""
    where = f"schedule.{name}"
    if not (law.scale >= 0.0 and law.power >= 0.0 and law.shift > 0.0):
        raise ScheduleError(f"{where}: law must have scale >= 0, power >= 0, shift > 0")
    try:
        values = law.value(first), law.value(last)
    except OverflowError:
        values = (math.inf,)
    if not all(math.isfinite(v) for v in values):
        raise ScheduleError(f"{where}: value at step {first} overflows")
    return values


def validate_schedules(
    schedule: Schedule, algorithm: str, budget: int
) -> tuple[Condition, ...]:
    """The convergence conditions of ``algorithm``'s schedule over a run of
    ``budget`` steps, decided analytically for power laws.

    Both schemes need an anchor weight in (0, 1) on every step the run takes
    (implicit m = 1..budget, explicit n = 0..budget-1) that vanishes.  The
    implicit scheme's anchor must also keep 1 - anchor below 1 in floating
    point, so that its inner Picard map contracts, and its perturbations
    must vanish.  The explicit scheme needs the conditions of Xu 2002: (i) a
    non-summable anchor, (ii) an averaging weight in (0, 1), and (iii) a
    summable anchored perturbation series.  A law out of range or
    overflowing raises ScheduleError naming it.
    """
    if algorithm not in ("implicit", "explicit"):
        raise ScheduleError(f"unknown algorithm {algorithm!r}")
    if budget < 1:
        raise ScheduleError("budget must be at least 1")
    first, last = (1, budget) if algorithm == "implicit" else (0, budget - 1)
    a, p = schedule.anchor, schedule.perturbation
    a_first, a_last = _law_values(a, "anchor", first, last)
    _law_values(p, "perturbation", first, last)

    in_range = 0.0 < a_last and a_first < 1.0
    vanishes = a.power > 0.0 and a.scale > 0.0
    anchor = (
        f"anchor(n) = {a.scale}*(n+{a.shift})^-{a.power}: "
        f"{a_first:.6g} at n = {first} to {a_last:.6g} at n = {last}"
        f"{'' if in_range else ' (outside (0, 1))'}, "
        f"{'vanishes' if vanishes else 'does not vanish'}"
    )
    if algorithm == "implicit":
        contracts = 1.0 - a_last < 1.0
        p_vanishes = p.scale == 0.0 or p.power > 0.0
        return (
            Condition(
                "(i) vanishing anchor",
                in_range and vanishes and contracts,
                anchor + ("" if contracts else ", too small: 1 - anchor rounds to 1"),
            ),
            Condition(
                "(ii) vanishing perturbation",
                p_vanishes,
                f"perturbation(n) = {p.scale}*(n+{p.shift})^-{p.power}: "
                + ("vanishes" if p_vanishes else "does not vanish"),
            ),
        )

    divergent = a.power <= 1.0
    m = schedule.mixing
    p_sum = a.power + p.power
    summable = p.scale == 0.0 or p_sum > 1.0
    return (
        Condition(
            "(i) vanishing non-summable anchor",
            in_range and vanishes and divergent,
            anchor + f", sum {'diverges' if divergent else 'converges (p-series)'}",
        ),
        Condition(
            "(ii) averaging weight in (0,1)",
            m is not None and 0.0 < m < 1.0,
            "no averaging weight configured" if m is None else f"constant averaging weight {m:.6g}",
        ),
        Condition(
            "(iii) summable anchored perturbation",
            summable,
            f"sum anchor(n)*perturbation(n) ~ n^-{p_sum:.3g}: "
            + ("converges" if summable else "diverges"),
        ),
    )


def _require_schedule(schedule: Schedule, algorithm: str, budget: int) -> None:
    """Raise ScheduleError naming every condition the schedule fails."""
    failed = [c for c in validate_schedules(schedule, algorithm, budget) if not c.passed]
    if failed:
        raise ScheduleError(
            "schedule fails condition " + "; ".join(f"{c.name}: {c.detail}" for c in failed)
        )


# ---------------------------------------------------------------------------
# traces


@dataclass(slots=True)
class TraceRow:
    """One step of a run.  ``inner_iterations`` and ``inner_bound`` (the
    a-posteriori bound on the inner solve's error at exit) are set by the
    implicit scheme only."""

    n: int
    fixed_residual: float
    step: Optional[float] = None
    z_residual: Optional[float] = None
    ref_distance: Optional[float] = None
    qx_inner: Optional[float] = None
    inner_iterations: Optional[int] = None
    inner_bound: Optional[float] = None


@dataclass(init=False, eq=False, repr=False)
class IterationTrace(_Record):
    """The whole record of a run: one row per iterate, the last iterate and
    the status.  ``reference`` is the point each row's ``ref_distance`` and
    ``qx_inner`` were measured against, or None when the run had none.

    A run given a row sink hands its rows to the sink and leaves ``rows``
    empty; ``last`` (the last row) and ``inner_iterations`` (the total over
    the rows) are kept either way."""

    rows: list[TraceRow] = field(default_factory=list)
    final: Optional[Point] = None
    status: str = "budget"  # "converged" | "budget" | "inner_budget" | "diverged"
    reference: Optional[Point] = None
    last: Optional[TraceRow] = None
    inner_iterations: int = 0


def _measurer(
    space: Space, base: Point, reference: Optional[Point]
) -> Callable[[TraceRow, Point], TraceRow]:
    """``measure(row, x)``: fill ``row``'s distance d(x, reference) and
    pairing <reference->base, reference->x> when the run has a reference.
    The pairing reuses d(x, reference) as d(reference, x): every metric
    here is exactly symmetric."""
    if reference is None:
        return lambda row, x: row
    distance = space.distance
    pairing = pairing_against(space, reference, base, reference)

    def measure(row: TraceRow, x: Point) -> TraceRow:
        row.ref_distance = d = distance(x, reference)
        row.qx_inner = pairing(d, distance(base, x))
        return row

    return measure


def implicit_step(
    space: Space,
    cset: Union[ConvexSetDescriptor, Projection],
    mapping: Callable[[Point], Point],
    anchor_weight: float,
    u: Point,
    x_start: Point,
    inner_tol: float = 1e-10,
    max_inner: int = 10**6,
) -> tuple[Point, int, float]:
    """Solve x = P_C(anchor_weight*u (+) (1-anchor_weight)*Tx) by Picard
    iteration; returns (x, iterations, bound).

    The update map is a contraction with factor (1 - anchor_weight), so the
    a-posteriori bound d(x_{k+1}, x*) <= d(x_{k+1}, x_k)*(1-a)/a is
    available; the loop exits with x = x_{k+1} once that bound drops below
    ``inner_tol``, or is nan because the iterates overflowed, and returns
    the bound.

    ``cset`` is a set descriptor, compiled here, or :func:`compile_set`'s
    closure ``x -> u``, as ``mapping`` is ``compile_mapping``'s closure.
    """
    if not (0.0 < anchor_weight < 1.0):
        raise ValueError("anchor weight must lie strictly between 0 and 1")
    if max_inner < 1:
        raise ValueError(f"max_inner must be at least 1, got {max_inner}")
    project = cset if callable(cset) else compile_set(space, cset)
    geodesic_point, distance = space.geodesic_point, space.distance
    factor = (1.0 - anchor_weight) / anchor_weight
    x = x_start
    for it in range(1, max_inner + 1):
        nxt = project(geodesic_point(u, mapping(x), anchor_weight))
        gap = distance(nxt, x) * factor
        x = nxt
        # a nan gap (the iterates overflowed) exits too, and is returned
        if not gap > inner_tol:
            return x, it, gap
    raise InnerBudgetError(best=x, iterations=max_inner, gap=gap)


def _run(
    algorithm: str, steps: Callable[..., Iterator], space: Space, cset: ConvexSetDescriptor,
    mapping: MappingDescriptor, schedule: Schedule, base: Point, budget: int,
    outer_tol: float, seed: int, reference: Optional[Point], x0: Optional[Point] = None,
    sink: Optional[Callable[[TraceRow], None]] = None,
) -> IterationTrace:
    """Check the schedule and the starting point ``x0``, if given, then
    record each ``(row, x, status)`` of ``steps(T, P, at, rng)``, where
    ``at(rng, t)``, the closure ``sphere(space, base)``, draws a
    perturbation at distance t from the base point (capped as its family
    caps it) in a direction uniform there.  Each row goes to
    ``sink``, or is appended to the trace's rows when ``sink`` is None; no
    row is recorded before every check has passed.
    One stop rule serves both schemes.  The first row whose residual is not
    finite (its iterates overflowed) ends the run as ``"diverged"``;
    otherwise the first status a step reports ends it; otherwise the first
    row whose residual falls to ``outer_tol`` ends it as ``"converged"``."""
    _require_schedule(schedule, algorithm, budget)
    if x0 is not None and not contains(space, cset, x0, MEMBERSHIP_TOL):
        raise ValueError("starting point must belong to the constraint set")

    T = compile_mapping(space, mapping)
    P = compile_set(space, cset)
    rng = stream(seed, STREAM_PERTURBATION)
    at = sphere(space, base)
    trace = IterationTrace(reference=reference)
    if sink is None:
        sink = trace.rows.append
    measure = _measurer(space, base, reference)
    inner = 0
    for row, x, status in steps(T, P, at, rng):
        sink(measure(row, x))
        inner += row.inner_iterations or 0
        # true for nan and for inf
        if not row.fixed_residual < math.inf:
            status = "diverged"
        elif status is None and row.fixed_residual <= outer_tol:
            status = "converged"
        if status is not None:
            trace.status = status
            break
    trace.final, trace.last, trace.inner_iterations = x, row, inner
    return trace


def run_implicit(
    space: Space,
    cset: ConvexSetDescriptor,
    mapping: MappingDescriptor,
    schedule: Schedule,
    base: Point,
    budget: int,
    outer_tol: float = 0.0,
    seed: int = 0,
    inner_tol: float = 1e-10,
    max_inner: int = 10**6,
    reference: Optional[Point] = None,
    *,
    sink: Optional[Callable[[TraceRow], None]] = None,
) -> IterationTrace:
    """Outer loop of the implicit scheme, steps m = 1..budget, warm-started.

    Rejects schedules that fail :func:`validate_schedules`.  Stops by the
    rule of :func:`_run`: as ``"diverged"`` on the first row whose residual
    d(x, Tx) is not finite, else as ``"inner_budget"`` once an inner solve
    runs out of its ``max_inner`` iterations (the best inner iterate is then
    the last row), else as ``"converged"`` once the residual falls to
    ``outer_tol``.

    Step m solves its inner equation to ``max(inner_tol, a_m * outer_tol)``.
    The inner fixed point depends only on (a_m, u_m), so inner errors that
    vanish with a_m do not accumulate (inexact proximal point, Rockafellar
    1976); the early stop still reads d(x, Tx) of the point returned.  With
    ``outer_tol = 0`` every step is solved to ``inner_tol``.  Each row
    records the inner iterations and the error bound at exit.

    Rows go to ``sink`` when one is given, and ``trace.rows`` stays empty.
    """

    def steps(T, P, at, rng):
        distance, anchor, perturbation = space.distance, schedule.anchor.value, schedule.perturbation.value
        x = prev = P(base)
        for m in range(1, budget + 1):
            a, t = anchor(m), perturbation(m)
            u = base if t <= 0.0 else at(rng, t)
            status = None
            try:
                x, iterations, bound = implicit_step(
                    space, P, T, a, u, x, max(inner_tol, a * outer_tol), max_inner
                )
            except InnerBudgetError as err:
                # the best inner iterate becomes the last row
                x, iterations, bound, status = err.best, err.iterations, err.gap, "inner_budget"
            yield TraceRow(m, distance(x, T(x)), distance(x, prev), None, None, None, iterations, bound), x, status
            prev = x

    return _run("implicit", steps, space, cset, mapping, schedule, base, budget, outer_tol,
                seed, reference, sink=sink)


def run_explicit(
    space: Space,
    cset: ConvexSetDescriptor,
    mapping: MappingDescriptor,
    schedule: Schedule,
    base: Point,
    x0: Point,
    budget: int,
    outer_tol: float = 0.0,
    seed: int = 0,
    reference: Optional[Point] = None,
    *,
    sink: Optional[Callable[[TraceRow], None]] = None,
) -> IterationTrace:
    """Explicit scheme, steps n = 0..budget-1.

    Per step: anchored point y = a*u (+) (1-a)*Tx, projected to the set, then
    geodesic averaging with the previous iterate.  The starting point must be
    a member of the set; schedules must pass :func:`validate_schedules`.
    Row n records iterate x_n; a run that uses up its budget closes with a
    row for x_budget.  Stops by the rule of :func:`_run`: as ``"diverged"``
    on the first row whose residual d(x_n, Tx_n) is not finite, else as
    ``"converged"`` once it falls to ``outer_tol``.  Rows go to ``sink``
    when one is given, and ``trace.rows`` stays empty.
    """

    def steps(T, P, at, rng):
        distance, geodesic_point, geodesic = space.distance, space.geodesic_point, space._geodesic
        a, p, b = schedule.anchor, schedule.perturbation, schedule.mixing
        x = x0
        for n in range(budget):
            tx = T(x)
            residual = distance(x, tx)
            # PowerLaw.value, written out
            t = p.scale * (n + p.shift) ** (-p.power)
            u = base if t <= 0.0 else at(rng, t)
            y = geodesic_point(u, tx, a.scale * (n + a.shift) ** (-a.power))
            z = P(y)
            # d(z, x) is d(x, z) bit for bit: every metric here is exactly symmetric
            z_residual = distance(z, x)
            nxt = geodesic(x, z, 1.0 - b, z_residual)
            yield TraceRow(n, residual, distance(nxt, x), z_residual), x, None
            x = nxt
        yield TraceRow(budget, distance(x, T(x))), x, None

    return _run("explicit", steps, space, cset, mapping, schedule, base, budget, outer_tol,
                seed, reference, x0, sink=sink)


def nearest_fixed_point_residual(
    space: Space,
    q: Point,
    base: Point,
    fixed_set: Union[ConvexSetDescriptor, Sequence[Point]],
    probes: int = 1000,
    seed: int = 0,
) -> float:
    """max over fixed points p of <q->base, q->p>.

    A value <= tolerance certifies that q is the point of the fixed-point
    set nearest the base point.  The maximum is minus the minimum of
    ``<base->q, q->p>``, so a set with extreme points is certified exactly
    over ``extremes(base, q)``; any other set at the resolution of
    ``probes`` sample points.
    """
    if isinstance(fixed_set, (list, tuple)):
        pts = list(fixed_set)
        if not pts:
            raise ValueError("fixed-point set is empty")
    else:
        kind = _compile(space, fixed_set)
        if probes <= 0:
            raise ValueError("probe count must be positive")
        if kind.extremes:
            pts = kind.extremes(base, q)
        else:
            # anchor probe blending at a true member so every probe stays in the set
            pts = _probes(space, kind, kind.project(q), probes, stream_seed(seed))
    pairing = pairing_against(space, q, base, q)
    return max(map(pairing, space.distances(q, pts), space.distances(base, pts)))


def stream_seed(seed: int) -> int:
    # probe streams must not collide with perturbation streams
    return (seed << 4) + STREAM_PROBES
