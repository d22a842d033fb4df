"""Randomized verification of the metric and geodesic inequalities.

Every inequality the solver analysis relies on is checked on seeded random
tuples: the metric axioms, the defining distance equalities of geodesic
interpolation, the Cauchy-Schwarz bound for the quasilinearization pairing,
its algebraic identities, and five interpolation inequalities (convexity of
distance and squared distance along geodesics and the pairing bounds they
imply).

Tolerances are relative: a check fails only when its slack drops below
``-eps * scale`` with scale = 1 + the sum of squared pairwise distances of
the tuple (the inequalities are homogeneous of degree two in distances), or
when the slack is NaN, as it is once squared distances overflow.
Each property is written once, in a trial function that yields the slack of
every property of its family for one random tuple, measuring each ordered
pair of points once; the same function checks, reports and replays.  Every
report carries the worst witness observed: all of that trial's points, each
encoded with ``serialize.point_to_json``, plus ``lam``, e.g.
``{"a": {"coords": [...]}, ..., "e": {...}, "lam": 0.41}``.
``replay_witness`` decodes it and reruns the trial, reproducing the worst
margin exactly (a NaN margin as NaN), for all 13 properties and on every
space family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from . import serialize
from .sampling import sampler, stream
from .solvers import IterationTrace, PowerLaw
from .spaces import Point, Space, _Record


@dataclass(init=False, eq=False, repr=False)
class PropertyReport(_Record):
    """A property's trial count, violations and worst trial."""

    name: str
    trials: int
    violations: int
    worst_margin: float
    worst_witness: Optional[dict]
    tolerance: float


class _Collector:
    def __init__(self, name: str, eps: float):
        self.name = name
        self.eps = eps
        self.trials = 0
        self.violations = 0
        self.worst = math.inf
        self.inputs = None

    def record(self, slack: float, scale: float, inputs: tuple) -> None:
        self.trials += 1
        if slack < self.worst:
            self.worst = slack
            self.inputs = inputs
        # written so that a NaN slack fails too: distances that overflow
        # leave nothing checked, and the first NaN ranks below every number
        if not slack >= -self.eps * scale:
            self.violations += 1
            if slack != slack and self.worst == self.worst:
                self.worst = slack
                self.inputs = inputs

    def report(self, keys: tuple[str, ...]) -> PropertyReport:
        witness = None
        if self.inputs is not None:
            *pts, lam = self.inputs
            witness = {k: serialize.point_to_json(p) for k, p in zip(keys, pts)}
            witness["lam"] = lam
        return PropertyReport(
            name=self.name,
            trials=self.trials,
            violations=self.violations,
            worst_margin=self.worst,
            worst_witness=witness,
            tolerance=self.eps,
        )


def _axiom_trial(space: Space, a: Point, b: Point, c: Point, d: Point, e: Point, lam: float):
    """Metric axioms, geodesic interpolation contract, Cauchy-Schwarz and the
    pairing identities on one tuple; yields (name, slack, scale).

    Each of the 19 ordered pairs the properties use is measured once.  A
    mirrored pair such as d(b, a) is a measurement of its own, since the
    metric under test need not be symmetric.  The pairing <xy, uv> is
    0.5 * (d(x,v)^2 + d(y,u)^2 - d(x,u)^2 - d(y,v)^2), with its terms in
    ``geometry.quasilinearization``'s order, and a scale sums the squared
    distances of the pairs i < j in order, so every slack keeps the bits of
    those definitions."""
    dist = space.distance
    dab, dac, dad = dist(a, b), dist(a, c), dist(a, d)
    dbc, dbd, dcd = dist(b, c), dist(b, d), dist(c, d)
    dba = dist(b, a)
    z = space.geodesic_point(a, b, lam)
    dza, dzb = dist(z, a), dist(z, b)
    dcb, dda, dca, ddb = dist(c, b), dist(d, a), dist(c, a), dist(d, b)
    dae, dbe, dce, dde = dist(a, e), dist(b, e), dist(c, e), dist(d, e)
    dec, ded = dist(e, c), dist(e, d)
    ab2, ac2, ad2, bc2, bd2, cd2 = dab * dab, dac * dac, dad * dad, dbc * dbc, dbd * dbd, dcd * dcd
    scale = 1.0 + ab2 + ac2 + ad2 + bc2 + bd2 + cd2

    yield "metric_symmetry", -abs(dab - dba), scale
    yield "triangle_inequality", dab + dbc - dac, scale
    yield "geodesic_distance_to_start", -abs(dza - (1.0 - lam) * dab), 1.0 + dab
    yield "geodesic_distance_to_end", -abs(dzb - lam * dab), 1.0 + dab

    q_abcd = 0.5 * (ad2 + bc2 - ac2 - bd2)
    yield "cauchy_schwarz", dab * dcd - q_abcd, scale
    q_cdab = 0.5 * (dcb * dcb + dda * dda - dca * dca - ddb * ddb)
    yield "pairing_symmetry", -abs(q_abcd - q_cdab), scale
    q_bacd = 0.5 * (bd2 + ac2 - bc2 - ad2)
    yield "pairing_antisymmetry", -abs(q_abcd + q_bacd), scale
    ec2, ed2 = dec * dec, ded * ded
    q_aecd = 0.5 * (ad2 + ec2 - ac2 - ed2)
    q_ebcd = 0.5 * (ed2 + bc2 - ec2 - bd2)
    scale5 = (
        1.0 + ab2 + ac2 + ad2 + dae * dae + bc2 + bd2 + dbe * dbe + cd2 + dce * dce + dde * dde
    )
    yield "pairing_additivity", -abs(q_aecd + q_ebcd - q_abcd), scale5


def _lemma_trial(space: Space, p: Point, q: Point, r: Point, s: Point, lam: float):
    """The five geodesic interpolation inequalities on one tuple, with
    mid = lam*p (+) (1-lam)*q; yields (name, slack, scale).

    Each of the 14 ordered pairs is measured once, as in ``_axiom_trial``;
    d(r, q) apart from d(q, r), and d(mid, mid) and d(r, r) too, since the
    metric under test need not vanish on the diagonal."""
    dist = space.distance
    dpq, dpr, dps = dist(p, q), dist(p, r), dist(p, s)
    dqr, dqs, drs = dist(q, r), dist(q, s), dist(r, s)
    mid = space.geodesic_point(p, q, lam)
    z2 = space.geodesic_point(r, s, lam)
    dmz, dmr, dqm, dpm, dms, dmm = (
        dist(mid, z2), dist(mid, r), dist(q, mid), dist(p, mid), dist(mid, s), dist(mid, mid)
    )
    drq, drr = dist(r, q), dist(r, r)
    scale = 1.0 + dpq * dpq + dpr * dpr + dps * dps + dqr * dqr + dqs * dqs + drs * drs
    mu = 1.0 - lam

    yield "joint_interpolation_nonexpansive", lam * dpr + mu * dqs - dmz, scale
    yield "distance_convex_along_geodesics", lam * dpr + mu * dqr - dmr, scale
    yield "squared_distance_strongly_convex", (
        lam * dpr * dpr + mu * dqr * dqr - lam * mu * dpq * dpq - dmr * dmr
    ), scale
    q_pq_ms = 0.5 * (dps * dps + dqm * dqm - dpm * dpm - dqs * dqs)
    q_mq_ms = 0.5 * (dms * dms + dqm * dqm - dmm * dmm - dqs * dqs)
    yield "interpolation_pairing_bound", lam * q_pq_ms - q_mq_ms, scale
    q_pr_qr = 0.5 * (dpr * dpr + drq * drq - dpq * dpq - drr * drr)
    yield "interpolation_cross_term_bound", (
        lam * lam * dpr * dpr + mu * mu * dqr * dqr + 2.0 * lam * mu * q_pr_qr - dmr * dmr
    ), scale


# each trial family and the key of its sampling stream
_FAMILIES = {_axiom_trial: 0xA, _lemma_trial: 0xB}
# the pairing identities hold to rounding; checked at a tighter tolerance
_TIGHT = {"pairing_symmetry": 1e-12}


def _inputs(trial) -> tuple[str, ...]:
    """Names of a trial's inputs after ``space``; they key its witnesses."""
    code = trial.__code__
    return code.co_varnames[1:code.co_argcount]


def _check(trial, space: Space, trials: int, eps: float, seed: int, radius: float) -> list[PropertyReport]:
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = stream(seed, _FAMILIES[trial])
    draw = sampler(space, radius)
    keys = _inputs(trial)
    cols: dict[str, _Collector] = {}
    for _ in range(trials):
        inputs = (*(draw(rng) for _ in keys[:-1]), float(rng.random()))
        for name, slack, scale in trial(space, *inputs):
            col = cols.get(name)
            if col is None:
                col = cols[name] = _Collector(name, _TIGHT.get(name, eps))
            col.record(slack, scale, inputs)
    return [col.report(keys) for col in cols.values()]


def check_space_axioms(
    space: Space,
    trials: int,
    eps: float = 1e-8,
    seed: int = 0,
    radius: float = 5.0,
) -> list[PropertyReport]:
    """Metric axioms, geodesic interpolation contract, Cauchy-Schwarz, and
    the quasilinearization pairing identities, on random tuples."""
    return _check(_axiom_trial, space, trials, eps, seed, radius)


def check_lemmas(
    space: Space,
    trials: int,
    eps: float = 1e-8,
    seed: int = 0,
    radius: float = 5.0,
) -> list[PropertyReport]:
    """The five geodesic interpolation inequalities used by the solvers.

    * simultaneous interpolation is jointly nonexpansive;
    * distance to a point is convex along geodesics;
    * squared distance is strongly convex along geodesics, with modulus
      lam*(1-lam)*d(x,y)^2;
    * the pairing of an interpolation offset against any direction is bounded
      by lam times the full-chord pairing;
    * squared distance to an interpolated point is bounded by the squared
      endpoint terms plus twice the endpoint pairing cross term.
    """
    return _check(_lemma_trial, space, trials, eps, seed, radius)


def replay_witness(space: Space, report: PropertyReport) -> Optional[float]:
    """Slack of ``report``'s property at its worst witness, recomputed from
    the serialized witness alone; equals ``report.worst_margin`` exactly,
    or is NaN when that margin is.

    Returns None when the report has no witness.
    """
    w = report.worst_witness
    if w is None:
        return None
    trial = next(t for t in _FAMILIES if set(_inputs(t)) == w.keys())
    *keys, _ = _inputs(trial)
    pts = (serialize.point_from_json(w[k], space.descriptor, k) for k in keys)
    for name, slack, _ in trial(space, *pts, w["lam"]):
        if name == report.name:
            return slack
    return None


# ---------------------------------------------------------------------------
# scalar recursion demonstrator


@dataclass(init=False, eq=False, repr=False)
class RecursionResult(_Record):
    """The recursion demonstrator's final value, checkpoints and verdict."""

    final: float
    checkpoints: list[tuple[int, float]]
    hypotheses: dict[str, bool]
    verdict: str  # "consistent" | "inconsistent"


def liu_recursion(
    a0: float,
    gamma: PowerLaw,
    delta: PowerLaw,
    sigma: PowerLaw,
    steps: int,
    threshold: float = 1e-2,
) -> RecursionResult:
    """Simulate a_{n+1} = (1 - g_n) a_n + g_n d_n + s_n with equality (the
    worst case the recursion lemma allows) for ``steps`` steps.

    Hypotheses of the lemma are decided analytically for the power-law
    specifications; the verdict compares the final value against the declared
    threshold.  This is a numeric demonstrator, not a proof.
    """
    if a0 < 0.0:
        raise ValueError("a0 must be nonnegative")
    g0 = gamma.value(0)
    if not (0.0 < g0 < 1.0) or gamma.scale <= 0.0:
        raise ValueError("gamma values must lie in (0, 1)")
    if sigma.scale < 0.0:
        raise ValueError("sigma values must be nonnegative")

    hypotheses = {
        # g_n -> 0 with divergent sum
        "gamma_vanishes_divergent": gamma.power > 0.0 and gamma.power <= 1.0,
        # limsup d_n <= 0 (power laws tend to 0; negative scale is below 0)
        "delta_limsup_nonpositive": delta.scale <= 0.0 or delta.power > 0.0,
        # summable s_n
        "sigma_summable": sigma.scale == 0.0 or sigma.power > 1.0,
    }

    a = a0
    checkpoints = [(0, a)]
    mark = max(1, steps // 10)
    for n in range(steps):
        g = gamma.value(n)
        a = (1.0 - g) * a + g * delta.value(n) + sigma.value(n)
        if (n + 1) % mark == 0:
            checkpoints.append((n + 1, a))
    verdict = "consistent" if a <= threshold else "inconsistent"
    return RecursionResult(final=a, checkpoints=checkpoints, hypotheses=hypotheses, verdict=verdict)


# ---------------------------------------------------------------------------
# trace diagnostics


@dataclass(init=False, eq=False, repr=False)
class TraceDiagnostics(_Record):
    """Tail statistics of a trace.  ``max_qx_inner`` and ``qx_scale`` are
    None when the run had no reference to pair against."""

    rows_considered: int
    max_fixed_residual: float
    max_z_residual: Optional[float]
    max_qx_inner: Optional[float]
    qx_scale: Optional[float]

    def within(
        self,
        fixed_tol: float,
        z_tol: Optional[float] = None,
        qx_tol: Optional[float] = None,
    ) -> bool:
        if qx_tol is not None and self.max_qx_inner is None:
            raise ValueError("qx_tol needs the pairing of a run with a reference")
        if self.max_fixed_residual > fixed_tol:
            return False
        if z_tol is not None and self.max_z_residual is not None and self.max_z_residual > z_tol:
            return False
        if qx_tol is not None and self.max_qx_inner > qx_tol * self.qx_scale:
            return False
        return True


def trace_diagnostics(
    space: Space,
    trace: IterationTrace,
    base: Point,
    tail_fraction: float = 0.1,
) -> TraceDiagnostics:
    """Tail statistics of a solver trace, read from its rows.

    Over the trailing ``tail_fraction`` of rows: the largest fixed-point
    residual, the largest set-projection residual, and, for a run with a
    reference q, the largest pairing <q->base, q->x_n> (nonpositive in the
    limit when q is the fixed point nearest the base point) and its scale
    1 + d(q, base)^2 + d(q, x_n)^2.
    """
    if not trace.rows:
        raise ValueError("trace is empty")
    if not (0.0 < tail_fraction <= 1.0):
        raise ValueError("tail fraction must lie in (0, 1]")
    k = max(1, int(math.ceil(len(trace.rows) * tail_fraction)))
    rows = trace.rows[-k:]
    max_fixed = max(r.fixed_residual for r in rows)
    zs = [r.z_residual for r in rows if r.z_residual is not None]
    max_z = max(zs) if zs else None
    max_qx = scale = None
    if trace.reference is not None:
        max_qx = max(r.qx_inner for r in rows)
        d = space.distance(trace.reference, base)
        base_sq = d * d
        scale = max(1.0 + base_sq + r.ref_distance * r.ref_distance for r in rows)
    return TraceDiagnostics(
        rows_considered=k,
        max_fixed_residual=max_fixed,
        max_z_residual=max_z,
        max_qx_inner=max_qx,
        qx_scale=scale,
    )


# ---------------------------------------------------------------------------
# negative control


class CorruptedSpace(Space):
    """Deliberately broken metric (d^1.5 of a real space): violates the
    triangle inequality and Cauchy-Schwarz, so the harness must flag it."""

    def __init__(self, inner: Space):
        self.inner = inner
        self.descriptor = inner.descriptor

    @property
    def model(self) -> Space:
        return self.inner.model

    def distance(self, a: Point, b: Point) -> float:
        return self.inner.distance(a, b) ** 1.5

    def geodesic_point(self, x: Point, y: Point, lam: float) -> Point:
        return self.inner.geodesic_point(x, y, lam)
