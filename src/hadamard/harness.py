"""Randomized verification of the metric and geodesic inequalities.

Every inequality the solver analysis relies on is checked on seeded random
tuples: the metric axioms, the defining distance equalities of geodesic
interpolation, the Cauchy-Schwarz bound for the quasilinearization pairing,
its algebraic identities, and five interpolation inequalities (convexity of
distance and squared distance along geodesics and the pairing bounds they
imply).

Tolerances are relative: a check fails only when its slack drops below
``-eps * scale`` with scale = 1 + the sum of squared pairwise distances of
the tuple (the inequalities are homogeneous of degree two in distances).
Each property is written once, in a trial function that yields the slack of
every property of its family for one random tuple; the same function checks,
reports and replays.  Every report carries the worst witness observed: all of
that trial's points, each encoded with ``serialize.point_to_json``, plus
``lam``, e.g. ``{"a": {"coords": [...]}, ..., "e": {...}, "lam": 0.41}``.
``replay_witness`` decodes it and reruns the trial, reproducing the worst
margin exactly, for all 13 properties and on every space family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from . import serialize
from .geometry import cauchy_schwarz_gap, quasilinearization
from .sampling import SamplingRegion, sampler, stream
from .solvers import IterationTrace, PowerLaw
from .spaces import Basepoint, Point, Space


@dataclass
class PropertyReport:
    name: str
    trials: int
    violations: int
    worst_margin: float
    worst_witness: Optional[dict]
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.violations == 0


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
        if slack < -self.eps * scale:
            self.violations += 1

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


def _tuple_scale(space: Space, pts: list[Point]) -> float:
    s = 1.0
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            d = space.distance(pts[i], pts[j])
            s += d * d
    return s


def _axiom_trial(space: Space, a: Point, b: Point, c: Point, d: Point, e: Point, lam: float):
    """Metric axioms, geodesic interpolation contract, Cauchy-Schwarz and the
    pairing identities on one tuple; yields (name, slack, scale)."""
    scale = _tuple_scale(space, [a, b, c, d])
    dab, dba = space.distance(a, b), space.distance(b, a)
    yield "metric_symmetry", -abs(dab - dba), scale
    dac, dbc = space.distance(a, c), space.distance(b, c)
    yield "triangle_inequality", dab + dbc - dac, scale

    z = space.geodesic_point(a, b, lam)
    yield "geodesic_distance_to_start", -abs(space.distance(z, a) - (1.0 - lam) * dab), 1.0 + dab
    yield "geodesic_distance_to_end", -abs(space.distance(z, b) - lam * dab), 1.0 + dab

    yield "cauchy_schwarz", cauchy_schwarz_gap(space, a, b, c, d), scale

    q_abcd = quasilinearization(space, a, b, c, d)
    yield "pairing_symmetry", -abs(q_abcd - quasilinearization(space, c, d, a, b)), scale
    yield "pairing_antisymmetry", -abs(q_abcd + quasilinearization(space, b, a, c, d)), scale
    scale5 = _tuple_scale(space, [a, b, c, d, e])
    yield "pairing_additivity", -abs(
        quasilinearization(space, a, e, c, d) + quasilinearization(space, e, b, c, d) - q_abcd
    ), scale5


def _lemma_trial(space: Space, p: Point, q: Point, r: Point, s: Point, lam: float):
    """The five geodesic interpolation inequalities on one tuple, with
    mid = lam*p (+) (1-lam)*q; yields (name, slack, scale)."""
    scale = _tuple_scale(space, [p, q, r, s])
    mid = space.geodesic_point(p, q, lam)
    z2 = space.geodesic_point(r, s, lam)
    yield "joint_interpolation_nonexpansive", (
        lam * space.distance(p, r) + (1.0 - lam) * space.distance(q, s) - space.distance(mid, z2)
    ), scale

    dxz, dyz = space.distance(p, r), space.distance(q, r)
    dmid = space.distance(mid, r)
    yield "distance_convex_along_geodesics", lam * dxz + (1.0 - lam) * dyz - dmid, scale
    dxy = space.distance(p, q)
    yield "squared_distance_strongly_convex", (
        lam * dxz * dxz + (1.0 - lam) * dyz * dyz - lam * (1.0 - lam) * dxy * dxy - dmid * dmid
    ), scale
    yield "interpolation_pairing_bound", (
        lam * quasilinearization(space, p, q, mid, s) - quasilinearization(space, mid, q, mid, s)
    ), scale
    yield "interpolation_cross_term_bound", (
        lam * lam * dxz * dxz
        + (1.0 - lam) * (1.0 - lam) * dyz * dyz
        + 2.0 * lam * (1.0 - lam) * quasilinearization(space, p, r, q, r)
        - dmid * dmid
    ), scale


# each trial family and the key of its sampling stream
_FAMILIES = {_axiom_trial: 0xA, _lemma_trial: 0xB}
# the pairing identities hold to rounding; checked at a tighter tolerance
_TIGHT = {"pairing_symmetry": 1e-12}


def _inputs(trial) -> tuple[str, ...]:
    """Names of a trial's inputs after ``space``; they key its witnesses."""
    code = trial.__code__
    return code.co_varnames[1:code.co_argcount]


def _check(trial, space: Space, trials: int, eps: float, seed: int, region) -> list[PropertyReport]:
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = stream(seed, _FAMILIES[trial])
    draw = sampler(space, region)
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
    region: Optional[SamplingRegion] = None,
) -> list[PropertyReport]:
    """Metric axioms, geodesic interpolation contract, Cauchy-Schwarz, and
    the quasilinearization pairing identities, on random tuples."""
    return _check(_axiom_trial, space, trials, eps, seed, region)


def check_lemmas(
    space: Space,
    trials: int,
    eps: float = 1e-8,
    seed: int = 0,
    region: Optional[SamplingRegion] = None,
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
    return _check(_lemma_trial, space, trials, eps, seed, region)


def replay_witness(space: Space, report: PropertyReport) -> Optional[float]:
    """Slack of ``report``'s property at its worst witness, recomputed from
    the serialized witness alone; equals ``report.worst_margin`` exactly.

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


@dataclass
class RecursionResult:
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


@dataclass
class TraceDiagnostics:
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
    base: Basepoint,
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
        base_sq = space.distance(trace.reference, base.o) ** 2
        scale = max(1.0 + base_sq + r.ref_distance**2 for r in rows)
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

    def distance(self, a: Point, b: Point) -> float:
        return self.inner.distance(a, b) ** 1.5

    def geodesic_point(self, x: Point, y: Point, lam: float) -> Point:
        return self.inner.geodesic_point(x, y, lam)

    def point_violations(self, p: Point) -> list[str]:
        return self.inner.point_violations(p)
