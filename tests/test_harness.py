import dataclasses
import json
import math

import pytest

import hadamard as hd
from hadamard.harness import _axiom_trial, _Collector, _lemma_trial, replay_witness
from hadamard.solvers import IterationTrace, TraceRow
from conftest import OffsetMetric, ept


class Asymmetric(hd.CorruptedSpace):
    """A real space's distance plus 1e-3 when ``a.data < b.data``, so that
    d(a, b) != d(b, a): a trial that reuses d(a, b) for d(b, a) gives
    different bits on it."""

    def distance(self, a, b):
        return self.inner.distance(a, b) + (1e-3 if a.data < b.data else 0.0)


class Counting(hd.CorruptedSpace):
    """A real space's distance, counting its calls."""

    calls = 0

    def distance(self, a, b):
        self.calls += 1
        return self.inner.distance(a, b)


def _scale(space, pts):
    s = 1.0
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            d = space.distance(pts[i], pts[j])
            s += d * d
    return s


def _reference_axioms(space, a, b, c, d, e, lam):
    """The eight axiom-trial properties as defined through the pairing
    functions of ``geometry``, one distance call per use."""
    dist, ql = space.distance, hd.quasilinearization
    scale = _scale(space, [a, b, c, d])
    dab = dist(a, b)
    z = space.geodesic_point(a, b, lam)
    q = ql(space, a, b, c, d)
    return [
        ("metric_symmetry", -abs(dab - dist(b, a)), scale),
        ("triangle_inequality", dab + dist(b, c) - dist(a, c), scale),
        ("geodesic_distance_to_start", -abs(dist(z, a) - (1.0 - lam) * dab), 1.0 + dab),
        ("geodesic_distance_to_end", -abs(dist(z, b) - lam * dab), 1.0 + dab),
        ("cauchy_schwarz", dab * dist(c, d) - ql(space, a, b, c, d), scale),
        ("pairing_symmetry", -abs(q - ql(space, c, d, a, b)), scale),
        ("pairing_antisymmetry", -abs(q + ql(space, b, a, c, d)), scale),
        (
            "pairing_additivity",
            -abs(ql(space, a, e, c, d) + ql(space, e, b, c, d) - q),
            _scale(space, [a, b, c, d, e]),
        ),
    ]


def _reference_lemmas(space, p, q, r, s, lam):
    """The five lemma-trial properties, defined as ``_reference_axioms``."""
    dist, ql = space.distance, hd.quasilinearization
    scale = _scale(space, [p, q, r, s])
    mid = space.geodesic_point(p, q, lam)
    z2 = space.geodesic_point(r, s, lam)
    dxz, dyz, dxy, dmid = dist(p, r), dist(q, r), dist(p, q), dist(mid, r)
    return [
        (
            "joint_interpolation_nonexpansive",
            lam * dist(p, r) + (1.0 - lam) * dist(q, s) - dist(mid, z2),
            scale,
        ),
        ("distance_convex_along_geodesics", lam * dxz + (1.0 - lam) * dyz - dmid, scale),
        (
            "squared_distance_strongly_convex",
            lam * dxz * dxz + (1.0 - lam) * dyz * dyz - lam * (1.0 - lam) * dxy * dxy - dmid * dmid,
            scale,
        ),
        (
            "interpolation_pairing_bound",
            lam * ql(space, p, q, mid, s) - ql(space, mid, q, mid, s),
            scale,
        ),
        (
            "interpolation_cross_term_bound",
            lam * lam * dxz * dxz
            + (1.0 - lam) * (1.0 - lam) * dyz * dyz
            + 2.0 * lam * (1.0 - lam) * ql(space, p, r, q, r)
            - dmid * dmid,
            scale,
        ),
    ]


def _tuples(space, points, count, seed):
    rng = hd.stream(seed)
    draw = hd.sampler(space)
    for _ in range(count):
        yield (*(draw(rng) for _ in range(points)), rng.random())


SPACES = {
    "E2": lambda f: f("E2"),
    "H2": lambda f: f("H2"),
    "tree": lambda f: f("tree"),
    "E2xH2": lambda f: f("prod"),
    "corrupted": lambda f: hd.CorruptedSpace(f("E2")),
    "offset": lambda f: OffsetMetric(f("prod")),
    "asymmetric": lambda f: Asymmetric(f("H2")),
}


@pytest.mark.parametrize("name", SPACES)
def test_trials_match_the_pairing_definitions_bit_for_bit(name, request):
    space = SPACES[name](request.getfixturevalue)
    for inputs in _tuples(space, 5, 200, seed=11):
        assert list(_axiom_trial(space, *inputs)) == _reference_axioms(space, *inputs)
    for inputs in _tuples(space, 4, 200, seed=12):
        assert list(_lemma_trial(space, *inputs)) == _reference_lemmas(space, *inputs)


@pytest.mark.parametrize("space", ["E2", "tree", "prod"])
def test_trials_measure_each_ordered_pair_once(space, request):
    counting = Counting(request.getfixturevalue(space))
    for trial, points, properties, pairs in ((_axiom_trial, 5, 8, 19), (_lemma_trial, 4, 5, 14)):
        for inputs in _tuples(counting, points, 5, seed=3):
            counting.calls = 0
            assert len(list(trial(counting, *inputs))) == properties
            assert counting.calls == pairs


def test_axioms_clean_on_euclidean(E2):
    reports = hd.check_space_axioms(E2, trials=2000, eps=1e-8, seed=1)
    assert len(reports) == 8
    for r in reports:
        assert r.violations == 0, r.name
        assert r.trials == 2000


def test_lemmas_clean_on_tree(tree):
    reports = hd.check_lemmas(tree, trials=2000, eps=1e-8, seed=2)
    assert len(reports) == 5
    for r in reports:
        assert r.violations == 0, r.name


def test_reports_are_deterministic(E2):
    a = hd.check_space_axioms(E2, trials=500, eps=1e-8, seed=7)
    b = hd.check_space_axioms(E2, trials=500, eps=1e-8, seed=7)
    assert [(r.name, r.worst_margin, r.worst_witness) for r in a] == [
        (r.name, r.worst_margin, r.worst_witness) for r in b
    ]


def test_trials_must_be_positive(E2):
    with pytest.raises(ValueError):
        hd.check_space_axioms(E2, trials=0)
    with pytest.raises(ValueError):
        hd.check_lemmas(E2, trials=0)


@pytest.mark.parametrize("space", ["E2", "prod"], ids=["E2", "E2xH2"])
def test_corrupted_space_is_flagged_with_replayable_witness(space, request):
    cor = hd.CorruptedSpace(request.getfixturevalue(space))
    reports = hd.check_space_axioms(cor, trials=500, eps=1e-8, seed=1)
    reports += hd.check_lemmas(cor, trials=500, eps=1e-8, seed=1)
    bad = [r for r in reports if r.violations]
    names = {r.name for r in bad}
    assert "triangle_inequality" in names
    assert "cauchy_schwarz" in names
    for r in bad:
        # replay from the witness as printed: plain JSON, no live Points
        printed = dataclasses.replace(r, worst_witness=json.loads(json.dumps(r.worst_witness)))
        slack = replay_witness(cor, printed)
        assert slack == r.worst_margin, r.name
        assert slack < 0


OVERFLOWING = {
    "cauchy_schwarz", "pairing_symmetry", "pairing_antisymmetry", "pairing_additivity",
    "squared_distance_strongly_convex", "interpolation_pairing_bound", "interpolation_cross_term_bound",
}


def test_nan_slacks_are_violations_with_replayable_witnesses():
    # squared distances of points 1e300 apart overflow, so these slacks are
    # inf - inf; a NaN slack fails its check, where slack < -eps * scale
    # would let it pass.  A tree whose rays are 1e300 long has such points;
    # sampler refuses an E^n radius that reaches them
    star = hd.make_space(hd.WeightedTree(hd.TreeTopology(4, tuple((0, i, 1e300) for i in (1, 2, 3)))))
    reports = hd.check_space_axioms(star, trials=20)
    reports += hd.check_lemmas(star, trials=20)
    assert {r.name for r in reports if r.violations} == OVERFLOWING
    for r in reports:
        if r.name in OVERFLOWING:
            assert r.violations == r.trials == 20 and math.isnan(r.worst_margin), r
            printed = dataclasses.replace(r, worst_witness=json.loads(json.dumps(r.worst_witness)))
            assert math.isnan(replay_witness(star, printed)), r.name
        else:
            assert not math.isnan(r.worst_margin), r


def test_a_nan_slack_ranks_below_every_number():
    col = _Collector("p", 1e-8)
    for slack, inputs in ((0.5, "a"), (-1.0, "b"), (math.nan, "c"), (-math.inf, "d"), (math.nan, "e"), (0.0, "f")):
        col.record(slack, 1.0, inputs)
    assert col.trials == 6 and col.violations == 4
    assert math.isnan(col.worst) and col.inputs == "c"


def test_corrupted_space_lemma_violations(E2):
    cor = hd.CorruptedSpace(E2)
    reports = hd.check_lemmas(cor, trials=500, eps=1e-8, seed=1)
    assert any(r.violations for r in reports)


def test_liu_recursion_telescoping():
    res = hd.liu_recursion(
        1.0,
        gamma=hd.PowerLaw(1.0, 1.0, 2.0),
        delta=hd.PowerLaw(0.0, 1.0, 1.0),
        sigma=hd.PowerLaw(0.0, 1.0, 1.0),
        steps=1000,
        threshold=1e-2,
    )
    assert res.final == pytest.approx(1.0 / 1001.0, abs=1e-12)
    assert res.verdict == "consistent"
    assert all(res.hypotheses.values())


def test_liu_recursion_zero_stays_zero():
    res = hd.liu_recursion(
        0.0,
        gamma=hd.PowerLaw(1.0, 1.0, 2.0),
        delta=hd.PowerLaw(-1.0, 0.5, 1.0),
        sigma=hd.PowerLaw(0.0, 1.0, 1.0),
        steps=200,
    )
    # delta <= 0 can only push below zero; the recursion floor is...
    # actually a_n can go negative with negative delta; check it never rises
    assert res.final <= 0.0 + 1e-15


def test_liu_recursion_validates_gamma():
    with pytest.raises(ValueError):
        hd.liu_recursion(1.0, hd.PowerLaw(1.0, 1.0, 1.0), hd.PowerLaw(0, 1), hd.PowerLaw(0, 1), 10)
    with pytest.raises(ValueError):
        hd.liu_recursion(-1.0, hd.PowerLaw(1.0, 1.0, 2.0), hd.PowerLaw(0, 1), hd.PowerLaw(0, 1), 10)


def test_liu_recursion_flags_unmet_hypotheses():
    res = hd.liu_recursion(
        1.0,
        gamma=hd.PowerLaw(0.5, 0.0, 1.0),  # constant, not vanishing
        delta=hd.PowerLaw(0.0, 1.0, 1.0),
        sigma=hd.PowerLaw(1.0, 0.5, 1.0),  # not summable
        steps=100,
    )
    assert not res.hypotheses["gamma_vanishes_divergent"]
    assert not res.hypotheses["sigma_summable"]


def test_trace_diagnostics_constant_trace(E2):
    q = ept(E2, 0.0, 1.0)
    base = ept(E2, 0.0, 0.0)
    trace = IterationTrace(
        rows=[TraceRow(n=i, fixed_residual=0.0, ref_distance=0.0, qx_inner=0.0) for i in range(20)],
        final=q,
        reference=q,
    )
    diag = hd.trace_diagnostics(E2, trace, base, tail_fraction=0.5)
    assert diag.rows_considered == 10
    assert diag.max_fixed_residual == 0.0
    assert diag.max_qx_inner == pytest.approx(0.0, abs=1e-15)
    assert diag.within(1e-12, qx_tol=1e-12)


def test_trace_diagnostics_flags_translation(E2):
    # fixed-point-free translation: residual stays at the shift norm
    C = hd.Ball(ept(E2, 0.0, 0.0), 50.0)
    base = ept(E2, 0.0, 0.0)
    sched = hd.Schedule(
        anchor=hd.PowerLaw(1.0, 0.7, 2.0), perturbation=hd.PowerLaw(1.0, 1.0, 2.0), mixing=0.5
    )
    trace = hd.run_explicit(
        E2, C, hd.Translation((0.5, 0.0)), sched, base, x0=ept(E2, 0.0, 0.0), budget=300, seed=0
    )
    assert trace.status == "budget"
    diag = hd.trace_diagnostics(E2, trace, base)
    assert diag.max_fixed_residual > 0.1
    assert not diag.within(1e-3)
    # a run without a reference has no pairing: the residuals alone decide
    assert diag.max_qx_inner is None and diag.qx_scale is None
    assert diag.within(1.0)
    with pytest.raises(ValueError, match="reference"):
        diag.within(1.0, qx_tol=1.0)


def test_trace_diagnostics_validates_input(E2):
    base = ept(E2, 0.0, 0.0)
    with pytest.raises(ValueError):
        hd.trace_diagnostics(E2, IterationTrace(), base)
    trace = IterationTrace(rows=[TraceRow(n=0, fixed_residual=0.0)], final=ept(E2, 0, 0))
    with pytest.raises(ValueError):
        hd.trace_diagnostics(E2, trace, base, tail_fraction=0.0)


def test_trace_diagnostics_scale_past_the_squared_float_range_is_inf(E2):
    # reference distances of 1e200 square past the float range: the scale
    # reads inf rather than raising
    q, base = ept(E2, 0.0, 1e200), ept(E2, 0.0, 0.0)
    trace = IterationTrace(
        rows=[TraceRow(n=i, fixed_residual=0.0, ref_distance=1e200, qx_inner=0.0) for i in range(4)],
        final=q,
        reference=q,
    )
    diag = hd.trace_diagnostics(E2, trace, base)
    assert diag.qx_scale == math.inf and diag.within(1e-12, qx_tol=1e-12)
