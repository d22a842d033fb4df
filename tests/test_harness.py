import dataclasses
import json
import math

import pytest

import hadamard as hd
from hadamard.harness import replay_witness
from hadamard.solvers import IterationTrace, TraceRow
from conftest import ept


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
    base = hd.Basepoint(ept(E2, 0.0, 0.0))
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
    base = hd.Basepoint(ept(E2, 0.0, 0.0))
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
    base = hd.Basepoint(ept(E2, 0.0, 0.0))
    with pytest.raises(ValueError):
        hd.trace_diagnostics(E2, IterationTrace(), base)
    trace = IterationTrace(rows=[TraceRow(n=0, fixed_residual=0.0)], final=ept(E2, 0, 0))
    with pytest.raises(ValueError):
        hd.trace_diagnostics(E2, trace, base, tail_fraction=0.0)
