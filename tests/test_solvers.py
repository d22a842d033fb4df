import math

import numpy as np
import pytest

import hadamard as hd
from hadamard import convex, mappings
from hadamard.solvers import _perturbation_point
from conftest import ept, hpt_polar


def make_scenario(E2):
    C = hd.Ball(ept(E2, 0.0, 0.0), 3.0)
    T = hd.ProjectionOnto(hd.Segment(ept(E2, -2.0, 1.0), ept(E2, 2.0, 1.0)))
    base = hd.Basepoint(ept(E2, 0.0, 0.0))
    q = ept(E2, 0.0, 1.0)
    return C, T, base, q


def test_implicit_step_matches_linear_solve(E2):
    # with a linear (rotation) map and no constraint the anchored fixed-point
    # equation is a 2x2 linear system
    center = ept(E2, 1.0, 2.0)
    theta, alpha = 0.9, 0.3
    u = ept(E2, 4.0, -1.0)
    T = hd.compile_mapping(E2, hd.Rotation(center, theta))
    got, iterations = hd.implicit_step(
        E2, hd.WholeSpace(), T, alpha, u, ept(E2, 0.0, 0.0), inner_tol=1e-12
    )
    c, s = math.cos(theta), math.sin(theta)
    R = np.array([[c, -s], [s, c]])
    cc = np.array(center.data)
    A = np.eye(2) - (1 - alpha) * R
    rhs = alpha * np.array(u.data) + (1 - alpha) * (cc - R @ cc)
    want = np.linalg.solve(A, rhs)
    assert np.allclose(got.data, want, atol=1e-8)
    assert iterations < 200


def test_implicit_step_argument_checks(E2):
    T = hd.compile_mapping(E2, hd.Identity())
    with pytest.raises(ValueError):
        hd.implicit_step(E2, hd.WholeSpace(), T, 1.5, ept(E2, 0, 0), ept(E2, 0, 0))


def test_implicit_step_inner_budget(E2):
    # a slow contraction with a tight tolerance cannot finish in 3 iterations
    center = ept(E2, 0.0, 0.0)
    T = hd.compile_mapping(E2, hd.Rotation(center, 0.1))
    with pytest.raises(hd.InnerBudgetError) as err:
        hd.implicit_step(
            E2, hd.WholeSpace(), T, 0.01, ept(E2, 5.0, 5.0), ept(E2, -5.0, 3.0),
            inner_tol=1e-14, max_inner=3,
        )
    assert err.value.iterations == 3
    assert err.value.gap > 0


def test_run_implicit_identity_converges_to_base(E2):
    # T = identity fixes everything, so the scheme drives x to the base point
    C = hd.Ball(ept(E2, 1.0, 0.0), 2.0)
    base = hd.Basepoint(ept(E2, 1.0, 0.5))
    sched = hd.Schedule(anchor=hd.PowerLaw(1.0, 1.0, 1.0), perturbation=hd.PowerLaw(0.0, 1.0, 1.0))
    trace = hd.run_implicit(E2, C, hd.Identity(), sched, base, budget=50)
    assert E2.distance(trace.final, base.o) <= 1e-6


def test_run_implicit_scenario_error_decays_like_anchor(E2):
    C, T, base, q = make_scenario(E2)
    sched = hd.Schedule(anchor=hd.PowerLaw(1.0, 1.0, 1.0), perturbation=hd.PowerLaw(1.0, 2.0, 1.0))
    trace = hd.run_implicit(E2, C, T, sched, base, budget=60, seed=0, reference=q)
    assert trace.rows[-1].ref_distance == pytest.approx(1.0 / 61.0, rel=0.1)


def test_run_implicit_rejects_constant_anchor(E2):
    C, T, base, _ = make_scenario(E2)
    sched = hd.Schedule(anchor=hd.PowerLaw(0.5, 0.0, 1.0), perturbation=hd.PowerLaw(0.0, 1.0, 1.0))
    with pytest.raises(hd.ScheduleError):
        hd.run_implicit(E2, C, T, sched, base, budget=5)


def test_run_explicit_rejects_bad_schedules(E2):
    C, T, base, _ = make_scenario(E2)
    x0 = ept(E2, 2.0, -2.0)
    bad = hd.Schedule(
        anchor=hd.PowerLaw(1.0, 2.0, 1.0), perturbation=hd.PowerLaw(1.0, 1.0, 1.0), mixing=0.5
    )
    with pytest.raises(hd.ScheduleError, match=r"\(i\)"):
        hd.run_explicit(E2, C, T, bad, base, x0=x0, budget=10)
    no_mix = hd.Schedule(anchor=hd.PowerLaw(1.0, 0.7, 2.0), perturbation=hd.PowerLaw(1.0, 1.0, 2.0))
    with pytest.raises(hd.ScheduleError, match=r"\(ii\)"):
        hd.run_explicit(E2, C, T, no_mix, base, x0=x0, budget=10)


def test_run_explicit_requires_feasible_start(E2):
    C, T, base, _ = make_scenario(E2)
    sched = hd.Schedule(anchor=hd.PowerLaw(1.0, 0.7, 2.0), perturbation=hd.PowerLaw(1.0, 1.0, 2.0), mixing=0.5)
    with pytest.raises(ValueError):
        hd.run_explicit(E2, C, T, sched, base, x0=ept(E2, 4.0, 0.0), budget=10)


def test_run_explicit_trace_shape_and_determinism(E2):
    C, T, base, q = make_scenario(E2)
    sched = hd.Schedule(anchor=hd.PowerLaw(1.0, 0.7, 2.0), perturbation=hd.PowerLaw(1.0, 1.0, 2.0), mixing=0.5)
    kw = dict(base=base, x0=ept(E2, 2.0, -2.0), budget=200, seed=5, reference=q)
    t1 = hd.run_explicit(E2, C, T, sched, **kw)
    t2 = hd.run_explicit(E2, C, T, sched, **kw)
    assert [r.n for r in t1.rows] == list(range(201))
    assert all(
        a.fixed_residual == b.fixed_residual and a.step == b.step for a, b in zip(t1.rows, t2.rows)
    )
    assert t1.final == t2.final
    different = hd.run_explicit(E2, C, T, sched, base=base, x0=ept(E2, 2.0, -2.0), budget=200, seed=6, reference=q)
    assert different.final != t1.final


def test_validate_schedules_cases():
    ok = hd.Schedule(anchor=hd.PowerLaw(1.0, 0.7, 2.0), perturbation=hd.PowerLaw(1.0, 1.0, 2.0), mixing=0.5)
    rep = hd.validate_schedules(ok)
    assert rep.all_passed
    assert rep.condition_i.method == "analytic"

    # anchor summable -> (i) fails
    rep = hd.validate_schedules(
        hd.Schedule(anchor=hd.PowerLaw(1.0, 2.0, 1.0), perturbation=hd.PowerLaw(1.0, 1.0, 1.0), mixing=0.5)
    )
    assert not rep.condition_i.passed and rep.condition_ii.passed

    # mixing at the boundary or decaying -> (ii) fails
    for mixing in (0.0, 1.0, hd.PowerLaw(1.0, 0.5, 1.0)):
        rep = hd.validate_schedules(
            hd.Schedule(anchor=hd.PowerLaw(1.0, 0.7, 2.0), perturbation=hd.PowerLaw(1.0, 1.0, 2.0), mixing=mixing)
        )
        assert not rep.condition_ii.passed

    # constant mixing expressed as a zero-power law passes
    rep = hd.validate_schedules(
        hd.Schedule(anchor=hd.PowerLaw(1.0, 0.7, 2.0), perturbation=hd.PowerLaw(1.0, 1.0, 2.0), mixing=hd.PowerLaw(0.5, 0.0, 1.0))
    )
    assert rep.condition_ii.passed

    # anchored perturbation series must be summable
    rep = hd.validate_schedules(
        hd.Schedule(anchor=hd.PowerLaw(1.0, 0.7, 2.0), perturbation=hd.PowerLaw(1.0, 0.2, 1.0), mixing=0.5)
    )
    assert not rep.condition_iii.passed
    rep = hd.validate_schedules(
        hd.Schedule(anchor=hd.PowerLaw(1.0, 0.7, 2.0), perturbation=hd.PowerLaw(0.0, 0.0, 1.0), mixing=0.5)
    )
    assert rep.condition_iii.passed


def test_perturbation_point_hits_target_norm(E2, H2):
    for space in (E2, H2):
        base = hd.Basepoint(space.base if hasattr(space, "base") else ept(space, 0.25, 0.25))
        region = hd.default_region(space)
        rng = hd.stream(3, 1)
        for target in (0.5, 0.01, 0.0):
            u = _perturbation_point(space, base, region, rng, target)
            assert space.distance(base.o, u) == pytest.approx(target, abs=1e-9)


def test_nearest_fixed_point_residual_list_and_set(E2):
    base = hd.Basepoint(ept(E2, 0.0, 0.0))
    seg = hd.Segment(ept(E2, -2.0, 1.0), ept(E2, 2.0, 1.0))
    q = ept(E2, 0.0, 1.0)
    # at the true nearest point the pairing stays nonpositive
    assert hd.nearest_fixed_point_residual(E2, q, base, seg, probes=500) <= 1e-9
    # a displaced candidate produces a strictly positive residual
    wrong = ept(E2, 1.0, 1.0)
    assert hd.nearest_fixed_point_residual(E2, wrong, base, seg, probes=500) > 0.1
    # explicit point lists work too
    pts = [ept(E2, t, 1.0) for t in np.linspace(-2, 2, 41)]
    assert hd.nearest_fixed_point_residual(E2, q, base, pts) <= 1e-9
    with pytest.raises(ValueError):
        hd.nearest_fixed_point_residual(E2, q, base, [])


def test_set_validation_runs_once_per_run(E2, monkeypatch):
    # the solver compiles its sets before the loops, so the number of set
    # validations does not grow with the budget or the inner iterations
    C, T, base, _ = make_scenario(E2)
    sched = hd.Schedule(anchor=hd.PowerLaw(1.0, 1.0, 1.0), perturbation=hd.PowerLaw(1.0, 2.0, 1.0))
    calls = []
    validate = convex._validate_set
    monkeypatch.setattr(convex, "_validate_set", lambda *args: calls.append(1) or validate(*args))
    counts = []
    for budget in (5, 20):
        mappings._compile.cache_clear()
        calls.clear()
        trace = hd.run_implicit(E2, C, T, sched, base, budget=budget, seed=0)
        assert len(trace.rows) == budget
        counts.append(len(calls))
    assert counts[0] == counts[1] >= 1
