import ast
import io
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import hadamard as hd
from hadamard import convex, serialize, solvers
from hadamard.experiments import execute
from hadamard.geometry import pairing_against
from conftest import OffsetMetric, ept, hpt_polar

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def make_scenario(E2):
    C = hd.Ball(ept(E2, 0.0, 0.0), 3.0)
    T = hd.ProjectionOnto(hd.Segment(ept(E2, -2.0, 1.0), ept(E2, 2.0, 1.0)))
    base = ept(E2, 0.0, 0.0)
    q = ept(E2, 0.0, 1.0)
    return C, T, base, q


def test_implicit_step_matches_linear_solve(E2):
    # with a linear (rotation) map and no constraint the anchored fixed-point
    # equation is a 2x2 linear system
    center = ept(E2, 1.0, 2.0)
    theta, alpha = 0.9, 0.3
    u = ept(E2, 4.0, -1.0)
    T = hd.compile_mapping(E2, hd.Rotation(center, theta))
    got, iterations, bound = hd.implicit_step(
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
    # the returned a-posteriori bound is the exit test's, and it holds
    assert 0.0 <= bound <= 1e-12
    assert float(np.linalg.norm(np.array(got.data) - want)) <= bound + 1e-14


def test_implicit_step_argument_checks(E2):
    T = hd.compile_mapping(E2, hd.Identity())
    with pytest.raises(ValueError):
        hd.implicit_step(E2, hd.WholeSpace(), T, 1.5, ept(E2, 0, 0), ept(E2, 0, 0))


@pytest.mark.parametrize("max_inner", [0, -1])
def test_inner_budget_below_one_is_rejected(E2, max_inner):
    # no inner iteration would leave no iterate to return
    C, T, base, _ = make_scenario(E2)
    with pytest.raises(ValueError, match="max_inner must be at least 1"):
        hd.implicit_step(E2, C, hd.compile_mapping(E2, T), 0.5, base, base, max_inner=max_inner)
    sched = hd.Schedule(anchor=law(1, 1), perturbation=law(1, 2))
    with pytest.raises(ValueError, match="max_inner must be at least 1"):
        hd.run_implicit(E2, C, T, sched, base, budget=5, max_inner=max_inner)


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
    base = ept(E2, 1.0, 0.5)
    sched = hd.Schedule(anchor=hd.PowerLaw(1.0, 1.0, 1.0), perturbation=hd.PowerLaw(0.0, 1.0, 1.0))
    trace = hd.run_implicit(E2, C, hd.Identity(), sched, base, budget=50)
    assert E2.distance(trace.final, base) <= 1e-6


def test_run_implicit_scenario_error_decays_like_anchor(E2):
    C, T, base, q = make_scenario(E2)
    sched = hd.Schedule(anchor=hd.PowerLaw(1.0, 1.0, 1.0), perturbation=hd.PowerLaw(1.0, 2.0, 1.0))
    trace = hd.run_implicit(E2, C, T, sched, base, budget=60, seed=0, reference=q)
    assert trace.rows[-1].ref_distance == pytest.approx(1.0 / 61.0, rel=0.1)


def test_shipped_implicit_config_solves_inner_steps_inexactly():
    # step m solves to max(inner_tol, a_m * outer_tol), and each row records
    # the bound it reached; the outer stop still reads d(x, Tx)
    doc = json.loads((CONFIG_DIR / "segment_implicit.json").read_text())
    cfg = serialize.config_from_json(doc)
    trace, summary = execute(cfg)
    assert trace.status == "converged"
    assert trace.last.fixed_residual <= cfg.outer_tol
    assert math.dist(trace.final.data, (0.0, 1.0)) <= 1e-2
    for row in trace.rows:
        eps = max(cfg.inner_tol, cfg.schedule.anchor.value(row.n) * cfg.outer_tol)
        assert row.inner_iterations >= 1
        assert 0.0 <= row.inner_bound <= eps
    total = sum(row.inner_iterations for row in trace.rows)
    assert total <= 10_000
    assert summary["inner_iterations"] == total


def test_run_implicit_without_outer_tol_solves_to_inner_tol(E2):
    C, T, base, q = make_scenario(E2)
    sched = hd.Schedule(anchor=hd.PowerLaw(1.0, 1.0, 1.0), perturbation=hd.PowerLaw(1.0, 2.0, 1.0))
    trace = hd.run_implicit(E2, C, T, sched, base, budget=40, seed=0, inner_tol=1e-9)
    assert len(trace.rows) == 40
    assert all(0.0 <= row.inner_bound <= 1e-9 for row in trace.rows)


def test_explicit_rows_leave_inner_cells_empty(E2):
    C, T, base, q = make_scenario(E2)
    sched = hd.Schedule(anchor=hd.PowerLaw(1.0, 0.7, 2.0), perturbation=hd.PowerLaw(1.0, 1.0, 2.0), mixing=0.5)
    trace = hd.run_explicit(E2, C, T, sched, base, x0=ept(E2, 2.0, -2.0), budget=20, reference=q)
    out = io.StringIO()
    serialize.write_trace_csv(trace, out)
    header, *rows = out.getvalue().splitlines()
    assert header.split(",")[-2:] == ["inner_iterations", "inner_bound"]
    assert len(rows) == 21
    assert all(row.split(",")[-2:] == ["", ""] for row in rows)


def test_explicit_run_can_converge_on_its_closing_row():
    # the closing row for x_budget meets the same stop test as every other row
    cfg = serialize.config_from_json(json.loads((CONFIG_DIR / "segment_explicit.json").read_text()))
    space = hd.make_space(cfg.space)
    kw = dict(base=cfg.basepoint, x0=cfg.x0, seed=cfg.seed)

    def run(budget, outer_tol=0.0):
        return hd.run_explicit(
            space, cfg.convex_set, cfg.mapping, cfg.schedule, budget=budget, outer_tol=outer_tol, **kw
        )

    residuals = [row.fixed_residual for row in run(50).rows]
    b = next(n for n in range(1, 51) if residuals[n] < min(residuals[:n]))
    trace = run(b, outer_tol=residuals[b])
    assert [row.n for row in trace.rows] == list(range(b + 1))
    assert trace.status == "converged"


def test_inner_budget_outranks_a_converged_residual(E2):
    # T = identity leaves a residual of 0, but the inner solve ran out first
    sched = hd.Schedule(anchor=law(1, 1), perturbation=law(1, 1))
    base = ept(E2, 0.0, 0.0)
    trace = hd.run_implicit(
        E2, hd.WholeSpace(), hd.Identity(), sched, base, budget=5, outer_tol=1e-3, max_inner=1
    )
    assert len(trace.rows) == 1 and trace.rows[0].fixed_residual == 0.0
    assert trace.status == "inner_budget"


def test_only_the_driver_records_a_run():
    # the trace, the status and the stop test are written once: no function
    # in solvers.py but `_run` appends a row, calls the row sink, or sets
    # a status, a final point or a running value (last row, inner total)
    def records(node):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id == "sink"
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            owner = node.func.value
            return node.func.attr == "append" and isinstance(owner, ast.Attribute) and owner.attr == "rows"
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        return any(
            isinstance(t, ast.Attribute) and t.attr in ("status", "final", "last", "inner_iterations")
            for target in targets if target is not None
            for t in ast.walk(target)
        )

    tree = ast.parse(Path(solvers.__file__).read_text())
    writers = {
        fn.name
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if records(node)
    }
    assert writers == {"_run"}

    # one stop rule: only `_run` names the status "diverged" (a docstring
    # that mentions it is a longer constant and does not count)
    def diverged(node):
        return [n for n in ast.walk(node) if isinstance(n, ast.Constant) and n.value == "diverged"]

    run = next(fn for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef) and fn.name == "_run")
    assert len(diverged(tree)) == len(diverged(run)) > 0


@pytest.mark.parametrize("algorithm", ["implicit", "explicit"])
def test_a_sink_takes_every_row_and_the_trace_keeps_running_values(E2, algorithm):
    C, T, base, q = make_scenario(E2)
    sched = hd.Schedule(anchor=law(1, 0.7, 2), perturbation=law(1, 1, 2), mixing=0.5)
    runner, start = (
        (hd.run_implicit, {}) if algorithm == "implicit" else (hd.run_explicit, {"x0": ept(E2, 2.0, -2.0)})
    )

    def run(**kw):
        return runner(E2, C, T, sched, base, budget=30, reference=q, **start, **kw)

    kept, rows = run(), []
    streamed = run(sink=rows.append)
    assert streamed.rows == [] and rows == kept.rows
    for trace in (kept, streamed):
        assert trace.last == kept.rows[-1]
        assert trace.inner_iterations == sum(row.inner_iterations or 0 for row in kept.rows)
    assert (streamed.status, streamed.final) == (kept.status, kept.final)
    assert (kept.inner_iterations > 0) == (algorithm == "implicit")


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


def make_h2_scenario(H2):
    # the explicit-hyperbolic benchmark's problem: a geodesic through the
    # sheet base point, nearest the base point (cosh 1, 0, sinh 1) at q
    C = hd.Ball(H2.base, 4.0)
    T = hd.ProjectionOnto(hd.Segment(hpt_polar(H2, 1.5, 0.0), hpt_polar(H2, 1.5, math.pi)))
    base = hpt_polar(H2, 1.0, 0.5 * math.pi)
    return C, T, base, H2.base, hpt_polar(H2, 1.2, 2.0)


@pytest.mark.parametrize("family", ["E2", "H2"])
def test_explicit_rows_match_recomputed_iterates(request, family):
    # row j stands for iterate x_j, which is the final point of a run with budget j;
    # its cells must equal distance and quasilinearization of x_j bit for bit
    space = request.getfixturevalue(family)
    if family == "E2":
        C, T, base, q = make_scenario(space)
        x0 = ept(space, 2.0, -2.0)
    else:
        C, T, base, q, x0 = make_h2_scenario(space)
    sched = hd.Schedule(anchor=hd.PowerLaw(1.0, 0.7, 2.0), perturbation=hd.PowerLaw(1.0, 1.0, 2.0), mixing=0.5)
    kw = dict(base=base, x0=x0, seed=3, reference=q)
    trace = hd.run_explicit(space, C, T, sched, budget=40, **kw)
    assert trace.status == "budget" and trace.rows[-1].n == 40
    prev = None
    for row in trace.rows[-10:]:
        x = hd.run_explicit(space, C, T, sched, budget=row.n, **kw).final
        assert row.ref_distance == space.distance(x, q), row.n
        assert row.qx_inner == hd.quasilinearization(space, q, base, q, x), row.n
        if prev is not None:
            assert prev.step == space.distance(x, prev_x), prev.n
        prev, prev_x = row, x
    assert x == trace.final


@pytest.mark.parametrize("family", ["E2", "H2"])
def test_rows_keep_every_term_of_the_pairing(request, family):
    # with d(p, p) = 1 the pairing's d(reference, reference) term is not 0
    inner = request.getfixturevalue(family)
    space = OffsetMetric(inner)
    if family == "E2":
        _, T, base, q = make_scenario(inner)
        x0 = ept(inner, 2.0, -2.0)
    else:
        _, T, base, q, x0 = make_h2_scenario(inner)
    sched = hd.Schedule(anchor=hd.PowerLaw(1.0, 0.7, 2.0), perturbation=hd.PowerLaw(1.0, 1.0, 2.0), mixing=0.5)
    kw = dict(base=base, x0=x0, reference=q)
    rows = hd.run_explicit(space, hd.WholeSpace(), T, sched, budget=6, **kw).rows
    assert len(rows) == 7 and rows[0].qx_inner != hd.quasilinearization(inner, q, base, q, x0)
    for row in rows:
        x = hd.run_explicit(space, hd.WholeSpace(), T, sched, budget=row.n, **kw).final if row.n else x0
        assert row.ref_distance == space.distance(x, q)
        assert row.qx_inner == hd.quasilinearization(space, q, base, q, x)


def law(scale, power, shift=1.0):
    return hd.PowerLaw(scale, power, shift)


@pytest.mark.parametrize(
    "anchor, perturbation, budget, want",
    [
        (law(1, 1), law(1, 2), 300, (True, True)),
        (law(0.5, 0), law(0, 1), 300, (False, True)),  # constant anchor
        (law(2, 1), law(1, 2), 300, (False, True)),  # anchor(1) = 1
        (law(1, 400), law(1, 2), 300, (False, True)),  # anchor(300) underflows to 0
        (law(1, 400), law(1, 2), 1, (False, True)),  # anchor(1) = 3.9e-121: 1 - anchor == 1
        (law(1, 1), law(1, 0), 300, (True, False)),  # constant perturbation
        (law(1, 1), law(0, 0), 300, (True, True)),  # no perturbation
    ],
    ids=[
        "ok", "constant-anchor", "anchor-at-1", "anchor-underflow", "anchor-too-small",
        "constant-perturbation", "no-perturbation",
    ],
)
def test_validate_schedules_implicit(anchor, perturbation, budget, want):
    conditions = hd.validate_schedules(hd.Schedule(anchor, perturbation), "implicit", budget)
    assert [c.name[:4] for c in conditions] == ["(i) ", "(ii)"]
    assert tuple(c.passed for c in conditions) == want


@pytest.mark.parametrize(
    "anchor, perturbation, mixing, want",
    [
        (law(1, 0.7, 2), law(1, 1, 2), 0.5, (True, True, True)),
        (law(1, 2), law(1, 1), 0.5, (False, True, True)),  # summable anchor
        (law(1, 0.7), law(1, 1, 2), 0.5, (False, True, True)),  # anchor(0) = 1
        (law(1, 0.7, 2), law(1, 1, 2), None, (True, False, True)),
        (law(1, 0.7, 2), law(1, 1, 2), 0.0, (True, False, True)),
        (law(1, 0.7, 2), law(1, 1, 2), 1.0, (True, False, True)),
        (law(1, 0.7, 2), law(1, 0.2), 0.5, (True, True, False)),  # sum diverges
        (law(1, 0.7, 2), law(0, 0), 0.5, (True, True, True)),  # no perturbation
    ],
    ids=["ok", "summable-anchor", "anchor-at-1", "no-mixing", "mixing-0", "mixing-1", "divergent-series", "no-perturbation"],
)
def test_validate_schedules_explicit(anchor, perturbation, mixing, want):
    conditions = hd.validate_schedules(hd.Schedule(anchor, perturbation, mixing), "explicit", 1000)
    assert [c.name[:5] for c in conditions] == ["(i) v", "(ii) ", "(iii)"]
    assert tuple(c.passed for c in conditions) == want


@pytest.mark.parametrize("algorithm", ["implicit", "explicit"])
@pytest.mark.parametrize(
    "anchor, perturbation, where",
    [
        (law(-1, 1), law(1, 2), "schedule.anchor"),
        (law(1, -1), law(1, 2), "schedule.anchor"),
        (law(1, 1, 0), law(1, 2), "schedule.anchor"),
        (law(1, 1), law(-1, 2), "schedule.perturbation"),
    ],
    ids=["scale", "power", "shift", "perturbation-scale"],
)
def test_validate_schedules_rejects_laws(algorithm, anchor, perturbation, where):
    with pytest.raises(hd.ScheduleError, match=where):
        hd.validate_schedules(hd.Schedule(anchor, perturbation, 0.5), algorithm, 10)


def test_validate_schedules_rejects_arguments():
    ok = hd.Schedule(law(1, 0.7, 2), law(1, 1, 2), 0.5)
    with pytest.raises(hd.ScheduleError, match="budget"):
        hd.validate_schedules(ok, "explicit", 0)
    with pytest.raises(hd.ScheduleError, match="algorithm"):
        hd.validate_schedules(ok, "magic", 10)
    # the explicit scheme starts at n = 0, where these laws overflow
    for anchor, perturbation, where in (
        (law(1, 1000, 1e-300), law(1, 1, 2), "schedule.anchor"),
        (law(1, 0.7, 2), law(1, 1000, 1e-300), "schedule.perturbation"),
        (law(1, 0.7, 2), law(1e308, 1, 0.5), "schedule.perturbation"),
    ):
        with pytest.raises(hd.ScheduleError, match=where):
            hd.validate_schedules(hd.Schedule(anchor, perturbation, 0.5), "explicit", 10)


def test_run_implicit_rejects_underflowing_anchor_up_front(E2):
    # anchor(m) = (m+1)^-400 is 0.0 long before m = 300; the run must not start
    C, T, base, _ = make_scenario(E2)
    sched = hd.Schedule(anchor=law(1, 400), perturbation=law(1, 2))
    with pytest.raises(hd.ScheduleError, match=r"condition \(i\)"):
        hd.run_implicit(E2, C, T, sched, base, budget=300, max_inner=10)


def test_perturbation_point_hits_target_norm(E2, H2):
    # with T the identity on the whole space, step 1's inner fixed point is
    # its perturbation u_1, so the row's ref_distance against the base point
    # is d(u_1, base), the perturbation law's value 2 * target / 2 at m = 1
    for space in (E2, H2):
        base = space.base if hasattr(space, "base") else ept(space, 0.25, 0.25)
        for target in (0.5, 0.01, 0.0):
            sched = hd.Schedule(anchor=law(1, 1), perturbation=law(2.0 * target, 1))
            trace = hd.run_implicit(space, hd.WholeSpace(), hd.Identity(), sched, base, budget=1, seed=3,
                                    reference=base)
            assert trace.rows[0].ref_distance == pytest.approx(target, abs=1e-9)


def test_nearest_fixed_point_residual_list_and_set(E2):
    base = ept(E2, 0.0, 0.0)
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


@pytest.mark.parametrize("family", ["E2", "H2", "offset-E2", "offset-H2"])
def test_nearest_fixed_point_residual_is_the_pairing(request, family):
    # max over p of quasilinearization(space, q, base, q, p), bit for bit
    inner = request.getfixturevalue(family[-2:])
    space = OffsetMetric(inner) if family.startswith("offset") else inner
    draw, rng = hd.sampler(inner), hd.stream(4, 1)
    pts = [draw(rng) for _ in range(50)]
    base, q = pts[0], pts[1]
    want = max(hd.quasilinearization(space, q, base, q, p) for p in pts[2:])
    assert hd.nearest_fixed_point_residual(space, q, base, pts[2:]) == want
    seg = hd.Segment(pts[2], pts[3])
    if space is inner and family == "E2":
        # an E^n segment is certified over its end points, where the
        # pairing, linear along it, takes its maximum
        want = max(hd.quasilinearization(space, q, base, q, p) for p in (seg.a, seg.b))
        assert hd.nearest_fixed_point_residual(space, q, base, seg, probes=200, seed=9) == want
    elif space is inner:
        anchor = hd.project_point(space, seg, q)[0]
        probes = hd.probe_points(space, seg, anchor, 200, seed=hd.solvers.stream_seed(9))
        want = max(hd.quasilinearization(space, q, base, q, p) for p in probes)
        assert hd.nearest_fixed_point_residual(space, q, base, seg, probes=200, seed=9) == want


def test_set_validation_runs_once_per_run(E2, monkeypatch):
    # the solver compiles its sets before the loops, so the number of set
    # validations does not grow with the budget or the inner iterations
    C, T, base, _ = make_scenario(E2)
    sched = hd.Schedule(anchor=hd.PowerLaw(1.0, 1.0, 1.0), perturbation=hd.PowerLaw(1.0, 2.0, 1.0))
    calls = []
    for cls, kind in list(convex._KINDS.items()):
        monkeypatch.setitem(convex._KINDS, cls, lambda *args, kind=kind: calls.append(1) or kind(*args))
    counts = []
    for budget in (5, 20):
        calls.clear()
        trace = hd.run_implicit(E2, C, T, sched, base, budget=budget, seed=0)
        assert len(trace.rows) == budget
        counts.append(len(calls))
    assert counts[0] == counts[1] >= 1


# ---------------------------------------------------------------------------
# a test-side copy of both schemes' step bodies, primitive call by primitive
# call, as the loops read before their kernels and laws were bound once per
# run; every row and final point must match it bit for bit


def _reference_mapping(space, mapping):
    """``compile_mapping``'s closure, with projections, averages and
    compositions applied by their definitions."""
    if isinstance(mapping, hd.ProjectionOnto):
        return hd.compile_set(space, mapping.target)
    if isinstance(mapping, hd.GeodesicAverage):
        inner, w = _reference_mapping(space, mapping.inner), mapping.weight
        return lambda p: space.geodesic_point(p, inner(p), w)
    if isinstance(mapping, hd.Composition):
        parts = [_reference_mapping(space, part) for part in mapping.parts]

        def apply(p):
            for f in parts:
                p = f(p)
            return p

        return apply
    return hd.compile_mapping(space, mapping)


def _law(law, n):
    return law.scale * (n + law.shift) ** (-law.power)


def _reference_run(algorithm, space, cset, mapping, schedule, base, budget, x0=None, outer_tol=0.0,
                   seed=0, reference=None, inner_tol=1e-10, max_inner=10**6):
    """``(rows, final, status)`` of ``run_<algorithm>`` on these arguments."""
    T, P = _reference_mapping(space, mapping), hd.compile_set(space, cset)
    rng, at = hd.stream(seed, solvers.STREAM_PERTURBATION), hd.sphere(space, base)

    def perturbation(n):
        t = _law(schedule.perturbation, n)
        return base if t <= 0.0 else at(rng, t)

    def explicit():
        x, b = x0, schedule.mixing
        for n in range(budget):
            a = _law(schedule.anchor, n)
            tx = T(x)
            residual = space.distance(x, tx)
            u = perturbation(n)
            z = P(space.geodesic_point(u, tx, a))
            z_residual = space.distance(z, x)
            nxt = space._geodesic(x, z, 1.0 - b, z_residual)
            step = space.distance(nxt, x)
            yield solvers.TraceRow(n=n, fixed_residual=residual, step=step, z_residual=z_residual), x, None
            x = nxt
        yield solvers.TraceRow(n=budget, fixed_residual=space.distance(x, T(x))), x, None

    def implicit():
        x = prev = P(base)
        for m in range(1, budget + 1):
            a = _law(schedule.anchor, m)
            u = perturbation(m)
            tol, factor, status = max(inner_tol, a * outer_tol), (1.0 - a) / a, "inner_budget"
            for it in range(1, max_inner + 1):
                nxt = P(space.geodesic_point(u, T(x), a))
                gap = space.distance(nxt, x) * factor
                x = nxt
                if not gap > tol:
                    status = None
                    break
            row = solvers.TraceRow(
                n=m, fixed_residual=space.distance(x, T(x)), step=space.distance(x, prev),
                inner_iterations=it, inner_bound=gap,
            )
            yield row, x, status
            prev = x

    if reference is not None:
        pairing = pairing_against(space, reference, base, reference)
    rows = []
    for row, x, status in (explicit if algorithm == "explicit" else implicit)():
        if reference is not None:
            row.ref_distance = d = space.distance(x, reference)
            row.qx_inner = pairing(d, space.distance(base, x))
        rows.append(row)
        if not row.fixed_residual < math.inf:
            status = "diverged"
        elif status is None and row.fixed_residual <= outer_tol:
            status = "converged"
        if status is not None:
            return rows, x, status
    return rows, x, "budget"


def _same_as_reference(algorithm, space, cset, mapping, schedule, base, budget, x0=None, **kw):
    if algorithm == "explicit":
        for key in ("inner_tol", "max_inner"):
            kw.pop(key, None)
        trace = hd.run_explicit(space, cset, mapping, schedule, base, x0, budget, **kw)
    else:
        trace = hd.run_implicit(space, cset, mapping, schedule, base, budget, **kw)
    rows, final, status = _reference_run(algorithm, space, cset, mapping, schedule, base, budget, x0, **kw)
    assert repr(trace.rows) == repr(rows)
    assert (repr(trace.final), trace.status) == (repr(final), status)
    return trace


# schedules whose laws round differently when written as scale / (n + shift)
# ** power, with an averaging weight b for which 1 - b != b
REFERENCE_SCHEDULES = {
    "explicit": hd.Schedule(law(0.9, 0.7, 2), law(0.8, 1.3, 2), 0.6),
    "implicit": hd.Schedule(law(0.9, 1), law(0.8, 2)),
}


def _reference_case(name, request):
    """(space, set, mapping, base, x0, reference) of one family and mapping kind."""
    if name == "E2-projection":
        E2 = request.getfixturevalue("E2")
        C, T, base, q = make_scenario(E2)
        return E2, C, T, base, ept(E2, 2.0, -2.0), q
    if name == "E2-rotation":
        E2 = request.getfixturevalue("E2")
        center = ept(E2, 1.0, 0.5)
        return E2, hd.Ball(ept(E2, 1.0, 0.0), 3.0), hd.Rotation(center, 0.9), ept(E2, 0.5, 0.5), ept(E2, 2.0, 1.0), center
    if name == "E3-average":
        E3 = request.getfixturevalue("E3")
        e3 = lambda *c: hd.euclidean_point(E3, *c)  # noqa: E731
        T = hd.GeodesicAverage(0.3, hd.ProjectionOnto(hd.Segment(e3(-1.0, 1.0, 0.0), e3(2.0, 1.0, 1.0))))
        return E3, hd.Ball(e3(0.0, 0.0, 0.0), 4.0), T, e3(0.0, 0.0, 0.0), e3(1.0, -1.0, 2.0), e3(0.0, 1.0, 0.5)
    if name == "H2-projection":
        H2 = request.getfixturevalue("H2")
        C, T, base, q, x0 = make_h2_scenario(H2)
        return H2, C, T, base, x0, q
    if name == "H2-composition":
        H2 = request.getfixturevalue("H2")
        T = hd.Composition((hd.Rotation(H2.base, 0.4), hd.ProjectionOnto(hd.Ball(hpt_polar(H2, 0.5, 1.0), 1.0))))
        base = hpt_polar(H2, 1.0, 0.5 * math.pi)
        return H2, hd.Ball(H2.base, 4.0), T, base, hpt_polar(H2, 1.2, 2.0), H2.base
    if name == "tree-projection":
        tree = request.getfixturevalue("tree")
        T = hd.ProjectionOnto(hd.Segment(hd.tree_point(tree, 1, 0.5), hd.tree_point(tree, 3, 1.0)))
        base = hd.tree_point(tree, 4, 0.5)
        return tree, hd.WholeSpace(), T, base, hd.tree_point(tree, 4, 0.7), hd.tree_point(tree, 2, 0.25)
    if name == "tree-average":
        tree = request.getfixturevalue("tree")
        seg = hd.Segment(hd.tree_point(tree, 0, 0.5), hd.tree_point(tree, 3, 1.0))
        T = hd.GeodesicAverage(0.5, hd.ProjectionOnto(seg))
        base = hd.tree_point(tree, 1, 1.0)
        return tree, hd.Ball(hd.tree_point(tree, 2, 0.1), 3.0), T, base, hd.tree_point(tree, 2, 0.3), hd.tree_point(tree, 0, 0.2)
    prod, E2, H2 = (request.getfixturevalue(f) for f in ("prod", "E2", "H2"))
    T = hd.ProjectionOnto(hd.Ball(prod.pair(ept(E2, 1.0, 0.0), hpt_polar(H2, 0.5, 1.0)), 0.05))
    base = prod.pair(ept(E2, 0.0, 0.0), H2.base)
    q = prod.pair(ept(E2, 0.5, 0.5), hpt_polar(H2, 0.3, 0.2))
    return prod, hd.WholeSpace(), T, base, prod.pair(ept(E2, 2.0, -1.0), hpt_polar(H2, 1.0, 2.0)), q


@pytest.mark.parametrize("with_reference", [True, False], ids=["reference", "no-reference"])
@pytest.mark.parametrize("algorithm", ["explicit", "implicit"])
@pytest.mark.parametrize(
    "case",
    ["E2-projection", "E2-rotation", "E3-average", "H2-projection", "H2-composition",
     "tree-projection", "tree-average", "E2xH2-projection"],
)
def test_runs_match_the_reference_loops_bit_for_bit(request, case, algorithm, with_reference):
    space, C, T, base, x0, q = _reference_case(case, request)
    budget = 25 if algorithm == "explicit" else 8
    trace = _same_as_reference(
        algorithm, space, C, T, REFERENCE_SCHEDULES[algorithm], base, budget, x0,
        seed=7, reference=q if with_reference else None,
    )
    assert trace.status == "budget" and trace.rows[-1].n == budget
    assert (trace.rows[-1].ref_distance is None) == (not with_reference)


@pytest.mark.parametrize("name", ["segment_explicit.json", "segment_implicit.json"])
def test_overflowing_runs_match_the_reference_loops(name):
    # the two translation-by-1e308 configs of test_cli, which end as diverged
    doc = json.loads((CONFIG_DIR / name).read_text())
    doc.update(mapping={"type": "translation", "vector": [1e308, 0.0]}, convex_set={"type": "whole"})
    if doc["algorithm"] == "implicit":
        doc.update(budget=3, max_inner=100_000)
    cfg = serialize.config_from_json(doc)
    trace = _same_as_reference(
        cfg.algorithm, hd.make_space(cfg.space), cfg.convex_set, cfg.mapping, cfg.schedule,
        cfg.basepoint, cfg.budget, cfg.x0, outer_tol=cfg.outer_tol, seed=cfg.seed,
        reference=cfg.reference, inner_tol=cfg.inner_tol, max_inner=cfg.max_inner,
    )
    assert trace.status == "diverged"


def test_inner_budget_run_matches_the_reference_loop(E2):
    C, T, base, q = make_scenario(E2)
    trace = _same_as_reference(
        "implicit", E2, C, T, REFERENCE_SCHEDULES["implicit"], base, 10, outer_tol=1e-3, seed=2,
        reference=q, max_inner=4,
    )
    assert trace.status == "inner_budget" and trace.rows[-1].inner_iterations == 4


class CountingH2(hd.spaces.Space):
    """The H2 model's primitives, forwarded, each call counted by name."""

    def __init__(self, inner):
        self.inner, self.descriptor, self.calls = inner, inner.descriptor, Counter()

    @property
    def model(self):
        return self.inner.model

    def distance(self, a, b):
        self.calls["distance"] += 1
        return self.inner.distance(a, b)

    def geodesic_point(self, x, y, lam):
        self.calls["geodesic_point"] += 1
        return self.inner.geodesic_point(x, y, lam)

    def _geodesic(self, x, y, lam, d):
        self.calls["_geodesic"] += 1
        return self.inner._geodesic(x, y, lam, d)

    def distances(self, a, pts):
        self.calls["distances"] += 1
        return self.inner.distances(a, pts)


@pytest.mark.parametrize("with_reference", [True, False], ids=["reference", "no-reference"])
def test_each_step_calls_the_handle_passed_in_as_often_as_before(H2, with_reference):
    # every primitive of a step goes through the handle the run was given;
    # the counts are those of the loops before binding, none added or dropped
    C, T, base, q, x0 = make_h2_scenario(H2)
    reference = q if with_reference else None
    ref = 2 if with_reference else 0

    def counts(run, budget, **kw):
        space = CountingH2(H2)
        trace = run(space, C, T, budget=budget, base=base, reference=reference, **kw)
        return space.calls, trace

    sched = hd.Schedule(anchor=law(1, 0.7, 2), perturbation=law(1, 1, 2), mixing=0.5)
    (short, _), (long, _) = (counts(hd.run_explicit, b, schedule=sched, x0=x0) for b in (10, 20))
    # residual, the ball projection, z_residual and step; the anchored point
    # and the segment foot; the averaging step
    assert long - short == Counter(distance=10 * (4 + ref), geodesic_point=20, _geodesic=10)

    sched = hd.Schedule(anchor=law(1, 1), perturbation=law(1, 2))
    (short, _), (long, trace) = (counts(hd.run_implicit, b, schedule=sched) for b in (3, 4))
    it = trace.rows[-1].inner_iterations
    assert it > 1
    # per inner iteration: the anchored point, the segment foot, the ball
    # projection and the gap; then the row's residual and step
    assert long - short == Counter(distance=2 * it + 2 + ref, geodesic_point=2 * it + 1)
