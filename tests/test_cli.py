import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import CliRunner

import hadamard as hd
from hadamard import serialize
from hadamard.cli import main, parse_space_spec, random_tree_topology
from hadamard.spaces import MAX_SPEC_SIZE

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture
def runner():
    return CliRunner()


def write_config(tmp_path, name="case.json", **overrides):
    doc = json.loads((CONFIG_DIR / "segment_implicit.json").read_text())
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def test_parse_space_spec_kinds():
    assert parse_space_spec("euclidean:3").descriptor == hd.Euclidean(3)
    assert parse_space_spec("hyperbolic:2").descriptor == hd.Hyperbolic(2)
    star = parse_space_spec("tree-star:4:0.5")
    assert star.n == 5 and star.total_length == pytest.approx(2.0)
    rnd = parse_space_spec("tree-random:10:3")
    assert rnd.n == 11
    prod = parse_space_spec("product:(euclidean:2,hyperbolic:2)")
    assert prod.descriptor == hd.Product(hd.Euclidean(2), hd.Hyperbolic(2))
    # a comma inside a nested product's parentheses does not split the outer one
    nested = parse_space_spec("product:(product:(euclidean:2,hyperbolic:2),tree-star:3)")
    assert nested.descriptor == hd.Product(prod.descriptor, parse_space_spec("tree-star:3").descriptor)
    nested = parse_space_spec("product:(euclidean:1,product:(hyperbolic:2,euclidean:1))")
    assert nested.descriptor == hd.Product(hd.Euclidean(1), hd.Product(hd.Hyperbolic(2), hd.Euclidean(1)))
    with pytest.raises(hd.InvalidSpaceError):
        parse_space_spec("banach:2")
    # the size cap admits its own value
    assert parse_space_spec(f"hyperbolic:{MAX_SPEC_SIZE}").dim == MAX_SPEC_SIZE
    with pytest.raises(hd.InvalidSpaceError, match="above the limit"):
        parse_space_spec(f"euclidean:{MAX_SPEC_SIZE + 1}")


def test_random_tree_topology_is_seeded():
    a = random_tree_topology(10, 3)
    b = random_tree_topology(10, 3)
    c = random_tree_topology(10, 4)
    assert a == b and a != c
    hd.make_space(hd.WeightedTree(a))  # must be a valid tree


def test_run_converges_exit_zero(runner, tmp_path):
    cfg = write_config(tmp_path, budget=300)
    result = runner.invoke(main, ["run", str(cfg), "--output-dir", str(tmp_path)])
    assert result.exit_code == 0, result.output
    assert (tmp_path / "segment-implicit.trace.csv").exists()
    summary = json.loads((tmp_path / "segment-implicit.summary.json").read_text())
    assert summary["status"] == "converged"
    x, y = summary["final_point"]["coords"]
    assert abs(x) < 1e-2 and abs(y - 1.0) < 1e-2
    # the resolved config re-parses to the same document
    from hadamard import serialize

    assert serialize.config_to_json(serialize.config_from_json(summary["config"])) == summary["config"]


def test_run_budget_exhausted_exit_one(runner, tmp_path):
    cfg = write_config(tmp_path, budget=10)
    result = runner.invoke(main, ["run", str(cfg), "--output-dir", str(tmp_path)])
    assert result.exit_code == 1
    assert (tmp_path / "segment-implicit.trace.csv").exists()  # partial outputs


def test_run_whose_iterates_overflow_ends_diverged(runner, tmp_path):
    # at the shipped budget of 50,000 the run ends on its first row whose
    # residual is not finite, as a status with exit 1, and the summary
    # stays strict JSON with null for each non-finite number
    doc = json.loads((CONFIG_DIR / "segment_explicit.json").read_text())
    doc.update(mapping={"type": "translation", "vector": [1e308, 0.0]}, convex_set={"type": "whole"})
    cfg = tmp_path / "diverge.json"
    cfg.write_text(json.dumps(doc))
    result = runner.invoke(main, ["run", str(cfg), "--output-dir", str(tmp_path)])
    assert result.exit_code == 1, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert "diverged after 4 steps, final residual null" in result.output
    summary = json.loads(
        (tmp_path / "segment-explicit.summary.json").read_text(),
        parse_constant=lambda name: pytest.fail(f"summary holds {name}"),
    )
    assert summary["status"] == "diverged"
    assert summary["final_fixed_residual"] is None
    rows = (tmp_path / "segment-explicit.trace.csv").read_text().splitlines()
    assert len(rows) == 6 and rows[-1].startswith("4,inf,")


def test_implicit_run_whose_iterates_overflow_ends_diverged(runner, tmp_path):
    # the inner loop leaves on its first nan gap instead of spending all of
    # max_inner, and the run ends on that row
    cfg = write_config(
        tmp_path, budget=3, max_inner=100_000, convex_set={"type": "whole"},
        mapping={"type": "translation", "vector": [1e308, 0.0]},
    )
    result = runner.invoke(main, ["run", str(cfg), "--output-dir", str(tmp_path)])
    assert result.exit_code == 1, result.output
    assert "Traceback" not in result.output
    assert "diverged after 1 steps, final residual null" in result.output
    summary = json.loads(
        (tmp_path / "segment-implicit.summary.json").read_text(),
        parse_constant=lambda name: pytest.fail(f"summary holds {name}"),
    )
    assert summary["status"] == "diverged" and summary["steps"] == 1
    assert summary["inner_iterations"] < 10
    rows = (tmp_path / "segment-implicit.trace.csv").read_text().splitlines()
    assert len(rows) == 2 and rows[1].startswith("1,nan,")
    iterations, bound = rows[1].split(",")[-2:]
    assert int(iterations) < 10 and bound == "nan"


def test_run_rerun_is_byte_identical(runner, tmp_path):
    cfg = write_config(tmp_path, budget=80)
    for sub in ("one", "two"):
        out = tmp_path / sub
        result = runner.invoke(main, ["run", str(cfg), "--output-dir", str(out)])
        assert result.exit_code in (0, 1)
    a = (tmp_path / "one" / "segment-implicit.trace.csv").read_bytes()
    b = (tmp_path / "two" / "segment-implicit.trace.csv").read_bytes()
    assert a == b


def test_run_seed_flag_and_env(runner, tmp_path):
    cfg = write_config(tmp_path, budget=80)
    base = tmp_path / "base"
    env9 = tmp_path / "env9"
    flag5 = tmp_path / "flag5"
    runner.invoke(main, ["run", str(cfg), "--output-dir", str(base)])
    runner.invoke(main, ["run", str(cfg), "--output-dir", str(env9)], env={"HADAMARD_SEED": "9"})
    # an explicit --seed wins over the environment
    runner.invoke(
        main,
        ["run", str(cfg), "--output-dir", str(flag5), "--seed", "0"],
        env={"HADAMARD_SEED": "9"},
    )
    t_base = (base / "segment-implicit.trace.csv").read_bytes()
    t_env = (env9 / "segment-implicit.trace.csv").read_bytes()
    t_flag = (flag5 / "segment-implicit.trace.csv").read_bytes()
    assert t_base != t_env
    assert t_base == t_flag


def test_run_invalid_config_exit_two(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    result = runner.invoke(main, ["run", str(bad)])
    assert result.exit_code == 2
    assert "error" in result.output

    doc = json.loads((CONFIG_DIR / "segment_implicit.json").read_text())
    del doc["basepoint"]
    bad2 = tmp_path / "bad2.json"
    bad2.write_text(json.dumps(doc))
    result = runner.invoke(main, ["run", str(bad2)])
    assert result.exit_code == 2
    assert "basepoint" in result.output


def test_run_bad_schedule_cites_condition(runner, tmp_path):
    doc = json.loads((CONFIG_DIR / "segment_explicit.json").read_text())
    doc["schedule"]["anchor"] = {"scale": 1.0, "power": 2.0, "shift": 1.0}
    doc["budget"] = 10
    cfg = tmp_path / "sched.json"
    cfg.write_text(json.dumps(doc))
    result = runner.invoke(main, ["run", str(cfg), "--output-dir", str(tmp_path)])
    assert result.exit_code == 2
    assert "(i)" in result.output


def test_run_batch(runner, tmp_path):
    c1 = write_config(tmp_path, name="a.json", budget=60)
    doc = json.loads((CONFIG_DIR / "segment_implicit.json").read_text())
    doc["name"] = "second"
    doc["budget"] = 60
    c2 = tmp_path / "b.json"
    c2.write_text(json.dumps(doc))
    result = runner.invoke(main, ["run", str(c1), str(c2), "--output-dir", str(tmp_path)])
    assert (tmp_path / "segment-implicit.trace.csv").exists()
    assert (tmp_path / "second.trace.csv").exists()


@pytest.mark.parametrize(
    "overrides, path",
    [
        ({"space": {"type": "euclidean", "dim": None}}, "space.dim"),
        ({"space": {"type": "euclidean", "dim": "x"}}, "space.dim"),
        ({"space": {"type": "tree", "vertices": 2, "edges": 5}}, "space.edges"),
        ({"space": {"type": "euclidean", "dim": 2.9}}, "space.dim"),
        ({"space": {"type": "euclidean", "dim": True}}, "space.dim"),
        ({"space": {"type": "tree", "vertices": 2, "edges": [[0.7, 1, 1.0]]}}, "space.edges[0][0]"),
        ({"space": {"type": "tree", "vertices": 1, "edges": []}}, "space: a tree needs at least 2 vertices"),
        ({"space": {"type": "euclidean", "dim": "2"}}, "space.dim"),
        ({"name": 7}, "name:"),
        ({"name": None}, "name:"),
        ({"output_dir": None}, "output_dir:"),
        ({"output_dir": ["out"]}, "output_dir:"),
        ({"name": "a\u0000b"}, "name: must not contain a NUL character"),
        ({"output_dir": "out\u0000x"}, "output_dir: must not contain a NUL character"),
        ({"mapping": {"type": "composition", "maps": 5}}, "mapping.maps:"),
        ({"schedule": [1]}, "schedule:"),
        ({"max_inner": 0}, "max_inner:"),
        ({"max_inner": -1}, "max_inner:"),
        ({"mapping": {"type": "translation", "vector": [1.0]}}, "mapping:"),
        ({"mapping": {"type": "translation", "vector": [1.0, 0.0, 5.0]}}, "mapping:"),
        ({"convex_set": {"type": "halfspace", "normal": [1.0], "offset": 0.0}}, "convex_set:"),
        ({"convex_set": {"type": "halfspace", "normal": [], "offset": 0.0}}, "normal has the wrong dimension"),
        ({"convex_set": {"type": "halfspace", "normal": [1e200] * 3, "offset": 0.0}}, "normal has the wrong dimension"),
        ({"algorithm": "explicit", "x0": {"coords": [9.0, 9.0]}}, "x0: starting point must belong"),
    ],
    ids=[
        "dim-null", "dim-x", "edges-int", "dim-2.9", "dim-true", "edge-endpoint-0.7", "tree-no-edges",
        "dim-string", "name-int", "name-null", "output-dir-null", "output-dir-list", "name-nul", "output-dir-nul",
        "maps-int",
        "schedule-list", "max-inner-0", "max-inner-negative", "translation-1d", "translation-3d",
        "halfspace-normal-1d", "halfspace-normal-empty", "halfspace-normal-3d-huge", "x0-outside-set",
    ],
)
@pytest.mark.parametrize("command", [["run"], ["schedules", "--check"]], ids=["run", "schedules"])
def test_typed_field_error_names_json_path(runner, tmp_path, monkeypatch, command, overrides, path):
    # not write_config: its own ``name`` argument is the file name
    doc = json.loads((CONFIG_DIR / "segment_implicit.json").read_text())
    doc.update(overrides)
    cfg = tmp_path / "case.json"
    cfg.write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)
    result = runner.invoke(main, [*command, str(cfg)])
    assert result.exit_code == 2, result.output
    assert path in result.output
    assert "Traceback" not in result.output
    # nothing written: not under None/, 7.*, nor the config's own output directory
    assert sorted(p.name for p in tmp_path.iterdir()) == ["case.json"]


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_summaries_are_strict_json(runner, tmp_path):
    cfg = write_config(tmp_path, name="nan.json", outer_tol=float("nan"))
    result = runner.invoke(main, ["run", str(cfg), "--output-dir", str(tmp_path / "nan")])
    assert result.exit_code == 2, result.output
    assert "outer_tol" in result.output
    assert not (tmp_path / "nan").exists()

    cfg = write_config(tmp_path, budget=10)
    result = runner.invoke(main, ["run", str(cfg), "--output-dir", str(tmp_path)])
    assert result.exit_code == 1, result.output
    summary = (tmp_path / "segment-implicit.summary.json").read_text()
    doc = json.loads(summary, parse_constant=_reject_constant)
    assert sorted(doc["timings"]) == ["certify_s", "solve_s", "write_s"]
    assert all(t >= 0.0 for t in doc["timings"].values())
    assert "wall_time_s" not in doc


def test_run_writes_only_under_output_dir(runner, tmp_path):
    doc = json.loads((CONFIG_DIR / "segment_implicit.json").read_text())
    doc["name"] = "../escape"
    doc["budget"] = 10
    cfg = tmp_path / "escape.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    result = runner.invoke(main, ["run", str(cfg), "--output-dir", str(out)])
    assert result.exit_code == 2, result.output
    assert "name:" in result.output
    assert sorted(p.name for p in tmp_path.iterdir()) == ["escape.json"]


@pytest.mark.parametrize(
    "name, out, reason",
    [
        ("n" * 243, "out", "File name too long"),
        ("n" * 300, "made/by/run", "File name too long"),
        ("run", "blocker/out", "Not a directory"),
        ("run", "blocker", "File exists"),
    ],
    ids=["summary-name-too-long", "trace-name-too-long", "output-dir-under-a-file", "output-dir-is-a-file"],
)
def test_an_output_the_system_refuses_exits_two_and_leaves_nothing(runner, tmp_path, name, out, reason):
    # a 243-character name fits the trace's file name but not the summary's
    cfg = write_config(tmp_path, name="case.json", budget=10)
    doc = json.loads(cfg.read_text())
    doc["name"] = name
    cfg.write_text(json.dumps(doc))
    (tmp_path / "blocker").write_text("")
    result = runner.invoke(main, ["run", str(cfg), "--output-dir", str(tmp_path / out)])
    assert result.exit_code == 2, result.output
    assert re.search(rf"^error: {re.escape(str(tmp_path))}/\S+: {reason}$", result.output, re.M), result.output
    assert "Traceback" not in result.output
    assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker", "case.json"]



def test_a_refused_output_still_reports_the_runs_before_it(runner, tmp_path):
    # a's files are written before b's name is refused, and a's line is
    # printed before the error
    a = write_config(tmp_path, name="a.json", budget=10)
    b = write_config(tmp_path, name="b.json", budget=10)
    doc = json.loads(b.read_text())
    doc["name"] = "n" * 300
    b.write_text(json.dumps(doc))
    out = tmp_path / "out"
    result = runner.invoke(main, ["run", str(a), str(b), "--output-dir", str(out)])
    assert result.exit_code == 2, result.output
    lines = result.output.splitlines()
    assert lines[0].startswith("segment-implicit: ") and lines[0].endswith(f"-> {out / 'segment-implicit.trace.csv'}")
    assert lines[1].startswith("error: ") and "File name too long" in lines[1]
    assert sorted(p.name for p in out.iterdir()) == ["segment-implicit.summary.json", "segment-implicit.trace.csv"]

def test_verify_clean_space(runner):
    result = runner.invoke(main, ["verify", "--space", "euclidean:2", "--trials", "2000"])
    assert result.exit_code == 0, result.output
    assert "violations" in result.output
    assert "cauchy_schwarz" in result.output


def test_verify_far_out_hyperbolic_ends_without_a_traceback(runner):
    # 20 from the sheet base point floats lose the distance between nearby
    # points, so violations may be reported, but every geodesic point exists
    result = runner.invoke(main, ["verify", "--space", "hyperbolic:2", "--radius", "20", "--trials", "200"])
    assert result.exit_code in (0, 1), result.output
    # an exception inside the command also exits 1 under the runner
    assert result.exception is None or isinstance(result.exception, SystemExit), result.exception
    assert "worst_margin" in result.output


def test_verify_accepts_a_tree_star_length_just_below_the_limit(runner):
    # 4 (2 LENGTH)^2 overflows from LENGTH = 3.352e153 on
    result = runner.invoke(main, ["verify", "--space", "tree-star:3:3e153", "--trials", "20"])
    assert result.exit_code == 0, result.output


@pytest.mark.parametrize("spec", ["euclidean:2", "euclidean:100000", "product:(tree-star:3,euclidean:3)"])
def test_verify_refuses_a_radius_whose_squared_distances_overflow(runner, spec):
    # at radius 1e160 in E^2 the pairings overflowed and 200 trials reported
    # seven false violations; an E^n factor refuses it as E^n does
    result = runner.invoke(main, ["verify", "--space", spec, "--radius", "1e160", "--trials", "200"])
    assert result.exit_code == 2, result.output
    assert result.output.startswith("error: --radius: sampling radius 1e+160 in E^") and "overflow" in result.output


def test_verify_corrupted_demo_fails(runner):
    result = runner.invoke(main, ["verify", "--space", "corrupted-demo", "--trials", "500"])
    assert result.exit_code == 1
    assert "worst witnesses" in result.output


def test_verify_bad_flags(runner):
    assert runner.invoke(main, ["verify", "--space", "euclidean:2", "--trials", "0"]).exit_code == 2
    # a tree with no edges is rejected up front, not when it is sampled; a
    # spec with extra fields, or with a corrupted factor, is rejected too
    bad_specs = (
        "nope:1", "tree-star:0", "tree-random:0:0", "euclidean:2:7", "hyperbolic:2:1",
        "tree-star:3:1:9", "tree-random:5:1:2", "product:(corrupted-demo,euclidean:2)",
    )
    for spec in bad_specs:
        result = runner.invoke(main, ["verify", "--space", spec])
        assert result.exit_code == 2, result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)


@pytest.mark.parametrize(
    "spec, field",
    [
        ("euclidean", "N"),
        ("hyperbolic:x", "N"),
        ("tree-star:3:", "LENGTH"),
        ("tree-star:2:1e400", "LENGTH"),
        # squared distances on rays this long overflowed, and seven NaN
        # slacks were reported as violations; NaN slacks stay covered in
        # test_harness.py by a tree built in code
        ("tree-star:3:1e300", "LENGTH"),
        ("tree-star:3:3.4e153", "LENGTH"),
        ("tree-random:5:-1", "SEED"),
    ],
)
def test_bad_space_spec_names_its_field(runner, spec, field):
    result = runner.invoke(main, ["verify", "--space", spec, "--trials", "1"])
    assert result.exit_code == 2, result.output
    assert f"invalid space spec: {field} " in result.output and repr(spec) in result.output, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)


def test_schedules_check(runner, tmp_path):
    result = runner.invoke(main, ["schedules", "--check", str(CONFIG_DIR / "segment_explicit.json")])
    assert result.exit_code == 0, result.output
    assert result.output.count("pass") == 3

    doc = json.loads((CONFIG_DIR / "segment_explicit.json").read_text())
    doc["schedule"]["anchor"]["power"] = 2.0
    bad = tmp_path / "bad_sched.json"
    bad.write_text(json.dumps(doc))
    result = runner.invoke(main, ["schedules", "--check", str(bad)])
    assert result.exit_code == 1
    assert "FAIL" in result.output


def test_schedules_check_implicit_config(runner):
    # the implicit scheme has its own two conditions, and the shipped config meets them
    result = runner.invoke(main, ["schedules", "--check", str(CONFIG_DIR / "segment_implicit.json")])
    assert result.exit_code == 0, result.output
    assert result.output.count("pass") == 2
    assert "FAIL" not in result.output and "[analytic]" not in result.output


def _schedule_config(tmp_path, base, **schedule):
    doc = json.loads((CONFIG_DIR / base).read_text())
    doc["schedule"].update(schedule)
    path = tmp_path / "schedule.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("command", [["run"], ["schedules", "--check"]], ids=["run", "schedules"])
@pytest.mark.parametrize(
    "base, schedule, where",
    [
        ("segment_explicit.json", {"anchor": {"scale": 1, "power": 1000, "shift": 1e-300}}, "schedule.anchor"),
        ("segment_explicit.json", {"perturbation": {"scale": -1, "power": 1, "shift": 1}}, "schedule.perturbation"),
        ("segment_explicit.json", {"mixing": {"scale": 0.5, "power": 0, "shift": 1}}, "schedule.mixing"),
        ("segment_implicit.json", {"mixing": "0.5"}, "schedule.mixing"),
    ],
    ids=["anchor-overflow", "perturbation-scale", "mixing-dict", "mixing-string"],
)
def test_bad_schedule_names_json_path(runner, tmp_path, command, base, schedule, where):
    cfg = _schedule_config(tmp_path, base, **schedule)
    out = tmp_path / "out"
    result = runner.invoke(main, [*command, str(cfg), *(["--output-dir", str(out)] if command == ["run"] else [])])
    assert result.exit_code == 2, result.output
    assert where in result.output
    assert "Traceback" not in result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert not out.exists()


def test_run_rejects_underflowing_anchor_before_output(runner, tmp_path):
    # anchor(m) = (m+1)^-400 underflows to 0 inside the 300-step budget
    cfg = _schedule_config(tmp_path, "segment_implicit.json", anchor={"scale": 1, "power": 400, "shift": 1})
    out = tmp_path / "out"
    result = runner.invoke(main, ["run", str(cfg), "--output-dir", str(out)])
    assert result.exit_code == 2, result.output
    assert "condition (i)" in result.output
    assert not out.exists()


def test_run_rejects_anchor_too_small_for_inner_solve(runner, tmp_path):
    # anchor(1) = 2^-400 is positive, but 1 - anchor rounds to 1: the inner map would not contract
    cfg = _schedule_config(tmp_path, "segment_implicit.json", anchor={"scale": 1, "power": 400, "shift": 1})
    out = tmp_path / "out"
    result = runner.invoke(main, ["run", str(cfg), "--budget", "1", "--output-dir", str(out)])
    assert result.exit_code == 2, result.output
    assert "condition (i)" in result.output and "rounds to 1" in result.output
    assert not out.exists()


@pytest.mark.parametrize(
    "args, env, name",
    [
        (["verify", "--space", "euclidean:2", "--seed", "-1"], {}, "--seed"),
        (["verify", "--space", "hyperbolic:2", "--radius", "50"], {}, "--radius"),
        (["verify", "--space", "product:(euclidean:2,hyperbolic:2)", "--radius", "21"], {}, "--radius"),
        (["verify", "--space", "euclidean:2", "--radius", "-1"], {}, "--radius"),
        (["verify", "--space", "euclidean:2", "--radius", "nan"], {}, "--radius"),
        (["verify", "--space", "euclidean:2", "--eps", "nan"], {}, "--eps"),
        (["verify", "--space", "euclidean:2", "--eps", "x"], {}, "--eps: 'x' is not a positive finite number"),
        (["verify", "--space", "euclidean:2", "--radius", "x"], {}, "--radius: 'x' is not a positive finite number"),
        (["verify", "--space", "euclidean:100000000", "--trials", "1"], {}, "--space"),
        (["verify", "--space", "hyperbolic:99999999999", "--trials", "1"], {}, "--space"),
        (["verify", "--space", "tree-star:100001:0.5", "--trials", "1"], {}, "--space"),
        (["verify", "--space", "tree-random:100001:3", "--trials", "1"], {}, "--space"),
        (["verify", "--space", "product:(euclidean:2,hyperbolic:100001)", "--trials", "1"], {}, "--space"),
        (["run", "{seed}"], {}, "seed: must be non-negative"),
        (["run", "{config}", "--seed", "-1"], {}, "--seed"),
        (["run", "{config}", "--budget", "0"], {}, "--budget"),
        (["run", "{config}"], {"HADAMARD_SEED": "abc"}, "HADAMARD_SEED"),
        (["schedules", "--check", "{config}"], {"HADAMARD_SEED": "-1"}, "HADAMARD_SEED"),
        # rejected before the parser recurses 1,200 times
        (["verify", "--space", "product:(" * 1200 + "euclidean:1" + ",euclidean:1)" * 1200], {},
         "--space: invalid space spec: product nesting deeper than 4"),
    ],
    ids=[
        "verify-seed", "verify-h2-radius", "verify-product-radius", "verify-radius-negative",
        "verify-radius-nan", "verify-eps-nan", "verify-eps-text", "verify-radius-text",
        "verify-euclidean-size", "verify-hyperbolic-size",
        "verify-tree-star-size", "verify-tree-random-size", "verify-product-size", "config-seed",
        "run-seed", "run-budget", "env-seed", "env-seed-negative", "verify-product-depth-1200",
    ],
)
def test_bad_flag_names_its_source(runner, tmp_path, args, env, name):
    paths = {"config": write_config(tmp_path, budget=10), "seed": write_config(tmp_path, "seed.json", seed=-3)}
    args = [a.format(**paths) for a in args]
    out = tmp_path / "out"
    if args[0] == "run":
        args += ["--output-dir", str(out)]
    result = runner.invoke(main, args, env=env)
    assert result.exit_code == 2, result.output
    assert name in result.output
    assert "Traceback" not in result.output and "_positive_finite" not in result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert not out.exists()


_NESTED = {
    "space": ('{"type": "product", "right": {"type": "euclidean", "dim": 1}, "left": ', '{"type": "euclidean", "dim": 1}'),
    "mapping": ('{"type": "average", "weight": 0.5, "inner": ', '{"type": "identity"}'),
}


def _nested_config(tmp_path, field, depth, **overrides):
    # written by hand: json.dumps recurses once a level
    doc = json.loads((CONFIG_DIR / "segment_implicit.json").read_text())
    doc.update(overrides, **{field: "@"})
    opening, leaf = _NESTED[field]
    cfg = tmp_path / "deep.json"
    cfg.write_text(json.dumps(doc).replace('"@"', opening * depth + leaf + "}" * depth))
    return cfg


@pytest.mark.parametrize("field", ["space", "mapping"])
def test_deeply_nested_config_exits_2_naming_its_field(runner, tmp_path, monkeypatch, field):
    cfg = _nested_config(tmp_path, field, 800)
    monkeypatch.chdir(tmp_path)
    result = runner.invoke(main, ["run", str(cfg), "--output-dir", str(tmp_path / "out")])
    assert result.exit_code == 2, result.output
    assert f"error: {field}: nested deeper than {serialize.MAX_NESTING}" in result.output
    assert "Traceback" not in result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["deep.json"]


def test_mapping_nested_to_the_limit_runs(runner, tmp_path):
    # MAX_NESTING - 1 averages around the identity: every level is read, built and run
    cfg = _nested_config(tmp_path, "mapping", serialize.MAX_NESTING - 1, budget=3)
    result = runner.invoke(main, ["run", str(cfg), "--output-dir", str(tmp_path / "out")])
    assert result.exit_code in (0, 1), result.output
    assert (tmp_path / "out" / "segment-implicit.summary.json").exists()


def test_help_lists_every_flag_with_its_default(runner):
    assert runner.invoke(main, ["--help"]).exit_code == 0
    result = runner.invoke(main, ["verify", "--help"])
    assert result.exit_code == 0, result.output
    text = " ".join(result.output.split())
    assert "--space " in text
    for flag, default in (("--trials", "10000"), ("--eps", "1e-08"), ("--seed", "0"), ("--radius", "5.0")):
        # the flag's own entry, up to the next flag
        entry = text.rsplit(f" {flag} ", 1)[1].split(" --", 1)[0]
        assert re.search(rf"default: {re.escape(default)}\b", entry), (flag, entry)


def test_no_command_exits_2(runner):
    result = runner.invoke(main, [])
    assert result.exit_code == 2, result.output
    assert "Traceback" not in result.output


def _h2_config():
    r = 1.5
    ch, sh = math.cosh(r), math.sinh(r)
    return {
        "name": "h2-implicit",
        "algorithm": "implicit",
        "space": {"type": "hyperbolic", "dim": 2},
        "convex_set": {"type": "ball", "center": {"coords": [1.0, 0.0, 0.0]}, "radius": 3.0},
        "mapping": {
            "type": "projection",
            "set": {"type": "segment", "a": {"coords": [ch, sh, 0.0]}, "b": {"coords": [ch, -sh, 0.0]}},
        },
        "schedule": {
            "anchor": {"scale": 1.0, "power": 1.0, "shift": 1.0},
            "perturbation": {"scale": 1.0, "power": 2.0, "shift": 1.0},
        },
        "basepoint": {"coords": [1.0, 0.0, 0.0]},
        "budget": 5,
    }


def _e2_config():
    return json.loads((CONFIG_DIR / "segment_implicit.json").read_text())


def _tree_config():
    return {
        "name": "tree-implicit",
        "algorithm": "implicit",
        "space": {"type": "tree", "vertices": 3, "edges": [[0, 1, 1.0], [1, 2, 2.0]]},
        "convex_set": {"type": "whole"},
        "mapping": {"type": "identity"},
        "schedule": {
            "anchor": {"scale": 1.0, "power": 1.0, "shift": 1.0},
            "perturbation": {"scale": 1.0, "power": 2.0, "shift": 1.0},
        },
        "basepoint": {"edge": 1, "offset": 0.5},
        "budget": 5,
    }


@pytest.mark.parametrize(
    "doc, message",
    [
        (dict(_h2_config(), reference={"coords": [0.0, 0.0]}), "reference: expected 3 coordinates, got 2"),
        (
            dict(json.loads((CONFIG_DIR / "segment_explicit.json").read_text()), x0={"coords": [1.0, 2.0, 3.0]}),
            "x0: expected 2 coordinates, got 3",
        ),
        (dict(_tree_config(), basepoint={"edge": 0, "offset": 1.5}), "basepoint: offset 1.5 outside [0, 1.0]"),
        (
            dict(_e2_config(), convex_set={"type": "subtree", "vertices": [0]}),
            "convex_set: subtree sets require a tree space",
        ),
        (
            dict(_e2_config(), convex_set={"type": "ball", "center": {"coords": [0, 0]}, "radius": 0}),
            "convex_set: ball radius must be positive",
        ),
        (
            dict(_e2_config(), mapping={"type": "average", "weight": 2, "inner": {"type": "identity"}}),
            "mapping: average weight must lie in [0, 1]",
        ),
        (
            dict(_e2_config(), perturbation_region={"type": "box", "lo": [0], "hi": [1]}),
            "perturbation_region: unknown field",
        ),
        (
            dict(_e2_config(), perturbation_region={"type": "ball", "center": {"coords": [1, 0, 0]}, "radius": 1}),
            "perturbation_region: unknown field",
        ),
        (
            dict(_e2_config(), perturbation_region={"type": "product", "left": {"type": "tree"}, "right": {"type": "tree"}}),
            "perturbation_region: unknown field",
        ),
        (dict(_e2_config(), outer_tol=-1), "outer_tol: must be non-negative, got -1.0"),
        (dict(_e2_config(), inner_tol=-1e-10), "inner_tol: must be non-negative, got -1e-10"),
    ],
    ids=[
        "h2-reference-2d", "e2-x0-3d", "tree-offset-past-edge", "subtree-in-e2", "ball-radius-0",
        "average-weight-2", "box-1d-in-e2", "ball-region-in-e2", "product-region-in-e2",
        "outer-tol-negative", "inner-tol-negative",
    ],
)
def test_config_point_checked_at_load(runner, tmp_path, doc, message):
    cfg = tmp_path / "point.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    result = runner.invoke(main, ["run", str(cfg), "--output-dir", str(out)])
    assert result.exit_code == 2, result.output
    assert message in result.output
    assert "Traceback" not in result.output
    assert not out.exists()


def test_a_negative_tolerance_fails_schedules_check(runner, tmp_path):
    # with both negative the inner bound max(inner_tol, a_m outer_tol) is
    # negative and every implicit step would spin to max_inner
    cfg = tmp_path / "tol.json"
    cfg.write_text(json.dumps(dict(_e2_config(), outer_tol=-1, inner_tol=-1)))
    result = runner.invoke(main, ["schedules", "--check", str(cfg)])
    assert result.exit_code == 2, result.output
    assert "outer_tol: must be non-negative" in result.output


def test_valid_h2_and_tree_configs_still_run(runner, tmp_path):
    for doc in (dict(_h2_config(), reference={"coords": [1.0, 0.0, 0.0]}), _tree_config()):
        cfg = tmp_path / f"{doc['name']}.json"
        cfg.write_text(json.dumps(doc))
        result = runner.invoke(main, ["run", str(cfg), "--output-dir", str(tmp_path)])
        assert result.exit_code in (0, 1), result.output
        assert (tmp_path / f"{doc['name']}.summary.json").exists()


def test_run_inner_budget_is_a_status(runner, tmp_path):
    cfg = write_config(tmp_path, max_inner=1)
    result = runner.invoke(main, ["run", str(cfg), "--output-dir", str(tmp_path)])
    assert result.exit_code == 1, result.output
    assert "Traceback" not in result.output
    summary = json.loads((tmp_path / "segment-implicit.summary.json").read_text())
    assert summary["status"] == "inner_budget"
    rows = (tmp_path / "segment-implicit.trace.csv").read_text().splitlines()
    assert len(rows) == 1 + summary["steps"]
    assert rows[-1].split(",")[0] == str(summary["steps"])
    # the last row records the exhausted budget and the error bound it reached
    iterations, bound = rows[-1].split(",")[-2:]
    assert iterations == "1" and float(bound) > 0.5 * 0.005  # above eps_1 = a_1 * outer_tol
    assert summary["inner_iterations"] == 1


# runs the CLI in a fresh interpreter, then reports whether numpy and click were loaded
_NUMPY_PROBE = """
import sys
from hadamard.cli import main
try:
    main(sys.argv[1:], prog_name="hadamard")
except SystemExit as exc:
    sys.stderr.write(f"exit={exc.code} numpy={'numpy' in sys.modules} click={'click' in sys.modules}\\n")
"""


@pytest.mark.parametrize(
    "args",
    [
        ["run", str(CONFIG_DIR / "segment_implicit.json")],
        ["schedules", "--check", str(CONFIG_DIR / "segment_implicit.json")],
        ["verify", "--space", "euclidean:2", "--trials", "100"],
    ],
    ids=["run", "schedules", "verify"],
)
def test_cli_does_not_import_numpy(tmp_path, args):
    if args[0] == "run":
        args = args + ["--output-dir", str(tmp_path)]
    src = str(Path(hd.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", _NUMPY_PROBE, *args], capture_output=True, text=True,
                          env=env, cwd=tmp_path, timeout=120)
    assert "exit=0 numpy=False click=False" in done.stderr, done.stderr


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("command", ["run", "verify"])
def test_a_closed_stdout_exits_1_without_a_traceback(tmp_path, command, buffered):
    # stdout is a pipe whose read end is closed before the command starts:
    # unbuffered, the first print fails; buffered, the flush at exit does
    args = {
        "run": ["run", str(CONFIG_DIR / "segment_implicit.json"), "--output-dir", str(tmp_path)],
        "verify": ["verify", "--space", "euclidean:2", "--trials", "20"],
    }[command]
    src = str(Path(hd.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([sys.executable, "-m", "hadamard.cli", *args], stdout=write_end,
                              stderr=subprocess.PIPE, text=True, env=env, cwd=tmp_path, timeout=120)
    finally:
        os.close(write_end)
    assert done.returncode == 1 and done.stderr == "", done.stderr
