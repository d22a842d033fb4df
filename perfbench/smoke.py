"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Checks, from the root of a source checkout:

* ``BENCHMARK.json`` declares exactly the workloads and metrics that
  ``run.py`` measures;
* every workload at tiny size, untraced and traced, prints every declared
  metric with its unit, and all of its output checks pass;
* two traced runs with the same seed give identical counts;
* at seed 0, full-size ``implicit-planar`` takes 259,429 inner iterations;
* a held-out seed, not used while the benchmark was tuned, passes every
  check at full size on every workload;
* in a directory holding only ``BENCHMARK.json`` and ``perfbench/``, the
  benchmark fails without printing a result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HELD_OUT_SEED = 8675309
TINY_SEED = 5
CALIBRATION_INNER_ITERATIONS = 259_429


def bench(cwd: Path, *args: str) -> tuple[int, str, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )
    return proc.returncode, proc.stdout, proc.stderr


def result_of(workload: str, seed: int, trace: int, tiny: bool) -> dict:
    args = ["--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    code, out, err = bench(ROOT, *args + (["--tiny"] if tiny else []))
    if code != 0:
        raise AssertionError(f"{' '.join(args)}: exit {code}\n{err}")
    return json.loads(out.strip().splitlines()[-1])


def check_result(label: str, result: dict, declared: dict) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, (label, result)
    metrics = result["metrics"]
    assert set(metrics) == set(declared), (label, set(metrics) ^ set(declared))
    for name, unit in declared.items():
        m = metrics[name]
        assert m["unit"] == unit, (label, name, m)
        assert isinstance(m["value"], (int, float)), (label, name, m)


def main() -> int:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    end_to_end = {m["name"]: m["unit"] for m in doc["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in doc["per_layer"]}
    assert end_to_end == dict(run.END_TO_END)
    assert per_layer == {name: unit for name, unit, _, _ in tracer.LAYER_METRICS}
    assert max(doc["end_to_end"], key=lambda m: m["bound"])["name"] == "setup_s"
    print("BENCHMARK.json matches the metrics run.py measures")

    for workload in WORKLOADS:
        check_result(f"{workload} tiny", result_of(workload, TINY_SEED, 0, True), end_to_end)
        first = result_of(workload, TINY_SEED, 1, True)
        check_result(f"{workload} tiny traced", first, per_layer)
        second = result_of(workload, TINY_SEED, 1, True)
        for name in tracer.COUNT_METRICS:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            assert a == b, f"{workload}: {name} differs between traced runs: {a} != {b}"
        print(f"{workload}: tiny runs pass their checks; traced counts repeat exactly")

    calib = result_of("implicit-planar", 0, 1, False)
    inner = calib["metrics"]["solvers.inner_iterations"]["value"]
    assert inner == CALIBRATION_INNER_ITERATIONS, f"inner iterations at seed 0: {inner}"
    print(f"implicit-planar at seed 0: {inner} inner iterations, as calibrated")

    for workload in WORKLOADS:
        check_result(f"{workload} held-out seed", result_of(workload, HELD_OUT_SEED, 0, False), end_to_end)
        print(f"{workload}: held-out seed {HELD_OUT_SEED} passes every check at full size")

    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    try:
        code, out, _ = bench(bare, "--workload", "certify", "--seed", "1", "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert code != 0 and '"correct"' not in out, (code, out)
    print(f"without the package source the benchmark exits {code} and prints no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
