"""The benchmark's traced runs end in a strict-JSON result line.

``perfbench/run.py`` prints human-readable lines first and one JSON object
last.  A traced run exercises the tracer's wrappers of the package's
functions, so a change to the return shape of a wrapped function shows here
as a run that ends in something other than a result, and a wrapped
function that is gone reads ``absent``: its metrics are null.  Python's
``json.dumps`` writes bare ``NaN`` and ``Infinity``, and plain
``json.loads`` accepts them; the line is parsed strictly.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ["implicit-planar", "explicit-hyperbolic", "verify-mixed", "certify"]


def _reject(constant):
    raise ValueError(f"non-finite number {constant} in the result line")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_tiny_run_ends_in_a_correct_result(workload):
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", "5", "--seconds", "1", "--trace", "1", "--tiny",
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    last = done.stdout.strip().splitlines()[-1]
    result = json.loads(last, parse_constant=_reject)
    assert result["correct"] is True, result
    assert result["failed"] == 0, result
    absent = sorted(name for name, metric in result["metrics"].items() if metric["value"] is None)
    assert not absent, absent
