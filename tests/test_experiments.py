"""``run_to_files``: a run's rows are streamed to its trace CSV in blocks."""

import io
import json
import tracemalloc
from pathlib import Path

import pytest

from hadamard import experiments, serialize
from hadamard.experiments import execute, run_to_files

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def load(name, out_dir, **overrides):
    doc = json.loads((CONFIG_DIR / name).read_text())
    doc.update(overrides, output_dir=str(out_dir))
    return serialize.config_from_json(doc)


@pytest.mark.parametrize(
    "name, overrides, status",
    [
        ("segment_implicit.json", {}, "converged"),
        ("segment_explicit.json", {}, "converged"),
        ("segment_implicit.json", {"max_inner": 1}, "inner_budget"),
    ],
    ids=["implicit", "explicit", "inner-budget"],
)
def test_streamed_csv_matches_kept_rows(tmp_path, name, overrides, status):
    cfg = load(name, tmp_path, **overrides)
    summary, path = run_to_files(cfg)
    trace, kept = execute(cfg)
    assert summary["status"] == kept["status"] == status
    out = io.StringIO()
    serialize.write_trace_csv(trace, out)
    assert path.read_text() == out.getvalue()
    written = json.loads((tmp_path / f"{cfg.name}.summary.json").read_text())
    for doc in (summary, written, kept):
        doc.pop("timings")
    assert written == summary == kept


def test_streamed_run_memory_does_not_grow_with_budget(tmp_path):
    # kept rows would add about 5 MB between the two budgets
    run_to_files(load("segment_explicit.json", tmp_path, outer_tol=0.0, budget=100))
    peaks = []
    for budget in (2_000, 20_000):
        cfg = load("segment_explicit.json", tmp_path, outer_tol=0.0, budget=budget)
        tracemalloc.start()
        try:
            summary, _ = run_to_files(cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert summary["steps"] == budget
    assert abs(peaks[1] - peaks[0]) < 2**20


def test_run_that_raises_after_a_block_write_leaves_nothing(tmp_path, monkeypatch):
    # the first blocks are on disk when the certificate fails; the partial
    # CSV and the directories made for it are removed
    monkeypatch.setattr(serialize, "_BLOCK_ROWS", 4)

    def fail(*args, **kwargs):
        raise ValueError("certificate failed")

    monkeypatch.setattr(experiments, "nearest_fixed_point_residual", fail)
    out = tmp_path / "a" / "b"
    with pytest.raises(ValueError, match="certificate failed"):
        run_to_files(load("segment_explicit.json", out, budget=50, outer_tol=0.0))
    assert list(tmp_path.iterdir()) == []


def test_streamed_timings_split_the_solve_from_the_writes(tmp_path):
    summary, _ = run_to_files(load("segment_explicit.json", tmp_path, budget=5_000, outer_tol=0.0))
    timings = summary["timings"]
    assert sorted(timings) == ["certify_s", "solve_s", "write_s"]
    assert timings["write_s"] > 0.0 and timings["solve_s"] > 0.0
