"""Experiment execution: config in, trace CSV + summary JSON out."""

from __future__ import annotations

import time
from pathlib import Path
from typing import Optional

from . import serialize
from .mappings import known_fixed_set
from .solvers import (
    IterationTrace,
    nearest_fixed_point_residual,
    run_explicit,
    run_implicit,
)
from .spaces import Basepoint, make_space


def execute(cfg: serialize.ExperimentConfig) -> tuple[IterationTrace, dict]:
    """Run the configured solver; returns the trace and the summary document.

    The summary's ``timings`` hold ``solve_s`` and ``certify_s`` in seconds;
    :func:`run_to_files` adds ``write_s``.
    """
    space = make_space(cfg.space)
    base = Basepoint(cfg.basepoint)
    args = (space, cfg.convex_set, cfg.mapping, cfg.schedule, base)
    shared = dict(budget=cfg.budget, outer_tol=cfg.outer_tol, seed=cfg.seed,
                  region=cfg.perturbation_region, reference=cfg.reference)
    start = time.perf_counter()
    # looked up when called, so that a wrapper put on the module's name sees the run
    if cfg.algorithm == "implicit":
        trace = run_implicit(*args, inner_tol=cfg.inner_tol, max_inner=cfg.max_inner, **shared)
    else:
        trace = run_explicit(*args, x0=cfg.x0, **shared)
    solved = time.perf_counter()

    certificates: dict[str, Optional[float]] = {"nearest_fixed_point_residual": None}
    fixed = known_fixed_set(cfg.mapping)
    if fixed is not None and fixed != []:
        certificates["nearest_fixed_point_residual"] = nearest_fixed_point_residual(
            space, trace.final, base, fixed, probes=1000, seed=cfg.seed
        )
    certified = time.perf_counter()

    summary = {
        "name": cfg.name,
        "status": trace.status,
        "steps": trace.rows[-1].n,
        "final_point": serialize.point_to_json(trace.final),
        "final_fixed_residual": trace.final_fixed_residual,
        "certificates": certificates,
        "timings": {"solve_s": solved - start, "certify_s": certified - solved},
        "config": serialize.config_to_json(cfg),
    }
    if cfg.algorithm == "implicit":
        summary["inner_iterations"] = sum(row.inner_iterations for row in trace.rows)
    return trace, summary


def run_to_files(cfg: serialize.ExperimentConfig) -> tuple[dict, Path]:
    """Execute and write ``<name>.trace.csv`` and ``<name>.summary.json``;
    returns the summary and the trace's path."""
    trace, summary = execute(cfg)
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    trace_path = out_dir / f"{cfg.name}.trace.csv"
    start = time.perf_counter()
    with open(trace_path, "w") as fh:
        serialize.write_trace_csv(trace, fh)
    summary["timings"]["write_s"] = time.perf_counter() - start
    with open(out_dir / f"{cfg.name}.summary.json", "w") as fh:
        fh.write(serialize.dumps(summary))
    return summary, trace_path
