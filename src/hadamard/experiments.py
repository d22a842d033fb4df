"""Experiment execution: config in, trace CSV + summary JSON out."""

from __future__ import annotations

import math
import time
from pathlib import Path
from typing import Callable, Optional

from . import serialize
from .mappings import known_fixed_set
from .solvers import (
    IterationTrace,
    TraceRow,
    nearest_fixed_point_residual,
    run_explicit,
    run_implicit,
)
from .spaces import make_space


def execute(
    cfg: serialize.ExperimentConfig, sink: Optional[Callable[[TraceRow], None]] = None
) -> tuple[IterationTrace, dict]:
    """Run the configured solver; returns the trace and the summary document.

    Each trace row goes to ``sink`` when one is given (the trace's ``rows``
    then stay empty), so the summary is built from the trace's running
    values, ``last`` and ``inner_iterations``.  The summary's ``timings``
    hold ``solve_s`` (the solver's span) and ``certify_s`` in seconds;
    :func:`run_to_files` adds ``write_s``.  A number of the summary that is
    not finite, such as a diverged run's residual, is None (JSON null).
    """
    space = make_space(cfg.space)
    args = (space, cfg.convex_set, cfg.mapping, cfg.schedule, cfg.basepoint)
    shared = dict(budget=cfg.budget, outer_tol=cfg.outer_tol, seed=cfg.seed,
                  reference=cfg.reference, sink=sink)
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
            space, trace.final, cfg.basepoint, fixed, probes=1000, seed=cfg.seed
        )
    certified = time.perf_counter()

    summary = {
        "name": cfg.name,
        "status": trace.status,
        "steps": trace.last.n,
        "final_point": serialize.point_to_json(trace.final),
        "final_fixed_residual": trace.last.fixed_residual,
        "certificates": certificates,
        "timings": {"solve_s": solved - start, "certify_s": certified - solved},
        "config": serialize.config_to_json(cfg),
    }
    if cfg.algorithm == "implicit":
        summary["inner_iterations"] = trace.inner_iterations
    return trace, _finite_or_null(summary)


def _finite_or_null(doc):
    """``doc`` with every float that is not finite replaced by None."""
    if isinstance(doc, float):
        return doc if math.isfinite(doc) else None
    if isinstance(doc, dict):
        return {key: _finite_or_null(value) for key, value in doc.items()}
    if isinstance(doc, list):
        return [_finite_or_null(value) for value in doc]
    return doc


def run_to_files(cfg: serialize.ExperimentConfig) -> tuple[dict, Path]:
    """Execute and write ``<name>.trace.csv`` and ``<name>.summary.json``;
    returns the summary and the trace's path.

    The trace's rows are streamed to the CSV in fixed blocks while the
    solver runs (see :class:`serialize.TraceFile`), so memory does not grow
    with the budget.  Nothing is written, not even the output directory,
    for a config the solver rejects before its first step, and a run that
    raises, or whose trace or summary cannot be written, leaves nothing
    behind.  ``timings.write_s`` is the summed time of
    the block writes and ``timings.solve_s`` the solver's span without the
    block writes made during it.
    """
    out_dir = Path(cfg.output_dir)
    with serialize.TraceFile(out_dir / f"{cfg.name}.trace.csv") as trace_file:
        summary = execute(cfg, sink=trace_file.add)[1]
        timings = summary["timings"]
        timings["solve_s"] -= trace_file.write_s
        trace_file.flush()
        timings["write_s"] = trace_file.write_s
        (out_dir / f"{cfg.name}.summary.json").write_text(serialize.dumps(summary))
    return summary, trace_file.path
