"""Outside-in layer trace for the benchmark.

The tracer never edits the package.  It replaces public functions at the
places where their callers look them up -- module attributes in every
``hadamard`` module that imported the function, and instance attributes on
the cached space handles -- and restores every original afterwards.

Memory stays bounded by the number of distinct call sites, not the number of
calls: hot leaf functions only add to a (function, parent) aggregate of call
count and self time, and individual spans (id, parent id, start, end) are
kept only at the coarse boundaries named in ``COARSE``.
"""

from __future__ import annotations

import statistics
import sys
import time

# Functions recorded as individual spans; everything else is aggregated.
COARSE = frozenset(
    {
        "setup",
        "workload",
        "cli.run",
        "cli.verify",
        "experiments.execute",
        "experiments.run_to_files",
        "solvers.run_implicit",
        "solvers.run_explicit",
        "harness.check_space_axioms",
        "harness.check_lemmas",
        "convex.project",
    }
)

# Module-level functions wrapped wherever a hadamard module holds them.
MODULE_FUNCTIONS = (
    "spaces.make_space",
    "geometry.quasilinearization",
    "convex.project_point",
    "convex.contains",
    "convex.project_segment",
    "convex.probe_points",
    "convex.characterization_residual",
    "convex.project",
    "sampling.random_point",
    "sampling.sample_in_ball",
    "solvers.implicit_step",
    "solvers.run_implicit",
    "solvers.run_explicit",
    "solvers.nearest_fixed_point_residual",
    "harness.check_space_axioms",
    "harness.check_lemmas",
    "serialize.config_from_json",
    "serialize.write_trace_csv",
    "experiments.execute",
    "experiments.run_to_files",
)

# Space primitives, wrapped as instance attributes of the space handles.
HANDLE_METHODS = ("distance", "geodesic_point")

# Per-layer metrics: (name, unit, better, what it should move).  The last
# field maps each layer metric to the end-to-end metric and workload it is
# expected to move; run.py prints it with every traced result.
_PRIMITIVES = "run_s on verify-mixed (largest share) and implicit-planar"
_INNER = "run_s on implicit-planar and explicit-hyperbolic; no change on verify-mixed"
_CERT = "cert_p50_ms, cert_p90_ms and run_s on certify"
_SAMPLING = "run_s on verify-mixed; cert_p90_ms on certify"
_IMPLICIT = "run_s on implicit-planar; must not move solution_error"
_HARNESS = "run_s on verify-mixed"
_SERIALIZE = "run_s and peak_rss_mb on explicit-hyperbolic; no change on implicit-planar"
_ORCHESTRATION = "orchestration overhead in run_s on every workload"

LAYER_METRICS = (
    ("spaces.distance.calls", "count", "lower", _PRIMITIVES),
    ("spaces.distance.self_s", "s", "lower", _PRIMITIVES),
    ("spaces.distance.ns_per_call", "ns", "lower", _PRIMITIVES),
    ("spaces.geodesic_point.calls", "count", "lower", _PRIMITIVES),
    ("spaces.geodesic_point.self_s", "s", "lower", _PRIMITIVES),
    ("spaces.geodesic_point.ns_per_call", "ns", "lower", _PRIMITIVES),
    ("spaces.make_space.self_s", "s", "lower", "setup_s and peak_rss_mb on certify"),
    ("geometry.quasilinearization.calls", "count", "lower", "run_s on verify-mixed; cert_p50_ms on certify"),
    ("geometry.quasilinearization.self_s", "s", "lower", "run_s on verify-mixed; cert_p50_ms on certify"),
    ("geometry.quasilinearization.ns_per_call", "ns", "lower", "run_s on verify-mixed; cert_p50_ms on certify"),
    ("convex.project_point.calls", "count", "lower", _INNER),
    ("convex.project_point.self_s", "s", "lower", _INNER),
    ("convex.project_point.in_set_frac", "frac", "higher", _INNER),
    ("convex.contains.calls", "count", "lower", _INNER),
    ("convex.contains.self_s", "s", "lower", _INNER),
    ("convex.project_segment.calls", "count", "lower", _CERT),
    ("convex.project_segment.iterations", "count", "lower", _CERT),
    ("convex.probe_points.self_s", "s", "lower", _CERT),
    ("convex.characterization_residual.self_s", "s", "lower", _CERT),
    ("convex.project.calls", "count", "lower", _CERT),
    ("convex.project.self_s", "s", "lower", _CERT),
    ("mappings.apply.calls", "count", "lower", "run_s on implicit-planar"),
    ("mappings.apply.self_s", "s", "lower", "run_s on implicit-planar"),
    ("sampling.random_point.calls", "count", "lower", _SAMPLING),
    ("sampling.random_point.self_s", "s", "lower", _SAMPLING),
    ("sampling.sample_in_ball.calls", "count", "lower", _SAMPLING),
    ("sampling.sample_in_ball.self_s", "s", "lower", _SAMPLING),
    ("solvers.outer_steps", "count", "lower", _IMPLICIT),
    ("solvers.implicit_step.calls", "count", "lower", _IMPLICIT),
    ("solvers.inner_iterations", "count", "lower", _IMPLICIT),
    ("solvers.inner_per_outer", "iter/step", "lower", _IMPLICIT),
    ("solvers.implicit_step.self_s", "s", "lower", _IMPLICIT),
    ("solvers.run_implicit.self_s", "s", "lower", _IMPLICIT),
    ("solvers.run_explicit.self_s", "s", "lower", "run_s on explicit-hyperbolic"),
    ("solvers.explicit_us_per_step", "us", "lower", "run_s on explicit-hyperbolic"),
    ("solvers.nearest_fixed_point_residual.self_s", "s", "lower", "run_s on implicit-planar and explicit-hyperbolic"),
    ("harness.check_space_axioms.self_s", "s", "lower", _HARNESS),
    ("harness.check_lemmas.self_s", "s", "lower", _HARNESS),
    ("harness.trials", "count", "higher", _HARNESS),
    ("harness.corrupted_violations", "count", "higher", _HARNESS),
    ("serialize.config_from_json.self_s", "s", "lower", _SERIALIZE),
    ("serialize.write_trace_csv.self_s", "s", "lower", _SERIALIZE),
    ("serialize.trace_rows", "count", "lower", _SERIALIZE),
    ("serialize.trace_bytes", "bytes", "lower", _SERIALIZE),
    ("experiments.execute.self_s", "s", "lower", _ORCHESTRATION),
    ("experiments.run_to_files.self_s", "s", "lower", _ORCHESTRATION),
    ("cli.run.self_s", "s", "lower", _ORCHESTRATION),
    ("cli.verify.self_s", "s", "lower", _ORCHESTRATION),
    ("trace.overhead_s", "s", "lower", "traced run_s minus untraced run_s; no end-to-end effect"),
    ("trace.wrapper_ns", "ns", "lower", "recorded cost of an empty wrapper, taken off every self time"),
)

# Function whose wrapper produces each metric not named after its function.
_SOURCES = {
    "convex.project_point.in_set_frac": "convex.project_point",
    "convex.project_segment.iterations": "convex.project_segment",
    "solvers.outer_steps": "solvers.run_implicit",
    "solvers.inner_iterations": "solvers.implicit_step",
    "solvers.inner_per_outer": "solvers.implicit_step",
    "solvers.explicit_us_per_step": "solvers.run_explicit",
    "harness.trials": "harness.check_space_axioms",
    "harness.corrupted_violations": "harness.check_lemmas",
    "serialize.trace_rows": "serialize.write_trace_csv",
    "serialize.trace_bytes": "serialize.write_trace_csv",
}


def source(metric: str) -> str:
    """The wrapped function a per-layer metric is measured on."""
    return _SOURCES.get(metric, metric.rpartition(".")[0])


# Metrics that are exact counts: identical across runs with the same seed.
COUNT_METRICS = tuple(name for name, unit, _, _ in LAYER_METRICS if unit in ("count", "bytes"))


class Tracer:
    """Call aggregates and coarse spans for one process.

    A stack frame is ``[name, child_seconds, span_id]``.  A span is
    ``[id, parent_id, name, start, end, calls_at_start, calls_at_end]``,
    where the call counter counts every wrapped call, so a span's nested
    call count is ``calls_at_end - calls_at_start``.
    """

    def __init__(self):
        self.stack = [["(root)", 0.0, -1]]
        self.agg: dict[tuple[str, str], list] = {}
        self.spans: list[list] = []
        self.extra: dict[str, float] = {}
        self.calls = [0]
        self.absent: set[str] = set()
        self._restore: list = []

    def wrap(self, name: str, fn, post=None):
        """``fn`` with its calls recorded under ``name``; ``post(tracer,
        result, args, kwargs)`` adds extra counters after a successful call."""
        clock = time.perf_counter
        stack, agg, spans, calls = self.stack, self.agg, self.spans, self.calls
        coarse = name in COARSE
        tracer = self

        def traced(*args, **kwargs):
            calls[0] += 1
            parent = stack[-1]
            if coarse:
                sid = len(spans)
                spans.append([sid, parent[2], name, 0.0, 0.0, calls[0], 0])
            else:
                sid = parent[2]
            frame = [name, 0.0, sid]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                parent[1] += dur
                key = (name, parent[0])
                rec = agg.get(key)
                if rec is None:
                    agg[key] = [1, dur - frame[1]]
                else:
                    rec[0] += 1
                    rec[1] += dur - frame[1]
                if coarse:
                    span = spans[sid]
                    span[3], span[4], span[6] = t0, t0 + dur, calls[0]
            if post is not None:
                post(tracer, result, args, kwargs)
            return result

        return traced

    def call(self, name: str, fn, *args):
        """Record the benchmark's own call into a layer under ``name``."""
        return self.wrap(name, fn)(*args)

    def add(self, key: str, value: float) -> None:
        self.extra[key] = self.extra.get(key, 0) + value

    # -- installing and removing wrappers

    def install_modules(self, package) -> None:
        """Wrap MODULE_FUNCTIONS in every loaded module of ``package``."""
        prefix = package.__name__
        modules = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == prefix or name.startswith(prefix + "."))
        ]
        for qual in MODULE_FUNCTIONS:
            mod_name, attr = qual.split(".")
            orig = getattr(sys.modules.get(f"{prefix}.{mod_name}"), attr, None)
            if orig is None:
                self.absent.add(qual)
                continue
            self._replace_everywhere(modules, attr, orig, self.wrap(qual, orig, _POST.get(qual)))
        # the compiled mapping closure is what the solvers call on every step
        orig = getattr(sys.modules.get(f"{prefix}.mappings"), "compile_mapping", None)
        if orig is None:
            self.absent.add("mappings.apply")
            return

        def compile_traced(*args, **kwargs):
            return self.wrap("mappings.apply", orig(*args, **kwargs))

        self._replace_everywhere(modules, "compile_mapping", orig, compile_traced)

    def install_handles(self, handles) -> None:
        """Wrap the primitives on space handles and their product components."""
        seen = set()
        todo = list(handles)
        while todo:
            h = todo.pop()
            if id(h) in seen:
                continue
            seen.add(id(h))
            todo += [c for c in (getattr(h, "left", None), getattr(h, "right", None)) if c is not None]
            for attr in HANDLE_METHODS:
                orig = getattr(h, attr, None)
                if orig is None:
                    self.absent.add(f"spaces.{attr}")
                    continue
                setattr(h, attr, self.wrap(f"spaces.{attr}", orig))
                self._restore.append((h, attr, None))

    def _replace_everywhere(self, modules, attr, orig, replacement) -> None:
        for m in modules:
            if getattr(m, attr, None) is orig:
                setattr(m, attr, replacement)
                self._restore.append((m, attr, orig))

    def uninstall(self) -> None:
        """Put back every original, newest first."""
        while self._restore:
            target, attr, orig = self._restore.pop()
            if orig is None:
                delattr(target, attr)
            else:
                setattr(target, attr, orig)

    # -- results

    def reset(self) -> None:
        """Forget everything recorded; the wrappers stay valid."""
        self.agg.clear()
        self.spans.clear()
        self.extra.clear()


def totals(agg: dict, inside: float = 0.0, outside: float = 0.0) -> dict[str, list]:
    """Call count and self time per function, summed over parents.

    A wrapped call adds ``inside`` seconds to the callee's recorded time and
    ``outside`` seconds to its caller's; both are taken off, per own call and
    per direct child call, so that self times estimate the untraced code.
    """
    out: dict[str, list] = {}
    for (name, parent), (calls, self_s) in agg.items():
        rec = out.setdefault(name, [0, 0.0])
        rec[0] += calls
        rec[1] += self_s - calls * inside
        out.setdefault(parent, [0, 0.0])[1] -= calls * outside
    return out


def rows(agg: dict) -> list[dict]:
    """The (function, parent) aggregate as JSON-ready rows."""
    return [
        {"function": name, "parent": parent, "calls": calls, "self_s": self_s}
        for (name, parent), (calls, self_s) in sorted(agg.items())
    ]


def _post_project_point(tracer, result, args, kwargs):
    x = args[2] if len(args) > 2 else kwargs["x"]
    if result[0] is x or result[0] == x:
        tracer.add("convex.project_point.in_set", 1)


def _post_project_segment(tracer, result, args, kwargs):
    tracer.add("convex.project_segment.iterations", result[2])


def _post_implicit_step(tracer, result, args, kwargs):
    tracer.add("solvers.inner_iterations", result[1])


def _post_solver(rows_key):
    def post(tracer, result, args, kwargs):
        tracer.add("solvers.outer_steps", len(result.rows))
        tracer.add(rows_key, len(result.rows))

    return post


def _post_check(count_trials):
    def post(tracer, result, args, kwargs):
        space = args[0] if args else kwargs["space"]
        if count_trials:
            tracer.add("harness.trials", args[1] if len(args) > 1 else kwargs["trials"])
        if type(space).__name__ == "CorruptedSpace":
            tracer.add("harness.corrupted_violations", sum(r.violations for r in result))

    return post


def _post_write_trace_csv(tracer, result, args, kwargs):
    trace, out = args[0], args[1]
    tracer.add("serialize.trace_rows", len(trace.rows))
    tracer.add("serialize.trace_bytes", out.tell())


_POST = {
    "convex.project_point": _post_project_point,
    "convex.project_segment": _post_project_segment,
    "solvers.implicit_step": _post_implicit_step,
    "solvers.run_implicit": _post_solver("solvers.implicit_rows"),
    "solvers.run_explicit": _post_solver("solvers.explicit_rows"),
    "harness.check_space_axioms": _post_check(count_trials=True),
    "harness.check_lemmas": _post_check(count_trials=False),
    "serialize.write_trace_csv": _post_write_trace_csv,
}


def calibrate(batches: int = 7, calls: int = 100_000) -> tuple[float, float]:
    """Cost of wrapping an empty two-argument function, in ns per call,
    measured in this process.

    Returns (inside, total): the self time the wrapper records for an empty
    function, and the whole extra cost a caller sees.  ``totals`` takes the
    first off the callee's self time and the rest off the caller's.
    """
    def empty(a, b):
        return None

    inside, total = [], []
    for _ in range(batches):
        t = Tracer()
        wrapped = t.wrap("empty", empty)
        clock = time.perf_counter
        t0 = clock()
        for _ in range(calls):
            empty(1, 2)
        bare = clock() - t0
        t0 = clock()
        for _ in range(calls):
            wrapped(1, 2)
        traced = clock() - t0
        inside.append(totals(t.agg)["empty"][1] / calls * 1e9)
        total.append((traced - bare) / calls * 1e9)
    return statistics.median(inside), statistics.median(total)
