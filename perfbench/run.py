"""Benchmark of the hadamard toolkit: one workload, one seed, one process.

    python3 perfbench/run.py --workload certify --seed 3 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` the run sets the workload up several times
(re-importing the package each time), then repeats the workload's fixed unit
of work until ``--seconds`` have passed, checks every output, and reports the
end-to-end metrics as medians.  Set-up and unit times are rescaled to an
uncontended core by sampling the host's speed while they run (``HostSpeed``);
the raw wall times are printed beside them.  With ``--trace 1`` it alternates
untraced and traced units and reports the per-layer metrics of
``tracer.LAYER_METRICS``, from raw wall times.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The run uses one process and no threads.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.metadata
import json
import math
import os
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

# third-party imports happen here, so that every timed set-up pays the same
import click  # noqa: F401
import numpy

import tracer as tr
from workloads import WORKLOADS, Outcome

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
# set-ups per run: at least SETUPS_MIN, and more while they have taken less
# than SETUP_BUDGET_S, up to SETUPS_MAX
SETUPS_MIN = 3
SETUPS_MAX = 15
SETUP_BUDGET_S = 2.0

# Host-speed sampling.  On a shared host the core runs this process slower
# whenever a neighbour is busy: the slow spells last a fraction of a
# millisecond, CPU time tracks wall time, and the share of slow time drifts,
# so that identical runs differ by up to half in wall time.  A small fixed
# piece of object-heavy Python (``reference_work``) is timed on a timer
# signal every SAMPLE_INTERVAL_S while a set-up or unit runs, and the
# section's time is rescaled by the core's mean speed over it (see
# ``HostSpeed``): an estimate of the section's time on an uncontended core.
# REF_WORK_S, the nominal time of the reference work, is about its time when
# sampled this way on an idle core of a 2-vCPU Intel Xeon (family 6, model
# 143) KVM guest; it only sets the scale, and the raw wall times are printed
# beside the rescaled ones.  Method calls, attribute access and small
# allocations, timed warm, slow down under a busy neighbour about as much as
# the package's own code does; in trials a bare arithmetic loop slowed down
# less, and random reads of a large list more.
REF_WORK_S = 1.2e-5
SAMPLE_INTERVAL_S = 0.002


class _RefPoint:
    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = x
        self.y = y

    def toward(self, other, t):
        return _RefPoint(self.x + t * (other.x - self.x), self.y + t * (other.y - self.y))

    def dist(self, other):
        return math.hypot(self.x - other.x, self.y - other.y)


_REF_POINTS = [_RefPoint(math.cos(i), math.sin(2 * i)) for i in range(21)]
_REF_WEIGHTS = {i: 1.0 / (i + 1) for i in range(20)}


def reference_work() -> float:
    s = 0.0
    for i in range(20):
        a, b = _REF_POINTS[i], _REF_POINTS[i + 1]
        m = a.toward(b, 0.5)
        if isinstance(m, _RefPoint):
            s += m.dist(a) + _REF_WEIGHTS[i]
    return s


END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MB"))


def load_package():
    """Import ``hadamard`` afresh from ``src/``, dropping any earlier import,
    so that every timed set-up pays for the import and an empty space cache."""
    for name in [m for m in sys.modules if m == "hadamard" or m.startswith("hadamard.")]:
        # other modules' caches (typing's, for one) can keep the old module
        # alive; emptying its own caches frees the spaces it built
        for value in vars(sys.modules.pop(name)).values():
            if getattr(value, "__module__", "") == name and hasattr(value, "cache_clear"):
                value.cache_clear()
    hd = importlib.import_module("hadamard")
    cli = importlib.import_module("hadamard.cli")
    if Path(hd.__file__).resolve().parent != SRC / "hadamard":
        raise ImportError(f"hadamard imported from {hd.__file__}, not from {SRC}")
    return hd, cli


def plain_call(name, fn, *args):
    return fn(*args)


class HostSpeed:
    """Times ``reference_work`` on SIGALRM while the ``with`` block runs.

    The samples are spread evenly over wall time, so REF_WORK_S over a
    sample is the core's speed at that moment, relative to the nominal one.
    ``rescale(wall)`` takes the sampler's own time off ``wall`` and scales the
    rest by the mean speed: the time the same work takes at nominal speed.
    A warm pass tracks the workload's slowdown more closely than a cold one,
    whose cache misses cost about the same on a busy host as on an idle one.
    A mean of speeds, not of loop times, also keeps a sample that a
    preemption stretched from counting for more than its moment.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _sample(self, signum, frame):
        # the first pass brings the reference work back into the caches that
        # the workload took; only the second, warm pass is timed
        t0 = time.perf_counter()
        reference_work()
        t1 = time.perf_counter()
        reference_work()
        t2 = time.perf_counter()
        self.samples.append(t2 - t1)
        self.spent += t2 - t0

    def __enter__(self):
        self.samples = []
        self.spent = 0.0
        self.previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self.previous)

    def rescale(self, wall: float) -> float:
        if not self.samples:
            return wall
        speed = statistics.fmean(REF_WORK_S / t for t in self.samples)
        return (wall - self.spent) * speed


def merge(total: Outcome, part: Outcome) -> None:
    total.attempted += part.attempted
    total.problems += part.problems
    for key, values in part.values.items():
        total.values.setdefault(key, []).extend(values)


def timed_unit(workload, ctx, call, outcome: Outcome) -> float:
    gc.collect()
    t0 = time.perf_counter()
    raw = call("workload", workload.unit, ctx, call)
    seconds = time.perf_counter() - t0
    merge(outcome, workload.check(ctx, raw))
    return seconds


def sampled_unit(workload, ctx, outcome: Outcome) -> tuple[float, float]:
    """(wall seconds, rescaled seconds) of one untraced unit."""
    gc.collect()
    with HostSpeed() as speed:
        t0 = time.perf_counter()
        raw = workload.unit(ctx, plain_call)
        seconds = time.perf_counter() - t0
    merge(outcome, workload.check(ctx, raw))
    return seconds, speed.rescale(seconds)


def sampled_setup(workload, seed, run_dir, tiny):
    """(wall seconds, rescaled seconds, context) of one set-up."""
    with HostSpeed() as speed:
        t0 = time.perf_counter()
        hd, cli = load_package()
        ctx = workload.setup(hd, cli, seed, run_dir, tiny)
        seconds = time.perf_counter() - t0
    return seconds, speed.rescale(seconds), ctx


def measure(workload, seed, seconds, run_dir, tiny):
    """End-to-end metrics: medians over set-ups and over units, each
    rescaled to an uncontended core by ``HostSpeed``."""
    setups = []
    ctx = None
    while len(setups) < SETUPS_MIN or (
        len(setups) < SETUPS_MAX and sum(w for w, _ in setups) < SETUP_BUDGET_S
    ):
        # drop the previous set-up first, so that its spaces are freed
        ctx = None
        gc.collect()
        wall, rescaled, ctx = sampled_setup(workload, seed, run_dir, tiny)
        setups.append((wall, rescaled))
    outcome = Outcome()
    runs = []
    deadline = time.perf_counter() + seconds
    while not runs or time.perf_counter() < deadline:
        runs.append(sampled_unit(workload, ctx, outcome))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {
        "setup_s": statistics.median(r for _, r in setups),
        "run_s": statistics.median(r for _, r in runs),
        "peak_rss_mb": peak_mb,
    }

    def listing(pairs):
        return " ".join(f"{r:.3f}" for _, r in pairs) + "; wall " + " ".join(f"{w:.3f}" for w, _ in pairs)

    lines = [
        f"setup_s {values['setup_s']:.6f} s (median of {len(setups)} set-ups: {listing(setups)})",
        f"run_s {values['run_s']:.6f} s (median of {len(runs)} units: {listing(runs)})",
        f"peak_rss_mb {peak_mb:.1f} MB",
    ]
    if "solution_error" in outcome.values:
        lines.append(f"solution_error {statistics.median(outcome.values['solution_error']):.6e} (distance units)")
    if "cert_ms" in outcome.values:
        lat = outcome.values["cert_ms"]
        p = statistics.quantiles(lat, n=10, method="inclusive")
        lines.append(f"cert_p50_ms {statistics.median(lat):.3f} ms (n={len(lat)})")
        lines.append(f"cert_p90_ms {p[8]:.3f} ms (n={len(lat)})")
    return values, outcome, lines, None


def trace(workload, seed, seconds, run_dir, tiny):
    """Per-layer metrics from traced units, with untraced units in between."""
    wrapper_in, wrapper_total = tr.calibrate()
    hd, cli = load_package()
    t = tr.Tracer()
    t.install_modules(hd)
    ctx = t.call("setup", workload.setup, hd, cli, seed, run_dir, tiny)
    t.uninstall()
    setup_agg = dict(t.agg)
    t.reset()

    outcome = Outcome()
    plain, traced, units = [], [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        plain.append(timed_unit(workload, ctx, plain_call, outcome))
        t.install_modules(hd)
        t.install_handles(ctx.handles)
        try:
            traced.append(timed_unit(workload, ctx, t.call, outcome))
        finally:
            t.uninstall()
        units.append((dict(t.agg), dict(t.extra), [list(s) for s in t.spans]))
        t.reset()

    counts = [({k: rec[0] for k, rec in agg.items()}, extra) for agg, extra, _ in units]
    if any(c != counts[0] for c in counts):
        outcome.problems.append("trace: call counts differ between identical traced units")
    values = _layer_values(setup_agg, units, t.absent, wrapper_in, wrapper_total)
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    lines = [
        f"traced units {len(traced)}: median {statistics.median(traced):.3f} s, "
        f"untraced median {statistics.median(plain):.3f} s",
        f"wrapper cost {wrapper_in:.1f} ns recorded, {wrapper_total:.1f} ns seen by the caller",
    ]
    for name, unit, _, moves in tr.LAYER_METRICS:
        v = values[name]
        lines.append(f"{name} {'absent' if v is None else repr(v)} {unit}  [moves: {moves}]")
    agg0, extra0, spans0 = units[0]
    dump = {
        "setup": tr.rows(setup_agg),
        "first_unit": {"aggregate": tr.rows(agg0), "spans": spans0, "extra": extra0},
    }
    return values, outcome, lines, dump


def _layer_values(setup_agg, units, absent, wrapper_in, wrapper_total):
    """Values of every ``tracer.LAYER_METRICS`` entry: counts from the first
    traced unit plus set-up, times as set-up plus the median over units, with
    the calibrated wrapper cost taken off every self time."""
    inside, outside = wrapper_in * 1e-9, (wrapper_total - wrapper_in) * 1e-9
    setup_totals = tr.totals(setup_agg, inside, outside)
    unit_totals = [tr.totals(agg, inside, outside) for agg, _, _ in units]
    extra0 = units[0][1]

    def calls(fn):
        return setup_totals.get(fn, [0, 0.0])[0] + unit_totals[0].get(fn, [0, 0.0])[0]

    def self_s(fn):
        unit_self = statistics.median(u.get(fn, [0, 0.0])[1] for u in unit_totals)
        return setup_totals.get(fn, [0, 0.0])[1] + unit_self

    def explicit_us_per_step():
        per_unit = []
        for _, ex, spans in units:
            rows = ex.get("solvers.explicit_rows", 0)
            spent = sum(
                (s[4] - s[3]) - (s[6] - s[5]) * wrapper_total * 1e-9
                for s in spans
                if s[2] == "solvers.run_explicit"
            )
            per_unit.append(spent / rows * 1e6 if rows else 0.0)
        return statistics.median(per_unit)

    values = {}
    for name, _, _, _ in tr.LAYER_METRICS:
        fn, _, stat = name.rpartition(".")
        if stat == "calls":
            values[name] = calls(fn)
        elif stat == "self_s":
            values[name] = self_s(fn)
        elif stat == "ns_per_call":
            n = calls(fn)
            values[name] = self_s(fn) / n * 1e9 if n else 0.0
        else:  # a counter the post hooks keep under the metric's own name
            values[name] = extra0.get(name, 0)
    n_proj = calls("convex.project_point")
    n_steps = calls("solvers.implicit_step")
    values.update(
        {
            "convex.project_point.in_set_frac": extra0.get("convex.project_point.in_set", 0) / n_proj if n_proj else 0.0,
            "solvers.inner_per_outer": values["solvers.inner_iterations"] / n_steps if n_steps else 0.0,
            "solvers.explicit_us_per_step": explicit_us_per_step(),
            "trace.wrapper_ns": wrapper_in,
        }
    )
    for name in values:
        if tr.source(name) in absent:
            values[name] = None
    return values


# ---------------------------------------------------------------------------
# provenance


def git_sha() -> str:
    """Commit of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance() -> dict:
    return {
        "git_sha": git_sha(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "click": importlib.metadata.version("click"),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m_start": os.getloadavg()[0],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "hadamard" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'hadamard'}", file=sys.stderr)
        return 2

    # inputs come from --seed alone
    os.environ.pop("HADAMARD_SEED", None)
    sys.path.insert(0, str(SRC))
    prov = provenance()
    workload = WORKLOADS[args.workload]
    run_dir = OUT / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        fn = trace if args.trace else measure
        values, outcome, lines, dump = fn(workload, args.seed, args.seconds, run_dir, args.tiny)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    prov["loadavg_1m_end"] = os.getloadavg()[0]

    if dump is not None:
        dump["provenance"] = prov
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps(dump))
        lines.append(f"spans and call aggregates written to {spans_path.relative_to(ROOT)}")
    units = dict(END_TO_END) if not args.trace else {n: u for n, u, _, _ in tr.LAYER_METRICS}
    fail_frac = outcome.failed / outcome.attempted
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    for line in lines:
        print(line)
    print(f"fail_frac {fail_frac} ({outcome.failed} of {outcome.attempted} operations)")
    for problem in outcome.problems[:20]:
        print(f"FAILED {problem}")
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
