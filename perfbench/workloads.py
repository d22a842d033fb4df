"""The benchmark's four workloads.

Each workload has three parts:

* ``setup`` builds every input and every space the workload uses, from the
  seed alone;
* ``unit`` is the fixed amount of work that one ``run_s`` sample times.  It
  goes through the ``hadamard`` CLI entry point or the public API only;
* ``check`` verifies the unit's outputs against oracles kept here, which do
  not call the package, and reports failed operations.

Why these four: the solver workloads exercise the implicit inner loop and
the explicit per-step loop (one has an inner loop, the other has none); the
harness workload exercises every primitive kernel and never enters
``convex`` or ``solvers``; the certify workload is the only one that runs
the probe and certificate path and builds a large tree.
"""

from __future__ import annotations

import io
import json
import math
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
IMPLICIT_CONFIG = ROOT / "configs" / "segment_implicit.json"


@dataclass
class Outcome:
    attempted: int = 0
    problems: list[str] = field(default_factory=list)
    values: dict[str, list[float]] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return len(self.problems)

    def value(self, key: str, v: float) -> None:
        self.values.setdefault(key, []).append(v)


def invoke(cli, args: list[str]) -> tuple[int, str, str]:
    """Run ``hadamard <args>`` in this process; (exit code, stdout, stderr).

    An exception that escapes the CLI is a failed operation: it is reported
    as exit code -1 with its traceback on stderr.
    """
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            cli.main(args, prog_name="hadamard")
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except Exception:  # counted as a failure by the workload's check
            traceback.print_exc()
            code = -1
    return code, out.getvalue(), err.getvalue()


def strict_json(text: str):
    """Parse JSON, rejecting the NaN and Infinity extensions."""

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=reject)


# ---------------------------------------------------------------------------
# distance oracles, independent of the package


def e_dist(a, b) -> float:
    return math.dist(a, b)


def h_dist(a, b) -> float:
    """Hyperboloid distance in the cancellation-free form."""
    m = -((a[0] - b[0]) ** 2) + sum((x - y) ** 2 for x, y in zip(a[1:], b[1:]))
    return 2.0 * math.asinh(0.5 * math.sqrt(m)) if m > 0.0 else 0.0


def polar(r: float, theta: float) -> list[float]:
    """Hyperboloid point at distance r from the sheet base point."""
    return [math.cosh(r), math.sinh(r) * math.cos(theta), math.sinh(r) * math.sin(theta)]


class TreeOracle:
    """Distances on a weighted tree by walking to the lowest common ancestor."""

    def __init__(self, vertex_count: int, edges):
        self.edges = edges
        adj = [[] for _ in range(vertex_count)]
        for u, v, length in edges:
            adj[u].append((v, length))
            adj[v].append((u, length))
        self.adj = adj
        self.parent = [-1] * vertex_count
        self.depth = [0] * vertex_count
        self.root_dist = [0.0] * vertex_count
        seen = [False] * vertex_count
        seen[0] = True
        order = [0]
        for v in order:
            for w, length in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    self.parent[w] = v
                    self.depth[w] = self.depth[v] + 1
                    self.root_dist[w] = self.root_dist[v] + length
                    order.append(w)

    def vertex_dist(self, a: int, b: int) -> float:
        x, y = a, b
        while x != y:
            if self.depth[x] >= self.depth[y]:
                x = self.parent[x]
            else:
                y = self.parent[y]
        return self.root_dist[a] + self.root_dist[b] - 2.0 * self.root_dist[x]

    def dist(self, p, q) -> float:
        """Distance between (edge_id, offset) points."""
        (ep, tp), (eq, tq) = p, q
        if ep == eq:
            return abs(tp - tq)
        up, vp, lp = self.edges[ep]
        uq, vq, lq = self.edges[eq]
        return min(
            oa + self.vertex_dist(a, b) + ob
            for a, oa in ((up, tp), (vp, lp - tp))
            for b, ob in ((uq, tq), (vq, lq - tq))
        )


# ---------------------------------------------------------------------------
# solver workloads, run through ``hadamard run``


class _SolverWorkload:
    """A config document run by ``hadamard run``; subclasses build the
    document and know the nearest fixed point."""

    name = ""
    dist = staticmethod(e_dist)

    def document(self, tiny: bool) -> dict:
        raise NotImplementedError

    def descriptor(self, hd):
        raise NotImplementedError

    def setup(self, hd, cli, seed: int, out_dir: Path, tiny: bool):
        doc = self.document(tiny)
        doc["seed"] = seed
        doc["output_dir"] = str(out_dir)
        path = out_dir / f"{self.name}.json"
        path.write_text(json.dumps(doc))
        return SimpleNamespace(
            cli=cli,
            handles=[hd.make_space(self.descriptor(hd))],
            doc=doc,
            config=path,
            summary=out_dir / f"{doc['name']}.summary.json",
            trace=out_dir / f"{doc['name']}.trace.csv",
        )

    def unit(self, ctx, call):
        return call("cli.run", invoke, ctx.cli, ["run", str(ctx.config)])

    def check(self, ctx, raw) -> Outcome:
        code, _, err = raw
        outcome = Outcome(attempted=1)
        try:
            summary = strict_json(ctx.summary.read_text())
            ctx.summary.unlink()
            ctx.trace.unlink()
            final = summary["final_point"]["coords"]
            error = self.dist(final, self.solution)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            outcome.problems.append(
                f"{self.name}: exit code {code}, outputs missing or invalid ({exc!r}); "
                f"stderr {err.strip()[-500:]!r}"
            )
            return outcome
        outcome.value("solution_error", error)
        if code != 0:
            outcome.problems.append(f"{self.name}: exit code {code}")
        elif summary["status"] != "converged":
            outcome.problems.append(f"{self.name}: status {summary['status']!r}")
        else:
            problem = self.check_summary(ctx, summary, final, error)
            if problem:
                outcome.problems.append(f"{self.name}: {problem}")
        return outcome

    def check_summary(self, ctx, summary, final, error):
        raise NotImplementedError


class ImplicitPlanar(_SolverWorkload):
    """The shipped implicit config: the inner Picard loop dominates."""

    name = "implicit-planar"
    # the segment y = 1, |x| <= 2 is the fixed set; (0, 1) is nearest the base point
    solution = (0.0, 1.0)

    def document(self, tiny):
        doc = json.loads(IMPLICIT_CONFIG.read_text())
        if tiny:
            doc["inner_tol"] = 1e-4
        return doc

    def descriptor(self, hd):
        return hd.Euclidean(2)

    def check_summary(self, ctx, summary, final, error):
        if not error <= 1e-2:
            return f"solution error {error:.3e} above 1e-2"
        return None


class ExplicitHyperbolic(_SolverWorkload):
    """The explicit scheme in H2: no inner loop, about 52k steps."""

    name = "explicit-hyperbolic"
    dist = staticmethod(h_dist)
    # the fixed set is a geodesic through the sheet base point, perpendicular
    # to the geodesic from there to the base point (cosh 1, 0, sinh 1)
    solution = (1.0, 0.0, 0.0)

    def document(self, tiny):
        r = 1.5
        return {
            "name": "hyperbolic-explicit",
            "algorithm": "explicit",
            "space": {"type": "hyperbolic", "dim": 2},
            "convex_set": {"type": "ball", "center": {"coords": [1.0, 0.0, 0.0]}, "radius": 4.0},
            "mapping": {
                "type": "projection",
                "set": {
                    "type": "segment",
                    "a": {"coords": [math.cosh(r), math.sinh(r), 0.0]},
                    "b": {"coords": [math.cosh(r), -math.sinh(r), 0.0]},
                },
            },
            "schedule": {
                "anchor": {"scale": 1.0, "power": 0.7, "shift": 2.0},
                "perturbation": {"scale": 1.0, "power": 1.0, "shift": 2.0},
                "mixing": 0.5,
            },
            "basepoint": {"coords": [math.cosh(1.0), 0.0, math.sinh(1.0)]},
            "x0": {"coords": polar(1.2, 2.0)},
            "reference": {"coords": [1.0, 0.0, 0.0]},
            "budget": 200000,
            "outer_tol": 2e-2 if tiny else 5e-4,
        }

    def descriptor(self, hd):
        return hd.Hyperbolic(2)

    def check_summary(self, ctx, summary, final, error):
        residual = summary.get("certificates", {}).get("nearest_fixed_point_residual")
        base = ctx.doc["basepoint"]["coords"]
        limit = 1e-4 * (1.0 + h_dist(final, base) ** 2)
        if residual is None or not residual <= limit:
            return f"nearest fixed point residual {residual} above {limit:.3e}"
        return None


# ---------------------------------------------------------------------------
# property harness, run through ``hadamard verify``


class VerifyMixed:
    """``hadamard verify`` on all four space families plus a negative control."""

    name = "verify-mixed"

    def setup(self, hd, cli, seed, out_dir, tiny):
        trials = 50 if tiny else 2000
        specs = [
            "euclidean:2",
            "hyperbolic:2",
            f"tree-random:200:{seed}",
            "product:(euclidean:2,hyperbolic:2)",
        ]
        e2, h2 = hd.Euclidean(2), hd.Hyperbolic(2)
        tree = hd.WeightedTree(cli.random_tree_topology(200, seed))
        handles = [hd.make_space(d) for d in (e2, h2, tree, hd.Product(e2, h2))]
        runs = [(spec, trials, 0) for spec in specs]
        runs.append(("corrupted-demo", 50 if tiny else 300, 1))
        return SimpleNamespace(cli=cli, handles=handles, seed=seed, runs=runs)

    def unit(self, ctx, call):
        return [
            call(
                "cli.verify",
                invoke,
                ctx.cli,
                ["verify", "--space", spec, "--trials", str(trials), "--seed", str(ctx.seed)],
            )
            for spec, trials, _ in ctx.runs
        ]

    def check(self, ctx, raw) -> Outcome:
        outcome = Outcome(attempted=len(ctx.runs))
        for (spec, trials, want_code), (code, out, err) in zip(ctx.runs, raw):
            rows = _verify_rows(out)
            violations = sum(v for _, v in rows)
            if code != want_code:
                outcome.problems.append(f"verify {spec}: exit code {code}, expected {want_code}")
            elif len(rows) != 13 or any(t != trials for t, _ in rows):
                outcome.problems.append(f"verify {spec}: expected 13 properties x {trials} trials")
            elif want_code == 0 and violations:
                outcome.problems.append(f"verify {spec}: {violations} violations")
            elif want_code == 1 and not violations:
                outcome.problems.append(f"verify {spec}: negative control not flagged")
        return outcome


def _verify_rows(text: str) -> list[tuple[int, int]]:
    """(trials, violations) of each property line of ``hadamard verify``."""
    rows = []
    for line in text.splitlines()[1:]:
        parts = line.split()
        if len(parts) != 4:
            break
        rows.append((int(parts[1]), int(parts[2])))
    return rows


# ---------------------------------------------------------------------------
# certified projections, through ``hadamard.project``


class Certify:
    """Seeded certified projections with 1,000 probes in E2, H2 and a tree."""

    name = "certify"
    kinds = (
        ("e2", "ball"), ("e2", "segment"), ("e2", "halfspace"),
        ("h2", "ball"), ("h2", "segment"),
        ("tree", "ball"), ("tree", "segment"), ("tree", "subtree"),
    )

    def setup(self, hd, cli, seed, out_dir, tiny):
        topo = cli.random_tree_topology(200 if tiny else 2000, seed)
        e2 = hd.make_space(hd.Euclidean(2))
        h2 = hd.make_space(hd.Hyperbolic(2))
        tree = hd.make_space(hd.WeightedTree(topo))
        oracle = TreeOracle(topo.vertex_count, topo.edges)
        rng = np.random.default_rng([seed, 0xCE])
        per_kind = 2 if tiny else 20
        instances = []
        for _ in range(per_kind):
            for family, shape in self.kinds:
                instances.append(_instance(hd, family, shape, e2, h2, tree, oracle, rng))
        return SimpleNamespace(hd=hd, handles=[e2, h2, tree], oracle=oracle, instances=instances)

    def unit(self, ctx, call):
        hd = ctx.hd
        out = []
        clock = time.perf_counter
        for space, cset, x, probe_seed, _ in ctx.instances:
            t0 = clock()
            try:
                result = hd.project(space, cset, x, probes=1000, seed=probe_seed)
            except Exception as exc:  # a failed operation is counted, not fatal
                result = exc
            out.append((result, clock() - t0))
        return out

    def check(self, ctx, raw) -> Outcome:
        outcome = Outcome(attempted=len(ctx.instances))
        for (space, cset, x, _, anchors), (result, seconds) in zip(ctx.instances, raw):
            outcome.value("cert_ms", seconds * 1e3)
            if isinstance(result, Exception):
                outcome.problems.append(f"certify {cset!r}: {type(result).__name__}: {result}")
                continue
            dist = _oracle_dist(ctx.oracle, space)
            pts = [x.data, result.u.data] + [a.data for a in anchors]
            scale = 1.0 + sum(
                dist(pts[i], pts[j]) ** 2 for i in range(len(pts)) for j in range(i + 1, len(pts))
            )
            residual = result.certificate_residual
            if residual is None or not residual >= -1e-8 * scale:
                outcome.problems.append(f"certify {cset!r}: residual {residual} below -1e-8*{scale:.3g}")
        return outcome


def _oracle_dist(oracle: TreeOracle, space):
    name = type(space.descriptor).__name__
    if name == "Euclidean":
        return e_dist
    if name == "Hyperbolic":
        return h_dist
    return oracle.dist


def _instance(hd, family, shape, e2, h2, tree, oracle, rng):
    """(space, set, x, probe seed, anchors) for one certified projection;
    anchors are the set's defining points, used in the check's scale."""

    def e_point():
        return hd.Point(e2.descriptor, tuple(float(c) for c in rng.uniform(-5.0, 5.0, 2)))

    def h_point():
        return hd.Point(h2.descriptor, tuple(polar(5.0 * float(rng.random()), 2.0 * math.pi * float(rng.random()))))

    def t_point():
        eid = int(rng.integers(len(oracle.edges)))
        return hd.Point(tree.descriptor, (eid, float(rng.random()) * oracle.edges[eid][2]))

    def segment(point, dist):
        while True:
            a, b = point(), point()
            if dist(a.data, b.data) > 0.5:
                return hd.Segment(a, b), [a, b]

    def ball(point):
        center = point()
        return hd.Ball(center, float(rng.uniform(0.5, 3.0))), [center]

    space, point = {"e2": (e2, e_point), "h2": (h2, h_point), "tree": (tree, t_point)}[family]
    if shape == "ball":
        cset, anchors = ball(point)
    elif shape == "segment":
        cset, anchors = segment(point, _oracle_dist(oracle, space))
    elif shape == "halfspace":
        normal = tuple(float(c) for c in rng.standard_normal(2))
        cset, anchors = hd.HalfSpace(normal, float(rng.uniform(-2.0, 2.0))), []
    else:
        cset, anchors = hd.Subtree(frozenset(_connected_vertices(oracle, rng, 20))), []
    x = point()
    return space, cset, x, int(rng.integers(2**31)), anchors


def _connected_vertices(oracle, rng, count):
    """About ``count`` vertices grown breadth-first from a random vertex."""
    start = int(rng.integers(len(oracle.adj)))
    chosen = [start]
    seen = {start}
    for v in chosen:
        for w, _ in oracle.adj[v]:
            if w not in seen and len(chosen) < count:
                seen.add(w)
                chosen.append(w)
    return chosen


WORKLOADS = {w.name: w for w in (ImplicitPlanar(), ExplicitHyperbolic(), VerifyMixed(), Certify())}
