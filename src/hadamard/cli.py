"""Command line entry point.

Subcommands::

    hadamard run <config.json> [...]   # solver experiments (CSV + summary)
    hadamard verify --space <spec>     # property harness over one space
    hadamard schedules --check <config.json>

Exit status: 0 success/clean, 1 non-convergence, property violations or a
closed stdout, 2 invalid configuration or an output file that cannot be
written.
HADAMARD_SEED overrides the configured seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from . import serialize
from .harness import CorruptedSpace, check_lemmas, check_space_axioms
from .sampling import sampler
from .solvers import validate_schedules
from .spaces import (
    MAX_PRODUCT_DEPTH,
    MAX_SPEC_SIZE,
    Euclidean,
    Hyperbolic,
    InvalidSpaceError,
    Product,
    TreeTopology,
    WeightedTree,
    make_space,
)
from .experiments import run_to_files

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_BAD_CONFIG = 2


def _load_config(path: str, seed, budget, output_dir):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, RecursionError) as exc:
        raise serialize.ConfigError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise serialize.ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    cfg = serialize.config_from_json(doc)
    env_seed = os.environ.get("HADAMARD_SEED")
    if seed is not None:
        cfg.seed = seed
    elif env_seed is not None:
        if not env_seed.isdecimal():
            raise serialize.ConfigError(
                f"HADAMARD_SEED: expected a non-negative integer, got {env_seed!r}"
            )
        cfg.seed = int(env_seed)
    if budget is not None:
        cfg.budget = budget
    if output_dir is not None:
        cfg.output_dir = output_dir
    return cfg


def parse_space_spec(spec: str, nesting: int = 0):
    """Space handle from a compact spec string.

    Accepts ``euclidean:N``, ``hyperbolic:N``, ``tree-star:RAYS:LENGTH``,
    ``tree-random:EDGES:SEED``, ``product:(A,B)`` of two specs other than
    ``corrupted-demo``, and ``corrupted-demo``.  N, RAYS and EDGES are
    positive integers at most ``MAX_SPEC_SIZE``, LENGTH (1 by default) is a
    positive number with 4 (2 LENGTH)^2 finite, so that squared distances do
    not overflow, and SEED (0 by default) a non-negative integer; an
    ``InvalidSpaceError`` names the field at fault and the spec.
    ``nesting`` counts the products around ``spec``, checked before a split.
    """
    spec = spec.strip()
    if spec == "corrupted-demo":
        return CorruptedSpace(make_space(Euclidean(2)))
    if spec.startswith("product:"):
        if nesting >= MAX_PRODUCT_DEPTH:
            raise InvalidSpaceError(f"product nesting deeper than {MAX_PRODUCT_DEPTH} is not supported")
        body = spec[len("product:"):]
        if body.startswith("(") and body.endswith(")"):
            body = body[1:-1]
        depth = 0
        for i, ch in enumerate(body):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == "," and depth == 0:
                left = parse_space_spec(body[:i], nesting + 1)
                right = parse_space_spec(body[i + 1:], nesting + 1)
                # a product is built from descriptors, which would drop the corruption
                if isinstance(left, CorruptedSpace) or isinstance(right, CorruptedSpace):
                    raise InvalidSpaceError(f"corrupted-demo cannot be a factor of {spec!r}")
                return make_space(Product(left.descriptor, right.descriptor))
        raise InvalidSpaceError(f"cannot split product spec {spec!r}")
    parts = spec.split(":")
    kind = parts[0]
    names = {"euclidean": ("N",), "hyperbolic": ("N",), "tree-star": ("RAYS", "LENGTH"),
             "tree-random": ("EDGES", "SEED")}.get(kind)
    if names is None:
        raise InvalidSpaceError(f"unknown space spec {spec!r}")
    if len(parts) > len(names) + 1:
        raise InvalidSpaceError(f"too many fields in space spec {spec!r}")
    if len(parts) < 2:
        raise InvalidSpaceError(f"{names[0]} missing from space spec {spec!r}")

    def field(i: int, parse, ok, want: str):
        # field i of the spec, parsed, or an error naming the field and the spec
        try:
            value = parse(parts[i])
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise InvalidSpaceError(f"{names[i - 1]} in space spec {spec!r} must be {want}, got {parts[i]!r}")
        return value

    size = field(1, int, lambda n: n >= 1, "a positive integer")
    if size > MAX_SPEC_SIZE:
        raise InvalidSpaceError(f"{names[0]} = {size} in space spec {spec!r} is above the limit {MAX_SPEC_SIZE}")
    if kind == "euclidean":
        return make_space(Euclidean(size))
    if kind == "hyperbolic":
        return make_space(Hyperbolic(size))
    if kind == "tree-star":
        # sampler's E^n radius rule, over the star's diameter 2 LENGTH
        length = field(2, float, lambda x: 0.0 < x and 4.0 * (2.0 * x) * (2.0 * x) < math.inf,
                       "a positive number with 4 (2 LENGTH)^2 finite") if len(parts) > 2 else 1.0
        edges = tuple((0, i + 1, length) for i in range(size))
        return make_space(WeightedTree(TreeTopology(size + 1, edges)))
    seed = field(2, int, lambda n: n >= 0, "a non-negative integer") if len(parts) > 2 else 0
    return make_space(WeightedTree(random_tree_topology(size, seed)))


def random_tree_topology(n_edges: int, seed: int) -> TreeTopology:
    """Seeded random tree: vertex k+1 attaches to a uniform earlier vertex
    with length uniform in [0.5, 2].  The draws come from numpy's PCG64
    stream for (seed, 0x7E), so every tree keeps the edges it has always
    had; numpy is imported here, for ``tree-random`` specs alone."""
    import numpy as np

    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0x7E,)))
    edges = []
    for k in range(n_edges):
        parent = int(rng.integers(k + 1))
        length = 0.5 + 1.5 * float(rng.random())
        edges.append((parent, k + 1, length))
    return TreeTopology(n_edges + 1, tuple(edges))


def _int_at_least(low: int):
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{value} is not in the range x>={low}")
        return value
    return integer


def _positive_finite(text: str) -> float:
    # float() accepts nan and inf; text that is no number is refused as nan is
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive finite number")
    return value


def run_cmd(configs, seed, budget, output_dir):
    """Run solver experiments from JSON config files.  All are loaded before
    the first run; each is reported as soon as its files are written."""
    status = EXIT_OK
    # every input error (ConfigError, ScheduleError, InvalidSpaceError) is a ValueError
    try:
        cfgs = [_load_config(p, seed, budget, output_dir) for p in configs]
        for cfg in cfgs:
            summary, trace_path = run_to_files(cfg)
            # a diverged run's residual is null in its summary
            residual = summary["final_fixed_residual"]
            print(
                f"{summary['name']}: {summary['status']} after {summary['steps']} steps, "
                f"final residual {'null' if residual is None else f'{residual:.3e}'} -> {trace_path}"
            )
            if summary["status"] != "converged":
                status = EXIT_FAILED
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(EXIT_BAD_CONFIG)
    except BrokenPipeError:
        raise  # a closed stdout, which main handles
    except OSError as exc:
        # an output the system refuses: a path too long or under a file
        print(f"error: {exc.filename}: {exc.strerror}" if exc.filename else f"error: {exc}", file=sys.stderr)
        sys.exit(EXIT_BAD_CONFIG)
    sys.exit(status)


def verify_cmd(space_spec, trials, eps, seed, radius):
    """Run the metric/geodesic property harness over one space."""
    try:
        space = parse_space_spec(space_spec)
    except ValueError as exc:
        print(f"error: --space: invalid space spec: {exc}", file=sys.stderr)
        sys.exit(EXIT_BAD_CONFIG)
    try:
        sampler(space, radius)  # raises for a radius the space cannot sample at
    except ValueError as exc:
        print(f"error: --radius: {exc}", file=sys.stderr)
        sys.exit(EXIT_BAD_CONFIG)
    reports = check_space_axioms(space, trials, eps, seed, radius)
    reports += check_lemmas(space, trials, eps, seed, radius)

    width = max(len(r.name) for r in reports)
    print(f"{'property'.ljust(width)}  trials  violations  worst_margin")
    for r in reports:
        print(f"{r.name.ljust(width)}  {r.trials:6d}  {r.violations:10d}  {r.worst_margin: .3e}")
    bad = [r for r in reports if r.violations]
    if bad:
        print(f"\n{len(bad)} propert{'y' if len(bad) == 1 else 'ies'} violated; worst witnesses:")
        for r in bad:
            print(f"  {r.name}: {json.dumps(r.worst_witness)}")
        sys.exit(EXIT_FAILED)
    sys.exit(EXIT_OK)


def schedules_cmd(config_path):
    """Check the schedule conditions of an experiment config's algorithm."""
    try:
        cfg = _load_config(config_path, None, None, None)
        conditions = validate_schedules(cfg.schedule, cfg.algorithm, cfg.budget)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(EXIT_BAD_CONFIG)
    for cond in conditions:
        print(f"{cond.name}: {'pass' if cond.passed else 'FAIL'} {cond.detail}")
    sys.exit(EXIT_OK if all(c.passed for c in conditions) else EXIT_FAILED)


# built once: building it costs about ten times what a parse does
_PARSER = argparse.ArgumentParser(prog="hadamard", description="Toolkit for Hadamard (complete CAT(0)) spaces.")
_COMMANDS = _PARSER.add_subparsers(metavar="COMMAND", required=True, parser_class=functools.partial(
    argparse.ArgumentParser, allow_abbrev=False, formatter_class=argparse.ArgumentDefaultsHelpFormatter))
_run = _COMMANDS.add_parser("run", help=run_cmd.__doc__, description=run_cmd.__doc__)
_run.set_defaults(func=run_cmd)
_run.add_argument("configs", nargs="+", metavar="CONFIG", help="Experiment config files (JSON).")
_run.add_argument("--seed", type=_int_at_least(0), help="Override the config seed.")
_run.add_argument("--budget", type=_int_at_least(1), help="Override the iteration budget.")
_run.add_argument("--output-dir", help="Override the output directory.")
_verify = _COMMANDS.add_parser("verify", help=verify_cmd.__doc__, description=verify_cmd.__doc__)
_verify.set_defaults(func=verify_cmd)
_verify.add_argument("--space", dest="space_spec", required=True, help="Space spec, e.g. euclidean:2.")
_verify.add_argument("--trials", type=_int_at_least(1), default=10000, help="Random trials per property.")
_verify.add_argument("--eps", type=_positive_finite, default=1e-8, help="Tolerance of each inequality.")
_verify.add_argument("--seed", type=_int_at_least(0), default=0, help="Seed of the trial streams.")
_verify.add_argument("--radius", type=_positive_finite, default=5.0, help="Sampling radius r: the box [-r, r]^n in "
                     "E^n, distance up to r <= 20 from the base point in H^n, each factor at r in a product; "
                     "trees ignore it.")
_schedules = _COMMANDS.add_parser("schedules", help=schedules_cmd.__doc__, description=schedules_cmd.__doc__)
_schedules.set_defaults(func=schedules_cmd)
_schedules.add_argument("--check", dest="config_path", metavar="CONFIG", required=True, help="Config file (JSON).")


def main(args=None, prog_name=None):
    """Run the subcommand ``args`` names; it ends in SystemExit.  ``prog_name`` is unused.

    A stdout whose reader has gone ends the command with exit status 1 and
    no traceback, whatever the command found."""
    kwargs = vars(_PARSER.parse_args(args))
    try:
        try:
            kwargs.pop("func")(**kwargs)
        finally:
            sys.stdout.flush()
    except BrokenPipeError:
        # what is left in the buffer goes nowhere, so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(EXIT_FAILED)


if __name__ == "__main__":
    main()
