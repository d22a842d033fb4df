import io
import math
import os
import tempfile
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

import hadamard as hd
from hadamard.cli import random_tree_topology

# one line per acceptance criterion, printed in the terminal summary
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


class CliRunner:
    """Runs a CLI entry point in this process.  ``invoke`` returns its
    ``exit_code``, its ``output`` (stdout and stderr together) and the
    ``exception`` that escaped it, ``SystemExit`` included."""

    def invoke(self, main, args, env=None):
        out, exception, code = io.StringIO(), None, 0
        with redirect_stdout(out), redirect_stderr(out), mock.patch.dict(os.environ, env or {}):
            try:
                main(list(args), prog_name="hadamard")
            except SystemExit as exc:
                exception, code = exc, exc.code
            except Exception as exc:
                exception, code = exc, 1
        return SimpleNamespace(exit_code=code, output=out.getvalue(), exception=exception)

    @contextmanager
    def isolated_filesystem(self):
        """A fresh temporary directory as the working directory."""
        cwd = os.getcwd()
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            try:
                yield tmp
            finally:
                os.chdir(cwd)


# shared fixed topology: a 6-vertex caterpillar with mixed edge lengths
CATERPILLAR = hd.TreeTopology(
    vertex_count=6,
    edges=((0, 1, 1.0), (1, 2, 2.0), (1, 3, 0.5), (3, 4, 1.5), (3, 5, 0.75)),
)


def shuffled_tree(topo, seed):
    """``topo`` with its vertices relabeled and about half of its edges
    written the other way round, so a handle's root (vertex 0) is not the
    first vertex of ``topo`` and both edge orientations occur."""
    rng = np.random.default_rng(seed)
    label = [int(i) for i in rng.permutation(topo.vertex_count)]
    flip = rng.random(len(topo.edges)) < 0.5
    edges = tuple(
        (label[v], label[u], length) if f else (label[u], label[v], length)
        for (u, v, length), f in zip(topo.edges, flip)
    )
    return hd.TreeTopology(topo.vertex_count, edges)


def shuffled_random_tree(n_edges, seed):
    """``random_tree_topology(n_edges, seed)``, shuffled by ``shuffled_tree``."""
    return shuffled_tree(random_tree_topology(n_edges, seed), seed)


class OffsetMetric(hd.CorruptedSpace):
    """A real space's distance plus 1, so that d(p, p) = 1: a pairing
    computed from cached distances must keep every term of
    ``quasilinearization`` rather than assume d(p, p) = 0."""

    def distance(self, a, b):
        return self.inner.distance(a, b) + 1.0


class Forwarding(hd.CorruptedSpace):
    """A wrapper whose ``distance`` is the wrapped handle's, unchanged: every
    result computed on it must equal the wrapped model's bit for bit."""

    def distance(self, a, b):
        return self.inner.distance(a, b)


@pytest.fixture(scope="session")
def E2():
    return hd.make_space(hd.Euclidean(2))


@pytest.fixture(scope="session")
def E3():
    return hd.make_space(hd.Euclidean(3))


@pytest.fixture(scope="session")
def H2():
    return hd.make_space(hd.Hyperbolic(2))


@pytest.fixture(scope="session")
def tree():
    return hd.make_space(hd.WeightedTree(CATERPILLAR))


@pytest.fixture(scope="session")
def prod(E2, H2):
    return hd.make_space(hd.Product(E2.descriptor, H2.descriptor))


def ept(space, *coords):
    return hd.euclidean_point(space, *coords)


def hpt_polar(space, r, theta):
    """Hyperboloid point at geodesic distance r from the sheet base point."""
    return hd.hyperboloid_point(
        space, math.cosh(r), math.sinh(r) * math.cos(theta), math.sinh(r) * math.sin(theta)
    )
