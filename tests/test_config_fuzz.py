"""Mutated copies of the shipped configs through ``hadamard run``.

Each mutation swaps a value's JSON type, deletes a key, swaps a list for an
object (or back), or puts in a huge, negative or non-finite number.  Every
case must exit 0, 1 or 2 without a traceback and write only under its
output directory.
"""

import copy
import json
import math
import os
from pathlib import Path

from conftest import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hadamard.cli import main

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
CONFIGS = [
    json.loads((CONFIG_DIR / name).read_text())
    for name in ("segment_implicit.json", "segment_explicit.json")
]
IMPLICIT = CONFIGS[0]

NUMBERS = st.sampled_from(
    [0, -1, -0.5, 1e-320, 1e308, -1e308, 10**400, -(2**64), math.nan, math.inf, -math.inf]
)
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=3), NUMBERS
)


def _paths(doc, prefix=()):
    """Every path into ``doc``, by object keys and list indices; () is the root."""
    yield prefix
    if isinstance(doc, dict):
        items = doc.items()
    else:
        items = enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


def _reshaped(value):
    # a list becomes an object keyed by index, an object the list of its values
    if isinstance(value, list):
        return {str(i): v for i, v in enumerate(value)}
    if isinstance(value, dict):
        return list(value.values())
    return [value]


@st.composite
def mutated_configs(draw):
    doc = copy.deepcopy(draw(st.sampled_from(CONFIGS)))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        old = parent[path[-1]] if path else doc
        how = draw(st.sampled_from(["type", "delete", "shape", "number"]))
        if how == "delete":
            if path:
                del parent[path[-1]]
            continue
        if how == "shape":
            new = _reshaped(old)
        else:
            new = draw(SCALARS if how == "type" else NUMBERS)
        if path:
            parent[path[-1]] = new
        else:
            doc = new
    return doc


@settings(max_examples=200, deadline=None)
@given(doc=mutated_configs())
@example(doc=dict(IMPLICIT, mapping={"type": "composition", "maps": 5}))
@example(doc=dict(IMPLICIT, schedule=[1]))
@example(doc=dict(IMPLICIT, max_inner=0))
def test_mutated_config_exits_cleanly(doc):
    runner = CliRunner()
    with runner.isolated_filesystem():
        Path("case.json").write_text(json.dumps(doc))
        result = runner.invoke(main, ["run", "case.json", "--budget", "3", "--output-dir", "out"])
        assert result.exit_code in (0, 1, 2), result.output
        assert "Traceback" not in result.output
        assert result.exception is None or isinstance(result.exception, SystemExit), result.output
        assert sorted(os.listdir(".")) in (["case.json"], ["case.json", "out"])


def _key_paths(doc):
    """Every path into ``doc`` that ends at an object key."""
    return [path for path in _paths(doc) if path and isinstance(path[-1], str)]


@st.composite
def renamed_keys(draw):
    """A shipped config with one object key renamed, and the old and new
    JSON paths of that key."""
    doc = copy.deepcopy(draw(st.sampled_from(CONFIGS)))
    path = draw(st.sampled_from(_key_paths(doc)))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    new = path[-1] + draw(st.sampled_from(["_", "x", "2"]))
    parent[new] = parent.pop(path[-1])
    return doc, path, path[:-1] + (new,)


def _run_exit_2(doc):
    runner = CliRunner()
    with runner.isolated_filesystem():
        Path("case.json").write_text(json.dumps(doc))
        result = runner.invoke(main, ["run", "case.json", "--budget", "3", "--output-dir", "out"])
        assert result.exit_code == 2, result.output
        assert "Traceback" not in result.output
        assert sorted(os.listdir(".")) == ["case.json"]
        return result.output


@settings(max_examples=100, deadline=None)
@given(case=renamed_keys())
def test_renamed_key_exits_2_naming_its_path(case):
    doc, old, new = case
    output = _run_exit_2(doc)
    if old[-1] == "type":
        # the tag decides which keys the object may hold
        assert f"{'.'.join(old[:-1])}: missing required field 'type'" in output
    else:
        assert f"{'.'.join(new)}: unknown field" in output


def test_unread_keys_exit_2_naming_their_paths():
    doc = copy.deepcopy(IMPLICIT)
    assert "error: outer_tl: unknown field" in _run_exit_2(dict(doc, outer_tl=0.5))
    doc["convex_set"]["radiuss"] = 1
    assert "error: convex_set.radiuss: unknown field" in _run_exit_2(doc)
