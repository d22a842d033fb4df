"""Mutated copies of the shipped configs through ``hadamard run``, and
generated ``--space`` specs through ``hadamard verify``.

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


# --space specs: counts up to 5 in ASCII, Arabic-Indic, Devanagari and
# fullwidth digits (``int`` reads them all) or superscripts (it reads none),
# tree-star lengths and tree-random seeds, junk fields and names, products
# nested up to 3 deep, and whitespace inside and around each part.  Most
# draws of each part are well formed, so that a share of whole specs (about
# a quarter) gets past the parser to the harness


def _mostly(good, bad):
    return st.integers(0, 7).flatmap(lambda k: bad if k == 0 else good)


COUNTS = _mostly(
    st.builds(lambda n, zero: chr(ord(zero) + n), st.integers(1, 5), st.sampled_from(["0", "\u0660", "\u0966", "\uff10"])),
    st.sampled_from(["0", "-1", "", "x", "+2", "2.0", "\u00b2", "1_0"]),
)
LENGTHS = _mostly(st.sampled_from(["1", "0.5", "2e-3", "1e150"]),
                  st.sampled_from(["1e155", "0", "-1", "nan", "inf", "1e-320", "x"]))
SEEDS = _mostly(st.sampled_from(["0", "7", "\u0663"]), st.sampled_from(["-1", "1.5", "x"]))
PAD = st.sampled_from(["", " ", "\t", "\n", "\u00a0", "\u3000"])
FAMILIES = _mostly(st.sampled_from(["euclidean", "hyperbolic", "tree-star", "tree-random"]),
                   st.sampled_from(["corrupted-demo", "tree", ""]))
PRODUCTS = _mostly(st.sampled_from(["product:({},{})", " product:( {} , {} ) ", "product:{},{}"]),
                   st.sampled_from(["product:({},{}", "product:({})"]))


@st.composite
def leaf_specs(draw):
    family = draw(FAMILIES)
    if family == "corrupted-demo":
        return draw(PAD) + family + draw(PAD)
    fields = [family, draw(COUNTS)]
    if family.startswith("tree") and draw(st.booleans()):
        fields.append(draw(LENGTHS if family == "tree-star" else SEEDS))
    if draw(st.integers(0, 9)) == 0:
        fields.append(draw(st.sampled_from(["", "1", "x"])))
    return draw(PAD) + ":".join(fields) + draw(PAD)


SPECS = st.recursive(
    leaf_specs(),
    lambda inner: st.builds(lambda a, b, shape: shape.format(a, b), inner, inner, PRODUCTS),
    max_leaves=4,
)


@settings(max_examples=150, deadline=None)
@given(
    spec=SPECS,
    trials=_mostly(st.integers(1, 3), st.just(0)),
    radius=_mostly(st.floats(0.0, 10.0, exclude_min=True), st.just(0.0)),
    seed=_mostly(st.integers(0, 2**64), st.just(-1)),
)
@example(spec="corrupted-demo", trials=3, radius=5.0, seed=0)
@example(spec="product:(product:(tree-star:\u0663:1e150,hyperbolic:5),product:(euclidean:\uff15,tree-random:5:7))",
         trials=3, radius=10.0, seed=1)
def test_generated_space_spec_exits_cleanly(spec, trials, radius, seed):
    # only the corrupted control may report a violation; radius <= 10 keeps
    # clear of H^n's rounding at large distances
    args = ["verify", "--space", spec, "--trials", str(trials), "--radius", repr(radius), "--seed", str(seed)]
    result = CliRunner().invoke(main, args)
    assert result.exit_code in (0, 1, 2), result.output
    assert "Traceback" not in result.output
    assert result.exception is None or isinstance(result.exception, SystemExit), result.output
    assert result.exit_code != 1 or spec.strip() == "corrupted-demo", result.output
