"""Canonical JSON encodings and trace CSV output.

One JSON document describes a full experiment (space, constraint set,
mapping, schedules, base point, budgets, seed), so an output's resolved
config re-parses to an identical experiment.  Real numbers are written with
17 significant digits, which round-trips IEEE-754 doubles losslessly.
"""

from __future__ import annotations

import dataclasses
import json
import math
import operator
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, TextIO

from . import convex, mappings, solvers, spaces
from .spaces import Point, _Record, make_space


class ConfigError(ValueError):
    """Invalid configuration document; message carries a JSON-path anchor."""


# a config nests objects and lists at most this deep: its decoders, encoders
# and the mapping it builds recurse at least once a level, and this keeps
# them far inside the interpreter's recursion limit
MAX_NESTING = 100


# ---------------------------------------------------------------------------
# points


def point_to_json(p: Point) -> dict:
    if isinstance(p.space, spaces.Product):
        return {"left": point_to_json(p.data[0]), "right": point_to_json(p.data[1])}
    if isinstance(p.space, spaces.WeightedTree):
        return {"edge": p.data[0], "offset": p.data[1]}
    return {"coords": list(p.data)}


def point_from_json(doc: dict, desc: spaces.SpaceDescriptor, where: str = "point") -> Point:
    """Decode a point of ``desc``, checked against its space with
    ``validate_point``: an invalid point, or a key its encoding does not
    have, is a ConfigError naming ``where``.

    The point is tagged with the cached handle's own descriptor object, the
    tag that lets the space primitives skip their per-call check.
    """
    space = make_space(desc)
    if isinstance(desc, spaces.Product):
        _only(doc, ("left", "right"), where)
        return Point(
            space.descriptor,
            (
                point_from_json(_field(doc, "left", where), desc.left, where + ".left"),
                point_from_json(_field(doc, "right", where), desc.right, where + ".right"),
            ),
        )
    if isinstance(desc, spaces.WeightedTree):
        _only(doc, ("edge", "offset"), where)
        edge = _number(int, _field(doc, "edge", where), where + ".edge")
        data = (edge, _number(float, _field(doc, "offset", where), where + ".offset"))
    else:
        _only(doc, ("coords",), where)
        data = _numbers(float, _field(doc, "coords", where), where + ".coords")
    p = Point(space.descriptor, data)
    problem = spaces.validate_point(space, p)
    if problem is not None:
        raise ConfigError(f"{where}: {problem}")
    return p


# ---------------------------------------------------------------------------
# descriptors, power laws and schedules

# kind -> type tag -> (class, fields).  A field is (JSON key, field kind),
# listed in the order of the class's dataclass fields; a field whose class
# attribute has a default may be left out, and a value of None is not
# written.  Power laws, schedules and tree topologies carry no type tag; the
# key None puts a tree's ``vertices`` and ``edges`` next to its type.
CODEC = {
    "space": {
        "euclidean": (spaces.Euclidean, [("dim", "int")]),
        "hyperbolic": (spaces.Hyperbolic, [("dim", "int")]),
        "tree": (spaces.WeightedTree, [(None, "topology")]),
        "product": (spaces.Product, [("left", "space"), ("right", "space")]),
    },
    "set": {
        "whole": (convex.WholeSpace, []),
        "ball": (convex.Ball, [("center", "point"), ("radius", "float")]),
        "segment": (convex.Segment, [("a", "point"), ("b", "point")]),
        "subtree": (convex.Subtree, [("vertices", "vertices")]),
        "halfspace": (convex.HalfSpace, [("normal", "floats"), ("offset", "float")]),
    },
    "mapping": {
        "identity": (mappings.Identity, []),
        "rotation": (mappings.Rotation, [("center", "point"), ("angle", "float")]),
        "projection": (mappings.ProjectionOnto, [("set", "set")]),
        "average": (mappings.GeodesicAverage, [("weight", "float"), ("inner", "mapping")]),
        "composition": (mappings.Composition, [("maps", "mappings")]),
        "translation": (mappings.Translation, [("vector", "floats")]),
    },
    "law": {None: (solvers.PowerLaw, [("scale", "float"), ("power", "float"), ("shift", "float")])},
    "schedule": {
        None: (solvers.Schedule, [("anchor", "law"), ("perturbation", "law"), ("mixing", "float")])
    },
    "topology": {None: (spaces.TreeTopology, [("vertices", "int"), ("edges", "edges")])},
}
_TAGS = {cls: (tag, fields) for tags in CODEC.values() for tag, (cls, fields) in tags.items()}


def to_json(obj) -> dict:
    """The JSON object of a space, set, mapping, power law or schedule."""
    if type(obj) not in _TAGS:
        raise ConfigError(f"cannot encode {obj!r}")
    tag, fields = _TAGS[type(obj)]
    doc = {} if tag is None else {"type": tag}
    for (key, _), attr in zip(fields, dataclasses.fields(obj)):
        value = _encode(getattr(obj, attr.name))
        if key is None:
            doc.update(value)
        elif value is not None:
            doc[key] = value
    return doc


def _encode(value):
    if isinstance(value, Point):
        return point_to_json(value)
    if isinstance(value, frozenset):
        return sorted(value)
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    return to_json(value) if type(value) in _TAGS else value


def from_json(kind: str, doc, where: str, desc: Optional[spaces.SpaceDescriptor] = None):
    """Decode the ``CODEC`` kind ``kind`` from ``doc``, found at the JSON
    path ``where``.  A set or mapping is decoded for the space
    ``desc`` and built there as a run builds it, so one that does not fit
    the space is rejected here.  A key other than ``type`` and the fields of
    the tag is rejected too.  Every fault is a ConfigError naming its
    path."""
    tags, doc = CODEC[kind], _object(doc, where)
    tag = None if None in tags else _string(_field(doc, "type", where), where + ".type")
    if tag not in tags:
        raise ConfigError(f"{where}: unknown {kind} type {tag!r}")
    _only(doc, _keys(kind, tag), where)
    cls, fields = tags[tag]
    args = []
    for (key, field_kind), attr in zip(fields, dataclasses.fields(cls)):
        if key is None:
            # an inline object: its own keys, next to this object's
            inline = {k: v for k, v in doc.items() if k in _keys(field_kind, None)}
            args.append(_decode(field_kind, inline, where, desc))
        elif key in doc:
            args.append(_decode(field_kind, doc[key], f"{where}.{key}", desc))
        elif attr.default is dataclasses.MISSING:
            raise ConfigError(f"{where}: missing required field {key!r}")
        else:
            args.append(attr.default)
    try:
        obj = cls(*args)
        if kind == "space":
            make_space(obj)
        elif kind == "set":
            convex.compile_set(make_space(desc), obj)
        elif kind == "mapping":
            mappings.compile_mapping(make_space(desc), obj)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None
    return obj


def _keys(kind: str, tag) -> set[str]:
    """The keys an object of ``kind`` and ``tag`` holds: ``type`` if it is
    tagged, and the keys of its fields, an inline object's included."""
    keys = set() if tag is None else {"type"}
    for key, field_kind in CODEC[kind][tag][1]:
        keys |= _keys(field_kind, None) if key is None else {key}
    return keys


def _decode(field_kind: str, value, where: str, desc):
    if field_kind == "int":
        return _number(int, value, where)
    if field_kind == "float":
        return _number(float, value, where)
    if field_kind == "floats":
        return _numbers(float, value, where)
    if field_kind == "vertices":
        return frozenset(_numbers(int, value, where))
    if field_kind == "point":
        return point_from_json(value, desc, where)
    if field_kind == "mappings":
        items = enumerate(_list(value, where))
        return tuple(from_json("mapping", m, f"{where}[{i}]", desc) for i, m in items)
    if field_kind == "edges":
        edges = []
        for i, edge in enumerate(_list(value, where)):
            at = f"{where}[{i}]"
            if len(_list(edge, at)) != 3:
                raise ConfigError(f"{at}: expected [u, v, length]")
            edges.append((*_numbers(int, edge[:2], at), _number(float, edge[2], at + "[2]")))
        return tuple(edges)
    return from_json(field_kind, value, where, desc)


# ---------------------------------------------------------------------------
# experiment config


@dataclass(init=False, eq=False, repr=False)
class ExperimentConfig(_Record):
    """One experiment: a space, set, mapping, scheme, schedule and budget."""

    name: str
    space: spaces.SpaceDescriptor
    convex_set: convex.ConvexSetDescriptor
    mapping: mappings.MappingDescriptor
    algorithm: str  # "implicit" | "explicit"
    schedule: solvers.Schedule
    basepoint: Point
    budget: int
    seed: int
    outer_tol: float = 0.0
    inner_tol: float = 1e-10
    max_inner: int = 10**6
    x0: Optional[Point] = None
    reference: Optional[Point] = None
    output_dir: str = "."


def config_to_json(cfg: ExperimentConfig) -> dict:
    """Each field under its own name; an optional point left unset is left
    out."""
    fields = ((f.name, getattr(cfg, f.name)) for f in dataclasses.fields(cfg))
    return {key: _encode(value) for key, value in fields if value is not None}


def config_from_json(doc: dict) -> ExperimentConfig:
    """Decode an experiment config.  Its keys are ``ExperimentConfig``'s
    field names; any other key is a ConfigError naming it."""
    _only(doc, [f.name for f in dataclasses.fields(ExperimentConfig)], "$")
    _check_nesting(doc)
    desc = from_json("space", _field(doc, "space", "$"), "space")
    algorithm = _field(doc, "algorithm", "$")
    if algorithm not in ("implicit", "explicit"):
        raise ConfigError(f"algorithm: expected 'implicit' or 'explicit', got {algorithm!r}")
    budget = _number(int, _field(doc, "budget", "$"), "budget")
    if budget < 1:
        raise ConfigError("budget: must be at least 1")
    # the name becomes a file name under the output directory
    name = _string(doc.get("name", "experiment"), "name")
    if name in ("", ".", "..") or Path(name).name != name:
        raise ConfigError(f"name: must be a single path component, got {name!r}")
    seed = _number(int, doc.get("seed", 0), "seed")
    if seed < 0:
        raise ConfigError(f"seed: must be non-negative, got {seed}")
    cfg = ExperimentConfig(
        name=name,
        space=desc,
        convex_set=from_json("set", _field(doc, "convex_set", "$"), "convex_set", desc),
        mapping=from_json("mapping", _field(doc, "mapping", "$"), "mapping", desc),
        algorithm=algorithm,
        schedule=from_json("schedule", _field(doc, "schedule", "$"), "schedule"),
        basepoint=point_from_json(_field(doc, "basepoint", "$"), desc, "basepoint"),
        budget=budget,
        seed=seed,
        outer_tol=_number(float, doc.get("outer_tol", ExperimentConfig.outer_tol), "outer_tol"),
        inner_tol=_number(float, doc.get("inner_tol", ExperimentConfig.inner_tol), "inner_tol"),
        max_inner=_number(int, doc.get("max_inner", ExperimentConfig.max_inner), "max_inner"),
        output_dir=_string(doc.get("output_dir", ExperimentConfig.output_dir), "output_dir"),
    )
    if "x0" in doc:
        cfg.x0 = point_from_json(doc["x0"], desc, "x0")
    if "reference" in doc:
        cfg.reference = point_from_json(doc["reference"], desc, "reference")
    if cfg.max_inner < 1:
        raise ConfigError("max_inner: must be at least 1")
    for key in ("outer_tol", "inner_tol"):
        if (tol := getattr(cfg, key)) < 0.0:
            raise ConfigError(f"{key}: must be non-negative, got {tol}")
    if algorithm == "explicit":
        if cfg.x0 is None:
            raise ConfigError("x0: the explicit algorithm needs a starting point")
        # the check run_explicit makes before its first step
        if not convex.contains(make_space(desc), cfg.convex_set, cfg.x0, convex.MEMBERSHIP_TOL):
            raise ConfigError("x0: starting point must belong to the constraint set")
    return cfg


def _check_nesting(doc: dict) -> None:
    """Reject a field of ``doc`` nested deeper than ``MAX_NESTING``, by
    name, before any decoder recurses into it."""
    stack = [(key, value, 1) for key, value in doc.items()]
    while stack:
        key, value, depth = stack.pop()
        if isinstance(value, dict):
            value = value.values()
        elif not isinstance(value, list):
            continue
        if depth > MAX_NESTING:
            raise ConfigError(f"{key}: nested deeper than {MAX_NESTING} objects and lists")
        stack.extend((key, child, depth + 1) for child in value)


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where}: expected an object, got {value!r}")
    return value


def _only(doc: dict, keys, where: str) -> None:
    """Reject a key of the object ``doc`` that is not in ``keys``: nothing
    would read it, so it is most likely misspelt."""
    for key in _object(doc, where):
        if key not in keys:
            path = key if where == "$" else f"{where}.{key}"
            raise ConfigError(f"{path}: unknown field; expected one of {', '.join(sorted(keys))}")


def _field(doc: dict, key: str, where: str):
    if key not in _object(doc, where):
        raise ConfigError(f"{where}: missing required field {key!r}")
    return doc[key]


def _number(kind: type, value, where: str):
    """``kind(value)`` for a JSON number ``value`` (an int or float, not a
    bool or a string) when that is finite and equal to ``value``; otherwise
    a ConfigError naming the JSON path ``where``.  An int field rejects a
    fractional value."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            out = kind(value)
            if math.isfinite(out) and out == float(value):
                return out
        except (ValueError, OverflowError):
            pass
    raise ConfigError(f"{where}: expected a finite {kind.__name__}, got {value!r}")


def _string(value, where: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{where}: expected a string, got {value!r}")
    # no path or file name can hold a NUL character
    if "\0" in value:
        raise ConfigError(f"{where}: must not contain a NUL character, got {value!r}")
    return value


def _list(values, where: str):
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"{where}: expected a list, got {values!r}")
    return values


def _numbers(kind: type, values, where: str) -> tuple:
    """A JSON list of numbers, each checked by ``_number``."""
    return tuple(_number(kind, v, f"{where}[{i}]") for i, v in enumerate(_list(values, where)))


# ---------------------------------------------------------------------------
# trace CSV

TRACE_HEADER = (
    "n,fixed_residual,step,z_residual,ref_distance,qx_inner,inner_iterations,inner_bound"
)


# row shape (which of the six optional cells are None) -> the shape's line
# format and the getter of the values it formats; at most 64 entries
_TRACE_FORMATS: dict[tuple[bool, ...], tuple[str, operator.itemgetter]] = {}


def _trace_line(row: solvers.TraceRow) -> str:
    """A row's CSV line.  A field the row does not set is an empty cell
    (explicit rows have no inner solve); numbers have 17 significant digits,
    and an int ``inner_iterations`` prints exactly.  Each row shape has one
    ``%`` format, applied once per row: ``'%.17g' % v`` is ``f'{v:.17g}'``
    for every float and int."""
    s, z, d, q = row.step, row.z_residual, row.ref_distance, row.qx_inner
    i, b = row.inner_iterations, row.inner_bound
    shape = (s is None, z is None, d is None, q is None, i is None, b is None)
    try:
        fmt, picked = _TRACE_FORMATS[shape]
    except KeyError:
        fmt = "%d,%.17g," + ",".join(["" if none else "%.17g" for none in shape]) + "\n"
        picked = operator.itemgetter(0, 1, *[k + 2 for k, none in enumerate(shape) if not none])
        _TRACE_FORMATS[shape] = fmt, picked
    return fmt % picked((row.n, row.fixed_residual, s, z, d, q, i, b))


def write_trace_csv(trace: solvers.IterationTrace, out: TextIO) -> None:
    """The header, then one line per row of ``trace.rows``, each written as
    soon as it is formatted."""
    out.write(TRACE_HEADER + "\n")
    out.writelines(map(_trace_line, trace.rows))


# rows a streamed trace holds before it formats and writes them in one call
_BLOCK_ROWS = 1024


class TraceFile:
    """The trace CSV at ``path``, written while its run goes on: ``add`` is
    the run's row sink, and ``flush`` writes the last, partial block.

    Rows are formatted and written a block of ``_BLOCK_ROWS`` at a time.  The
    file, and any directory missing above it, is created by the first block
    write, so a run rejected before its first row leaves nothing behind;
    a failed create, or leaving the ``with`` block by an exception, removes
    what was created.  ``write_s`` sums the time spent in block writes."""

    def __init__(self, path: Path):
        self.path = path
        self.write_s = 0.0
        self._block: list[solvers.TraceRow] = []
        self._file: Optional[TextIO] = None
        self._created: list[Path] = []

    def add(self, row: solvers.TraceRow) -> None:
        self._block.append(row)
        if len(self._block) == _BLOCK_ROWS:
            self.flush()

    def flush(self) -> None:
        start = time.perf_counter()
        if self._file is None:
            folder = self.path.parent
            self._created = [d for d in (folder, *folder.parents) if not d.exists()]
            try:
                folder.mkdir(parents=True, exist_ok=True)
                self._file = open(self.path, "w")
            except OSError:
                self._remove_folders()
                raise
            self._file.write(TRACE_HEADER + "\n")
        self._file.write("".join(map(_trace_line, self._block)))
        self._block.clear()
        self.write_s += time.perf_counter() - start

    def __enter__(self) -> "TraceFile":
        return self

    def __exit__(self, kind, value, tb) -> None:
        if self._file is not None:
            self._file.close()
            if kind is not None:
                self.path.unlink()
                self._remove_folders()

    def _remove_folders(self) -> None:
        # deepest first; a failed mkdir may have made only the upper ones
        for folder in self._created:
            if folder.is_dir():
                folder.rmdir()


def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
