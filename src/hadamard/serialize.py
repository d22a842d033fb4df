"""Canonical JSON encodings and trace CSV output.

One JSON document describes a full experiment (space, constraint set,
mapping, schedules, base point, budgets, seed), so an output's resolved
config re-parses to an identical experiment.  Real numbers are written with
17 significant digits, which round-trips IEEE-754 doubles losslessly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, TextIO

from . import convex, mappings, sampling, solvers, spaces
from .spaces import Point, Space, make_space


class ConfigError(ValueError):
    """Invalid configuration document; message carries a JSON-path anchor."""


# ---------------------------------------------------------------------------
# spaces


def space_to_json(desc: spaces.SpaceDescriptor) -> dict:
    if isinstance(desc, spaces.Euclidean):
        return {"type": "euclidean", "dim": desc.dim}
    if isinstance(desc, spaces.Hyperbolic):
        return {"type": "hyperbolic", "dim": desc.dim}
    if isinstance(desc, spaces.WeightedTree):
        t = desc.topology
        return {
            "type": "tree",
            "vertices": t.vertex_count,
            "edges": [[u, v, length] for u, v, length in t.edges],
        }
    if isinstance(desc, spaces.Product):
        return {
            "type": "product",
            "left": space_to_json(desc.left),
            "right": space_to_json(desc.right),
        }
    raise ConfigError(f"unknown space descriptor {desc!r}")


def space_from_json(doc: dict, where: str = "space") -> spaces.SpaceDescriptor:
    t = _field(doc, "type", where)
    if t == "euclidean":
        desc = spaces.Euclidean(dim=_number(int, _field(doc, "dim", where), where + ".dim"))
    elif t == "hyperbolic":
        desc = spaces.Hyperbolic(dim=_number(int, _field(doc, "dim", where), where + ".dim"))
    elif t == "tree":
        edges = []
        for i, edge in enumerate(_list(_field(doc, "edges", where), where + ".edges")):
            at = f"{where}.edges[{i}]"
            if len(_list(edge, at)) != 3:
                raise ConfigError(f"{at}: expected [u, v, length]")
            edges.append((*_numbers(int, edge[:2], at), _number(float, edge[2], at + "[2]")))
        vertices = _number(int, _field(doc, "vertices", where), where + ".vertices")
        desc = spaces.WeightedTree(spaces.TreeTopology(vertex_count=vertices, edges=tuple(edges)))
    elif t == "product":
        desc = spaces.Product(
            space_from_json(_field(doc, "left", where), where + ".left"),
            space_from_json(_field(doc, "right", where), where + ".right"),
        )
    else:
        raise ConfigError(f"{where}: unknown space type {t!r}")
    # build the (cached) handle here, so a bad topology names this path
    try:
        make_space(desc)
    except spaces.InvalidSpaceError as exc:
        raise ConfigError(f"{where}: {exc}") from None
    return desc


def point_to_json(p: Point) -> dict:
    if isinstance(p.space, spaces.Product):
        return {"left": point_to_json(p.data[0]), "right": point_to_json(p.data[1])}
    if isinstance(p.space, spaces.WeightedTree):
        return {"edge": p.data[0], "offset": p.data[1]}
    return {"coords": list(p.data)}


def point_from_json(doc: dict, desc: spaces.SpaceDescriptor, where: str = "point") -> Point:
    """Decode a point of ``desc``, checked against its space with
    ``validate_point``: an invalid point is a ConfigError naming ``where``.

    The point is tagged with the cached handle's own descriptor object, the
    tag that lets the space primitives skip their per-call check.
    """
    space = make_space(desc)
    if isinstance(desc, spaces.Product):
        return Point(
            space.descriptor,
            (
                point_from_json(_field(doc, "left", where), desc.left, where + ".left"),
                point_from_json(_field(doc, "right", where), desc.right, where + ".right"),
            ),
        )
    if isinstance(desc, spaces.WeightedTree):
        edge = _number(int, _field(doc, "edge", where), where + ".edge")
        data = (edge, _number(float, _field(doc, "offset", where), where + ".offset"))
    else:
        data = _numbers(float, _field(doc, "coords", where), where + ".coords")
    p = Point(space.descriptor, data)
    problem = spaces.validate_point(space, p)
    if problem is not None:
        raise ConfigError(f"{where}: {problem}")
    return p


# ---------------------------------------------------------------------------
# regions, convex sets, mappings


def region_to_json(region: sampling.SamplingRegion) -> dict:
    if isinstance(region, sampling.EuclideanBox):
        return {"type": "box", "lo": list(region.lo), "hi": list(region.hi)}
    if isinstance(region, sampling.HyperbolicBall):
        return {
            "type": "ball",
            "center": point_to_json(region.center),
            "radius": region.radius,
        }
    if isinstance(region, sampling.TreeWhole):
        return {"type": "tree"}
    if isinstance(region, sampling.ProductRegion):
        return {
            "type": "product",
            "left": region_to_json(region.left),
            "right": region_to_json(region.right),
        }
    raise ConfigError(f"unknown region {region!r}")


def region_from_json(doc: dict, desc: spaces.SpaceDescriptor, where: str = "region"):
    t = _field(doc, "type", where)
    if t == "box":
        return sampling.EuclideanBox(
            _numbers(float, _field(doc, "lo", where), where + ".lo"),
            _numbers(float, _field(doc, "hi", where), where + ".hi"),
        )
    if t == "ball":
        center = point_from_json(_field(doc, "center", where), desc, where + ".center")
        radius = _number(float, _field(doc, "radius", where), where + ".radius")
        try:
            return sampling.HyperbolicBall(center, radius)
        except ValueError as exc:
            raise ConfigError(f"{where}.radius: {exc}") from None
    if t == "tree":
        return sampling.TreeWhole()
    if t == "product":
        if not isinstance(desc, spaces.Product):
            raise ConfigError(f"{where}: product region for non-product space")
        return sampling.ProductRegion(
            region_from_json(_field(doc, "left", where), desc.left, where + ".left"),
            region_from_json(_field(doc, "right", where), desc.right, where + ".right"),
        )
    raise ConfigError(f"{where}: unknown region type {t!r}")


def convex_set_to_json(cset: convex.ConvexSetDescriptor) -> dict:
    if isinstance(cset, convex.WholeSpace):
        return {"type": "whole"}
    if isinstance(cset, convex.Ball):
        return {"type": "ball", "center": point_to_json(cset.center), "radius": cset.radius}
    if isinstance(cset, convex.Segment):
        return {"type": "segment", "a": point_to_json(cset.a), "b": point_to_json(cset.b)}
    if isinstance(cset, convex.Subtree):
        return {"type": "subtree", "vertices": sorted(cset.vertices)}
    if isinstance(cset, convex.HalfSpace):
        return {"type": "halfspace", "normal": list(cset.normal), "offset": cset.offset}
    raise ConfigError(f"unknown convex set {cset!r}")


def convex_set_from_json(
    doc: dict, desc: spaces.SpaceDescriptor, where: str = "convex_set"
) -> convex.ConvexSetDescriptor:
    t = _field(doc, "type", where)
    if t == "whole":
        return convex.WholeSpace()
    if t == "ball":
        return convex.Ball(
            point_from_json(_field(doc, "center", where), desc, where + ".center"),
            _number(float, _field(doc, "radius", where), where + ".radius"),
        )
    if t == "segment":
        return convex.Segment(
            point_from_json(_field(doc, "a", where), desc, where + ".a"),
            point_from_json(_field(doc, "b", where), desc, where + ".b"),
        )
    if t == "subtree":
        return convex.Subtree(
            frozenset(_numbers(int, _field(doc, "vertices", where), where + ".vertices"))
        )
    if t == "halfspace":
        return convex.HalfSpace(
            _numbers(float, _field(doc, "normal", where), where + ".normal"),
            _number(float, _field(doc, "offset", where), where + ".offset"),
        )
    raise ConfigError(f"{where}: unknown convex set type {t!r}")


def mapping_to_json(m: mappings.MappingDescriptor) -> dict:
    if isinstance(m, mappings.Identity):
        return {"type": "identity"}
    if isinstance(m, mappings.Rotation):
        return {"type": "rotation", "center": point_to_json(m.center), "angle": m.angle}
    if isinstance(m, mappings.ProjectionOnto):
        return {"type": "projection", "set": convex_set_to_json(m.target)}
    if isinstance(m, mappings.GeodesicAverage):
        return {"type": "average", "weight": m.weight, "inner": mapping_to_json(m.inner)}
    if isinstance(m, mappings.Composition):
        return {"type": "composition", "maps": [mapping_to_json(p) for p in m.parts]}
    if isinstance(m, mappings.Translation):
        return {"type": "translation", "vector": list(m.vector)}
    raise ConfigError(f"unknown mapping {m!r}")


def mapping_from_json(
    doc: dict, desc: spaces.SpaceDescriptor, where: str = "mapping"
) -> mappings.MappingDescriptor:
    t = _field(doc, "type", where)
    if t == "identity":
        return mappings.Identity()
    if t == "rotation":
        return mappings.Rotation(
            point_from_json(_field(doc, "center", where), desc, where + ".center"),
            _number(float, _field(doc, "angle", where), where + ".angle"),
        )
    if t == "projection":
        return mappings.ProjectionOnto(
            convex_set_from_json(_field(doc, "set", where), desc, where + ".set")
        )
    if t == "average":
        return mappings.GeodesicAverage(
            _number(float, _field(doc, "weight", where), where + ".weight"),
            mapping_from_json(_field(doc, "inner", where), desc, where + ".inner"),
        )
    if t == "composition":
        return mappings.Composition(
            tuple(
                mapping_from_json(p, desc, f"{where}.maps[{i}]")
                for i, p in enumerate(_field(doc, "maps", where))
            )
        )
    if t == "translation":
        return mappings.Translation(_numbers(float, _field(doc, "vector", where), where + ".vector"))
    raise ConfigError(f"{where}: unknown mapping type {t!r}")


# ---------------------------------------------------------------------------
# schedules


def power_law_to_json(law: solvers.PowerLaw) -> dict:
    return {"scale": law.scale, "power": law.power, "shift": law.shift}


def power_law_from_json(doc: dict, where: str) -> solvers.PowerLaw:
    return solvers.PowerLaw(
        scale=_number(float, _field(doc, "scale", where), where + ".scale"),
        power=_number(float, _field(doc, "power", where), where + ".power"),
        shift=_number(float, doc.get("shift", 1.0), where + ".shift"),
    )


def schedule_to_json(s: solvers.Schedule) -> dict:
    doc = {
        "anchor": power_law_to_json(s.anchor),
        "perturbation": power_law_to_json(s.perturbation),
    }
    if s.mixing is not None:
        doc["mixing"] = s.mixing
    return doc


def schedule_from_json(doc: dict, where: str = "schedule") -> solvers.Schedule:
    mixing = doc.get("mixing")
    return solvers.Schedule(
        anchor=power_law_from_json(_field(doc, "anchor", where), where + ".anchor"),
        perturbation=power_law_from_json(
            _field(doc, "perturbation", where), where + ".perturbation"
        ),
        mixing=None if mixing is None else _number(float, mixing, where + ".mixing"),
    )


# ---------------------------------------------------------------------------
# experiment config


@dataclass
class ExperimentConfig:
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
    perturbation_region: Optional[sampling.SamplingRegion] = None
    output_dir: str = "."


def config_to_json(cfg: ExperimentConfig) -> dict:
    doc = {
        "name": cfg.name,
        "space": space_to_json(cfg.space),
        "convex_set": convex_set_to_json(cfg.convex_set),
        "mapping": mapping_to_json(cfg.mapping),
        "algorithm": cfg.algorithm,
        "schedule": schedule_to_json(cfg.schedule),
        "basepoint": point_to_json(cfg.basepoint),
        "budget": cfg.budget,
        "seed": cfg.seed,
        "outer_tol": cfg.outer_tol,
        "inner_tol": cfg.inner_tol,
        "max_inner": cfg.max_inner,
        "output_dir": cfg.output_dir,
    }
    if cfg.x0 is not None:
        doc["x0"] = point_to_json(cfg.x0)
    if cfg.reference is not None:
        doc["reference"] = point_to_json(cfg.reference)
    if cfg.perturbation_region is not None:
        doc["perturbation_region"] = region_to_json(cfg.perturbation_region)
    return doc


def config_from_json(doc: dict) -> ExperimentConfig:
    desc = space_from_json(_field(doc, "space", "$"))
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
        convex_set=convex_set_from_json(_field(doc, "convex_set", "$"), desc),
        mapping=mapping_from_json(_field(doc, "mapping", "$"), desc),
        algorithm=algorithm,
        schedule=schedule_from_json(_field(doc, "schedule", "$")),
        basepoint=point_from_json(_field(doc, "basepoint", "$"), desc, "basepoint"),
        budget=budget,
        seed=seed,
        outer_tol=_number(float, doc.get("outer_tol", 0.0), "outer_tol"),
        inner_tol=_number(float, doc.get("inner_tol", 1e-10), "inner_tol"),
        max_inner=_number(int, doc.get("max_inner", 10**6), "max_inner"),
        output_dir=_string(doc.get("output_dir", "."), "output_dir"),
    )
    if "x0" in doc:
        cfg.x0 = point_from_json(doc["x0"], desc, "x0")
    if "reference" in doc:
        cfg.reference = point_from_json(doc["reference"], desc, "reference")
    if "perturbation_region" in doc:
        cfg.perturbation_region = region_from_json(
            doc["perturbation_region"], desc, "perturbation_region"
        )
    if algorithm == "explicit" and cfg.x0 is None:
        raise ConfigError("x0: the explicit algorithm needs a starting point")
    return cfg


def _field(doc: dict, key: str, where: str):
    if not isinstance(doc, dict) or key not in doc:
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


def write_trace_csv(trace: solvers.IterationTrace, out: TextIO) -> None:
    """One header for both schemes; a field a row does not set is an empty
    cell (explicit rows have no inner solve).  Numbers have 17 significant
    digits (an int ``inner_iterations`` prints exactly), and each row is
    written as soon as it is formatted."""
    write = out.write
    write(TRACE_HEADER + "\n")
    for row in trace.rows:
        s, z, d, q = row.step, row.z_residual, row.ref_distance, row.qx_inner
        i, b = row.inner_iterations, row.inner_bound
        write(
            f"{row.n},{row.fixed_residual:.17g},"
            f"{'' if s is None else f'{s:.17g}'},"
            f"{'' if z is None else f'{z:.17g}'},"
            f"{'' if d is None else f'{d:.17g}'},"
            f"{'' if q is None else f'{q:.17g}'},"
            f"{'' if i is None else f'{i:.17g}'},"
            f"{'' if b is None else f'{b:.17g}'}\n"
        )


def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
