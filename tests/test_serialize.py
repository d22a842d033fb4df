import json
import math
import tracemalloc
from io import StringIO
from pathlib import Path

import numpy as np
import pytest

import hadamard as hd
from hadamard import experiments, serialize
from hadamard.solvers import IterationTrace, TraceRow
from conftest import CATERPILLAR, ept, hpt_polar

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def test_trace_csv_round_trips_doubles():
    rng = np.random.default_rng(0)
    values = [float(rng.normal(scale=10.0 ** rng.integers(-8, 8))) for _ in range(1000)]
    trace = IterationTrace(rows=[TraceRow(n=i, fixed_residual=x) for i, x in enumerate(values)])
    out = StringIO()
    serialize.write_trace_csv(trace, out)
    assert [float(line.split(",")[1]) for line in out.getvalue().splitlines()[1:]] == values


@pytest.mark.parametrize("name", ["segment_implicit.json", "segment_explicit.json"])
def test_checked_in_configs_round_trip(name):
    doc = json.loads((CONFIG_DIR / name).read_text())
    cfg = serialize.config_from_json(doc)
    doc2 = serialize.config_to_json(cfg)
    cfg2 = serialize.config_from_json(doc2)
    assert serialize.config_to_json(cfg2) == doc2


def test_hyperbolic_dimension_allocates_nothing_until_used():
    # memory stays bounded in the size of the input: a 50-byte space entry
    # must not build a point of dim + 1 coordinates before the basepoint fails
    doc = json.loads((CONFIG_DIR / "segment_implicit.json").read_text())
    doc.update(
        space={"type": "hyperbolic", "dim": 2_000_000},
        convex_set={"type": "whole"},
        mapping={"type": "identity"},
        basepoint={"coords": [1.0, 0.0, 0.0]},
    )
    tracemalloc.start()
    try:
        with pytest.raises(serialize.ConfigError, match="basepoint: expected 2000001 coordinates, got 3"):
            serialize.config_from_json(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_space_round_trip_all_kinds():
    descs = [
        hd.Euclidean(4),
        hd.Hyperbolic(3),
        hd.WeightedTree(CATERPILLAR),
        hd.Product(hd.Euclidean(2), hd.Hyperbolic(2)),
    ]
    for desc in descs:
        assert serialize.from_json("space", serialize.to_json(desc), "space") == desc


def test_point_round_trip(E2, H2, tree, prod):
    pts = [
        ept(E2, 1.5, -2.5),
        hpt_polar(H2, 1.3, 0.4),
        hd.tree_point(tree, 2, 0.25),
        prod.pair(ept(E2, 0.5, 0.5), hpt_polar(H2, 0.7, -0.2)),
    ]
    for p in pts:
        got = serialize.point_from_json(serialize.point_to_json(p), p.space)
        space = hd.make_space(p.space)
        assert space.distance(p, got) == 0.0


def test_convex_set_and_mapping_round_trip(E2):
    seg = hd.Segment(ept(E2, -2.0, 1.0), ept(E2, 2.0, 1.0))
    sets = [
        hd.WholeSpace(),
        hd.Ball(ept(E2, 0.0, 0.0), 3.0),
        seg,
        hd.HalfSpace((1.0, 0.0), -1.0),
        hd.Subtree(frozenset({0, 1, 3})),
    ]
    for cset in sets:
        desc = hd.WeightedTree(CATERPILLAR) if isinstance(cset, hd.Subtree) else E2.descriptor
        assert serialize.from_json("set", serialize.to_json(cset), "convex_set", desc) == cset
    maps = [
        hd.Identity(),
        hd.Rotation(ept(E2, 0.0, 0.0), 1.2),
        hd.ProjectionOnto(seg),
        hd.GeodesicAverage(0.25, hd.ProjectionOnto(seg)),
        hd.Composition((hd.Identity(), hd.ProjectionOnto(seg))),
        hd.Translation((1.0, -1.0)),
    ]
    for m in maps:
        assert serialize.from_json("mapping", serialize.to_json(m), "mapping", E2.descriptor) == m


def test_schedule_round_trip():
    for mixing in (None, 0.5):
        s = hd.Schedule(
            anchor=hd.PowerLaw(1.0, 0.7, 2.0),
            perturbation=hd.PowerLaw(2.0, 1.5, 3.0),
            mixing=mixing,
        )
        assert serialize.from_json("schedule", serialize.to_json(s), "schedule") == s


def test_config_errors_carry_anchors():
    with pytest.raises(serialize.ConfigError, match=r"\$: missing required field 'space'"):
        serialize.config_from_json({})
    doc = json.loads((CONFIG_DIR / "segment_implicit.json").read_text())
    doc["algorithm"] = "magic"
    with pytest.raises(serialize.ConfigError, match="algorithm"):
        serialize.config_from_json(doc)
    doc = json.loads((CONFIG_DIR / "segment_implicit.json").read_text())
    doc["budget"] = 0
    with pytest.raises(serialize.ConfigError, match="budget"):
        serialize.config_from_json(doc)
    doc = json.loads((CONFIG_DIR / "segment_explicit.json").read_text())
    del doc["x0"]
    with pytest.raises(serialize.ConfigError, match="x0"):
        serialize.config_from_json(doc)
    doc = json.loads((CONFIG_DIR / "segment_implicit.json").read_text())
    del doc["convex_set"]["center"]
    with pytest.raises(serialize.ConfigError, match="convex_set"):
        serialize.config_from_json(doc)


def test_trace_csv_output():
    trace = IterationTrace(
        rows=[
            TraceRow(n=1, fixed_residual=0.5, step=0.25, z_residual=None, ref_distance=1.0, qx_inner=-0.125),
            TraceRow(n=2, fixed_residual=1e-17),
        ]
    )
    out = StringIO()
    serialize.write_trace_csv(trace, out)
    lines = out.getvalue().splitlines()
    assert lines[0] == "n,fixed_residual,step,z_residual,ref_distance,qx_inner,inner_iterations,inner_bound"
    assert lines[1] == "1,0.5,0.25,,1,-0.125,,"
    assert lines[2].startswith("2,")
    assert float(lines[2].split(",")[1]) == 1e-17


def test_trace_csv_inner_columns():
    # the iteration count is written as an integer, the bound like every real
    trace = IterationTrace(
        rows=[TraceRow(n=3, fixed_residual=0.25, step=0.5, inner_iterations=7, inner_bound=1e-11)]
    )
    out = StringIO()
    serialize.write_trace_csv(trace, out)
    assert out.getvalue().splitlines()[1] == "3,0.25,0.5,,,,7,9.9999999999999994e-12"


def test_trace_csv_matches_reference_format():
    # every cell is format(float(v), ".17g"), or empty when the row has no value
    def reference(trace):
        lines = [serialize.TRACE_HEADER]
        for r in trace.rows:
            values = (r.fixed_residual, r.step, r.z_residual, r.ref_distance, r.qx_inner, r.inner_iterations, r.inner_bound)
            lines.append(",".join([str(r.n)] + ["" if v is None else format(float(v), ".17g") for v in values]))
        return "\n".join(lines) + "\n"

    rng = np.random.default_rng(8)
    specials = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1.0, 0.1, 2.0**53 + 1]
    rows = [
        TraceRow(n=0, fixed_residual=-0.0, step=5e-324, z_residual=1e308, ref_distance=0.1, qx_inner=-1e308),
        TraceRow(n=1, fixed_residual=5e-324, step=-0.0, inner_iterations=0, inner_bound=1e308),
        TraceRow(n=2, fixed_residual=1e308, inner_iterations=123456789, inner_bound=-0.0),
        TraceRow(n=3, fixed_residual=0.0),
    ]
    for n in range(4, 200):
        cells = [float(v) for v in rng.normal(scale=10.0 ** rng.integers(-300, 300), size=6)]
        cells = [specials[int(rng.integers(len(specials)))] if rng.random() < 0.2 else v for v in cells]
        cells = [None if rng.random() < 0.3 else v for v in cells]
        iterations = None if rng.random() < 0.5 else int(rng.integers(10**7))
        rows.append(TraceRow(n, cells[0] if cells[0] is not None else 1.0, *cells[1:5], iterations, cells[5]))
    trace = IterationTrace(rows=rows)
    out = StringIO()
    serialize.write_trace_csv(trace, out)
    assert out.getvalue() == reference(trace)
    assert "-0," in out.getvalue() and "4.9406564584124654e-324" in out.getvalue()
    assert ",123456789," in out.getvalue() and ",1e+308" in out.getvalue()


def _f_string_trace_line(row):
    # the f-string form each row shape's % format replaced, kept as the oracle
    s, z, d, q = row.step, row.z_residual, row.ref_distance, row.qx_inner
    i, b = row.inner_iterations, row.inner_bound
    return (
        f"{row.n},{row.fixed_residual:.17g},"
        f"{'' if s is None else f'{s:.17g}'},"
        f"{'' if z is None else f'{z:.17g}'},"
        f"{'' if d is None else f'{d:.17g}'},"
        f"{'' if q is None else f'{q:.17g}'},"
        f"{'' if i is None else f'{i:.17g}'},"
        f"{'' if b is None else f'{b:.17g}'}\n"
    )


def test_trace_lines_match_the_f_string_form_byte_for_byte():
    # rows of real runs: explicit with and without a reference (each closing
    # with a row for x_budget), implicit with a reference
    def run(name, drop=()):
        doc = json.loads((CONFIG_DIR / name).read_text())
        doc.update(budget=40, outer_tol=0.0)
        for key in drop:
            del doc[key]
        return experiments.execute(serialize.config_from_json(doc))[0].rows

    rows = run("segment_explicit.json") + run("segment_explicit.json", ["reference"])
    rows += run("segment_implicit.json")
    assert {r.step is None for r in rows} == {True, False}
    assert {r.inner_iterations is None for r in rows} == {True, False}
    assert {r.ref_distance is None for r in rows} == {True, False}
    # implicit rows at 1 and 10**6 inner iterations, and every row shape
    # (each of the six optional cells set or None) at each hard value
    rows += [
        TraceRow(n=7, fixed_residual=0.5, step=0.25, inner_iterations=1, inner_bound=1e-11),
        TraceRow(n=8, fixed_residual=0.5, step=0.25, ref_distance=2.0, qx_inner=-0.5,
                 inner_iterations=10**6, inner_bound=3e-9),
        TraceRow(n=9, fixed_residual=0.5),
    ]
    hard = [-0.0, 5e-324, 1e308, math.nan, math.inf, -math.inf, 2**60 + 1, 0.1]
    for shape in range(64):
        for k, v in enumerate(hard):
            cells = [v if shape >> j & 1 else None for j in range(6)]
            rows.append(TraceRow(10 * shape + k, hard[k - 1], *cells))
    for row in rows:
        assert serialize._trace_line(row) == _f_string_trace_line(row), row
    assert len(serialize._TRACE_FORMATS) <= 64
    out = StringIO()
    serialize.write_trace_csv(IterationTrace(rows=rows), out)
    assert out.getvalue() == serialize.TRACE_HEADER + "\n" + "".join(map(_f_string_trace_line, rows))
    assert ",nan," in out.getvalue() and ",-inf," in out.getvalue() and ",1.152921504606847e+18," in out.getvalue()
