import gc
import math
import weakref

import numpy as np
import pytest

import hadamard as hd
from conftest import ept, hpt_polar


def test_identity(E2):
    x = ept(E2, 1.0, 2.0)
    assert hd.compile_mapping(E2, hd.Identity())(x) == x
    assert isinstance(hd.known_fixed_set(hd.Identity()), hd.WholeSpace)


def test_euclidean_rotation_matches_matrix(E2):
    center = ept(E2, 1.0, -1.0)
    rot = hd.Rotation(center, 0.7)
    rng = np.random.default_rng(13)
    c, s = math.cos(0.7), math.sin(0.7)
    R = np.array([[c, -s], [s, c]])
    for _ in range(50):
        p = rng.normal(scale=3.0, size=2)
        got = hd.compile_mapping(E2, rot)(ept(E2, *p))
        want = np.array(center.data) + R @ (p - np.array(center.data))
        assert np.allclose(got.data, want, atol=1e-12)


def test_rotation_is_isometry_and_fixes_center(E2, H2):
    cases = [
        (E2, hd.Rotation(ept(E2, 0.5, 0.5), 1.1), lambda: ept(E2, *np.random.default_rng(1).normal(size=2))),
        (H2, hd.Rotation(hpt_polar(H2, 1.0, 0.3), 1.1), None),
    ]
    for space, rot, _ in cases:
        T = hd.compile_mapping(space, rot)
        assert space.distance(T(rot.center), rot.center) <= 1e-9
        rng = hd.stream(9, 1)
        draw = hd.sampler(space)
        for _ in range(100):
            x, y = draw(rng), draw(rng)
            assert space.distance(T(x), T(y)) == pytest.approx(
                space.distance(x, y), rel=1e-9, abs=1e-9
            )
            if not isinstance(space.descriptor, hd.Euclidean):
                assert hd.validate_point(space, T(x)) is None


def test_full_turn_rotation_fixes_everything():
    rot = hd.Rotation(hd.euclidean_point(hd.make_space(hd.Euclidean(2)), 0.0, 0.0), 4.0 * math.pi)
    assert isinstance(hd.known_fixed_set(rot), hd.WholeSpace)
    part = hd.Rotation(rot.center, 1.0)
    assert hd.known_fixed_set(part) == [rot.center]


def test_rotation_requires_dim_two(E3):
    with pytest.raises(ValueError):
        hd.compile_mapping(E3, hd.Rotation(ept(E3, 0.0, 0.0, 0.0), 1.0))


def test_projection_mapping_fixes_target_and_is_nonexpansive(E2):
    seg = hd.Segment(ept(E2, -1.0, 0.0), ept(E2, 1.0, 0.0))
    T = hd.compile_mapping(E2, hd.ProjectionOnto(seg))
    on_seg = ept(E2, 0.3, 0.0)
    assert E2.distance(T(on_seg), on_seg) <= 1e-12
    rng = np.random.default_rng(2)
    for _ in range(100):
        x = ept(E2, *rng.normal(scale=4.0, size=2))
        y = ept(E2, *rng.normal(scale=4.0, size=2))
        assert E2.distance(T(x), T(y)) <= E2.distance(x, y) + 1e-10
    assert hd.known_fixed_set(hd.ProjectionOnto(seg)) == seg


def test_geodesic_average(E2):
    seg = hd.Segment(ept(E2, 0.0, 0.0), ept(E2, 2.0, 0.0))
    avg = hd.GeodesicAverage(0.5, hd.ProjectionOnto(seg))
    x = ept(E2, 1.0, 4.0)
    got = hd.compile_mapping(E2, avg)(x)
    assert got.data == pytest.approx((1.0, 2.0))
    assert hd.known_fixed_set(avg) == seg
    assert isinstance(hd.known_fixed_set(hd.GeodesicAverage(1.0, hd.ProjectionOnto(seg))), hd.WholeSpace)


def test_composition_order_and_fixed_set(E2):
    rot = hd.Rotation(ept(E2, 0.0, 0.0), math.pi / 2)
    shift = hd.Translation((1.0, 0.0))
    comp = hd.Composition((rot, shift))  # rotate first, then shift
    got = hd.compile_mapping(E2, comp)(ept(E2, 1.0, 0.0))
    assert got.data == pytest.approx((1.0, 1.0), abs=1e-12)
    seg = hd.Segment(ept(E2, 0.0, 0.0), ept(E2, 1.0, 0.0))
    comp2 = hd.Composition((hd.Identity(), hd.ProjectionOnto(seg)))
    assert hd.known_fixed_set(comp2) == seg
    assert hd.known_fixed_set(hd.Composition((rot, shift))) is None


def test_translation_negative_control(E2, H2):
    t = hd.Translation((0.5, 0.0))
    x = ept(E2, 0.0, 0.0)
    assert hd.compile_mapping(E2, t)(x).data == (0.5, 0.0)
    assert hd.known_fixed_set(t) == []
    assert isinstance(hd.known_fixed_set(hd.Translation((0.0, 0.0))), hd.WholeSpace)
    with pytest.raises(ValueError):
        hd.compile_mapping(H2, t)


@pytest.mark.parametrize("vector", [(1.0,), (1.0, 0.0, 5.0)], ids=["1d", "3d"])
def test_translation_vector_must_match_dimension(E2, vector):
    # zip would silently drop or ignore the extra coordinates
    with pytest.raises(ValueError, match=f"translation vector has {len(vector)} coordinates, expected 2"):
        hd.compile_mapping(E2, hd.Translation(vector))(ept(E2, 0.0, 0.0))


def test_a_compiled_mapping_holds_its_handle_no_longer_than_itself(E2):
    # each compile builds a fresh closure and keeps nothing: once the
    # closure is dropped, the handle it measures through is freed too
    space = hd.CorruptedSpace(E2)
    seg = hd.Segment(ept(E2, 0.0, 0.0), ept(E2, 1.0, 0.0))
    mapping = hd.GeodesicAverage(0.5, hd.Composition((hd.ProjectionOnto(seg), hd.Identity())))
    T = hd.compile_mapping(space, mapping)
    assert T is not hd.compile_mapping(space, mapping)
    assert T(ept(E2, 0.5, 1.0)) == ept(E2, 0.5, 0.5)
    handle = weakref.ref(space)
    del space, T
    gc.collect()
    assert handle() is None


def test_nested_levels_compile_through_a_private_name(E2, monkeypatch):
    # a wrapper of the public name (a tracer's, say) sees only the outer
    # call, so it counts each application of a nested mapping once
    compile_mapping, calls = hd.mappings.compile_mapping, []
    monkeypatch.setattr(hd.mappings, "compile_mapping", lambda *args: calls.append(args) or compile_mapping(*args))
    seg = hd.Segment(ept(E2, 0.0, 0.0), ept(E2, 1.0, 0.0))
    T = compile_mapping(E2, hd.GeodesicAverage(0.5, hd.Composition((hd.ProjectionOnto(seg), hd.Identity()))))
    assert T(ept(E2, 0.5, 1.0)) == ept(E2, 0.5, 0.5)
    assert calls == []


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "family, make, name",
    [
        ("E2", lambda E2, bad: hd.Rotation(ept(E2, 1.0, 0.0), bad), "rotation angle"),
        ("E2", lambda E2, bad: hd.Rotation(hd.Point(E2.descriptor, (1.0, bad)), 0.5), "rotation center"),
        ("H2", lambda H2, bad: hd.Rotation(hd.Point(H2.descriptor, (bad, 0.0, 0.0)), 0.5),
         "rotation center"),
        ("H2", lambda H2, bad: hd.Rotation(hpt_polar(H2, 1.0, 0.3), bad), "rotation angle"),
        ("E2", lambda E2, bad: hd.Translation((bad, 0.0)), "translation vector"),
        ("E2", lambda E2, bad: hd.Translation((0.5, bad)), "translation vector"),
    ],
    ids=["e2-angle", "e2-center", "h2-center", "h2-angle", "shift-x", "shift-y"],
)
def test_non_finite_mapping_parameters_are_rejected_at_compile(request, family, make, name, bad):
    space = request.getfixturevalue(family)
    mapping = make(space, bad)
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        hd.compile_mapping(space, mapping)
    # a run meets the fault before its first step: no row reaches the sink
    rows = []
    sched = hd.Schedule(
        anchor=hd.PowerLaw(1.0, 0.7, 2.0), perturbation=hd.PowerLaw(1.0, 1.0, 2.0), mixing=0.5
    )
    base = ept(space, 0.0, 0.0) if family == "E2" else hpt_polar(space, 0.0, 0.0)
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        hd.run_explicit(space, hd.WholeSpace(), mapping, sched, base, base, budget=5, sink=rows.append)
    assert rows == []
