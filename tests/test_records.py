"""Every record of the package keeps the dataclass behaviour.

A record is a class of ``hadamard`` that ``dataclasses.is_dataclass`` accepts.
Each one is checked for ``==`` (an equal value, an unequal one and, where
there is one, another class with the same fields), ``hash``, ``repr``,
immutability, the order and defaults of its fields, and ``replace``, pickle
and ``deepcopy`` round trips.  These checks hold for the decorator's
generated methods and for the ones ``spaces._Record`` writes once alike.
The last two tests pin which records generate code when the package is
imported.
"""

import copy
import dataclasses
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import hadamard as hd
from hadamard import harness, serialize, solvers, spaces

E2, H2 = hd.Euclidean(2), hd.Hyperbolic(2)
P, Q = hd.Point(E2, (0.0, 1.0)), hd.Point(E2, (2.0, -0.5))
TOPO = hd.TreeTopology(2, ((0, 1, 1.5),))
LAW = hd.PowerLaw(1.0, 0.5)
P_REPR = "Point(space=Euclidean(dim=2), data=(0.0, 1.0))"
Q_REPR = "Point(space=Euclidean(dim=2), data=(2.0, -0.5))"


# class -> (a value's arguments, an unequal value's arguments, the value's
# repr, its fields in order: a default reads "name=repr", a factory "name=<f>")
CASES = {
    hd.Euclidean: ((2,), (3,), "Euclidean(dim=2)", ("dim",)),
    hd.Hyperbolic: ((2,), (3,), "Hyperbolic(dim=2)", ("dim",)),
    hd.TreeTopology: (
        (2, ((0, 1, 1.5),)), (2, ((0, 1, 2.5),)),
        "TreeTopology(vertex_count=2, edges=((0, 1, 1.5),))", ("vertex_count", "edges"),
    ),
    hd.WeightedTree: (
        (TOPO,), (hd.TreeTopology(3, ((0, 1, 1.5), (1, 2, 1.0))),),
        "WeightedTree(topology=TreeTopology(vertex_count=2, edges=((0, 1, 1.5),)))", ("topology",),
    ),
    hd.Product: (
        (E2, H2), (H2, E2), "Product(left=Euclidean(dim=2), right=Hyperbolic(dim=2))", ("left", "right"),
    ),
    hd.Point: ((E2, (0.0, 1.0)), (E2, (0.0, -1.0)), P_REPR, ("space", "data")),
    hd.WholeSpace: ((), None, "WholeSpace()", ()),
    hd.Ball: ((P, 2.0), (P, 2.5), f"Ball(center={P_REPR}, radius=2.0)", ("center", "radius")),
    hd.Segment: ((P, Q), (Q, P), f"Segment(a={P_REPR}, b={Q_REPR})", ("a", "b")),
    hd.Subtree: ((frozenset({0, 1}),), (frozenset({1}),), "Subtree(vertices=frozenset({0, 1}))", ("vertices",)),
    hd.HalfSpace: (
        ((1.0, 0.0), 0.5), ((1.0, 0.0), -0.5), "HalfSpace(normal=(1.0, 0.0), offset=0.5)", ("normal", "offset"),
    ),
    hd.ProjectionResult: (
        (P, None, 3), (P, 0.0, 3),
        f"ProjectionResult(u={P_REPR}, certificate_residual=None, iterations_used=3)",
        ("u", "certificate_residual", "iterations_used"),
    ),
    hd.Identity: ((), None, "Identity()", ()),
    hd.Rotation: ((P, 0.5), (P, -0.5), f"Rotation(center={P_REPR}, angle=0.5)", ("center", "angle")),
    hd.ProjectionOnto: (
        (hd.WholeSpace(),), (hd.Ball(P, 1.0),), "ProjectionOnto(target=WholeSpace())", ("target",),
    ),
    hd.GeodesicAverage: (
        (0.5, hd.Identity()), (0.25, hd.Identity()), "GeodesicAverage(weight=0.5, inner=Identity())",
        ("weight", "inner"),
    ),
    hd.Composition: (
        ((hd.Identity(), hd.Identity()),), ((hd.Identity(),),),
        "Composition(parts=(Identity(), Identity()))", ("parts",),
    ),
    hd.Translation: (((1.0, 0.0),), ((0.0, 1.0),), "Translation(vector=(1.0, 0.0))", ("vector",)),
    hd.PowerLaw: (
        (1.0, 0.5), (1.0, 0.5, 2.0), "PowerLaw(scale=1.0, power=0.5, shift=1.0)", ("scale", "power", "shift=1.0"),
    ),
    hd.Schedule: (
        (LAW, LAW), (LAW, LAW, 0.5),
        "Schedule(anchor=PowerLaw(scale=1.0, power=0.5, shift=1.0), "
        "perturbation=PowerLaw(scale=1.0, power=0.5, shift=1.0), mixing=None)",
        ("anchor", "perturbation", "mixing=None"),
    ),
    hd.Condition: (
        ("vanishing", True, "ok"), ("vanishing", False, "ok"),
        "Condition(name='vanishing', passed=True, detail='ok')", ("name", "passed", "detail"),
    ),
    solvers.TraceRow: (
        (1, 0.5), (2, 0.5),
        "TraceRow(n=1, fixed_residual=0.5, step=None, z_residual=None, ref_distance=None, "
        "qx_inner=None, inner_iterations=None, inner_bound=None)",
        ("n", "fixed_residual", "step=None", "z_residual=None", "ref_distance=None", "qx_inner=None",
         "inner_iterations=None", "inner_bound=None"),
    ),
    hd.IterationTrace: (
        (), ([], P),
        "IterationTrace(rows=[], final=None, status='budget', reference=None, last=None, inner_iterations=0)",
        ("rows=<list>", "final=None", "status='budget'", "reference=None", "last=None", "inner_iterations=0"),
    ),
    hd.PropertyReport: (
        ("triangle", 10, 0, 0.5, None, 1e-8), ("triangle", 10, 1, 0.5, None, 1e-8),
        "PropertyReport(name='triangle', trials=10, violations=0, worst_margin=0.5, "
        "worst_witness=None, tolerance=1e-08)",
        ("name", "trials", "violations", "worst_margin", "worst_witness", "tolerance"),
    ),
    harness.RecursionResult: (
        (0.5, [(0, 1.0)], {"summable": True}, "consistent"),
        (0.5, [(0, 1.0)], {"summable": False}, "consistent"),
        "RecursionResult(final=0.5, checkpoints=[(0, 1.0)], hypotheses={'summable': True}, verdict='consistent')",
        ("final", "checkpoints", "hypotheses", "verdict"),
    ),
    harness.TraceDiagnostics: (
        (5, 0.5, None, None, None), (5, 0.25, None, None, None),
        "TraceDiagnostics(rows_considered=5, max_fixed_residual=0.5, max_z_residual=None, "
        "max_qx_inner=None, qx_scale=None)",
        ("rows_considered", "max_fixed_residual", "max_z_residual", "max_qx_inner", "qx_scale"),
    ),
    serialize.ExperimentConfig: (
        ("a", E2, hd.WholeSpace(), hd.Identity(), "implicit", hd.Schedule(LAW, LAW), P, 10, 0),
        ("b", E2, hd.WholeSpace(), hd.Identity(), "implicit", hd.Schedule(LAW, LAW), P, 10, 0),
        "ExperimentConfig(name='a', space=Euclidean(dim=2), convex_set=WholeSpace(), mapping=Identity(), "
        "algorithm='implicit', schedule=Schedule(anchor=PowerLaw(scale=1.0, power=0.5, shift=1.0), "
        "perturbation=PowerLaw(scale=1.0, power=0.5, shift=1.0), mixing=None), "
        f"basepoint={P_REPR}, budget=10, seed=0, outer_tol=0.0, inner_tol=1e-10, max_inner=1000000, "
        "x0=None, reference=None, output_dir='.')",
        ("name", "space", "convex_set", "mapping", "algorithm", "schedule", "basepoint", "budget", "seed",
         "outer_tol=0.0", "inner_tol=1e-10", "max_inner=1000000", "x0=None", "reference=None",
         "output_dir='.'"),
    ),
}
MUTABLE = {
    solvers.TraceRow, hd.IterationTrace, hd.PropertyReport, harness.RecursionResult,
    harness.TraceDiagnostics, serialize.ExperimentConfig,
}
RECORDS = list(CASES)
IDS = [cls.__name__ for cls in RECORDS]


def _field_text(f):
    if f.default is not dataclasses.MISSING:
        return f"{f.name}={f.default!r}"
    if f.default_factory is not dataclasses.MISSING:
        return f"{f.name}=<{f.default_factory.__name__}>"
    return f.name


def test_every_record_has_a_case():
    from hadamard import cli, convex, experiments, geometry, mappings, sampling

    modules = (cli, convex, experiments, geometry, harness, mappings, sampling, serialize, solvers, spaces)
    found = {
        value
        for module in modules
        for value in vars(module).values()
        if isinstance(value, type) and dataclasses.is_dataclass(value) and value.__module__ == module.__name__
    }
    assert found == set(CASES) and len(found) == 27
    # the base's methods read every field
    for cls in found:
        for f in dataclasses.fields(cls):
            assert f.init and f.repr and f.compare and f.hash is None, (cls, f.name)


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_equality(cls):
    args, other_args, _, _ = CASES[cls]
    value = cls(*args)
    assert value == cls(*args) and not value != cls(*args)
    assert value == value
    if other_args is not None:
        assert value != cls(*other_args) and not value == cls(*other_args)
    assert value.__eq__(args) is NotImplemented and value != args
    assert value != object()


def test_equal_fields_of_another_class_are_unequal():
    assert hd.Euclidean(2) != hd.Hyperbolic(2)
    assert hd.WholeSpace() != hd.Identity()
    assert hd.Point(E2, (1.0, 2.0)) != hd.Point(H2, (1.0, 2.0))


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_hash(cls):
    value = cls(*CASES[cls][0])
    if cls in MUTABLE:
        with pytest.raises(TypeError, match="unhashable type"):
            hash(value)
    else:
        fields = tuple(getattr(value, f.name) for f in dataclasses.fields(value))
        assert hash(value) == hash(cls(*CASES[cls][0])) == hash(fields)


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_repr(cls):
    args, _, text, _ = CASES[cls]
    assert repr(cls(*args)) == text


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_immutability(cls):
    value = cls(*CASES[cls][0])
    for f in dataclasses.fields(value):
        if cls in MUTABLE:
            setattr(value, f.name, "changed")
            assert getattr(value, f.name) == "changed"
            continue
        before = getattr(value, f.name)
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"^cannot assign to field '{f.name}'$"):
            setattr(value, f.name, "changed")
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"^cannot delete field '{f.name}'$"):
            delattr(value, f.name)
        assert getattr(value, f.name) is before


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_fields_and_round_trips(cls):
    args, other_args, text, names = CASES[cls]
    assert dataclasses.is_dataclass(cls)
    assert tuple(_field_text(f) for f in dataclasses.fields(cls)) == names
    assert cls.__match_args__ == tuple(f.name for f in dataclasses.fields(cls))
    value = cls(*args)
    kwargs = {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
    assert cls(**kwargs) == value
    same = dataclasses.replace(value)
    assert type(same) is cls and same == value
    if other_args is not None:
        other = cls(*other_args)
        changed = {f.name: getattr(other, f.name) for f in dataclasses.fields(other)}
        assert dataclasses.replace(value, **changed) == other
    for back in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
        assert type(back) is cls and back == value and repr(back) == text


def test_each_iteration_trace_has_its_own_rows():
    one, two = hd.IterationTrace(), hd.IterationTrace()
    one.rows.append(1)
    assert two.rows == [] and one.rows is not two.rows


# ---------------------------------------------------------------------------
# a call that does not bind: a TypeError that names the class and the argument


@pytest.mark.parametrize("cls", [cls for cls in RECORDS if dataclasses.fields(cls)], ids=lambda c: c.__name__)
def test_a_call_that_does_not_bind_names_the_class_and_the_argument(cls):
    params = dataclasses.fields(cls)
    name, first = cls.__name__, params[0].name
    args = CASES[cls][0]
    value = cls(*args)
    full = tuple(getattr(value, f.name) for f in params)
    # Python's own message counts self, and gives a range when fields have defaults
    count = rf"(from \d+ to )?{len(params) + 1} positional arguments but {len(params) + 2} were given"
    with pytest.raises(TypeError, match=rf"^{name}\.__init__\(\) takes {count}$"):
        cls(*full, None)
    with pytest.raises(TypeError, match=rf"^{name}\.__init__\(\) got multiple values for argument '{first}'$"):
        cls(*full, **{first: full[0]})
    with pytest.raises(TypeError, match=rf"^{name}\.__init__\(\) got an unexpected keyword argument 'colour'$"):
        cls(*args, colour=1)
    required = [f.name for f in params if f.default is f.default_factory is dataclasses.MISSING]
    if required:
        with pytest.raises(TypeError, match=rf"^{name}\.__init__\(\) missing .*'{required[-1]}'$"):
            cls(*args[: len(required) - 1])


def test_argumentless_records_refuse_an_argument():
    for cls in (hd.WholeSpace, hd.Identity):
        with pytest.raises(TypeError, match=rf"^{cls.__name__}\.__init__\(\) takes 1 positional arguments? but 2 were given$"):
            cls(None)
        with pytest.raises(TypeError, match=rf"^{cls.__name__}\.__init__\(\) got an unexpected keyword argument 'x'$"):
            cls(x=1)


# ---------------------------------------------------------------------------
# generated code


GENERATED = """
import dataclasses
import sys

sys.path.insert(0, sys.argv[1])

made, current = [], []
process, create = dataclasses._process_class, dataclasses._create_fn


def processing(cls, *args):
    current.append(cls.__qualname__)
    try:
        return process(cls, *args)
    finally:
        current.pop()


def creating(name, *args, **kwargs):
    made.append(current[-1] + "." + name)
    return create(name, *args, **kwargs)


dataclasses._process_class, dataclasses._create_fn = processing, creating
import hadamard.cli

print(" ".join(sorted(made)))
"""


@pytest.mark.skipif(
    not hasattr(dataclasses, "_create_fn"), reason="dataclasses writes its methods another way from Python 3.13"
)
def test_importing_the_package_generates_only_point_and_trace_row_code():
    # a new record that generates code shows in the diff of this list
    src = str(Path(hd.__file__).parent.parent)
    done = subprocess.run([sys.executable, "-c", GENERATED, src], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [
        "Point.__delattr__", "Point.__eq__", "Point.__hash__", "Point.__init__", "Point.__repr__",
        "Point.__setattr__", "TraceRow.__eq__", "TraceRow.__init__", "TraceRow.__repr__",
    ]


def test_records_take_their_methods_from_the_base():
    # the methods each record class defines itself rather than inherits from
    # spaces._Record or spaces._FrozenRecord
    methods = ("__init__", "__eq__", "__repr__", "__hash__", "__setattr__", "__delattr__")
    own = {cls.__name__: sorted(m for m in methods if m in vars(cls)) for cls in RECORDS}
    assert own == {
        **{cls.__name__: [] for cls in RECORDS},
        "Point": ["__delattr__", "__eq__", "__hash__", "__init__", "__repr__", "__setattr__"],
        "TraceRow": ["__eq__", "__hash__", "__init__", "__repr__"],
        "TreeTopology": ["__hash__"],
    }
    for cls in RECORDS:
        if cls in (hd.Point, solvers.TraceRow):
            continue
        base = spaces._Record if cls in MUTABLE else spaces._FrozenRecord
        assert cls.__mro__[1] is base, cls
        # without a docstring, dataclass would write one from the signature,
        # which here reads Name(*args, **kwargs)
        assert cls.__doc__ and not cls.__doc__.startswith(cls.__name__ + "("), cls
