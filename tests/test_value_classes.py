"""The contract every value class of the package keeps.

Each class is built by keywords, leaving its defaulted fields out.  Its
fields are its constructor's parameters, in order.  Assigning or deleting
an attribute raises AttributeError, ``==`` against an instance of another
class is False (``__eq__`` answers NotImplemented), the hash is the hash of
the field tuple, and repr is the recorded string.  ``BraidWord`` and
``SimpleColoring`` hash by their own rules, which are pinned here too.
"""

import inspect

import pytest

from branchcover.braids import BraidWord, garside_normal_form
from branchcover.charts import (
    Chart,
    ChartEvent,
    ChartReport,
    OrientationResult,
    SweepRecord,
    black,
    sweep_record,
)
from branchcover.covering import CoveringSurface, SurfaceComponent
from branchcover.hurwitz import HurwitzSystem
from branchcover.links import CrossingRelation, LiftSearchResult, LinkDiagram, SimpleColoring, Tangle
from branchcover.permutations import Permutation
from branchcover.quandles import FiniteQuandle, QuandleReport

P12 = Permutation((2, 1))
TREFOIL = ((1, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 3))
COMPONENT = SurfaceComponent(sheets=frozenset({1, 2}), euler_characteristic=2, genus=0)
CIRCLE = Chart(2, False, (black(1, 0, True), black(1, 0, False)))

# class -> (keyword arguments, field names, recorded repr)
CASES = {
    Permutation: (
        dict(images=(2, 1, 3)), ("images",), "Permutation('(1 2)', degree=3)"),
    BraidWord: (
        dict(degree=3, letters=(1, -2)), ("degree", "letters"), "BraidWord(3, 's1 s2^-1')"),
    HurwitzSystem: (
        dict(degree=2, entries=(P12, P12)), ("degree", "entries", "flavor"),
        "HurwitzSystem(degree=2, entries=(Permutation('(1 2)', degree=2), "
        "Permutation('(1 2)', degree=2)), flavor='permutation')"),
    SurfaceComponent: (
        dict(sheets=frozenset({1, 2}), euler_characteristic=2, genus=0),
        ("sheets", "euler_characteristic", "genus"),
        "SurfaceComponent(sheets=frozenset({1, 2}), euler_characteristic=2, genus=0)"),
    CoveringSurface: (
        dict(degree=2, branch_count=2, components=(COMPONENT,)),
        ("degree", "branch_count", "components"),
        "CoveringSurface(degree=2, branch_count=2, components=(SurfaceComponent("
        "sheets=frozenset({1, 2}), euler_characteristic=2, genus=0),))"),
    ChartEvent: (
        dict(kind="black", position=0, labels=(1,), insert=True),
        ("kind", "position", "labels", "insert", "sign"),
        "ChartEvent(kind='black', position=0, labels=(1,), insert=True, sign=None)"),
    Chart: (
        dict(degree=2, oriented=False, events=CIRCLE.events), ("degree", "oriented", "events"),
        "Chart(degree=2, oriented=False, events=(ChartEvent(kind='black', position=0, labels=(1,), "
        "insert=True, sign=None), ChartEvent(kind='black', position=0, labels=(1,), insert=False, "
        "sign=None)))"),
    SweepRecord: (
        dict(words=[(), ((1, 1, 0),), ()], event_io=[((), (0,)), ((0,), ())], segment_label={0: 1}),
        ("words", "event_io", "segment_label"),
        "SweepRecord(words=[(), ((1, 1, 0),), ()], event_io=[((), (0,)), ((0,), ())], "
        "segment_label={0: 1})"),
    ChartReport: (
        dict(valid=True), ("valid", "error", "event_index", "black_count"),
        "ChartReport(valid=True, error=None, event_index=None, black_count=0)"),
    OrientationResult: (
        dict(orientable=False), ("orientable", "witness", "segment_signs"),
        "OrientationResult(orientable=False, witness=None, segment_signs=None)"),
    CrossingRelation: (
        dict(under_in=1, over=2, under_out=4, sign=-1), ("under_in", "over", "under_out", "sign"),
        "CrossingRelation(under_in=1, over=2, under_out=4, sign=-1)"),
    LinkDiagram: (
        dict(crossings=TREFOIL), ("crossings", "free_loops"),
        "LinkDiagram(crossings=((1, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 3)), free_loops=0)"),
    SimpleColoring: (
        dict(degree=2, flavor="permutation", assignment={1: P12}), ("degree", "flavor", "assignment"),
        "SimpleColoring(degree=2, flavor='permutation', assignment={1: Permutation('(1 2)', degree=2)})"),
    Tangle: (
        dict(crossings=((1, 2, 3, 4),)), ("crossings", "wires"),
        "Tangle(crossings=((1, 2, 3, 4),), wires=())"),
    LiftSearchResult: (
        dict(lift=None), ("lift", "exhausted", "checks"),
        "LiftSearchResult(lift=None, exhausted=False, checks=0)"),
    QuandleReport: (
        dict(valid=True), ("valid", "error"), "QuandleReport(valid=True, error=None)"),
    FiniteQuandle: (
        dict(op=((0,),)), ("op", "names"), "FiniteQuandle(op=((0,),), names=None)"),
}
CLASSES = list(CASES)
OWN_HASH = {BraidWord, SimpleColoring}


def example(cls):
    return cls(**CASES[cls][0])


def field_tuple(cls, value):
    return tuple(getattr(value, name) for name in CASES[cls][1])


def test_every_value_class_is_listed():
    assert len(CASES) == 17


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_fields_are_the_constructor_parameters(cls):
    assert tuple(inspect.signature(cls).parameters) == CASES[cls][1]
    value = example(cls)
    assert cls(*field_tuple(cls, value)) == value


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_repr_is_the_recorded_string(cls):
    assert repr(example(cls)) == CASES[cls][2]


# SweepRecord was a mutable dataclass; its own test below pins that it is
# frozen now.
@pytest.mark.parametrize("cls", [c for c in CLASSES if c is not SweepRecord], ids=lambda cls: cls.__name__)
def test_assignment_and_deletion_raise(cls):
    value = example(cls)
    for name in (*CASES[cls][1], "other"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert field_tuple(cls, value) == field_tuple(cls, example(cls))


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_equality_is_within_one_class(cls):
    value = example(cls)
    assert value == example(cls)
    for other_cls in CLASSES:
        if other_cls is not cls:
            other = example(other_cls)
            assert value.__eq__(other) is NotImplemented
            assert (value == other) is False and value != other


@pytest.mark.parametrize("cls", [c for c in CLASSES if c not in OWN_HASH], ids=lambda cls: cls.__name__)
def test_hash_is_the_hash_of_the_field_tuple(cls):
    value = example(cls)
    fields = field_tuple(cls, value)
    try:
        expected = hash(fields)
    except TypeError:  # a list or dict field: neither hashes
        with pytest.raises(TypeError):
            hash(value)
        return
    assert hash(value) == expected


def test_own_hashes():
    w = example(BraidWord)
    assert hash(w) == hash((w.degree, garside_normal_form(w)))
    c = example(SimpleColoring)
    assert hash(c) == hash((c.degree, c.flavor, frozenset(c.assignment.items())))


def test_sweep_record_is_frozen():
    record = sweep_record(CIRCLE)
    with pytest.raises(AttributeError):
        record.words = []
    with pytest.raises(AttributeError):
        del record.segment_label
    assert record == example(SweepRecord)
