"""One typed-input sweep over the public API, and the tooling that keeps it whole.

``TABLE`` lists each public callable that takes an integer, a flag or a
tuple, with valid arguments and its typed parameters.  The sweep gives every
integer parameter True, 1.0, "1" and a value out of its range, and each must
raise a ValueError subclass (every error class of the package is one): never
TypeError, IndexError, KeyError or AttributeError, and never an accepted
value.  The one exception is ``hurwitz_move``'s IndexError for a position
past the system, which tests/test_hurwitz.py pins.  Every flag gets "no" and
1.  Every tuple field given as lists must build a value that equals and
hashes like the tuple-built one.  The fixtures are fixed, and the one random
chart is drawn from a seeded generator, so every run sweeps the same calls.

Two tooling tests keep the gate single.  The first derives, from the
signatures, every public callable of the package modules that takes an
integer, a flag or a tuple, and requires it in ``TABLE`` or in ``EXEMPT``
with a reason; no name of ``branchcover.__all__`` may be exempt.  The
second scans ``src/branchcover`` for exact-type tests outside the helpers
in ``permutations``.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import pathlib
import random
import re
from typing import Callable, NamedTuple

import pytest

import branchcover
from branchcover.braids import BraidWord, parse_braid
from branchcover.charts import (
    Chart,
    ChartEvent,
    apply_chart_move,
    black,
    black_into_white,
    black_through_crossing,
    cap,
    crossing,
    crossing_pair_cancel,
    crossing_pair_insert,
    cup,
    cup_cap_cancel,
    cup_cap_insert,
    event_swap,
    patch_rewrite,
    white,
    white_pair_cancel,
    white_pair_insert,
)
from branchcover.covering import CoveringSurface, SurfaceComponent
from branchcover.hurwitz import (
    HurwitzSystem,
    hc_equivalent,
    hurwitz_move,
    iter_simple_closing_systems,
    normal_form_template,
    replay_trace,
)
from branchcover.links import (
    LinkDiagram,
    SimpleColoring,
    Tangle,
    braid_closure_pd,
    corpus_diagram,
    enumerate_simple_colorings,
    extract_tangle,
    find_simple_lift,
    flat_tangle,
    montesinos_replace,
    r1_add,
    r1_remove,
    r2_add,
    r2_remove,
    twist_boundary_colors,
)
from branchcover.permutations import (
    Permutation,
    all_transpositions,
    check_elements,
    is_transitive,
    orbits,
    parse_permutation,
)
from branchcover.quandles import (
    FiniteQuandle,
    dihedral_quandle,
    is_quandle_homomorphism,
    lift_through_surjection,
    lift_to_Ad,
    make_Td,
    trivial_quandle,
)
from oracles import montesinos_pair_check, product, random_chart, td_coloring_to_simple

# -- fixtures ------------------------------------------------------------------

P3 = Permutation((2, 1, 3))
T12, T23 = Permutation.transposition(3, 1, 2), Permutation.transposition(3, 2, 3)
SYSTEM = HurwitzSystem(3, (T12, T23, T23, T12))
TREFOIL = corpus_diagram("trefoil")
COLORING = enumerate_simple_colorings(TREFOIL, 3)[3]
KINKED = r1_add(TREFOIL, COLORING, 1, 1)  # the kink is crossing 3
POKED = r2_add(TREFOIL, COLORING, 2, 5)  # the poke is crossings 3 and 4
D3, T3 = dihedral_quandle(3), make_Td(3)
CIRCLE = Chart(3, False, (black(1, 0, True), cup(2, 1), cap(2, 1), black(1, 0, False)))
THREE_STRANDS = Chart(3, False, (
    black(1, 0, True), black(2, 1, True), black(1, 2, True),
    black(1, 2, False), black(2, 1, False), black(1, 0, False)))
WHITE_PAIR = white_pair_insert(THREE_STRANDS, 3, 0, 1, 2)
FAR_STRANDS = Chart(4, False, (black(1, 0, True), black(3, 1, True), black(3, 1, False), black(1, 0, False)))
CROSSING_PAIR = crossing_pair_insert(FAR_STRANDS, 2, 0, 1, 3)
BLACK_THEN_CROSSING = Chart(4, False, (
    black(3, 0, True), black(1, 0, True), crossing(1, 3, 0), black(1, 1, False), black(3, 0, False)))
BLACK_THEN_WHITE = Chart(3, False, (
    black(2, 0, True), black(1, 1, True), black(1, 0, True), white(1, 2, 0),
    black(2, 2, False), black(1, 1, False), black(2, 0, False)))
COMPONENT = SurfaceComponent(frozenset({1, 2, 3}), 0, 1)


class Int(NamedTuple):
    """An integer parameter: a value out of its range (None when every int
    is in range), and how a value reaches the call (by default as the
    argument itself; a sequence parameter carries it as one element)."""

    out_of_range: object = None
    place: Callable[[object], object] = lambda value: value


class Row(NamedTuple):
    """``fn(**args)`` is a valid call; each typed parameter is swept in turn."""

    fn: Callable
    args: dict
    ints: dict = {}
    flags: tuple = ()
    tuples: tuple = ()


def first_system(**kwargs):
    return next(iter_simple_closing_systems(**kwargs))


def seeded_chart(**kwargs):
    return random_chart(rng=random.Random(27), **kwargs)


def trefoil_edges(value):
    return ((value, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 3))


SIGN = Int(2)
DEGREE = Int(17)

TABLE = {
    # permutations
    "permutations.Permutation": Row(
        Permutation, {"images": (2, 1, 3)}, {"images": Int(4, lambda v: (2, v, 3))}, tuples=("images",)),
    "permutations.Permutation.identity": Row(Permutation.identity, {"d": 3}, {"d": DEGREE}),
    "permutations.Permutation.transposition": Row(
        Permutation.transposition, {"d": 4, "i": 1, "j": 2}, {"d": DEGREE, "i": Int(5), "j": Int(0)}),
    "permutations.Permutation.adjacent": Row(Permutation.adjacent, {"d": 4, "i": 1}, {"d": DEGREE, "i": Int(4)}),
    "permutations.Permutation.from_cycles": Row(
        Permutation.from_cycles, {"d": 4, "cycles": ((1, 2),)},
        {"d": DEGREE, "cycles": Int(5, lambda v: ((1, v),))}),
    "permutations.Permutation.__call__": Row(P3, {"point": 1}, {"point": Int(4)}),
    "permutations.Permutation.cycles": Row(P3.cycles, {"include_fixed": False}, flags=("include_fixed",)),
    "permutations.all_transpositions": Row(all_transpositions, {"d": 3}, {"d": DEGREE}),
    "permutations.orbits": Row(orbits, {"perms": (), "degree": 3}, {"degree": DEGREE}),
    "permutations.is_transitive": Row(is_transitive, {"perms": (), "degree": 3}, {"degree": DEGREE}),
    "permutations.parse_permutation": Row(parse_permutation, {"text": "(1 2)", "degree": 3}, {"degree": DEGREE}),
    "permutations.check_elements": Row(
        check_elements, {"flavor": "permutation", "degree": 3, "elements": ((0, T12),)}, {"degree": DEGREE}),
    # braids
    "braids.BraidWord": Row(
        BraidWord, {"degree": 3, "letters": (1, -2)},
        {"degree": DEGREE, "letters": Int(3, lambda v: (1, v))}, tuples=("letters",)),
    "braids.BraidWord.identity": Row(BraidWord.identity, {"d": 3}, {"d": DEGREE}),
    "braids.BraidWord.generator": Row(
        BraidWord.generator, {"d": 3, "i": 1, "sign": -1}, {"d": DEGREE, "i": Int(3), "sign": SIGN}),
    "braids.parse_braid": Row(parse_braid, {"text": "s1", "degree": 3}, {"degree": DEGREE}),
    # hurwitz
    "hurwitz.HurwitzSystem": Row(
        HurwitzSystem, {"degree": 3, "entries": (T12, T12)}, {"degree": DEGREE}, tuples=("entries",)),
    "hurwitz.HurwitzSystem.of_permutations": Row(
        HurwitzSystem.of_permutations, {"entries": (T12,), "degree": 3}, {"degree": DEGREE}),
    "hurwitz.HurwitzSystem.of_braids": Row(
        HurwitzSystem.of_braids, {"entries": (BraidWord(3, (1,)),), "degree": 3}, {"degree": DEGREE}),
    "hurwitz.hurwitz_move": Row(hurwitz_move, {"s": SYSTEM, "k": 0}, {"k": Int(3)}),
    "hurwitz.replay_trace": Row(
        replay_trace, {"s": SYSTEM, "trace": (("H", 0, "forward"),)},
        {"trace": Int(3, lambda v: (("H", v, "forward"),))}),
    "hurwitz.normal_form_template": Row(normal_form_template, {"degree": 4, "n": 8}, {"degree": DEGREE, "n": Int(3)}),
    "hurwitz.hc_equivalent": Row(hc_equivalent, {"s": SYSTEM, "t": SYSTEM, "budget": 10}, {"budget": Int(-1)}),
    "hurwitz.iter_simple_closing_systems": Row(
        first_system, {"degree": 3, "n": 4, "transitive_only": True},
        {"degree": DEGREE, "n": Int()}, flags=("transitive_only",)),
    # covering
    "covering.SurfaceComponent": Row(
        SurfaceComponent, {"sheets": frozenset({1, 2, 3}), "euler_characteristic": 0, "genus": 1},
        {"euler_characteristic": Int(4), "genus": Int(2)}),
    "covering.CoveringSurface": Row(
        CoveringSurface, {"degree": 3, "branch_count": 6, "components": (COMPONENT,)},
        {"degree": DEGREE, "branch_count": Int(-1)}, tuples=("components",)),
    # charts
    "charts.ChartEvent": Row(
        ChartEvent, {"kind": "black", "position": 0, "labels": (1,), "insert": True, "sign": 1},
        {"position": Int(-1), "labels": Int(0, lambda v: (v,)), "sign": SIGN},
        flags=("insert",), tuples=("labels",)),
    "charts.black": Row(
        black, {"label": 1, "position": 0, "insert": False, "sign": -1},
        {"label": Int(0), "position": Int(-1), "sign": SIGN}, flags=("insert",)),
    "charts.white": Row(white, {"i": 1, "j": 2, "position": 0}, {"i": Int(0), "j": Int(0), "position": Int(-1)}),
    "charts.crossing": Row(crossing, {"i": 1, "j": 3, "position": 0}, {"i": Int(0), "j": Int(0), "position": Int(-1)}),
    "charts.cup": Row(cup, {"label": 1, "position": 0, "sign": 1}, {"label": Int(0), "position": Int(-1), "sign": SIGN}),
    "charts.cap": Row(cap, {"label": 1, "position": 0}, {"label": Int(0), "position": Int(-1)}),
    "charts.Chart": Row(
        Chart, {"degree": 3, "oriented": False, "events": CIRCLE.events}, {"degree": DEGREE},
        flags=("oriented",), tuples=("events",)),
    "charts.apply_chart_move": Row(
        lambda **site: apply_chart_move(CIRCLE, "cup-cap-cancel", **site), {"at": 1}, {"at": Int(5)}),
    "charts.cup_cap_cancel": Row(cup_cap_cancel, {"chart": CIRCLE, "at": 1}, {"at": Int(3)}),
    "charts.cup_cap_insert": Row(
        cup_cap_insert, {"chart": CIRCLE, "at": 1, "position": 0, "label": 2, "sign": 1},
        {"at": Int(5), "position": Int(5), "label": Int(3), "sign": SIGN}),
    "charts.white_pair_cancel": Row(white_pair_cancel, {"chart": WHITE_PAIR, "at": 3}, {"at": Int(7)}),
    "charts.white_pair_insert": Row(
        white_pair_insert, {"chart": THREE_STRANDS, "at": 3, "position": 0, "i": 1, "j": 2},
        {"at": Int(7), "position": Int(5), "i": Int(3), "j": Int(3)}),
    "charts.crossing_pair_cancel": Row(crossing_pair_cancel, {"chart": CROSSING_PAIR, "at": 2}, {"at": Int(5)}),
    "charts.crossing_pair_insert": Row(
        crossing_pair_insert, {"chart": FAR_STRANDS, "at": 2, "position": 0, "i": 1, "j": 3},
        {"at": Int(5), "position": Int(5), "i": Int(4), "j": Int(4)}),
    "charts.event_swap": Row(event_swap, {"chart": CIRCLE, "at": 0}, {"at": Int(3)}),
    "charts.black_through_crossing": Row(
        black_through_crossing, {"chart": BLACK_THEN_CROSSING, "at": 1}, {"at": Int(4)}),
    "charts.black_into_white": Row(black_into_white, {"chart": BLACK_THEN_WHITE, "at": 2}, {"at": Int(6)}),
    "charts.patch_rewrite": Row(
        patch_rewrite, {"chart": CIRCLE, "start": 1, "end": 3, "replacement": ()},
        {"start": Int(5), "end": Int(5)}),
    # links
    "links.LinkDiagram": Row(
        LinkDiagram, {"crossings": TREFOIL.crossings, "free_loops": 1},
        {"crossings": Int(-1, trefoil_edges), "free_loops": Int(-1)}, tuples=("crossings",)),
    "links.LinkDiagram.crossing_sign": Row(TREFOIL.crossing_sign, {"k": 2}, {"k": Int(3)}),
    "links.LinkDiagram.edge_head": Row(TREFOIL.edge_head, {"edge": 1}, {"edge": Int(99)}),
    "links.LinkDiagram.arc_of": Row(TREFOIL.arc_of, {"edge": 1}, {"edge": Int(99)}),
    "links.braid_closure_pd": Row(
        braid_closure_pd, {"letters": (1, -1, 1), "strands": 2},
        {"letters": Int(2, lambda v: (1, v)), "strands": Int(1)}),
    "links.SimpleColoring": Row(
        SimpleColoring, {"degree": 3, "flavor": "permutation", "assignment": {1: T12}},
        {"degree": DEGREE, "assignment": Int(None, lambda v: {v: T12})}),
    "links.enumerate_simple_colorings": Row(
        enumerate_simple_colorings, {"dg": TREFOIL, "d": 3}, {"d": DEGREE}),
    "links.Tangle": Row(
        Tangle, {"crossings": ((1, 4, 2, 5),), "wires": ((6, 7),)},
        {"crossings": Int(-1, lambda v: ((v, 4, 2, 5),)), "wires": Int(-1, lambda v: ((6, v),))},
        tuples=("crossings", "wires")),
    "links.extract_tangle": Row(extract_tangle, {"dg": TREFOIL, "sites": (0,)}, {"sites": Int(3, lambda v: (v,))}),
    "links.montesinos_replace": Row(
        montesinos_replace,
        {"dg": TREFOIL, "coloring": COLORING, "sites": (0,), "replacement": Tangle((TREFOIL.crossings[0],)),
         "replacement_colors": {e: COLORING.assignment[TREFOIL.arc_of(e)] for e in TREFOIL.crossings[0]}},
        {"sites": Int(3, lambda v: (v,))}),
    "links.flat_tangle": Row(flat_tangle, {"n": 3}, {"n": Int(0)}),
    "links.twist_boundary_colors": Row(twist_boundary_colors, {"a": T12, "b": T23, "n": 3}, {"n": Int(0)}),
    "links.r1_add": Row(
        r1_add, {"dg": TREFOIL, "coloring": COLORING, "edge": 1, "sign": -1}, {"edge": Int(99), "sign": SIGN}),
    "links.r1_remove": Row(r1_remove, {"dg": KINKED[0], "coloring": KINKED[1], "site": 3}, {"site": Int(4)}),
    "links.r2_add": Row(
        r2_add, {"dg": TREFOIL, "coloring": COLORING, "over_edge": 2, "under_edge": 5},
        {"over_edge": Int(99), "under_edge": Int(99)}),
    "links.r2_remove": Row(
        r2_remove, {"dg": POKED[0], "coloring": POKED[1], "sites": (3, 4)},
        {"sites": Int(5, lambda v: (3, v))}, tuples=("sites",)),
    "links.find_simple_lift": Row(
        find_simple_lift, {"dg": TREFOIL, "f": COLORING, "conjugator_bound": 1, "budget": 1000},
        {"conjugator_bound": Int(-1), "budget": Int(-1)}),
    # quandles
    "quandles.FiniteQuandle": Row(
        FiniteQuandle, {"op": ((0,),), "names": ("x",)}, {"op": Int(1, lambda v: ((v,),))},
        tuples=("op", "names")),
    "quandles.FiniteQuandle.apply": Row(D3.apply, {"x": 0, "y": 1}, {"x": Int(3), "y": Int(3)}),
    "quandles.FiniteQuandle.inverse_apply": Row(D3.inverse_apply, {"x": 0, "y": 1}, {"x": Int(3), "y": Int(3)}),
    "quandles.FiniteQuandle.name": Row(T3.name, {"x": 2}, {"x": Int(3)}),
    "quandles.trivial_quandle": Row(trivial_quandle, {"n": 2}, {"n": Int(-1)}),
    "quandles.dihedral_quandle": Row(dihedral_quandle, {"n": 3}, {"n": Int(-1)}),
    "quandles.make_Td": Row(make_Td, {"d": 3}, {"d": DEGREE}),
    "quandles.is_quandle_homomorphism": Row(
        is_quandle_homomorphism, {"p": (0, 1, 2), "source": D3, "target": D3}, {"p": Int(3, lambda v: (0, 1, v))}),
    "quandles.lift_through_surjection": Row(
        lift_through_surjection,
        {"p": (0, 1, 2), "source": T3, "target": T3, "dg": TREFOIL, "coloring": {1: 0, 2: 0, 4: 0}},
        {"p": Int(3, lambda v: (0, 1, v)), "coloring": Int(3, lambda v: {1: v, 2: 0, 4: 0})}),
    "quandles.lift_to_Ad": Row(
        lift_to_Ad, {"dg": TREFOIL, "coloring": COLORING, "conjugator_bound": 1, "budget": 1000},
        {"conjugator_bound": Int(-1), "budget": Int(-1)}),
    # the helpers only the tests call (tests/oracles.py), which check their
    # arguments as the package's functions do
    "oracles.product": Row(product, {"perms": (P3,), "degree": 3}, {"degree": DEGREE}),
    "oracles.random_chart": Row(
        seeded_chart, {"degree": 3, "size": 6, "oriented": True}, {"degree": DEGREE, "size": Int(-1)},
        flags=("oriented",)),
    "oracles.montesinos_pair_check": Row(montesinos_pair_check, {"d": 3}, {"d": DEGREE}),
    "oracles.td_coloring_to_simple": Row(
        td_coloring_to_simple, {"dg": TREFOIL, "d": 3, "coloring": {1: 0, 2: 0, 4: 0}},
        {"d": DEGREE, "coloring": Int(3, lambda v: {1: v, 2: 0, 4: 0})}),
}

# Out-of-range values that raise another error on purpose, pinned elsewhere.
PINNED = {
    "hurwitz.hurwitz_move": IndexError,  # tests/test_hurwitz.py::TestMoves::test_out_of_range
    "hurwitz.replay_trace": IndexError,  # replays hurwitz_move
}

# Public callables with typed parameters that take no argument from outside.
EXEMPT = {
    "permutations.ParseError": "an error class; the parsers give it the position they reached",
    "permutations.Flavor": "a row of the FLAVORS table, built once per process",
    "braids.free_reduce": "a word operation on letters the package has checked: products, "
                          "inverses and parse_braid tokens; a BraidWord built from any other checks them",
    "charts.ChartError": "an error class; the chart sweep gives it the index of the event it stopped at",
    "charts.MoveError": "an error class (a ChartError)",
    "charts.SiteError": "an error class (a MoveError)",
    "charts.SweepRecord": "a result record of sweep_record",
    "charts.ChartReport": "a result record of validate_chart",
    "charts.OrientationResult": "a result record of chart_orientable",
    "links.CrossingRelation": "a result record of LinkDiagram.crossing_relations",
    "links.LiftSearchResult": "a result record of find_simple_lift",
    "quandles.QuandleReport": "a result record of quandle_validate",
}

MODULES = ("permutations", "braids", "hurwitz", "covering", "charts", "links", "quandles", "cli")


def call(name: str, **overrides):
    row = TABLE[name]
    return row.fn(**{**row.args, **overrides})


def as_lists(value):
    return [as_lists(v) for v in value] if type(value) is tuple else value


# -- the sweep -----------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(TABLE))
def test_valid_arguments_are_accepted(name):
    call(name)


INT_CASES = [(name, param) for name, row in sorted(TABLE.items()) for param in row.ints]


@pytest.mark.parametrize("name, param", INT_CASES, ids=[f"{n}-{p}" for n, p in INT_CASES])
@pytest.mark.parametrize("value", [True, 1.0, "1"], ids=repr)
def test_integer_parameter_refuses_a_non_int(name, param, value):
    spec = TABLE[name].ints[param]
    with pytest.raises(ValueError, match=re.escape(repr(value))):
        call(name, **{param: spec.place(value)})


OUT_OF_RANGE = [(name, param) for name, param in INT_CASES if TABLE[name].ints[param].out_of_range is not None]


@pytest.mark.parametrize("name, param", OUT_OF_RANGE, ids=[f"{n}-{p}" for n, p in OUT_OF_RANGE])
def test_integer_parameter_refuses_an_out_of_range_value(name, param):
    spec = TABLE[name].ints[param]
    with pytest.raises(PINNED.get(name, ValueError)):
        call(name, **{param: spec.place(spec.out_of_range)})


FLAG_CASES = [(name, param) for name, row in sorted(TABLE.items()) for param in row.flags]


@pytest.mark.parametrize("name, param", FLAG_CASES, ids=[f"{n}-{p}" for n, p in FLAG_CASES])
@pytest.mark.parametrize("value", ["no", 1], ids=repr)
def test_flag_refuses_a_non_bool(name, param, value):
    with pytest.raises(ValueError, match=re.escape(repr(value))):
        call(name, **{param: value})


TUPLE_CASES = [(name, param) for name, row in sorted(TABLE.items()) for param in row.tuples]


@pytest.mark.parametrize("name, param", TUPLE_CASES, ids=[f"{n}-{p}" for n, p in TUPLE_CASES])
def test_tuple_field_given_as_lists(name, param):
    built = call(name)
    listed = call(name, **{param: as_lists(TABLE[name].args[param])})
    assert listed == built and hash(listed) == hash(built)


# -- tooling: the table covers the typed public API --------------------------


def public_callables():
    """(qualified name, function or class) for every public callable the
    package modules define, public methods and ``__call__`` included."""
    for module_name in MODULES:
        module = importlib.import_module(f"branchcover.{module_name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj) or inspect.isclass(obj):
                yield f"{module_name}.{name}", obj
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    function = getattr(member, "__func__", member)  # static methods
                    if (not attr.startswith("_") or attr == "__call__") and inspect.isfunction(function):
                        yield f"{module_name}.{name}.{attr}", function


def typed_parameters(fn) -> dict[str, str]:
    """Parameter -> annotation, for those annotated with an int, a bool or a tuple."""
    try:
        parameters = inspect.signature(fn).parameters.values()
    except (TypeError, ValueError):
        return {}
    return {p.name: str(p.annotation) for p in parameters if re.search(r"\b(int|bool|tuple)\b", str(p.annotation))}


PUBLIC = dict(public_callables())
TYPED = {name: params for name, fn in PUBLIC.items() if (params := typed_parameters(fn))}


def test_every_typed_public_callable_is_swept_or_exempt():
    assert sorted(set(TYPED) - set(TABLE) - set(EXEMPT)) == []
    assert set(TABLE) & set(EXEMPT) == set()
    assert sorted(set(EXEMPT) - set(TYPED)) == []


def test_no_package_name_is_exempt():
    for name in branchcover.__all__:
        qualified = f"{branchcover._MODULE_OF[name]}.{name}"
        typed = [t for t in TYPED if t == qualified or t.startswith(qualified + ".")]
        assert set(typed) <= set(TABLE), name


@pytest.mark.parametrize("name", sorted(set(TABLE) & set(TYPED)))
def test_rows_sweep_every_scalar_integer_and_flag(name):
    row = TABLE[name]
    params = TYPED[name]
    scalars = {p for p, a in params.items() if re.fullmatch(r"Optional\[int\]|int( \| None)?", a)}
    flags = {p for p, a in params.items() if re.fullmatch(r"Optional\[bool\]|bool", a)}
    assert scalars <= set(row.ints) and flags == set(row.flags)
    assert set(row.ints) | set(row.flags) | set(row.tuples) <= set(inspect.signature(PUBLIC[name]).parameters)


# -- tooling: one exact-int gate -------------------------------------------------

SOURCE = pathlib.Path(branchcover.__file__).parent
GATES = ("_exact_int", "_exact_ints", "_exact_bool")
ALLOWED = set()


def exact_type_tests(path: pathlib.Path):
    """Source segments of ``type(x) is [not] int|bool`` and ``isinstance(x,
    ...bool...)`` outside the gate helpers."""
    text = path.read_text()
    tree = ast.parse(text)
    skipped = [
        range(node.lineno, node.end_lineno + 1)
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and path.name == "permutations.py" and node.name in GATES
    ]
    for node in ast.walk(tree):
        found = False
        if isinstance(node, ast.Compare) and isinstance(node.left, ast.Call):
            func = node.left.func
            found = (
                isinstance(func, ast.Name) and func.id == "type"
                and all(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)
                and any(isinstance(c, ast.Name) and c.id in ("int", "bool") for c in node.comparators)
            )
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance":
            found = len(node.args) == 2 and "bool" in ast.unparse(node.args[1])
        if found and not any(node.lineno in lines for lines in skipped):
            yield ast.get_source_segment(text, node)


def test_the_gate_helpers_hold_the_only_exact_type_tests():
    found = {(path.name, segment) for path in sorted(SOURCE.glob("*.py")) for segment in exact_type_tests(path)}
    assert found == ALLOWED
    helpers = ast.parse((SOURCE / "permutations.py").read_text())
    assert set(GATES) <= {node.name for node in helpers.body if isinstance(node, ast.FunctionDef)}


@pytest.mark.parametrize("snippet", [
    "type(x) is not int", "type(x) is int", "type(x) is bool", "type(x) is not bool",
    "isinstance(x, bool)", "isinstance(x, (int, bool))",
])
def test_the_scan_sees_each_form(tmp_path, snippet):
    path = tmp_path / "module.py"
    path.write_text(f"def f(x):\n    return {snippet}\n")
    assert list(exact_type_tests(path)) == [snippet]
