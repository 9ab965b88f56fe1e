"""Workload operations: seeded inputs, the library call, and its check.

An operation keeps its input as plain data.  ``prepare`` turns it into
library objects (untimed, once per pass, so objects that cache derived data
start cold every pass), ``call`` is the timed library call, and ``check``
compares the answer with this package's oracles and returns "ok", "fail" or
"undecided".  Library functions are looked up on their modules at call time,
so the tracer's wrappers see every call.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import random
import subprocess
import sys
import xml.etree.ElementTree as ET
from typing import Any, Callable

from . import gen
from . import oracles as O

OK, FAIL, UNDECIDED = "ok", "fail", "undecided"

EQUIV_BUDGET = 2000  # nodes the braid-equiv search may explore before answering UNKNOWN


@dataclasses.dataclass
class Op:
    kind: str  # operation kind, e.g. "nf" or "orient-neg"
    layer: str  # the module whose fail count a failed check raises
    bucket: str | None  # size-bucket metric this op's latency feeds
    data: Any  # plain input, hashed into the input digest
    prepare: Callable[[], tuple]
    call: Callable[..., Any]
    check: Callable[[Any], str]
    detail: dict = dataclasses.field(default_factory=dict)  # counts read by the tracer


def verdict(ok):
    return OK if ok else FAIL


class Library:
    """The branchcover modules, imported from the checkout."""

    def __init__(self):
        from branchcover import braids, charts, covering, hurwitz, links, permutations, quandles

        self.permutations, self.braids, self.hurwitz = permutations, braids, hurwitz
        self.covering, self.charts, self.links, self.quandles = covering, charts, links, quandles

    def perm_system(self, entries, d):
        P = self.permutations.Permutation
        return self.hurwitz.HurwitzSystem.of_permutations([P(e) for e in entries], d)

    def braid_system(self, entries, d):
        B = self.braids.BraidWord
        return self.hurwitz.HurwitzSystem.of_braids([B(d, w) for w in entries], d)

    def chart(self, d, events, oriented=False):
        C = self.charts
        return C.Chart(d, oriented, tuple(C.ChartEvent(k, p, l, i, s) for k, p, l, i, s in events))

    def coloring(self, d, coloring):
        P = self.permutations.Permutation
        return self.links.SimpleColoring(d, "permutation", {a: P(c) for a, c in coloring.items()})


def chart_events(chart):
    return tuple((e.kind, e.position, tuple(e.labels), e.insert, e.sign) for e in chart.events)


# -- hurwitz ---------------------------------------------------------------------

NF_BUCKETS = {(4, 8): "hurwitz.nf_ms.d4n8", (8, 40): "hurwitz.nf_ms.d8n40", (16, 76): "hurwitz.nf_ms.d16n76"}
# (d, n) cells of scrambled templates and how many per pass.  A normal form
# of one (16, 76) scramble costs anywhere from 0.02 s to 0.33 s, so the big
# cells get one op each and the (4, 8) family carries most of the pass, as
# it carries most of tier-1.
GRID = {(3, 6): 4, (4, 8): 4, (6, 16): 4, (8, 40): 3, (16, 76): 1}
FAMILY_OPS = 2000
BLOCKS = ((3, 6, 3, 6), (4, 8, 3, 6), (4, 8, 4, 8), (5, 10, 3, 8))
ENUM_CELLS = ((3, 8), (4, 6))


def nf_op(lib, entries, d):
    def check(res):
        nf, trace = res
        plain = [("C", s[1].images) if s[0] == "C" else s for s in trace]
        return verdict(O.check_normal_form(entries, d, [e.images for e in nf.entries], plain))

    return Op("nf", "hurwitz", NF_BUCKETS.get((d, len(entries))), (d, entries),
              lambda: (lib.perm_system(entries, d),), lambda s: lib.hurwitz.hc_normal_form(s), check)


def equiv_op(lib, a, b, d, expected):
    return Op("equiv", "hurwitz", None, (d, a, b, expected),
              lambda: (lib.perm_system(a, d), lib.perm_system(b, d)),
              lambda s, t: lib.hurwitz.hc_equivalent(s, t),
              lambda res: verdict(res.name == expected))


@functools.lru_cache(maxsize=None)
def closing_count(d, n):
    return O.count_closing_systems(d, n)


def enum_op(lib, d, n):
    def check(count):
        return verdict(count == closing_count(d, n))

    return Op("enum", "hurwitz", None, (d, n), lambda: (),
              lambda: sum(1 for _ in lib.hurwitz.iter_simple_closing_systems(d, n)), check)


def cover_op(lib, entries, d, components):
    def check(surface):
        got = [(c.sheets, c.genus) for c in surface.components]
        return verdict(O.check_covering(got, components) and surface.branch_count == len(entries))

    return Op("cover", "covering", None, (d, entries, components),
              lambda: (lib.perm_system(entries, d),), lambda s: lib.covering.build_covering(s), check)


def hurwitz_ops(lib, rng):
    ops = [nf_op(lib, gen.family_member(rng, 4, 8), 4) for _ in range(FAMILY_OPS)]
    for (d, n), count in GRID.items():
        ops += [nf_op(lib, gen.scrambled_template(rng, d, n), d) for _ in range(count)]
    for _ in range(4):
        a, b = gen.family_member(rng, 4, 8), gen.family_member(rng, 4, 8)
        ops.append(equiv_op(lib, a, b, 4, "EQUIVALENT"))
    for _ in range(2):
        a, b = gen.scrambled_template(rng, 6, 16), gen.scrambled_template(rng, 6, 16)
        ops.append(equiv_op(lib, a, b, 6, "EQUIVALENT"))
    for d1, n1, d2, n2 in BLOCKS:
        a, d, components = gen.block_sum(rng, d1, n1, d2, n2)
        ops.append(equiv_op(lib, a, gen.scrambled_template(rng, d, n1 + n2), d, "DISTINCT"))
        ops.append(cover_op(lib, a, d, components))
    for d, n in list(GRID)[:4]:
        entries = gen.scrambled_template(rng, d, n)
        ops.append(cover_op(lib, entries, d, [(tuple(range(1, d + 1)), O.genus(d, n))]))
    ops += [enum_op(lib, d, n) for d, n in ENUM_CELLS]
    return ops


# -- braids-links -------------------------------------------------------------------

KEY_LENGTHS = (8, 16, 32, 48, 64)


def key_op(lib, d, u, v, expected):
    B = lib.braids.BraidWord
    return Op("key", "braids", f"braids.key_ms.len{len(u)}", (d, u, v, expected),
              lambda: (B(d, u), B(d, v)), lambda a, b: lib.braids.braids_equal(a, b),
              lambda res: verdict(res is expected))


def simple_op(lib, d, w, expected):
    def check(res):
        if res.name == "UNDETERMINED":
            return UNDECIDED
        return verdict(res.name == expected)

    B = lib.braids.BraidWord
    return Op("simple", "hurwitz", None, (d, w, expected), lambda: (B(d, w),),
              lambda x: lib.hurwitz.braid_simplicity(x), check)


def braid_equiv_op(lib, d, s, t, expected):
    def check(res):
        if res.name == "UNKNOWN":
            return UNDECIDED
        return verdict(res.name == expected)

    return Op("braid-equiv", "hurwitz", None, (d, s, t, expected),
              lambda: (lib.braid_system(s, d), lib.braid_system(t, d)),
              lambda a, b: lib.hurwitz.hc_equivalent(a, b, budget=EQUIV_BUDGET), check)


def color_op(lib, pd, d):
    def call(dg):
        simple = lib.links.enumerate_simple_colorings(dg, d)
        return simple, lib.quandles.quandle_colorings(dg, lib.quandles.make_Td(d))

    def check(res):
        simple, quandle = res
        if len(simple) != len(quandle) or (d == 3 and len(simple) != O.fox_count(pd)):
            return FAIL
        valid = all(
            O.check_transposition_coloring(pd, {a: p.images for a, p in c.assignment.items()})
            for c in simple
        )
        return verdict(valid and len({frozenset(c.assignment.items()) for c in simple}) == len(simple))

    return Op("color", "links", None, (pd, d), lambda: (lib.links.LinkDiagram(pd),), call, check)


def lift_op(lib, pd, d, base):
    def check(res):
        if res.lift is None:
            return UNDECIDED  # exhausted, or no lift within the conjugator bound
        lifted = {a: w.letters for a, w in res.lift.assignment.items()}
        return verdict(O.check_braid_lift(d, pd, base, lifted))

    return Op("lift", "links", None, (pd, d, base),
              lambda: (lib.links.LinkDiagram(pd), lib.coloring(d, base)),
              lambda dg, f: lib.links.find_simple_lift(dg, f), check)


def surjection_op(lib, pd, source, target, p, coloring):
    def check(res):
        lifts = list(O.surjection_lifts(pd, source, p, coloring))
        if res is None:
            return verdict(not lifts)
        return verdict(res in lifts)

    FQ = lib.quandles.FiniteQuandle
    return Op("qlift", "quandles", None, (pd, source, target, p, coloring),
              lambda: (p, FQ(source), FQ(target), lib.links.LinkDiagram(pd), dict(coloring)),
              lambda *a: lib.quandles.lift_through_surjection(*a), check)


def td_op(lib, d):
    def call():
        q = lib.quandles.make_Td(d)
        return q, lib.quandles.quandle_validate(q)

    def check(res):
        q, report = res
        elements = [O.parse_cycles(name, d) for name in q.names]
        index = {e: k for k, e in enumerate(elements)}
        if not report.valid or sorted(elements) != sorted(gen.transposition_quandle(d)[0]):
            return FAIL
        return verdict(all(q.op[x][y] == index[O.conj(ex, ey)]
                           for x, ex in enumerate(elements) for y, ey in enumerate(elements)))

    return Op("qvalidate", "quandles", None, d, lambda: (), call, check)


def reidemeister_op(lib, pd, d, base, kink_edge, sign, over, under):
    def call(dg, f):
        dg1, f1 = lib.links.r1_add(dg, f, kink_edge, sign)
        return dg1, lib.links.r2_add(dg1, f1, over, under)

    def check(res):
        dg1, (dg2, f2) = res
        crossings = tuple(dg2.crossings)
        colors = {a: p.images for a, p in f2.assignment.items()}
        if len(dg1.crossings) != len(pd) + 1 or len(crossings) != len(pd) + 3:
            return FAIL
        if not O.check_transposition_coloring(crossings, colors):
            return FAIL
        old, new = O.pd_arcs(pd), O.pd_arcs(crossings)
        return verdict(all(colors[new[e]] == base[old[e]] for e in old if e in new))

    return Op("reidemeister", "links", None, (pd, d, base, kink_edge, sign, over, under),
              lambda: (lib.links.LinkDiagram(pd), lib.coloring(d, base)), call, check)


def oriented_closure(rng, strands, crossings, colored):
    """A closure every component of which passes under somewhere."""
    while True:
        if colored:
            w, pd, fox = gen.colored_closure(rng, strands, crossings)
        else:
            w, pd = gen.random_closure(rng, strands, crossings)
            fox = None
        try:
            O.pd_signs(pd)
        except ValueError:
            continue
        return pd, fox


def stratified(rng, low, high, count):
    """``count`` sizes, one drawn from each of ``count`` equal slices of [low, high)."""
    return [int(low + (high - low) * (k + rng.random()) / count) for k in range(count)]


def braids_links_ops(lib, rng):
    # Counts put the 90th percentile inside the length-64 keys and the
    # median inside the degree-3 colorings of 9-crossing closures.
    ops = []
    for length in KEY_LENGTHS:
        for d in (3, 4, 5) * (4 if length == 64 else 1):
            u = gen.capped_word(rng, d, length)
            if rng.random() < 0.7:
                ops.append(key_op(lib, d, u, gen.respell(rng, u, length // 2), True))
            else:
                x = rng.randrange(1, d) * rng.choice((1, -1))
                ops.append(key_op(lib, d, u, gen.respell(rng, u + (x,), length // 2), False))
    # Conjugator length and degree are stratified: the search cost of a
    # simple conjugate depends mostly on them.
    for conjugator in range(4):
        for d in (3, 4, 5):
            for _ in range(2):
                ops.append(simple_op(lib, d, gen.simple_conjugate(rng, d, conjugator), "SIMPLE"))
    for d in (3, 4, 5):
        for _ in range(2):
            ops.append(simple_op(lib, d, gen.nonsimple_word(rng, d), "NOT_SIMPLE"))
    ops.append(simple_op(lib, 3, gen.hard_nonsimple(rng), "NOT_SIMPLE"))
    for d in (3, 4, 3, 4, 3, 4):
        s = tuple(gen.simple_conjugate(rng, d, 1) for _ in range(4))
        ops.append(braid_equiv_op(lib, d, s, gen.braid_system_moves(rng, s, 1), "EQUIVALENT"))
    s, t = gen.distinct_braid_pair(rng)
    ops.append(braid_equiv_op(lib, 3, s, t, "DISTINCT"))
    for pd in gen.KNOTS.values():
        ops.append(color_op(lib, pd, 3))
    for _ in range(40):
        ops.append(color_op(lib, oriented_closure(rng, 3, 9, False)[0], 3))
    for crossings in (6, 9, 12):
        ops.append(color_op(lib, oriented_closure(rng, 3, crossings, False)[0], 4))
    for strands, crossings in ((2, 5), (3, 8)):
        pd, _ = oriented_closure(rng, strands, crossings, False)
        ops.append(lift_op(lib, pd, 2, {a: (2, 1) for a in set(O.pd_arcs(pd).values())}))
    # Lift cost swings from 0.05 s to 2.6 s between the transitive
    # 3-colorings of the trefoil alone, and beyond 8 s on other small
    # closures, so every pass lifts the same three: the colorings whose
    # colors, read arc by arc, are a rotation of (0, 1, 2).
    trefoil = gen.KNOTS["trefoil"]
    for fox in O.fox_colorings(trefoil):
        colors = tuple(fox[a] for a in sorted(fox))
        if colors in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            ops.append(lift_op(lib, trefoil, 3, gen.fox_to_transpositions(fox)))
    knots = list(gen.KNOTS.values())
    for source, target, p in gen.surjections():
        pd = rng.choice(knots[:2])
        coloring = rng.choice(list(gen.target_colorings(pd, target)))
        ops.append(surjection_op(lib, pd, source, target, p, coloring))
    ops.append(td_op(lib, rng.choice((4, 5, 6))))
    for crossings in (4, 6, 8):
        pd, fox = oriented_closure(rng, 3, crossings, True)
        edges = sorted({e for q in pd for e in q})
        over, under = rng.sample(edges, 2)
        ops.append(reidemeister_op(lib, pd, 3, gen.fox_to_transpositions(fox), rng.choice(edges),
                                   rng.choice((1, -1)), over, under))
    return ops


# -- charts -------------------------------------------------------------------------------

ORIENT_PREFIXES = (12, 16, 20)
ORIENT_EDGES = {12: 4, 16: 5, 20: 6}  # independent edges of each orient-neg prefix
ORIENT_POS_MAX = 40  # events; see NOTES.md on the size cap


def validate_op(lib, d, events):
    blacks = sum(1 for ev in events if ev[0] == "black")
    return Op("validate", "charts", None, (d, events), lambda: (lib.chart(d, events),),
              lambda c: lib.charts.validate_chart(c),
              lambda r: verdict(r.valid and r.black_count == blacks))


def monodromy_op(lib, d, events):
    meridians = O.chart_sweep(d, events, False)[0]
    return Op("monodromy", "charts", None, (d, events), lambda: (lib.chart(d, events),),
              lambda c: lib.charts.chart_hurwitz_system(c),
              lambda s: verdict([e.images for e in s.entries] == meridians))


def move_op(lib, d, events, name, site, expected):
    meridians = O.chart_sweep(d, events, False)[0]

    def call(c, system):
        moved = lib.charts.apply_chart_move(c, name, **site)
        moved_system = lib.charts.chart_hurwitz_system(moved)
        return moved, moved_system, lib.hurwitz.hc_equivalent(system, moved_system)

    def check(res):
        moved, moved_system, eq = res
        if chart_events(moved) != expected:
            return FAIL
        after = O.chart_sweep(d, expected, False)[0]
        # Both systems are simple, closing and transitive with equal length,
        # so the classification theorem makes them equivalent.
        same_class = len(after) == len(meridians) and len(O.orbits(after, d)) == 1
        return verdict(same_class and [e.images for e in moved_system.entries] == after
                       and eq.name == "EQUIVALENT")

    return Op("move", "charts", None, (d, events, name, site),
              lambda: (lib.chart(d, events), lib.perm_system(meridians, d)), call, check)


def orient_op(lib, kind, d, events, bucket=None):
    _, _, segments = O.chart_sweep(d, events, False)

    def check(res):
        if kind == "orient-neg":
            return verdict(not res.orientable and res.witness is None)
        return verdict(res.orientable and O.check_witness(d, events, chart_events(res.witness)))

    return Op(kind, "charts", bucket, (d, events), lambda: (lib.chart(d, events),),
              lambda c: lib.charts.chart_orientable(c), check, {"segments": segments})


def charts_ops(lib, rng):
    # Counts put the median inside the monodromy ops, all of one size, and
    # the 90th percentile inside the orient-neg ops of the smallest prefix.
    ops = []
    for k, size in enumerate(stratified(rng, 20, 130, 20)):
        d = 3 + k % 3
        ops.append(validate_op(lib, d, gen.random_chart(rng, d, size, False)))
    for k in range(42):
        d = 3 + k % 3
        ops.append(monodromy_op(lib, d, gen.random_chart(rng, d, 60, False)))
    for k, size in enumerate(stratified(rng, 20, 60, 15)):
        d = 3 + k % 3
        events = gen.transitive_chart(rng, d, size)
        ops.append(move_op(lib, d, events, *gen.chart_move_site(rng, d, events)))
    for k, size in enumerate(stratified(rng, 12, ORIENT_POS_MAX - 8, 15)):
        d = 3 + k % 2
        events = gen.random_chart(rng, d, size, True)
        while len(events) > ORIENT_POS_MAX:
            events = gen.random_chart(rng, d, size, True)
        ops.append(orient_op(lib, "orient-pos", d, gen.forget(events)))
    for size in ORIENT_PREFIXES:
        for _ in range(4):
            prefix = gen.closed_prefix(rng, 3, size, ORIENT_EDGES[size])
            ops.append(orient_op(lib, "orient-neg", 3, prefix + gen.GADGET, f"charts.orient_neg_ms.prefix{size}"))
    return ops


# -- cli -----------------------------------------------------------------------------------------

CLI_CALLS = ("normalize", "equiv-hc", "equiv-covering", "cover", "chart-validate", "chart-monodromy",
             "chart-orient", "chart-move", "color", "lift", "quandle-check", "quandle-lift", "render")


class CliFiles:
    """Input files for the CLI calls, written by setup into a scratch directory."""

    def __init__(self, rng, directory):
        self.dir = directory
        d, n = 4, 10
        self.system_a = gen.scrambled_template(rng, d, n)
        self.system_b = gen.scrambled_template(rng, d, n)
        self.block, self.block_d, self.block_components = gen.block_sum(rng, 3, 6, 3, 8)
        self.d = d
        self.chart_d = 4
        self.chart = gen.transitive_chart(rng, 4, 30)
        self.move = gen.chart_move_site(rng, 4, self.chart)
        while self.move[0] != "cup-cap-insert":
            self.move = gen.chart_move_site(rng, 4, self.chart)
        self.orient = gen.forget(gen.random_chart(rng, 3, 20, True))
        self.pd, _ = oriented_closure(rng, 3, 8, False)
        self.lift_base = {a: (2, 1) for a in set(O.pd_arcs(self.pd).values())}
        self.knot = gen.KNOTS["trefoil"]
        self.source, self.target, self.surjection = gen.surjections()[0]
        self.target_coloring = rng.choice(list(gen.target_colorings(self.knot, self.target)))
        self.t3 = gen.transposition_quandle(3)[1]
        self.inputs = (self.system_a, self.system_b, self.block, self.chart, self.move, self.orient,
                       self.pd, self.target_coloring)
        self.write()

    def path(self, name):
        return os.path.join(self.dir, name)

    def write(self):
        def system(entries, d):
            return {"degree": d, "flavor": "permutation", "entries": [O.cycle_text(e) for e in entries]}

        def chart(d, events):
            out = []
            for kind, p, labels, insert, sign in events:
                item = {"kind": kind, "position": p, "labels": list(labels)}
                if insert is not None:
                    item["insert"] = insert
                out.append(item)
            return {"degree": d, "oriented": False, "events": out}

        def table(t):
            return f"{len(t)}\n" + "\n".join(" ".join(map(str, row)) for row in t) + "\n"

        files = {
            "a.json": json.dumps(system(self.system_a, self.d)),
            "b.json": json.dumps(system(self.system_b, self.d)),
            "block.json": json.dumps(system(self.block, self.block_d)),
            "chart.json": json.dumps(chart(self.chart_d, self.chart)),
            "orient.json": json.dumps(chart(3, self.orient)),
            "link.pd": " ".join("X(%d,%d,%d,%d)" % q for q in self.pd),
            "lift.json": json.dumps({"degree": 2, "flavor": "permutation",
                                     "assignment": {str(a): "(1 2)" for a in self.lift_base}}),
            "knot.pd": " ".join("X(%d,%d,%d,%d)" % q for q in self.knot),
            "target.json": json.dumps({"assignment": {str(a): v for a, v in self.target_coloring.items()}}),
            "source.quandle": table(self.source),
            "target.quandle": table(self.target),
            "p.map": " ".join(map(str, self.surjection)),
            "t3.quandle": table(self.t3),
        }
        for name, text in files.items():
            with open(self.path(name), "w") as fh:
                fh.write(text)

    def argv(self, call):
        p = self.path
        name, site, _ = self.move
        return {
            "normalize": ["normalize", p("a.json")],
            "equiv-hc": ["equiv", p("a.json"), p("b.json")],
            "equiv-covering": ["equiv", p("a.json"), p("b.json"), "--mode", "covering"],
            "cover": ["cover", p("block.json")],
            "chart-validate": ["chart-validate", p("chart.json")],
            "chart-monodromy": ["chart-monodromy", p("chart.json")],
            "chart-orient": ["chart-orient", p("orient.json")],
            "chart-move": ["chart-move", p("chart.json"), "--move", name,
                           "--site", ",".join(f"{k}={v}" for k, v in site.items())],
            "color": ["color", p("knot.pd"), "-d", "3"],
            "lift": ["lift", p("link.pd"), p("lift.json")],
            "quandle-check": ["quandle-check", p("t3.quandle")],
            "quandle-lift": ["quandle-lift", p("knot.pd"), p("target.json"), "--source-table",
                             p("source.quandle"), "--target-table", p("target.quandle"),
                             "--surjection", p("p.map")],
            "render": ["render", p("chart.json")],
        }[call]

    def check(self, call, out):
        if call == "render":
            return ET.fromstring(out).tag.endswith("svg")
        data = json.loads(out)
        if call == "normalize":
            want = [O.cycle_text(e) for e in O.template(self.d, len(self.system_a))]
            return data["entries"] == want and isinstance(data["moves"], int)
        if call in ("equiv-hc", "equiv-covering"):
            return data == {"verdict": "equivalent"}
        if call == "cover":
            got = [(c["sheets"], c["genus"]) for c in data["components"]]
            return O.check_covering(got, self.block_components)
        if call == "chart-validate":
            return data["valid"] and data["black_count"] == sum(e[0] == "black" for e in self.chart)
        if call == "chart-monodromy":
            meridians = O.chart_sweep(self.chart_d, self.chart, False)[0]
            return data["entries"] == [O.cycle_text(m) for m in meridians]
        if call == "chart-orient":
            return data["orientable"] and O.check_witness(3, self.orient, _events(data["witness"]))
        if call == "chart-move":
            return _events(data) == self.move[2]
        if call == "color":
            return data["count"] == O.fox_count(self.knot)
        if call == "lift":
            lifted = {int(a): _braid_letters(t) for a, t in data["lift"]["assignment"].items()}
            return data["found"] and O.check_braid_lift(2, self.pd, self.lift_base, lifted)
        if call == "quandle-check":
            return data == {"valid": True, "error": None}
        lifts = list(O.surjection_lifts(self.knot, self.source, self.surjection, self.target_coloring))
        if not data["found"]:
            return not lifts
        return {int(a): v for a, v in data["lift"].items()} in lifts


def _events(chart_json):
    return tuple((e["kind"], e["position"], tuple(e["labels"]), e.get("insert"), e.get("sign"))
                 for e in chart_json["events"])


def _braid_letters(text):
    out = []
    for token in text.split():
        index, _, power = token[1:].partition("^")
        out.append(int(index) * (-1 if power == "-1" else 1))
    return tuple(out)


def cli_op(root, files, call):
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))

    def run():
        # No timeout: with one, subprocess polls for the exit in sleeps of up to 50 ms.
        return subprocess.run([sys.executable, "-m", "branchcover.cli", *files.argv(call)],
                              cwd=root, env=env, capture_output=True, text=True)

    def check(proc):
        if proc.returncode != 0:
            return FAIL
        try:
            return verdict(files.check(call, proc.stdout))
        except (ValueError, KeyError, TypeError, ET.ParseError):
            return FAIL

    return Op(f"cli:{call}", "cli", f"cli.{call}_ms", (call, files.inputs), lambda: (), run, check)


def cli_ops(root, rng, directory):
    files = CliFiles(rng, directory)
    return [cli_op(root, files, call) for call in CLI_CALLS]


WORKLOADS = ("hurwitz", "braids-links", "charts", "cli")


def build(workload, seed, lib, root, directory):
    """The fixed operation list of a workload for a seed, smallest inputs of each kind first."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "cli":
        return cli_ops(root, rng, directory)
    return {"hurwitz": hurwitz_ops, "braids-links": braids_links_ops, "charts": charts_ops}[workload](lib, rng)
