"""Independent cross-check constructions used only by the test suite.

These deliberately avoid the library's Riemann-Hurwitz style counting: the
covering surface is assembled as an explicit cell complex (cut copies of the
base sphere, glue the slit copies crosswise) and its cells are counted
directly, so agreement with the library is a two-route check.

The last section holds helpers only the tests call, which build on the
library's own rules: a random chart generator, the ordered product of
permutations, the Montesinos registration check and the T_d dictionary.
They check their arguments as the package's functions do.
"""

from __future__ import annotations

import functools
import itertools
import random
from typing import Iterable

from branchcover.charts import Chart, ChartError, ChartEvent, _sweep, black, cap, crossing, cup, white
from branchcover.hurwitz import HurwitzSystem
from branchcover.links import LinkError, SimpleColoring, twist_boundary_colors
from branchcover.permutations import (
    PERMUTATION,
    Permutation,
    _check_degree,
    _exact_bool,
    _exact_int,
    _exact_ints,
    all_transpositions,
    compose,
)
from branchcover.quandles import QuandleError


class _UnionFind:
    def __init__(self):
        self.parent = {}

    def find(self, x):
        p = self.parent.setdefault(x, x)
        while p != self.parent[p]:
            self.parent[p] = self.parent[self.parent[p]]
            p = self.parent[p]
        self.parent[x] = p
        return p

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def closing_transposition_tuples(d: int, n: int, transitive_only: bool) -> list[tuple]:
    """Brute force over all C(d, 2)^n tuples of transpositions of S_d, in
    ``itertools.product`` order.  Keeps those whose left-to-right product,
    computed on image tuples, is the identity and, when asked, those whose
    moved points one union-find joins into a single class."""
    identity = tuple(range(1, d + 1))
    out = []
    for combo in itertools.product(all_transpositions(d), repeat=n):
        images = identity
        for t in combo:
            images = tuple(t.images[x - 1] for x in images)
        if images != identity:
            continue
        if transitive_only:
            sheets = _UnionFind()
            for t in combo:
                for x, y in enumerate(t.images, 1):
                    sheets.union(x, y)
            if len({sheets.find(x) for x in identity}) != 1:
                continue
        out.append(combo)
    return out


def polygon_euler_data(s: HurwitzSystem) -> list[tuple[frozenset[int], int]]:
    """Cut-and-glue cell count for a closing permutation system.

    Model: slit the base sphere from the base point to each branch point;
    the complement is a disk, so the covering is d disk copies whose boundary
    sides (two per slit per sheet) are glued crosswise by the monodromy.
    Corners of the glued polygons are identified by walking the gluings, and
    V - E + F is returned per connected component, components being computed
    by union-find over the glued faces.
    """
    d, n = s.degree, len(s.entries)
    entries = s.entries

    faces = _UnionFind()
    for i in range(1, d + 1):
        faces.find(i)
    for a in entries:
        for i in range(1, d + 1):
            faces.union(i, a(i))

    corners = _UnionFind()
    # Corner identifications induced by gluing side R_k of sheet i to side
    # L_k of sheet a_k(i), reversing orientation:
    #   the branch-point corner of slit k on sheet i meets the one on a_k(i);
    #   the base-point corner after slit k on sheet i meets the one before
    #   slit k (cyclically) on sheet a_k(i).
    for k, a in enumerate(entries, start=1):
        for i in range(1, d + 1):
            corners.union(("y", k, i), ("y", k, a(i)))
            corners.union(("s", k % n, i), ("s", k - 1, a(i)))

    per_component_v: dict = {}
    for k in range(n):
        for i in range(1, d + 1):
            for corner in (("y", k + 1, i), ("s", k, i)):
                root = corners.find(corner)
                comp = faces.find(i)
                per_component_v.setdefault(comp, set()).add(root)

    components: dict = {}
    for i in range(1, d + 1):
        components.setdefault(faces.find(i), set()).add(i)

    out = []
    for comp, sheets in sorted(components.items(), key=lambda kv: min(kv[1])):
        f = len(sheets)
        e = n * len(sheets)
        v = len(per_component_v.get(comp, set()))
        if n == 0:
            # No slits: each sheet is an uncut sphere.
            out.append((frozenset(sheets), 2 * len(sheets)))
        else:
            out.append((frozenset(sheets), v - e + f))
    return out


def chart_cell_euler_data(chart) -> list[tuple[frozenset[int], int]]:
    """Literal cut-and-glue over a chart: d sheet copies of the base sphere,
    cells counted after gluing lifts across the labeled edges.

    To keep every face a disk, the base CW structure includes the sweep
    apparatus itself: one circle through infinity between consecutive events
    (its strand punctures are vertices), every event point is a vertex
    (cups and caps included), and the 2-cells are the gap patches of each
    band between circles.  Crossing a strand piece transitions sheets by the
    label's transposition; crossing a circle piece does not.  Every cell
    lifts d-fold except black vertices, which lift to the local cycle count
    d-1.  Returns (sheets, V - E + F) per connected component of the glued
    faces.
    """
    from branchcover.charts import sweep_record
    from branchcover.permutations import Permutation

    d = chart.degree
    record = sweep_record(chart)
    words = record.words
    T = len(chart.events)
    tau = {j: Permutation.adjacent(d, j) for j in range(1, d)}

    # Per-band gap classes: band b (1..T) contains event b-1 (0-based), its
    # lower word is words[b-1] and upper word words[b].
    band_uf = [None] * (T + 1)
    for b in range(1, T + 1):
        uf = _UnionFind()
        ev = chart.events[b - 1]
        w = words[b - 1]
        p = ev.position
        n_in, n_out = ev.arity()
        delta = n_out - n_in
        for g in range(len(w) + 1):
            uf.find(("lo", g))
        for g in range(len(words[b]) + 1):
            uf.find(("up", g))
        for g in range(0, p + 1):
            uf.union(("lo", g), ("up", g))
        for g in range(p + n_in, len(w) + 1):
            uf.union(("lo", g), ("up", g + delta))
        band_uf[b] = uf

    def cls(b, side, g):
        return (b, band_uf[b].find((side, g)))

    # Face cells (band class, sheet), glued across strand and circle pieces.
    faces = _UnionFind()
    for b in range(1, T + 1):
        for side, word in (("lo", words[b - 1]), ("up", words[b])):
            for q, (lab, _sign, _seg) in enumerate(word):
                for i in range(1, d + 1):
                    faces.union(
                        (cls(b, side, q), i), (cls(b, side, q + 1), tau[lab](i))
                    )
    for t in range(1, T):  # circle between events t-1 and t (0-based)
        for g in range(len(words[t]) + 1):
            for i in range(1, d + 1):
                faces.union((cls(t, "up", g), i), (cls(t + 1, "lo", g), i))

    face_keys = set()
    for b in range(1, T + 1):
        for side, word in (("lo", words[b - 1]), ("up", words[b])):
            for g in range(len(word) + 1):
                face_keys.add((cls(b, side, g)))
    all_faces = [(key, i) for key in face_keys for i in range(1, d + 1)]
    comp_of = {f: faces.find(f) for f in all_faces}

    counts: dict = {}
    # Sheets of a component are read off the fiber over the base point (the
    # top gap at infinity): patches elsewhere get relabeled across circle
    # edges, but the fiber indexing is the monodromy bookkeeping.
    sheets: dict = {}
    for i in range(1, d + 1):
        comp = comp_of[(cls(1, "lo", 0), i)]
        sheets.setdefault(comp, set()).add(i)

    def add(kind_index, face, delta_v=0, delta_e=0, delta_f=0):
        comp = comp_of[face]
        v, e, f = counts.get(comp, (0, 0, 0))
        counts[comp] = (v + delta_v, e + delta_e, f + delta_f)

    # F: one 2-cell per (band class, sheet).
    for face in all_faces:
        add(None, face, delta_f=1)

    # V and E.
    # the point at infinity (regular, d lifts), adjacent to band 1's patch
    for i in range(1, d + 1):
        add(None, (cls(1, "lo", 0), i), delta_v=1)
    # event vertices
    for b in range(1, T + 1):
        ev = chart.events[b - 1]
        flank = cls(b, "lo", ev.position)
        if ev.kind == "black":
            j = ev.labels[0]
            orbit_mins = [j] + [i for i in range(1, d + 1) if i not in (j, j + 1)]
            for i in orbit_mins:
                add(None, (flank, i), delta_v=1)
        else:
            for i in range(1, d + 1):
                add(None, (flank, i), delta_v=1)
    # circle puncture vertices and circle pieces
    for t in range(1, T):
        m = len(words[t])
        for q in range(m):
            for i in range(1, d + 1):
                add(None, (cls(t, "up", q), i), delta_v=1)
        for g in range(m + 1):
            for i in range(1, d + 1):
                add(None, (cls(t, "up", g), i), delta_e=1)
    # strand pieces: lower strands (pass-throughs and consumed stubs) plus
    # produced stubs
    for b in range(1, T + 1):
        ev = chart.events[b - 1]
        p = ev.position
        _, n_out = ev.arity()
        for q in range(len(words[b - 1])):
            for i in range(1, d + 1):
                add(None, (cls(b, "lo", q), i), delta_e=1)
        for q in range(p, p + n_out):
            for i in range(1, d + 1):
                add(None, (cls(b, "up", q), i), delta_e=1)

    out = []
    for comp, (v, e, f) in sorted(counts.items(), key=lambda kv: min(sheets[kv[0]])):
        out.append((frozenset(sheets[comp]), v - e + f))
    return out


def fox_three_colorings(dg) -> int:
    """Count Fox 3-colorings by modular arithmetic over the arcs.

    Uses the dihedral rule out = 2*over - in (mod 3), independent of the
    transposition-conjugation route in the library.
    """
    arcs = dg.arcs()
    count = 0
    import itertools

    for combo in itertools.product(range(3), repeat=len(arcs)):
        color = dict(zip(arcs, combo))
        ok = True
        for c in dg.crossing_relations():
            if (2 * color[c.over] - color[c.under_in]) % 3 != color[c.under_out]:
                ok = False
                break
        if ok:
            count += 1
    return count


def bounded_conjugacy_simple(w, max_conjugator_length: int = 6):
    """Is the braid w a conjugate of a generator or its inverse?  True, False
    or None (undecided), by screens and a bounded conjugator search.

    Exponent sum and projection certify False.  A breadth-first search over
    conjugates by up to ``max_conjugator_length`` generators, compared
    through free-group images, certifies True.  Exhaustion is None.
    """
    from branchcover import permutations
    from branchcover.braids import BraidWord, canonical_key, exponent_sum, project

    if exponent_sum(w) not in (1, -1):
        return False
    if not permutations.is_transposition(project(w)):
        return False
    d = w.degree
    targets = {canonical_key(BraidWord(d, (x,))) for i in range(1, d) for x in (i, -i)}
    start = canonical_key(w)
    if start in targets:
        return True
    seen = {start}
    frontier = [w]
    conjugators = [BraidWord(d, (x,)) for x in list(range(1, d)) + list(range(-1, -d, -1))]
    for _ in range(max_conjugator_length):
        next_frontier = []
        for u in frontier:
            for g in conjugators:
                v = u ** g
                key = canonical_key(v)
                if key in seen:
                    continue
                if key in targets:
                    return True
                seen.add(key)
                next_frontier.append(v)
        frontier = next_frontier
        if not frontier:
            break
    return None


def braid_projection_images(d: int, letters) -> tuple[int, ...]:
    """The image tuple of the left-to-right product of the adjacent
    transpositions (|x| |x|+1) of S_d over the letters x, composed one
    factor at a time on plain tuples: (a * b)(p) = b(a(p))."""
    images = tuple(range(1, d + 1))
    for x in letters:
        i = abs(x)
        swap = list(range(1, d + 1))
        swap[i - 1], swap[i] = i + 1, i
        images = tuple(swap[image - 1] for image in images)
    return images


def simple_braid_candidates(d: int, target, conjugator_bound: int) -> list:
    """The words of the lift pool ``links._simple_conjugates(d, bound)``
    whose carried projection pair is the two points the target moves."""
    from branchcover.links import _simple_conjugates

    moved = tuple(sorted(target.support()))
    return [w for w, pair in _simple_conjugates(d, conjugator_bound) if pair == moved]


def chart_entries_by_products(chart) -> list:
    """Meridian images of a permutation chart, each as the product
    pw (lab lab+1) pw^-1 of its prefix word pw, composed generator by
    generator (the direct reading of the sweep).

    The words come from a label-only replay of the events here, not from the
    library's sweep; the replay asserts the label ranges and distances, the
    positions, that every event finds the labels it names, and that the
    sweep closes.
    """
    d = chart.degree
    word: list[int] = []
    entries = []
    for ev in chart.events:
        p, labels = ev.position, ev.labels
        assert 0 <= p <= len(word) and all(1 <= l < d for l in labels), ev
        if ev.kind == "black":
            pw = product((Permutation.adjacent(d, l) for l in word[:p]), degree=d)
            entries.append(pw * Permutation.adjacent(d, labels[0]) * pw.inverse())
            if ev.insert:
                word.insert(p, labels[0])
            else:
                assert word[p] == labels[0], ev
                del word[p]
        elif ev.kind == "cup":
            word[p:p] = [labels[0]] * 2
        elif ev.kind == "cap":
            assert word[p : p + 2] == [labels[0]] * 2, ev
            del word[p : p + 2]
        elif ev.kind == "crossing":
            i, j = labels
            assert abs(i - j) > 1 and word[p : p + 2] == [i, j], ev
            word[p : p + 2] = [j, i]
        else:
            i, j = labels
            assert abs(i - j) == 1 and word[p : p + 3] == [i, j, i], ev
            word[p : p + 3] = [j, i, j]
    assert not word, word
    return entries


@functools.lru_cache(maxsize=None)
def white_sign_patterns(i: int, j: int) -> dict[tuple[int, int, int], tuple[int, int, int]]:
    """Admissible oriented readings of a white vertex with labels (i, j).

    Keys are the signs of the consumed strands (i, j, i); values are the signs
    of the produced strands (j, i, j).  Derived from the six rotations of the
    relator read around the vertex: consumed letters left to right, produced
    letters reversed with signs flipped.
    """
    out: dict[tuple[int, int, int], tuple[int, int, int]] = {}
    base_signs = (1, 1, 1, -1, -1, -1)
    for first in (i, j):
        second = j if first == i else i
        labels = (first, second) * 3
        for r in range(6):
            lab = labels[r:] + labels[:r]
            sgn = base_signs[r:] + base_signs[:r]
            if lab[:3] != (i, j, i):
                continue
            consumed = sgn[:3]
            produced = tuple(-s for s in reversed(sgn[3:]))
            out[consumed] = produced
    return out


def pd_orientation(crossings):
    """Signs, edge heads, arc names and strand count of a PD code, solved as
    parity constraints instead of walked along the strands.

    Each crossing's over direction is an unknown bit, 1 when it runs b -> d,
    and bit n is the constant 1.  Every edge has exactly one head among its
    two occurrences: slot a is a head, c a tail, b a head iff the bit is 1
    and d iff it is 0.  Crossings still free after that (strands that never
    pass under) get bit 1 in index order.  Arcs weld b to d, strands weld
    a to c and b to d, both by union-find.  Returns (signs, heads, arc_of,
    strands) with signs +1 for d -> b, or None when the constraints clash.
    """
    from branchcover._unionfind import ParityUnionFind

    n = len(crossings)
    bits = ParityUnionFind(range(n + 1))

    def role(k, slot):
        """(bit, flip) with head(occurrence) = bit ^ flip."""
        if slot in (0, 2):
            return n, slot // 2
        return k, slot // 3

    occurrences = {}
    for k, quad in enumerate(crossings):
        for slot, e in enumerate(quad):
            occurrences.setdefault(e, []).append((k, slot))
    for (k1, s1), (k2, s2) in occurrences.values():
        (v1, f1), (v2, f2) = role(k1, s1), role(k2, s2)
        if not bits.union(v1, v2, 1 ^ f1 ^ f2):
            return None
    b_to_d = []
    for k in range(n):
        root, par = bits.find(k)
        root_t, par_t = bits.find(n)
        if root != root_t:
            bits.union(k, n, 0)
            par, par_t = 0, 0
        b_to_d.append(not par ^ par_t)
    heads = {}
    for e, occs in occurrences.items():
        for k, slot in occs:
            bit, flip = role(k, slot)
            if (b_to_d[k] if bit == k else True) ^ flip:
                heads[e] = (k, slot)

    arcs, strands = _UnionFind(), _UnionFind()
    for a, b, c, d in crossings:
        arcs.union(b, d)
        strands.union(a, c)
        strands.union(b, d)
    names = {}
    for e in occurrences:
        names.setdefault(arcs.find(e), []).append(e)
    arc_of = {e: min(names[arcs.find(e)]) for e in occurrences}
    signs = [-1 if x else 1 for x in b_to_d]
    return signs, heads, arc_of, len({strands.find(e) for e in occurrences})



def simple_colorings_by_permutations(dg, d: int) -> list[dict]:
    """Transposition colorings of dg as arc -> Permutation assignments: a
    backtracking search of its own over Permutation candidates sorted by
    image, each relation checked by conjugating with ``**``.  The reference
    for the table search of ``enumerate_simple_colorings``.

    Arcs are branched in increasing order; coloring an arc evaluates each
    crossing it enters once both inputs are colored (last colored arc
    first), so the assignments come in the same order, with the same item
    order, as the search under test."""
    from branchcover.permutations import all_transpositions

    trans = sorted(all_transpositions(d), key=lambda t: t.images)
    arcs = dg.arcs()
    relations = dg.crossing_relations()
    entering = {arc: [r for r in relations for a in (r.under_in, r.over) if a == arc] for arc in arcs}
    found = []
    colors = {}

    def forced_by(arc):
        """The arcs that coloring arc forces, and False on a clash."""
        added, stack = [], [arc]
        while stack:
            for r in entering[stack.pop()]:
                if r.under_in in colors and r.over in colors:
                    o = colors[r.over]
                    value = colors[r.under_in] ** (o if r.sign == 1 else o.inverse())
                    if r.under_out not in colors:
                        colors[r.under_out] = value
                        added.append(r.under_out)
                        stack.append(r.under_out)
                    elif colors[r.under_out] != value:
                        return added, False
        return added, True

    def extend():
        free = [arc for arc in arcs if arc not in colors]
        if not free:
            found.append(dict(colors))
            return
        for t in trans:
            colors[free[0]] = t
            added, ok = forced_by(free[0])
            if ok:
                extend()
            for arc in added + [free[0]]:
                del colors[arc]

    extend()
    return found


def colorings_by_product(dg, candidates: dict, holds) -> list[dict]:
    """Every arc map drawn from ``candidates[arc]``, in ``itertools.product``
    order along ``dg.arcs()``, kept when ``holds(u, o, out, sign)`` is true
    at every crossing.  No propagation and no pruning: the reference for
    the order and the set of solutions of the coloring search, on diagrams
    of a few arcs."""
    arcs = dg.arcs()
    relations = dg.crossing_relations()
    found = []
    for combo in itertools.product(*(candidates[arc] for arc in arcs)):
        c = dict(zip(arcs, combo))
        if all(holds(c[r.under_in], c[r.over], c[r.under_out], r.sign) for r in relations):
            found.append(c)
    return found


def quandle_rule(q):
    """The crossing rule of a finite quandle read forward only: u |> o = out
    at a positive crossing, out |> o = u at a negative one."""
    return lambda u, o, out, sign: q.apply(u, o) == out if sign == 1 else q.apply(out, o) == u


# -- helpers only the tests call ---------------------------------------------


def product(perms: Iterable[Permutation], degree: int | None = None) -> Permutation:
    """Ordered left-to-right product; identity for an empty sequence (degree required)."""
    if degree is not None:
        _check_degree(degree)
    acc: Permutation | None = None
    for p in perms:
        acc = p if acc is None else compose(acc, p)
    if acc is None:
        if degree is None:
            raise ValueError("empty product needs an explicit degree")
        return Permutation.identity(degree)
    if degree is not None and acc.degree != degree:
        raise ValueError(f"degree mismatch: {acc.degree} vs {degree}")
    return acc


def random_chart(
    degree: int,
    size: int,
    rng: random.Random,
    oriented: bool = False,
) -> Chart:
    """A random valid closed chart with roughly ``size`` events; each event
    is one that ``charts._sweep`` accepts on the word so far."""
    _check_degree(degree, 2, ChartError)
    _exact_int(size, "size", 0, error=ChartError)
    _exact_bool(oriented, "oriented", ChartError)
    events: list[ChartEvent] = []
    word: list[tuple[int, int, int]] = []  # (label, sign, segment id)

    def fits(ev: ChartEvent) -> bool:
        # The sweep checks an event before it yields it and splices after.
        try:
            next(_sweep((ev,), degree, oriented, word))
        except ChartError:
            return False
        return True

    while len(events) < size or word:
        growing = len(events) < size - len(word) - 1
        choices = []
        if growing:
            choices += ["black-insert"] * 3 + ["cup"] * 2
        # Offer only events the sweep accepts.
        pairs = [(p, word[p][0], word[p + 1][0]) for p in range(len(word) - 1)]
        offers = {
            "white": [ev for p, i, j in pairs if fits(ev := white(i, j, p))],
            "crossing": [ev for p, i, j in pairs if fits(ev := crossing(i, j, p))],
            "cap": [ev for p, i, _ in pairs if fits(ev := cap(i, p))],
        }
        if word:
            choices += ["black-delete"] * (1 if growing else 4)
        if offers["cap"]:
            choices += ["cap"] * (1 if growing else 4)
        if offers["white"] and len(events) < size:
            choices += ["white"] * 2
        if offers["crossing"] and len(events) < size:
            choices += ["crossing"] * 2
        if not choices:
            choices = ["black-insert", "cup"]
        kind = rng.choice(choices)
        if kind == "black-insert":
            ev = black(rng.randrange(1, degree), rng.randrange(len(word) + 1), True,
                       rng.choice([1, -1]) if oriented else None)
        elif kind == "black-delete":
            p = rng.randrange(len(word))
            lab, sign, _ = word[p]
            ev = black(lab, p, False, sign if oriented else None)
        elif kind == "cup":
            ev = cup(rng.randrange(1, degree), rng.randrange(len(word) + 1),
                     rng.choice([1, -1]) if oriented else None)
        else:
            ev = rng.choice(offers[kind])
        events.append(ev)
        for _ in _sweep((ev,), degree, oriented, word):
            pass
    return Chart(degree, oriented, tuple(events))


def montesinos_pair_check(d: int = 3) -> bool:
    """The registration behind ``links.montesinos_flat_colors``: on distinct
    intersecting transpositions the 3-half-twist tangle reproduces its
    bottom boundary colors at the top, matching the flat tangle's boundary
    monodromy."""
    _check_degree(d, 2, LinkError)
    for a, b in itertools.permutations(all_transpositions(d), 2):
        if len(a.support() & b.support()) != 1:
            continue
        colors = twist_boundary_colors(a, b, 3)
        if colors[103] != a or colors[203] != b:
            return False
    return True


def td_coloring_to_simple(dg, d: int, coloring: dict) -> SimpleColoring:
    """Dictionary between T_d colorings and simple permutation colorings:
    element k of ``make_Td(d)`` is ``all_transpositions(d)[k]``."""
    _check_degree(d, 2, QuandleError)
    elements = all_transpositions(d)
    _exact_ints(tuple(coloring.values()), "color", 0, len(elements) - 1, QuandleError)
    return SimpleColoring(d, PERMUTATION, {arc: elements[v] for arc, v in coloring.items()})
