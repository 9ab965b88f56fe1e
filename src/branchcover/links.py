"""Link diagrams, Wirtinger monodromy, simple colorings, and braid lifts.

Diagrams are PD codes: each crossing is a quadruple (a, b, c, d) of edge
identifiers read counterclockwise from the incoming under-edge, so the
under-strand runs a -> c and the over-strand occupies b and d.  Edges are
the segments between crossings; Wirtinger arcs (overpasses) are the chains
of edges welded through the b-d slots, and it is the arcs that carry
meridian colors.

Orientation is read off the strands rather than the edge numbering: a PD
code is a set of closed strands, and one walk along each, leaving every
under-crossing at c, orients every edge and every over-passage, cuts the
strand into arcs at its under-arrivals and counts the components.  A strand
that never passes under runs b -> d at its first crossing.  The crossing
sign is +1 when the over strand runs d -> b.  At a crossing of sign e the
outgoing under-arc color is o^-e u o^e for over-color o and incoming color
u; for transposition colors both signs conjugate identically.
"""

from __future__ import annotations

import collections
import functools
import math
import re
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional, Sequence

from . import permutations
from .permutations import (
    BRAID,
    PERMUTATION,
    ParseError,
    Permutation,
    _Value,
    _check_degree,
    _check_json_object,
    _exact_int,
    _exact_ints,
    _exact_sign,
    _plain_int,
    as_permutations,
    check_elements,
    flavor_spec,
)

if TYPE_CHECKING:
    from .braids import BraidWord

DEFAULT_CONJUGATOR_BOUND = 3
DEFAULT_LIFT_BUDGET = 1_000_000


class LinkError(ValueError):
    pass


class CrossingRelation(_Value):
    """Wirtinger data of one crossing, expressed on arcs."""

    def __init__(self, under_in: int, over: int, under_out: int, sign: int):
        self.__dict__.update(under_in=under_in, over=over, under_out=under_out, sign=sign)


class _Strands(NamedTuple):
    """What one walk along every strand of a diagram finds."""

    heads: dict[int, tuple[int, int]]  # edge -> (crossing, slot) it arrives at
    signs: tuple[int, ...]  # per crossing: -1 when the over strand runs b -> d, else +1
    arcs: dict[int, int]  # edge -> the least edge of its Wirtinger arc
    count: int  # closed strands with crossings


# One relation evaluation of a coloring search, on positions in arcs():
# (under-in, over, under-out, crossing sign, whether it colors under-out).
_Step = tuple[int, int, int, int, bool]


class LinkDiagram(_Value):
    """A PD code plus crossingless unknot components.

    >>> dg = LinkDiagram(((1, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 3)))
    >>> dg.arcs(), [dg.crossing_sign(k) for k in range(3)], dg.component_count()
    ([1, 2, 4], [-1, -1, -1], 1)
    """

    def __init__(
        self,
        crossings: tuple[tuple[int, int, int, int], ...],
        free_loops: int = 0,  # crossingless unknot components
    ):
        if type(crossings) is not tuple or any(type(q) is not tuple for q in crossings):
            crossings = tuple(map(tuple, crossings))
        for quad in crossings:
            if len(quad) != 4:
                raise LinkError(f"crossing {quad} is not a quadruple")
        edges = [e for quad in crossings for e in quad]
        # Arcs are named by their least edge, free loops by -1, -2, ...
        _exact_ints(edges, "edge", 0, error=LinkError)
        counts: dict[int, int] = {}
        for e in edges:
            counts[e] = counts.get(e, 0) + 1
        bad = sorted(e for e, c in counts.items() if c != 2)
        if bad:
            raise LinkError(f"edge {bad[0]} appears {counts[bad[0]]} times, expected 2")
        _exact_int(free_loops, "free_loops", 0, error=LinkError)
        self.__dict__.update(crossings=crossings, free_loops=free_loops)
        self._strands  # orientation consistency is part of validity

    # -- the strand walk -----------------------------------------------

    @functools.cached_property
    def _strands(self) -> _Strands:
        """Walk every closed strand once, raising LinkError when no
        consistent orientation exists.

        A walk leaves a crossing through its departure slot, follows the
        edge to its other end and passes straight through: a -> c under,
        b -> d or d -> b over.  Walks start where a strand leaves an
        under-crossing at c, then, for each strand that never passes under,
        at its first crossing running b -> d.  Arriving at a c slot means
        the strand's under-crossings disagree.  An arc ends each time the
        walk arrives at an a slot, and a strand that never does is one arc.
        """
        ends: dict[int, list[tuple[int, int]]] = {}
        for k, quad in enumerate(self.crossings):
            for slot, e in enumerate(quad):
                ends.setdefault(e, []).append((k, slot))
        heads: dict[int, tuple[int, int]] = {}
        arcs: dict[int, int] = {}
        b_to_d: list[Optional[bool]] = [None] * len(self.crossings)
        count = 0

        def walk(k: int, slot: int) -> None:
            arc = []
            while (e := self.crossings[k][slot]) not in heads:
                arc.append(e)
                first, second = ends[e]
                k, slot = second if first == (k, slot) else first
                heads[e] = (k, slot)
                if slot == 2:
                    raise LinkError("orientation inconsistent")
                if slot == 0:
                    arcs.update(dict.fromkeys(arc, min(arc)))
                    arc, slot = [], 2
                else:
                    b_to_d[k] = slot == 1
                    slot = 4 - slot
            if arc:
                arcs.update(dict.fromkeys(arc, min(arc)))

        for k, quad in enumerate(self.crossings):
            if quad[2] not in heads:
                count += 1
                walk(k, 2)
        for k in range(len(self.crossings)):
            if b_to_d[k] is None:
                count += 1
                walk(k, 3)
        return _Strands(heads, tuple([-1 if b else 1 for b in b_to_d]), arcs, count)

    @functools.cached_property
    def _coloring_plan(self) -> tuple[tuple[int, tuple[_Step, ...]], ...]:
        """The steps every coloring search of this diagram takes, as levels
        ``(seed, steps)``.

        Which arcs a branch colors, and in what order, does not depend on
        the colors: an arc is colored exactly when both inputs of one of
        its crossings are.  So propagation runs here once, on colored flags.
        Each crossing is a trigger of its under-in arc and of its over arc
        (twice of an arc that is both).  Coloring an arc evaluates its
        triggers in crossing order once both inputs are colored, last
        colored arc first.  Each level is seeded by the first uncolored
        position, and its steps are every evaluation that seed causes,
        repeats included.
        """
        at = {arc: i for i, arc in enumerate(self.arcs())}
        arc_of, signs = self._strands.arcs, self._strands.signs
        triggers: list[list[tuple[int, int, int, int]]] = [[] for _ in at]
        for k, (a, b, c, _) in enumerate(self.crossings):
            trigger = (at[arc_of[a]], at[arc_of[b]], at[arc_of[c]], signs[k])
            triggers[trigger[0]].append(trigger)
            triggers[trigger[1]].append(trigger)
        colored = [False] * len(at)
        levels = []
        for seed in range(len(at)):
            if colored[seed]:
                continue
            colored[seed] = True
            steps, queue = [], [seed]
            while queue:
                for u, o, out, sign in triggers[queue.pop()]:
                    if colored[u] and colored[o]:
                        new = not colored[out]
                        steps.append((u, o, out, sign, new))
                        if new:
                            colored[out] = True
                            queue.append(out)
            levels.append((seed, tuple(steps)))
        return tuple(levels)

    def crossing_sign(self, k: int) -> int:
        """+1 when the over strand runs d -> b, -1 when b -> d."""
        return self._strands.signs[_exact_int(k, "crossing index", 0, len(self.crossings) - 1, LinkError)]

    def _edge(self, edge) -> int:
        """``edge`` itself when it is an exact int that the diagram has."""
        if _exact_int(edge, "edge", 0, error=LinkError) not in self._strands.arcs:
            raise LinkError(f"edge {edge} not in diagram")
        return edge

    def edge_head(self, edge: int) -> tuple[int, int]:
        """(crossing, slot) where the edge arrives."""
        return self._strands.heads[self._edge(edge)]

    # -- derived structure -------------------------------------------

    def edges(self) -> list[int]:
        return sorted({e for quad in self.crossings for e in quad})

    def arcs(self) -> list[int]:
        """Wirtinger arcs, each named by its least edge; free loops are
        negative identifiers."""
        return sorted(set(self._strands.arcs.values())) + [
            -(k + 1) for k in range(self.free_loops)
        ]

    def arc_of(self, edge: int) -> int:
        return self._strands.arcs[self._edge(edge)]

    def crossing_relations(self) -> list[CrossingRelation]:
        arcs = self._strands.arcs
        return [
            CrossingRelation(arcs[a], arcs[b], arcs[c], sign)
            for (a, b, c, _), sign in zip(self.crossings, self._strands.signs)
        ]

    def component_count(self) -> int:
        return self._strands.count + self.free_loops


# -- PD text format --------------------------------------------------------
#
# "X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)" with optional "U" tokens, each adding
# one crossingless unknot component.

_PD_TOKEN = re.compile(r"X\(\s*([0-9]+)\s*,\s*([0-9]+)\s*,\s*([0-9]+)\s*,\s*([0-9]+)\s*\)|U|\S+")


def parse_pd(text: str) -> LinkDiagram:
    """Parse a PD code; errors carry the character position."""
    crossings = []
    free_loops = 0
    for m in _PD_TOKEN.finditer(text):
        if m.group(0) == "U":
            free_loops += 1
            continue
        if m.group(1) is None:
            raise ParseError(f"bad PD token {m.group(0)!r}", m.start())
        crossings.append(tuple(int(m.group(k)) for k in (1, 2, 3, 4)))
    try:
        return LinkDiagram(tuple(crossings), free_loops)
    except LinkError as exc:
        raise ParseError(str(exc), 0) from exc


def pd_string(dg: LinkDiagram) -> str:
    parts = ["X(%d,%d,%d,%d)" % quad for quad in dg.crossings]
    parts += ["U"] * dg.free_loops
    return " ".join(parts)


def braid_closure_pd(letters: Sequence[int], strands: int) -> LinkDiagram:
    """PD code of the closure of a braid word (letters as signed indices).

    Positive letters cross the left strand over the right.  Strand positions
    untouched by any letter close into free loops.
    """
    _exact_int(strands, "strand count", 2, error=LinkError)
    _exact_ints(letters, "letter", 1 - strands, strands - 1, LinkError)
    if 0 in letters:
        raise LinkError("letter 0 is not a generator")
    current = list(range(1, strands + 1))
    next_id = strands + 1
    crossings = []
    touched = set()
    for letter in letters:
        i = abs(letter)
        touched.update({i, i + 1})
        x, y = current[i - 1], current[i]
        u, v = next_id, next_id + 1
        next_id += 2
        if letter > 0:
            crossings.append((y, x, u, v))
        else:
            crossings.append((x, u, v, y))
        current[i - 1], current[i] = u, v
    # Close up: final position edges are the initial ones.
    rename = {current[k]: k + 1 for k in range(strands) if current[k] != k + 1}
    crossings = [tuple(rename.get(e, e) for e in quad) for quad in crossings]
    free = sum(1 for k in range(strands) if k + 1 not in touched)
    return LinkDiagram(tuple(crossings), free)


# The braid-closure entries are braid_closure_pd output (figure-eight from
# s1 s2^-1 s1 s2^-1, granny from s1^3 s2^3, square from s1^3 s2^-3).
CORPUS: dict[str, str] = {
    "unknot": "U",
    "trefoil": "X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)",
    "figure-eight": "X(2,1,4,5) X(5,6,7,3) X(6,4,1,9) X(9,2,3,7)",
    "5_2": "X(1,4,2,5) X(3,8,4,9) X(5,10,6,1) X(9,6,10,7) X(7,2,8,3)",
    "granny": "X(2,1,4,5) X(5,4,6,7) X(7,6,1,9) X(3,9,10,11) X(11,10,12,13) X(13,12,2,3)",
    "square": "X(2,1,4,5) X(5,4,6,7) X(7,6,1,9) X(9,10,11,3) X(10,12,13,11) X(12,2,3,13)",
}


def corpus_diagram(name: str) -> LinkDiagram:
    try:
        return parse_pd(CORPUS[name])
    except KeyError:
        raise LinkError(f"unknown corpus diagram {name!r}; known: {sorted(CORPUS)}") from None


# -- simple colorings ------------------------------------------------------

COLOR_NAMES_S3 = {
    (2, 1, 3): "blue",   # (1 2)
    (1, 3, 2): "red",    # (2 3)
    (3, 2, 1): "green",  # (1 3)
}


def color_name(p: Permutation) -> Optional[str]:
    if p.degree == 3:
        return COLOR_NAMES_S3.get(p.images)
    return None


class SimpleColoring(_Value):
    """Arc -> meridian image; permutation flavor carries transpositions,
    braid flavor certified conjugates of generators or their inverses."""

    def __init__(self, degree: int, flavor: str, assignment: dict):
        if not isinstance(assignment, dict):
            raise LinkError(f"assignment must be a dict from arcs to colors, got {assignment!r}")
        _exact_ints(tuple(assignment), "arc", error=LinkError)
        try:
            check_elements(flavor, degree, assignment.items(), "arc {}")
        except ValueError as exc:
            raise LinkError(str(exc)) from None
        self.__dict__.update(degree=degree, flavor=flavor, assignment=assignment)

    def __hash__(self):
        return hash((self.degree, self.flavor, frozenset(self.assignment.items())))

    def is_transitive(self) -> bool:
        perms = as_permutations(self.flavor, self.assignment.values())
        return permutations.is_transitive(perms, self.degree)


def _unchecked(degree: int, flavor: str, assignment: dict) -> SimpleColoring:
    """A SimpleColoring whose colors are checked elements of the given
    flavor and degree, such as the shared transpositions of
    ``all_transpositions(degree)``; nothing is re-checked."""
    c = object.__new__(SimpleColoring)
    c.__dict__.update(degree=degree, flavor=flavor, assignment=assignment)
    return c


def _conjugated(u, o, sign: int):
    """Color of the outgoing under-arc: o^-sign u o^sign."""
    if sign == 1:
        return u ** o
    return u ** o.inverse()


def coloring_satisfies(dg: LinkDiagram, coloring: SimpleColoring) -> bool:
    """Check every Wirtinger relation (exact equality via normal forms)."""
    if set(coloring.assignment) != set(dg.arcs()):
        return False
    for rel in dg.crossing_relations():
        u = coloring.assignment[rel.under_in]
        o = coloring.assignment[rel.over]
        if coloring.assignment[rel.under_out] != _conjugated(u, o, rel.sign):
            return False
    return True


class SearchExhausted(Exception):
    """A coloring search spent its budget; args[0] is the checks made."""


def _solve_colorings(
    dg: LinkDiagram,
    candidates: dict,
    table: Callable,
    limit: Optional[int] = None,
    budget: float = math.inf,
) -> tuple[list[dict], int]:
    """Backtracking search for integer arc colorings satisfying every crossing.

    The search follows the diagram's ``_coloring_plan``: level i branches
    its seed arc over ``candidates[arc]``, then runs the level's steps in
    order.  A step (under-in, over, under-out, sign, new) reads the forced
    under-out color ``rows[u][o]`` from ``rows = table(sign)``, which is
    asked once per sign the diagram has.  A ``new`` step colors under-out
    with it; any other step compares it with under-out's color.  A clash
    ends the branch, and a level that runs through descends to the next.
    Every input a step reads was colored by an earlier level or step, so
    nothing is undone.  Solutions, at most ``limit``, come in lexicographic
    order of candidate positions along the arcs, as dicts in the order the
    arcs were colored.

    Returns (solutions, checks), where checks counts the steps run, one
    relation evaluation each.  The plan keeps every evaluation that
    propagation through a queue of triggers would make, repeats included,
    in the same order, so the count is the queue's at any budget.  The
    budget (an int >= 0, or inf) is compared once per branch, before the
    level's run: a run that would pass it makes only the steps the budget
    allows, then raises SearchExhausted(budget + 1), the count at the step
    that would have gone over.  So at most ``budget`` lookups are made, as
    when the budget was compared per step.
    """
    arcs = dg.arcs()
    plan = dg._coloring_plan
    signs = set(dg._strands.signs)
    tables = {sign: table(sign) for sign in (1, -1) if sign in signs}
    levels = [
        (seed, candidates[arcs[seed]], [(u, o, out, tables[sign], new) for u, o, out, sign, new in steps])
        for seed, steps in plan
    ]
    # The positions a branch colors, in the order it colors them.
    order = [i for seed, steps in plan for i in (seed, *(out for _, _, out, _, new in steps if new))]
    names = [arcs[i] for i in order]
    color = [-1] * len(arcs)
    solutions: list[dict] = []
    checks = 0

    def descend(i: int) -> bool:
        """Run levels i, i+1, ...; True once limit is reached."""
        nonlocal checks
        if i == len(levels):
            solutions.append(dict(zip(names, map(color.__getitem__, order))))
            return len(solutions) == limit
        seed, values, steps = levels[i]
        for value in values:
            color[seed] = value
            # A run that would pass the budget stops before the step that does.
            run = steps if checks + len(steps) <= budget else steps[: budget - checks]
            for u, o, out, rows, new in run:
                checks += 1
                forced = rows[color[u]][color[o]]
                if new:
                    color[out] = forced
                elif color[out] != forced:
                    break
            else:
                if run is not steps:
                    raise SearchExhausted(budget + 1)
                if descend(i + 1):
                    return True
        return False

    descend(0)
    return solutions, checks


def enumerate_simple_colorings(dg: LinkDiagram, d: int) -> list[SimpleColoring]:
    """All transposition colorings satisfying the Wirtinger relations,
    sorted by their images along the arcs (the search's own order, as its
    candidates are sorted by image).

    The search runs over the conjugation table of T_d, the transpositions
    as point pairs, so a relation check is one table lookup; each coloring
    found maps its indices to one shared Permutation per transposition and
    is built unchecked."""
    _check_degree(d, 2, LinkError)
    pairs, table = permutations._transposition_table(d)
    trans = permutations.all_transpositions(d)  # in pair order
    # (a b) with a < b first differs from the identity at a, where it reads
    # b, so image order is decreasing a, then increasing b.  A transposition
    # is its own inverse, so both signs read the same table.
    order = sorted(range(len(pairs)), key=lambda k: (-pairs[k][0], pairs[k][1]))
    found, _ = _solve_colorings(dg, dict.fromkeys(dg.arcs(), order), lambda sign: table)
    return [
        _unchecked(d, PERMUTATION, {arc: trans[k] for arc, k in assignment.items()})
        for assignment in found
    ]


# -- link surgery: one splice, tangle replacement (Montesinos moves) --------


class Tangle(_Value):
    """A partial diagram: crossings over local edge names plus direct wires.

    Boundary edges appear exactly once among crossings and wires; a wire
    joins two boundary points with no crossing between them.
    """

    def __init__(
        self,
        crossings: tuple[tuple[int, int, int, int], ...],
        wires: tuple[tuple[int, int], ...] = (),
    ):
        crossings, wires = tuple(map(tuple, crossings)), tuple(map(tuple, wires))
        _exact_ints([e for part in (*crossings, *wires) for e in part], "edge", 0, error=LinkError)
        self.__dict__.update(crossings=crossings, wires=wires)

    def edge_uses(self) -> dict[int, int]:
        return collections.Counter(e for part in (*self.crossings, *self.wires) for e in part)

    def boundary_edges(self) -> list[int]:
        return sorted(e for e, c in self.edge_uses().items() if c == 1)


def extract_tangle(dg: LinkDiagram, sites: Sequence[int]) -> Tangle:
    """The sub-diagram spanned by the given crossing indices."""
    _exact_ints(sites, "crossing index", 0, len(dg.crossings) - 1, LinkError)
    if len(set(sites)) != len(sites):
        raise LinkError("bad crossing indices for the site")
    return Tangle(tuple(dg.crossings[k] for k in sites))


def _fresh_ids(dg: LinkDiagram, n: int) -> list[int]:
    base = max(dg.edges(), default=0)
    return [base + k + 1 for k in range(n)]


def _splice(
    dg: LinkDiagram, coloring: SimpleColoring, quads: list, weld=(), colors: Optional[dict] = None
) -> tuple[LinkDiagram, SimpleColoring]:
    """The diagram with the given crossings, each weld pair joined into one
    edge (the smaller id survives), and its coloring: ``colors`` on the
    edges it names, the old arc color on edges kept from dg.  Every link
    surgery ends here, and both results are revalidated."""
    joined = {max(a, b): min(a, b) for a, b in weld}
    if joined:
        quads = [tuple(joined.get(e, e) for e in quad) for quad in quads]
    try:
        new_dg = LinkDiagram(tuple(quads), dg.free_loops)
    except LinkError as exc:
        raise LinkError(f"surgery produces an invalid diagram: {exc}") from exc
    colors = colors or {}
    old_arcs = dg._strands.arcs
    assignment = {-(k + 1): coloring.assignment[-(k + 1)] for k in range(dg.free_loops)}
    for arc in new_dg.arcs():  # an arc is named by its least edge
        if arc in assignment:
            continue
        color = colors.get(arc)
        if color is None and arc in old_arcs:
            color = coloring.assignment.get(old_arcs[arc])
        if color is None:
            raise LinkError(f"no color available for edge {arc}")
        assignment[arc] = color
    out = SimpleColoring(coloring.degree, coloring.flavor, assignment)
    if not coloring_satisfies(new_dg, out):
        raise LinkError("surgery produces an invalid coloring")
    return new_dg, out


def montesinos_replace(
    dg: LinkDiagram,
    coloring: SimpleColoring,
    sites: Sequence[int],
    replacement: Tangle,
    replacement_colors: dict,
    boundary_map: Optional[dict[int, int]] = None,
) -> tuple[LinkDiagram, SimpleColoring]:
    """Swap the tangle at the site crossings for a colored replacement.

    ``replacement_colors`` colors every edge of the replacement;
    ``boundary_map`` sends replacement boundary edges to site boundary edges
    (identity by default).  Boundary edges must match with equal colors, and
    the resulting diagram and coloring are revalidated.
    """
    site_tangle = extract_tangle(dg, sites)
    site_boundary = site_tangle.boundary_edges()
    rep_boundary = replacement.boundary_edges()
    if boundary_map is None:
        boundary_map = {e: e for e in rep_boundary}
    _exact_ints([*boundary_map, *boundary_map.values()], "boundary edge", 0, error=LinkError)
    if sorted(boundary_map) != rep_boundary or sorted(boundary_map.values()) != site_boundary:
        raise LinkError(
            f"boundary mismatch: site boundary {site_boundary}, "
            f"mapped replacement boundary {sorted(boundary_map.values())}"
        )
    for e in rep_boundary:
        want = replacement_colors.get(e)
        have = coloring.assignment.get(dg.arc_of(boundary_map[e]))
        if want is None or have is None or want != have:
            raise LinkError(f"boundary color mismatch on edge {e}")

    internal = sorted(e for e in replacement.edge_uses() if e not in rep_boundary)
    rename = {**boundary_map, **dict(zip(internal, _fresh_ids(dg, len(internal))))}
    site_set = set(sites)
    quads = [q for k, q in enumerate(dg.crossings) if k not in site_set]
    quads += [[rename[e] for e in quad] for quad in replacement.crossings]
    weld = [(rename[a], rename[b]) for a, b in replacement.wires]
    colors = {new: replacement_colors.get(old) for old, new in rename.items()}
    return _splice(dg, coloring, quads, weld, colors)


def flat_tangle(n: int = 3) -> Tangle:
    """Two parallel strands with the same boundary as an n-half-twist tangle."""
    _exact_int(n, "half-twist count", 1, error=LinkError)
    return Tangle((), wires=((100, 100 + n), (200, 200 + n)))


def twist_boundary_colors(a: Permutation, b: Permutation, n: int = 3) -> dict:
    """Edge colors of the n-half-twist tangle with bottom colors (a, b).

    Local edges: left strand 100..100+n bottom to top, right strand
    200..200+n; the k-th crossing is (l_k, r_k, r_{k+1}, l_{k+1}).  The
    left edge l_{k+1} welds into the over-arc of crossing k, so the
    positional color pair evolves by (x, y) -> (y, conj of x by y).
    """
    _exact_int(n, "half-twist count", 1, error=LinkError)
    colors = {}
    left, right = a, b
    for k in range(n + 1):
        colors[100 + k] = left
        colors[200 + k] = right
        left, right = right, left ** right
    return colors


def montesinos_flat_colors(a: Permutation, b: Permutation) -> dict:
    """Colors of the registered flat replacement for bottom colors (a, b).

    The boundary identity behind the registration, that the 3-half-twist
    tangle gives back its bottom colors at the top, is checked for d = 3 to
    8 by ``montesinos_pair_check`` in tests/oracles.py.
    """
    if a == b or len(a.support() & b.support()) != 1:
        raise LinkError("the registered pair needs distinct intersecting transpositions")
    return {100: a, 103: a, 200: b, 203: b}


# -- Reidemeister moves ------------------------------------------------------


def _with_renamed_heads(dg: LinkDiagram, rename: dict[int, int]) -> list[list[int]]:
    """Crossing quads with each named edge's arriving occurrence renamed."""
    quads = [list(q) for q in dg.crossings]
    for edge, new_id in rename.items():
        k, slot = dg._strands.heads[edge]
        quads[k][slot] = new_id
    return quads


def r1_add(
    dg: LinkDiagram, coloring: SimpleColoring, edge: int, sign: int = 1
) -> tuple[LinkDiagram, SimpleColoring]:
    """Add a kink on the given edge; the loop arc copies the edge's color."""
    _exact_sign(sign, "kink sign", LinkError)
    dg._edge(edge)
    m, z = _fresh_ids(dg, 2)
    quads = _with_renamed_heads(dg, {edge: z})
    quads.append([edge, z, m, m] if sign == 1 else [edge, m, m, z])
    color = coloring.assignment[dg._strands.arcs[edge]]
    return _splice(dg, coloring, quads, colors={m: color, z: color})


def r1_remove(
    dg: LinkDiagram, coloring: SimpleColoring, site: int
) -> tuple[LinkDiagram, SimpleColoring]:
    """Remove a kink crossing (one whose over pair contains its under-out)."""
    _exact_int(site, "crossing index", 0, len(dg.crossings) - 1, LinkError)
    a, b, c, d = dg.crossings[site]
    if c == b:
        other = d
    elif c == d:
        other = b
    else:
        raise LinkError("crossing is not a kink")
    if other == a:
        raise LinkError("kink crossing is a whole component")
    quads = [q for k, q in enumerate(dg.crossings) if k != site]
    return _splice(dg, coloring, quads, [(a, other)])


def r2_add(
    dg: LinkDiagram, coloring: SimpleColoring, over_edge: int, under_edge: int
) -> tuple[LinkDiagram, SimpleColoring]:
    """Poke the under edge beneath the over edge: two opposite crossings."""
    if dg._edge(over_edge) == dg._edge(under_edge):
        raise LinkError("r2 needs two distinct edges")
    u1, u2, o2, o3 = _fresh_ids(dg, 4)
    quads = _with_renamed_heads(dg, {under_edge: u2, over_edge: o3})
    quads.append([under_edge, over_edge, u1, o2])
    quads.append([u1, o3, u2, o2])
    o_color = coloring.assignment[dg._strands.arcs[over_edge]]
    u_color = coloring.assignment[dg._strands.arcs[under_edge]]
    # The over strand enters the first new crossing at slot b, so it runs
    # b -> d there and the crossing's sign is -1.
    mid_color = _conjugated(u_color, o_color, -1)
    colors = {u1: mid_color, u2: u_color, o2: o_color, o3: o_color}
    return _splice(dg, coloring, quads, colors=colors)


def r2_remove(
    dg: LinkDiagram, coloring: SimpleColoring, sites: tuple[int, int]
) -> tuple[LinkDiagram, SimpleColoring]:
    """Undo a poke: two crossings sharing both an under edge and an over edge."""
    _exact_ints(sites, "crossing index", 0, len(dg.crossings) - 1, LinkError)
    if len(sites) != 2 or sites[0] == sites[1]:
        raise LinkError("bad crossing indices for the site")
    k1, k2 = sites
    a1, b1, c1, d1 = dg.crossings[k1]
    a2, b2, c2, d2 = dg.crossings[k2]
    ends = dg.crossings[k1] + dg.crossings[k2]
    boundary = sorted(e for e in set(ends) if ends.count(e) == 1)
    if len(boundary) != 4:
        raise LinkError("site is not a poke (needs 4 boundary edges)")
    if c1 == a2:
        under_in, under_out = a1, c2
    elif c2 == a1:
        under_in, under_out = a2, c1
    else:
        raise LinkError("site crossings do not chain along an under strand")
    overs = {b1, d1} | {b2, d2}
    over_ends = [e for e in boundary if e in overs]
    if len(over_ends) != 2:
        raise LinkError("site crossings do not share an over strand")
    quads = [q for k, q in enumerate(dg.crossings) if k not in (k1, k2)]
    return _splice(dg, coloring, quads, [(under_in, under_out), tuple(over_ends)])


# -- simple lifts -----------------------------------------------------------


class LiftSearchResult(_Value):
    def __init__(
        self,
        lift: Optional[SimpleColoring],
        exhausted: bool = False,  # budget hit without a verdict
        checks: int = 0,
    ):
        self.__dict__.update(lift=lift, exhausted=exhausted, checks=checks)


def _simple_conjugates(d: int, conjugator_bound: int) -> list[tuple[BraidWord, tuple[int, int]]]:
    """The distinct conjugates w g^e w^-1 (|w| <= bound), first spelling
    found breadth-first, sorted by their free-group images, each with the
    point pair of its projection, a transposition.

    The search carries the pairs: u ** g projects to project(u) relabelled
    through g's pair (i, i+1), so no word is projected.  The pool stays
    sorted by ``canonical_key``: the order decides which lift is found, and
    perfbench's tracer counts braid keys only through this sort.  Discovery
    order would need fewer checks; it waits until the tracer counts braid
    equality some other way.  The braids module is imported here, once per
    lift: no other link function needs it.
    """
    from .braids import BraidWord, canonical_key

    generators = [(BraidWord(d, (i * s,)), (i, i + 1)) for i in range(1, d) for s in (1, -1)]
    seen, frontier = dict(generators), generators
    for _ in range(conjugator_bound):
        nxt = []
        for u, pair in frontier:
            for g, (i, j) in generators:
                v = u ** g
                if v not in seen:
                    seen[v] = relabelled = permutations._relabel(pair, i, j)
                    nxt.append((v, relabelled))
        frontier = nxt
    return [(w, seen[w]) for w in sorted(seen, key=canonical_key)]


class _ConjugationTable(dict):
    """table[u][o] = the index in ``words`` of o^-sign u o^sign, each row and
    entry made on first use.  Words hash by normal form, so equal braids
    share one index, spelled as the first word met."""

    def __init__(self, index: dict, words: list, sign: int, u: Optional[int] = None):
        super().__init__()
        self.index, self.words, self.sign, self.u = index, words, sign, u

    def __missing__(self, key: int):
        if self.u is None:  # the table: make row ``key``
            value = _ConjugationTable(self.index, self.words, self.sign, key)
        else:  # row u: intern the conjugate by word ``key``
            w = _conjugated(self.words[self.u], self.words[key], self.sign)
            value = self.index.setdefault(w, len(self.words))
            if value == len(self.words):
                self.words.append(w)
        self[key] = value
        return value


def find_simple_lift(
    dg: LinkDiagram,
    f: SimpleColoring,
    conjugator_bound: int = DEFAULT_CONJUGATOR_BOUND,
    budget: int = DEFAULT_LIFT_BUDGET,
) -> LiftSearchResult:
    """Search for a braid coloring projecting to f arc by arc.

    The candidate pool, the bounded conjugates of generators with the point
    pairs of their projections, is built once per call and interned as
    integers; its indices are grouped by pair once.  Candidates are listed
    only for the seed arcs of the diagram's ``_coloring_plan``, the arcs the
    search branches on: each gets the pool words whose pair is the points
    its color moves.  Crossing relations force every other arc's value,
    which projects to f because f satisfies the relations and projection
    is a homomorphism.  Each relation is a lookup in a conjugation table
    filled on first use, so exact braid equality is decided once per
    interned word, and a completed assignment needs no second pass.  The
    lift found is still re-verified with coloring_satisfies, outside the
    budget.  ``checks`` counts relation evaluations.  "No lift within
    bounds" is not a proof of non-liftability.
    """
    _exact_int(conjugator_bound, "conjugator bound", 0, error=LinkError)
    _exact_int(budget, "budget", 0, error=LinkError)
    if f.flavor != PERMUTATION:
        raise LinkError("the base coloring must be permutation-flavored")
    if not coloring_satisfies(dg, f):
        raise LinkError("the base coloring does not satisfy the diagram")
    d = f.degree
    pool = _simple_conjugates(d, conjugator_bound)  # distinct, so indices 0..n-1
    words = [w for w, _ in pool]
    index = {w: k for k, w in enumerate(words)}
    by_pair: dict[tuple[int, ...], list[int]] = {}
    for k, (_, pair) in enumerate(pool):
        by_pair.setdefault(pair, []).append(k)
    arcs = dg.arcs()
    candidates = {}
    for seed, _ in dg._coloring_plan:  # the only arcs the search branches
        moved = tuple(sorted(f.assignment[arcs[seed]].support()))
        candidates[arcs[seed]] = by_pair.get(moved, [])
    tables = {sign: _ConjugationTable(index, words, sign) for sign in (1, -1)}
    try:
        found, checks = _solve_colorings(dg, candidates, tables.__getitem__, limit=1, budget=budget)
    except SearchExhausted as exc:
        return LiftSearchResult(None, exhausted=True, checks=exc.args[0])
    if not found:
        return LiftSearchResult(None, checks=checks)
    lift = SimpleColoring(d, BRAID, {arc: words[k] for arc, k in found[0].items()})
    if not coloring_satisfies(dg, lift):
        raise LinkError("the lift found fails its Wirtinger re-check")
    return LiftSearchResult(lift, checks=checks)


# -- coloring files ---------------------------------------------------------


def coloring_to_json(coloring: SimpleColoring) -> dict:
    return {
        "degree": coloring.degree,
        "flavor": coloring.flavor,
        "assignment": {str(a): str(v) for a, v in coloring.assignment.items()},
    }


def _arc_number(key: str) -> int:
    """The arc a coloring file's key names: an integer written as ``str``
    writes it, so that "01" cannot name arc 1 beside "1", nor "4_0" arc 40."""
    arc = _plain_int(key)
    if arc is None:
        raise LinkError(f"assignment key {key!r} is not an arc number written plainly")
    return arc


def coloring_from_json(data: dict) -> SimpleColoring:
    _check_json_object(data, "coloring", LinkError)
    try:
        degree = data["degree"]
        flavor = data["flavor"]
        raw = data["assignment"]
    except KeyError as exc:
        raise LinkError(f"coloring file needs degree/flavor/assignment: {exc}") from exc
    if not isinstance(raw, dict) or not all(isinstance(text, str) for text in raw.values()):
        raise LinkError(f"coloring assignment must map arcs to strings, got {raw!r}")
    parse = flavor_spec(flavor).parse
    assignment = {_arc_number(arc): parse(text, degree) for arc, text in raw.items()}
    return SimpleColoring(degree, flavor, assignment)
