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

import dataclasses
import functools
import itertools
import math
import re
from typing import Callable, NamedTuple, Optional, Sequence

from . import braids, permutations
from .braids import BraidWord, canonical_key
from .hurwitz import BRAID, PERMUTATION, as_permutations, check_elements, flavor_spec
from .permutations import ParseError, Permutation

DEFAULT_CONJUGATOR_BOUND = 3
DEFAULT_LIFT_BUDGET = 1_000_000


class LinkError(ValueError):
    pass


@dataclasses.dataclass(frozen=True)
class CrossingRelation:
    """Wirtinger data of one crossing, expressed on arcs."""

    under_in: int
    over: int
    under_out: int
    sign: int


class _Strands(NamedTuple):
    """What one walk along every strand of a diagram finds."""

    heads: dict[int, tuple[int, int]]  # edge -> (crossing, slot) it arrives at
    b_to_d: tuple[bool, ...]  # per crossing: the over strand runs b -> d
    arcs: dict[int, int]  # edge -> the least edge of its Wirtinger arc
    count: int  # closed strands with crossings


@dataclasses.dataclass(frozen=True)
class LinkDiagram:
    """A PD code plus crossingless unknot components.

    >>> dg = LinkDiagram(((1, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 3)))
    >>> dg.arcs(), [dg.crossing_sign(k) for k in range(3)], dg.component_count()
    ([1, 2, 4], [-1, -1, -1], 1)
    """

    crossings: tuple[tuple[int, int, int, int], ...]
    free_loops: int = 0  # crossingless unknot components

    def __post_init__(self):
        if type(self.crossings) is not tuple or any(type(q) is not tuple for q in self.crossings):
            object.__setattr__(self, "crossings", tuple(map(tuple, self.crossings)))
        counts: dict[int, int] = {}
        for quad in self.crossings:
            if len(quad) != 4:
                raise LinkError(f"crossing {quad} is not a quadruple")
            for e in quad:
                counts[e] = counts.get(e, 0) + 1
        bad = sorted(e for e, c in counts.items() if c != 2)
        if bad:
            raise LinkError(f"edge {bad[0]} appears {counts[bad[0]]} times, expected 2")
        if self.free_loops < 0:
            raise LinkError("free_loops must be nonnegative")
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
        return _Strands(heads, tuple(b_to_d), arcs, count)

    def crossing_sign(self, k: int) -> int:
        """+1 when the over strand runs d -> b, -1 when b -> d."""
        return -1 if self._strands.b_to_d[k] else 1

    def edge_head(self, edge: int) -> tuple[int, int]:
        """(crossing, slot) where the edge arrives."""
        return self._strands.heads[edge]

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
        return self._strands.arcs[edge]

    def crossing_relations(self) -> list[CrossingRelation]:
        arcs = self._strands.arcs
        return [
            CrossingRelation(arcs[a], arcs[b], arcs[c], self.crossing_sign(k))
            for k, (a, b, c, _) in enumerate(self.crossings)
        ]

    def component_count(self) -> int:
        return self._strands.count + self.free_loops


# -- PD text format --------------------------------------------------------
#
# "X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)" with optional "U" tokens, each adding
# one crossingless unknot component.

_PD_TOKEN = re.compile(r"X\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\)|U|\S+")


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
    if strands < 2:
        raise LinkError("braid closures need at least 2 strands")
    current = list(range(1, strands + 1))
    next_id = strands + 1
    crossings = []
    touched = set()
    for letter in letters:
        i = abs(letter)
        if not (1 <= i <= strands - 1):
            raise LinkError(f"letter {letter} out of range for {strands} strands")
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


@dataclasses.dataclass(frozen=True)
class SimpleColoring:
    """Arc -> meridian image; permutation flavor carries transpositions,
    braid flavor certified conjugates of generators or their inverses."""

    degree: int
    flavor: str
    assignment: dict

    def __post_init__(self):
        try:
            check_elements(self.flavor, self.degree, self.assignment.items(), "arc {}")
        except ValueError as exc:
            raise LinkError(str(exc)) from None

    def __hash__(self):
        return hash((self.degree, self.flavor, frozenset(self.assignment.items())))

    def is_transitive(self) -> bool:
        perms = as_permutations(self.flavor, self.assignment.values())
        return permutations.is_transitive(perms, self.degree)


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
    act: Callable,
    fits: Optional[Callable] = None,
    limit: Optional[int] = None,
    budget: float = math.inf,
) -> tuple[list[dict], int]:
    """Backtracking search for arc colorings satisfying every crossing.

    Arcs are branched in increasing order over ``candidates[arc]``, in the
    given order.  A crossing whose under-in and over arcs are both colored
    forces its under-out color ``act(u, o, sign)``: a colored under-out must
    equal it, an uncolored one must pass ``fits(arc, value)`` and
    takes it.  So every relation is evaluated once both its inputs are set,
    and each completed assignment satisfies all of them.  Solutions come in
    lexicographic order of candidate positions along the arcs, at most
    ``limit`` of them.  Returns (solutions, checks), where checks counts
    relation evaluations; raises SearchExhausted once checks > budget.
    """
    arcs = dg.arcs()
    by_inputs: dict[int, list[CrossingRelation]] = {}
    for rel in dg.crossing_relations():
        by_inputs.setdefault(rel.under_in, []).append(rel)
        by_inputs.setdefault(rel.over, []).append(rel)
    solutions: list[dict] = []
    assignment: dict = {}
    checks = 0

    def propagate(start) -> Optional[list]:
        """Colors forced by coloring ``start``, or None (undone) on a clash."""
        nonlocal checks
        forced = []
        queue = [start]
        while queue:
            for rel in by_inputs.get(queue.pop(), ()):
                if rel.under_in not in assignment or rel.over not in assignment:
                    continue
                checks += 1
                if checks > budget:
                    raise SearchExhausted(checks)
                value = act(assignment[rel.under_in], assignment[rel.over], rel.sign)
                out = rel.under_out
                if out in assignment:
                    if assignment[out] == value:
                        continue
                elif fits is None or fits(out, value):
                    assignment[out] = value
                    forced.append(out)
                    queue.append(out)
                    continue
                for fx in forced:
                    del assignment[fx]
                return None
        return forced

    def backtrack(k: int) -> bool:
        """Extend the assignment from arc k on; True once limit is reached."""
        while k < len(arcs) and arcs[k] in assignment:
            k += 1
        if k == len(arcs):
            solutions.append(dict(assignment))
            return len(solutions) == limit
        arc = arcs[k]
        for value in candidates[arc]:
            assignment[arc] = value
            forced = propagate(arc)
            if forced is not None:
                if backtrack(k + 1):
                    return True
                for fx in forced:
                    del assignment[fx]
            del assignment[arc]
        return False

    backtrack(0)
    return solutions, checks


def _relabeled(u: tuple[int, int], o: tuple[int, int], sign: int) -> tuple[int, int]:
    """``_conjugated`` on point pairs: (a b) ** (c e) swaps c and e among a
    and b.  A transposition is its own inverse, so the sign does not matter."""
    a, b = u
    c, e = o
    if a == c:
        a = e
    elif a == e:
        a = c
    if b == c:
        b = e
    elif b == e:
        b = c
    return (a, b) if a < b else (b, a)


def enumerate_simple_colorings(dg: LinkDiagram, d: int) -> list[SimpleColoring]:
    """All transposition colorings satisfying the Wirtinger relations,
    sorted by their images along the arcs (the search's own order, as its
    candidates are sorted by image).

    The search runs on sorted point pairs (a, b), where a relation check
    relabels two points, and each coloring found maps its pairs back to
    one shared Permutation per transposition."""
    try:
        permutations._check_degree(d, 2)
    except ValueError as exc:
        raise LinkError(f"coloring {exc}") from None
    trans = {
        (a, b): Permutation.transposition(d, a, b)
        for a, b in itertools.combinations(range(1, d + 1), 2)
    }
    # (a b) with a < b first differs from the identity at a, where it reads
    # b, so image order is decreasing a, then increasing b.
    pairs = sorted(trans, key=lambda p: (-p[0], p[1]))
    found, _ = _solve_colorings(dg, dict.fromkeys(dg.arcs(), pairs), _relabeled)
    return [
        SimpleColoring(d, PERMUTATION, {arc: trans[pair] for arc, pair in assignment.items()})
        for assignment in found
    ]


# -- tangle replacement (Montesinos move engine) ----------------------------


@dataclasses.dataclass(frozen=True)
class Tangle:
    """A partial diagram: crossings over local edge names plus direct wires.

    Boundary edges appear exactly once among crossings and wires; a wire
    joins two boundary points with no crossing between them.
    """

    crossings: tuple[tuple[int, int, int, int], ...]
    wires: tuple[tuple[int, int], ...] = ()

    def edge_uses(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for quad in self.crossings:
            for e in quad:
                counts[e] = counts.get(e, 0) + 1
        for a, b in self.wires:
            counts[a] = counts.get(a, 0) + 1
            counts[b] = counts.get(b, 0) + 1
        return counts

    def boundary_edges(self) -> list[int]:
        return sorted(e for e, c in self.edge_uses().items() if c == 1)


def extract_tangle(dg: LinkDiagram, sites: Sequence[int]) -> Tangle:
    """The sub-diagram spanned by the given crossing indices."""
    if len(set(sites)) != len(sites) or any(
        not (0 <= k < len(dg.crossings)) for k in sites
    ):
        raise LinkError("bad crossing indices for the site")
    return Tangle(tuple(dg.crossings[k] for k in sites))


def _fresh_ids(dg: LinkDiagram, n: int) -> list[int]:
    base = max(dg.edges(), default=0)
    return [base + k + 1 for k in range(n)]


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

    site_set = set(sites)
    internal = sorted(e for e in replacement.edge_uses() if e not in rep_boundary)
    fresh = dict(zip(internal, _fresh_ids(dg, len(internal))))

    def rename(e: int) -> int:
        return fresh[e] if e in fresh else boundary_map[e]

    new_crossings = [q for k, q in enumerate(dg.crossings) if k not in site_set]
    new_crossings += [tuple(rename(e) for e in quad) for quad in replacement.crossings]
    weld = {}
    for a, b in replacement.wires:
        ra, rb = rename(a), rename(b)
        weld[max(ra, rb)] = min(ra, rb)
    if weld:
        new_crossings = [tuple(weld.get(e, e) for e in quad) for quad in new_crossings]
    try:
        new_dg = LinkDiagram(tuple(new_crossings), dg.free_loops)
    except LinkError as exc:
        raise LinkError(f"replacement produces an invalid diagram: {exc}") from exc

    local_name = {new: old for old, new in [*fresh.items(), *boundary_map.items()]}
    colors = {e: replacement_colors.get(old) for e, old in local_name.items()}
    return new_dg, _carry_colors(dg, new_dg, coloring, colors)


def flat_tangle(n: int = 3) -> Tangle:
    """Two parallel strands with the same boundary as an n-half-twist tangle."""
    return Tangle((), wires=((100, 100 + n), (200, 200 + n)))


def twist_boundary_colors(a: Permutation, b: Permutation, n: int = 3) -> dict:
    """Edge colors of the n-half-twist tangle with bottom colors (a, b).

    Local edges: left strand 100..100+n bottom to top, right strand
    200..200+n; the k-th crossing is (l_k, r_k, r_{k+1}, l_{k+1}).  The
    left edge l_{k+1} welds into the over-arc of crossing k, so the
    positional color pair evolves by (x, y) -> (y, conj of x by y).
    """
    colors = {}
    left, right = a, b
    for k in range(n + 1):
        colors[100 + k] = left
        colors[200 + k] = right
        left, right = right, left ** right
    return colors


def montesinos_pair_check(d: int = 3) -> bool:
    """Registration check: on distinct intersecting transpositions the
    3-half-twist tangle reproduces its bottom boundary colors at the top,
    matching the flat tangle's boundary monodromy."""
    for a, b in itertools.permutations(permutations.all_transpositions(d), 2):
        if len(a.support() & b.support()) != 1:
            continue
        colors = twist_boundary_colors(a, b, 3)
        if colors[103] != a or colors[203] != b:
            return False
    return True


def montesinos_flat_colors(a: Permutation, b: Permutation) -> dict:
    """Colors of the registered flat replacement for bottom colors (a, b).

    The boundary identity behind the registration is montesinos_pair_check,
    which the test suite checks for d = 3 to 8.
    """
    if a == b or len(a.support() & b.support()) != 1:
        raise LinkError("the registered pair needs distinct intersecting transpositions")
    return {100: a, 103: a, 200: b, 203: b}


# -- Reidemeister moves ------------------------------------------------------


def _with_renamed_head(dg: LinkDiagram, edge: int, new_id: int) -> list[list[int]]:
    """Crossing quads with the edge's arriving occurrence renamed."""
    k, slot = dg.edge_head(edge)
    quads = [list(q) for q in dg.crossings]
    quads[k][slot] = new_id
    return quads


def _carry_colors(
    dg: LinkDiagram,
    new_dg: LinkDiagram,
    coloring: SimpleColoring,
    fresh_colors: dict,
) -> SimpleColoring:
    """The coloring of new_dg that takes fresh_colors on the edges it names
    and the old arc colors on edges kept from dg; revalidated."""
    old_arcs = dg._strands.arcs
    assignment = {}
    for k in range(dg.free_loops):
        assignment[-(k + 1)] = coloring.assignment[-(k + 1)]
    for e in new_dg.edges():
        arc = new_dg.arc_of(e)
        if arc in assignment:
            continue
        color = fresh_colors.get(e)
        if color is None and e in old_arcs:
            color = coloring.assignment.get(old_arcs[e])
        if color is None:
            raise LinkError(f"no color available for edge {e}")
        assignment[arc] = color
    out = SimpleColoring(coloring.degree, coloring.flavor, assignment)
    if not coloring_satisfies(new_dg, out):
        raise LinkError("move produced an invalid coloring")
    return out


def r1_add(
    dg: LinkDiagram, coloring: SimpleColoring, edge: int, sign: int = 1
) -> tuple[LinkDiagram, SimpleColoring]:
    """Add a kink on the given edge; the loop arc copies the edge's color."""
    if edge not in dg.edges():
        raise LinkError(f"edge {edge} not in diagram")
    m, z = _fresh_ids(dg, 2)
    quads = _with_renamed_head(dg, edge, z)
    if sign == 1:
        quads.append([edge, z, m, m])
    else:
        quads.append([edge, m, m, z])
    new_dg = LinkDiagram(tuple(tuple(q) for q in quads), dg.free_loops)
    color = coloring.assignment[dg.arc_of(edge)]
    return new_dg, _carry_colors(dg, new_dg, coloring, {m: color, z: color})


def r1_remove(
    dg: LinkDiagram, coloring: SimpleColoring, site: int
) -> tuple[LinkDiagram, SimpleColoring]:
    """Remove a kink crossing (one whose over pair contains its under-out)."""
    if not (0 <= site < len(dg.crossings)):
        raise LinkError("bad crossing index")
    a, b, c, d = dg.crossings[site]
    if c == b:
        other = d
    elif c == d:
        other = b
    else:
        raise LinkError("crossing is not a kink")
    rep = Tangle((), wires=((a, other),))
    arc_color = coloring.assignment[dg.arc_of(a)]
    colors = {a: arc_color, other: arc_color}
    return montesinos_replace(dg, coloring, [site], rep, colors, {a: a, other: other})


def r2_add(
    dg: LinkDiagram, coloring: SimpleColoring, over_edge: int, under_edge: int
) -> tuple[LinkDiagram, SimpleColoring]:
    """Poke the under edge beneath the over edge: two opposite crossings."""
    if over_edge == under_edge:
        raise LinkError("r2 needs two distinct edges")
    for e in (over_edge, under_edge):
        if e not in dg.edges():
            raise LinkError(f"edge {e} not in diagram")
    u1, u2, o2, o3 = _fresh_ids(dg, 4)
    quads2 = [list(q) for q in _with_renamed_head(dg, under_edge, u2)]
    # rename the over edge's head in the partially rewritten quads
    k, slot = dg.edge_head(over_edge)
    quads2[k][slot] = o3
    quads2.append([under_edge, over_edge, u1, o2])
    quads2.append([u1, o3, u2, o2])
    new_dg = LinkDiagram(tuple(tuple(q) for q in quads2), dg.free_loops)
    o_color = coloring.assignment[dg.arc_of(over_edge)]
    u_color = coloring.assignment[dg.arc_of(under_edge)]
    sign1 = new_dg.crossing_sign(len(new_dg.crossings) - 2)
    mid_color = _conjugated(u_color, o_color, sign1)
    fresh_colors = {u1: mid_color, u2: u_color, o2: o_color, o3: o_color}
    return new_dg, _carry_colors(dg, new_dg, coloring, fresh_colors)


def r2_remove(
    dg: LinkDiagram, coloring: SimpleColoring, sites: tuple[int, int]
) -> tuple[LinkDiagram, SimpleColoring]:
    """Undo a poke: two crossings sharing both an under edge and an over edge."""
    k1, k2 = sites
    t = extract_tangle(dg, [k1, k2])
    boundary = t.boundary_edges()
    if len(boundary) != 4:
        raise LinkError("site is not a poke (needs 4 boundary edges)")
    a1, b1, c1, d1 = dg.crossings[k1]
    a2, b2, c2, d2 = dg.crossings[k2]
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
    wires = ((under_in, under_out), tuple(over_ends))
    rep = Tangle((), wires=wires)
    colors = {}
    for e in boundary:
        colors[e] = coloring.assignment[dg.arc_of(e)]
    return montesinos_replace(
        dg, coloring, [k1, k2], rep, colors, {e: e for e in boundary}
    )


# -- simple lifts -----------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class LiftSearchResult:
    lift: Optional[SimpleColoring]
    exhausted: bool = False  # budget hit without a verdict
    checks: int = 0


def _simple_conjugates(d: int, conjugator_bound: int) -> list[BraidWord]:
    """The distinct conjugates w g^e w^-1 (|w| <= bound), first spelling
    found breadth-first, sorted by their free-group images."""
    generators = [BraidWord(d, (i * s,)) for i in range(1, d) for s in (1, -1)]
    seen, frontier = set(generators), generators
    for _ in range(conjugator_bound):
        nxt = []
        for u in frontier:
            for g in generators:
                v = u ** g
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return sorted(seen, key=canonical_key)


def simple_braid_candidates(
    d: int, target: Permutation, conjugator_bound: int
) -> list[BraidWord]:
    """All conjugates w g^e w^-1 (|w| <= bound) projecting to the target."""
    return [w for w in _simple_conjugates(d, conjugator_bound) if braids.project(w) == target]


def find_simple_lift(
    dg: LinkDiagram,
    f: SimpleColoring,
    conjugator_bound: int = DEFAULT_CONJUGATOR_BOUND,
    budget: int = DEFAULT_LIFT_BUDGET,
) -> LiftSearchResult:
    """Search for a braid coloring projecting to f arc by arc.

    Candidates per arc are the bounded conjugates of generators projecting
    to the arc's color, computed once per call; crossing
    relations propagate forced values, which project to f because f
    satisfies the relations and projection is a homomorphism.  Each relation
    is checked by exact braid equality as soon as its under-in and over arcs
    are set, so a completed assignment needs no second pass.  The lift found
    is still re-verified with coloring_satisfies, outside the budget.
    ``checks`` counts relation evaluations.  "No lift within bounds" is not
    a proof of non-liftability.
    """
    if f.flavor != PERMUTATION:
        raise LinkError("the base coloring must be permutation-flavored")
    if not coloring_satisfies(dg, f):
        raise LinkError("the base coloring does not satisfy the diagram")
    d = f.degree
    pool = [(w, braids.project(w)) for w in _simple_conjugates(d, conjugator_bound)]
    candidates = {
        arc: [w for w, image in pool if image == f.assignment[arc]] for arc in dg.arcs()
    }
    try:
        found, checks = _solve_colorings(dg, candidates, _conjugated, limit=1, budget=budget)
    except SearchExhausted as exc:
        return LiftSearchResult(None, exhausted=True, checks=exc.args[0])
    if not found:
        return LiftSearchResult(None, checks=checks)
    lift = SimpleColoring(d, BRAID, found[0])
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


def coloring_from_json(data: dict) -> SimpleColoring:
    try:
        degree = data["degree"]
        flavor = data["flavor"]
        raw = data["assignment"]
    except (KeyError, TypeError) as exc:
        raise LinkError(f"coloring file needs degree/flavor/assignment: {exc}") from exc
    if not isinstance(raw, dict) or not all(isinstance(text, str) for text in raw.values()):
        raise LinkError(f"coloring assignment must map arcs to strings, got {raw!r}")
    parse = flavor_spec(flavor).parse
    assignment = {int(arc): parse(text, degree) for arc, text in raw.items()}
    return SimpleColoring(degree, flavor, assignment)
