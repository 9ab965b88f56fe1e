"""Finite quandles, conjugation quandles of simple elements, and lifting.

A quandle is a set with a binary operation x |> y that is idempotent, has
bijective right translations, and is right self-distributive; conjugation
x |> y = y^-1 x y in a group is the guiding example.  Two families matter
here: the transpositions of S_d under conjugation (finite) and the
conjugates of braid generators and their inverses under conjugation
(infinite, materialized lazily with normal-form keys so equality stays
exact).

Diagram colorings by a quandle follow the same crossing rule as the link
module: at a positive crossing the outgoing under-arc is u |> o, at a
negative one the inverse translation.
"""

from __future__ import annotations

import dataclasses
import functools
import threading
from typing import Optional, Sequence

from . import braids, links, permutations
from .braids import BraidWord
from .hurwitz import PERMUTATION, Simplicity, braid_simplicity
from .links import (
    LinkDiagram,
    LiftSearchResult,
    SimpleColoring,
    _solve_colorings,
    find_simple_lift,
)
from .permutations import Permutation


class QuandleError(ValueError):
    pass


@dataclasses.dataclass(frozen=True)
class QuandleReport:
    valid: bool
    error: Optional[str] = None


@dataclasses.dataclass(frozen=True)
class FiniteQuandle:
    """Elements 0..n-1 with op[x][y] = x |> y; optional display names.

    The table is stored as a tuple of tuples of exact ints, which the
    coloring search indexes directly."""

    op: tuple[tuple[int, ...], ...]
    names: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        object.__setattr__(self, "op", tuple(map(tuple, self.op)))
        if self.names is not None:
            object.__setattr__(self, "names", tuple(self.names))
        n = len(self.op)
        for row in self.op:
            if len(row) != n:
                raise QuandleError("operation table is not square")
            for v in row:
                if type(v) is not int or not 0 <= v < n:
                    raise QuandleError(f"table entry {v!r} is not an integer in 0..{n - 1}")
        if self.names is not None and len(self.names) != n:
            raise QuandleError("names must match the element count")

    def __len__(self) -> int:
        return len(self.op)

    def _check_pair(self, x, y) -> None:
        """Refuse anything but two exact ints in 0..n-1; the public
        operations check here, the package's own loops read ``op``."""
        n = len(self.op)
        if not (type(x) is int and type(y) is int and 0 <= x < n and 0 <= y < n):
            raise QuandleError(f"({x!r}, {y!r}) are not two elements of 0..{n - 1}")

    def apply(self, x: int, y: int) -> int:
        self._check_pair(x, y)
        return self.op[x][y]

    @functools.cached_property
    def _inverse(self) -> tuple[tuple[int, ...], ...]:
        """inv[x][y] = the z with z |> y = x; raises unless every right
        translation is a bijection."""
        columns = list(zip(*self.op))  # columns[y][z] = z |> y
        for y, column in enumerate(columns):
            if len(set(column)) != len(column):
                raise QuandleError(f"right translation by {y} is not a bijection")
        # A bijective column sorted by its values lists each value's preimage.
        return tuple(zip(*(sorted(range(len(c)), key=c.__getitem__) for c in columns)))

    def inverse_apply(self, x: int, y: int) -> int:
        """The z with z |> y = x; right translations must be bijective."""
        self._check_pair(x, y)
        return self._inverse[x][y]

    def _table(self, sign: int) -> tuple[tuple[int, ...], ...]:
        """The table the coloring search reads at a crossing of this sign."""
        return self.op if sign == 1 else self._inverse

    def name(self, x: int) -> str:
        return self.names[x] if self.names else str(x)


def quandle_validate(q: FiniteQuandle) -> QuandleReport:
    """Exhaustively check idempotence, right-invertibility, distributivity."""
    op, n = q.op, len(q)
    for x in range(n):
        if op[x][x] != x:
            return QuandleReport(False, f"idempotence fails at {q.name(x)}")
    for y in range(n):
        seen = {op[x][y] for x in range(n)}
        if len(seen) != n:
            return QuandleReport(False, f"right translation by {q.name(y)} is not a bijection")
    for x in range(n):
        for y in range(n):
            for z in range(n):
                left = op[op[x][y]][z]
                right = op[op[x][z]][op[y][z]]
                if left != right:
                    return QuandleReport(
                        False,
                        "self-distributivity fails at "
                        f"({q.name(x)}, {q.name(y)}, {q.name(z)})",
                    )
    return QuandleReport(True)


def trivial_quandle(n: int) -> FiniteQuandle:
    return FiniteQuandle(tuple(tuple(x for _ in range(n)) for x in range(n)))


def dihedral_quandle(n: int) -> FiniteQuandle:
    """Z_n with x |> y = 2y - x; for n = 3 this is T_3 in disguise."""
    return FiniteQuandle(
        tuple(tuple((2 * y - x) % n for y in range(n)) for x in range(n))
    )


def product_quandle(a: FiniteQuandle, b: FiniteQuandle) -> FiniteQuandle:
    na, nb = len(a), len(b)

    def enc(x, y):
        return x * nb + y

    op = [[0] * (na * nb) for _ in range(na * nb)]
    for xa in range(na):
        for xb in range(nb):
            for ya in range(na):
                for yb in range(nb):
                    op[enc(xa, xb)][enc(ya, yb)] = enc(a.op[xa][ya], b.op[xb][yb])
    return FiniteQuandle(tuple(tuple(row) for row in op))


def make_Td(d: int) -> FiniteQuandle:
    """The d(d-1)/2 transpositions of S_d under conjugation, built on
    point pairs."""
    try:
        permutations._check_degree(d, 2)
    except ValueError as exc:
        raise QuandleError(f"T_d {exc}") from None
    pairs, table = permutations._transposition_table(d)
    return FiniteQuandle(table, tuple(f"({a} {b})" for a, b in pairs))


# -- diagram colorings -------------------------------------------------------


def quandle_colorings(dg: LinkDiagram, q: FiniteQuandle) -> list[dict]:
    """All maps arc -> element satisfying the crossing rule.

    Plain dicts (arc -> element index), in lexicographic order of the
    elements along the arcs.
    """
    candidates = dict.fromkeys(dg.arcs(), range(len(q)))
    return _solve_colorings(dg, candidates, q._table)[0]


def td_coloring_to_simple(dg: LinkDiagram, d: int, coloring: dict) -> SimpleColoring:
    """Dictionary between T_d colorings and simple permutation colorings."""
    elements = permutations.all_transpositions(d)
    return SimpleColoring(
        d, PERMUTATION, {arc: elements[v] for arc, v in coloring.items()}
    )


# -- lifting -----------------------------------------------------------------


def is_quandle_homomorphism(
    p: Sequence[int], source: FiniteQuandle, target: FiniteQuandle
) -> bool:
    """Does p (source element x -> target element p[x]) respect |>?  A map
    that is not one element number of the target per source element is
    refused (QuandleError)."""
    n, m = len(source), len(target)
    if len(p) != n:
        raise QuandleError(f"the map has {len(p)} entries for {n} source elements")
    for v in p:
        if type(v) is not int or not 0 <= v < m:
            raise QuandleError(f"map value {v!r} is not an element of 0..{m - 1}")
    sop, top = source.op, target.op
    return all(p[sop[x][y]] == top[p[x]][p[y]] for x in range(n) for y in range(n))


def lift_through_surjection(
    p: Sequence[int],
    source: FiniteQuandle,
    target: FiniteQuandle,
    dg: LinkDiagram,
    coloring: dict,
) -> Optional[dict]:
    """Lift a target-quandle coloring through p: source ->> target.

    Complete search over the fibers p^-1(color(arc)), with forced values
    propagated through the crossings; returns the first lift in the
    product order of the fibers along the arcs, or None, and None is a
    certificate (the finite search is exhaustive).  Raises unless p is a
    surjective homomorphism.
    """
    if not is_quandle_homomorphism(p, source, target):
        raise QuandleError("p is not a quandle homomorphism")
    if set(p) != set(range(len(target))):
        raise QuandleError("p is not surjective")
    arcs = dg.arcs()
    if set(coloring) != set(arcs):
        raise QuandleError("coloring does not cover the arcs")
    fibers = {
        t: [x for x in range(len(source)) if p[x] == t] for t in range(len(target))
    }
    for arc in arcs:
        if type(coloring[arc]) is not int or coloring[arc] not in fibers:
            raise QuandleError(
                f"arc {arc}: color {coloring[arc]!r} is not an element of the target"
            )
    # A forced value leaves its fiber only where the coloring breaks a
    # crossing rule; fits then prunes, and no lift is found.
    fiber_of = {arc: fibers[coloring[arc]] for arc in arcs}
    found, _ = _solve_colorings(dg, fiber_of, source._table, fits=fiber_of, limit=1)
    return {arc: found[0][arc] for arc in arcs} if found else None  # keys in arc order


def lift_to_Ad(
    dg: LinkDiagram,
    coloring: SimpleColoring,
    conjugator_bound: int = links.DEFAULT_CONJUGATOR_BOUND,
    budget: int = links.DEFAULT_LIFT_BUDGET,
) -> LiftSearchResult:
    """Lift a T_d coloring through the projection A_d -> T_d.

    A_d colorings of a diagram are exactly simple braid colorings, so this
    delegates to the link module's search; results agree by construction.
    """
    return find_simple_lift(dg, coloring, conjugator_bound, budget)


# -- the lazy conjugation quandle of simple braid elements -------------------


class LazyBraidQuandle:
    """Conjugates of the braid generators and inverses, under conjugation.

    Elements materialize on demand, keyed by the words themselves, which
    compare and hash as group elements, so equality is exact despite
    laziness; membership is decided by ``braid_simplicity`` (exponent sum,
    projection and super summit).  The cache tolerates concurrent readers
    and idempotent concurrent inserts.
    """

    def __init__(self, degree: int):
        try:
            permutations._check_degree(degree, 2)
        except ValueError as exc:
            raise QuandleError(f"braid quandle {exc}") from None
        self.degree = degree
        self._elements: dict = {}
        self._lock = threading.Lock()
        for i in range(1, degree):
            for s in (1, -1):
                self._remember(BraidWord(degree, (i * s,)))

    def _remember(self, w: BraidWord) -> BraidWord:
        with self._lock:
            return self._elements.setdefault(w, w)

    def element(self, w: BraidWord) -> BraidWord:
        """Materialize w as a quandle element (must be certified simple)."""
        if w.degree != self.degree:
            raise QuandleError(f"degree {w.degree} != quandle degree {self.degree}")
        verdict = braid_simplicity(w)
        if verdict is not Simplicity.SIMPLE:
            raise QuandleError(f"element is {verdict.value}, not certified simple")
        return self._remember(w)

    def apply(self, x: BraidWord, y: BraidWord) -> BraidWord:
        """x |> y = y^-1 x y, again a simple element."""
        return self._remember(x ** y)

    def inverse_apply(self, x: BraidWord, y: BraidWord) -> BraidWord:
        return self._remember(x ** y.inverse())

    def project(self, x: BraidWord) -> Permutation:
        return braids.project(x)

    def materialized_count(self) -> int:
        return len(self._elements)


# -- text formats -------------------------------------------------------------
#
# Quandle table: first token n, then n*n table entries (0-based, row-major).
# Surjection file: n tokens, the image of each source element in order.


def quandle_to_text(q: FiniteQuandle) -> str:
    lines = [str(len(q))]
    for row in q.op:
        lines.append(" ".join(str(v) for v in row))
    return "\n".join(lines) + "\n"


def quandle_from_text(text: str) -> FiniteQuandle:
    tokens = text.split()
    if not tokens:
        raise QuandleError("empty quandle file")
    try:
        n = int(tokens[0])
        values = [int(t) for t in tokens[1:]]
    except ValueError as exc:
        raise QuandleError(f"bad token in quandle file: {exc}") from exc
    if n < 0:
        raise QuandleError(f"negative element count {n}")
    if len(values) != n * n:
        raise QuandleError(f"expected {n * n} table entries, got {len(values)}")
    op = tuple(tuple(values[r * n : (r + 1) * n]) for r in range(n))
    return FiniteQuandle(op)


def surjection_from_text(text: str) -> list[int]:
    try:
        return [int(t) for t in text.split()]
    except ValueError as exc:
        raise QuandleError(f"bad token in surjection file: {exc}") from exc
