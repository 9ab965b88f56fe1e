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
    """Elements 0..n-1 with op[x][y] = x |> y; optional display names."""

    op: tuple[tuple[int, ...], ...]
    names: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        n = len(self.op)
        for row in self.op:
            if len(row) != n or any(not (0 <= v < n) for v in row):
                raise QuandleError("operation table is not square over 0..n-1")
        if self.names is not None and len(self.names) != n:
            raise QuandleError("names must match the element count")

    def __len__(self) -> int:
        return len(self.op)

    def apply(self, x: int, y: int) -> int:
        return self.op[x][y]

    def inverse_apply(self, x: int, y: int) -> int:
        """The z with z |> y = x; right translations must be bijective."""
        column = [self.op[z][y] for z in range(len(self.op))]
        try:
            return column.index(x)
        except ValueError:
            raise QuandleError(f"right translation by {y} is not invertible at {x}")

    def name(self, x: int) -> str:
        return self.names[x] if self.names else str(x)


def quandle_validate(q: FiniteQuandle) -> QuandleReport:
    """Exhaustively check idempotence, right-invertibility, distributivity."""
    n = len(q)
    for x in range(n):
        if q.apply(x, x) != x:
            return QuandleReport(False, f"idempotence fails at {q.name(x)}")
    for y in range(n):
        seen = {q.apply(x, y) for x in range(n)}
        if len(seen) != n:
            return QuandleReport(False, f"right translation by {q.name(y)} is not a bijection")
    for x in range(n):
        for y in range(n):
            for z in range(n):
                left = q.apply(q.apply(x, y), z)
                right = q.apply(q.apply(x, z), q.apply(y, z))
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
                    op[enc(xa, xb)][enc(ya, yb)] = enc(a.apply(xa, ya), b.apply(xb, yb))
    return FiniteQuandle(tuple(tuple(row) for row in op))


def make_Td(d: int) -> FiniteQuandle:
    """The d(d-1)/2 transpositions of S_d under conjugation."""
    try:
        permutations._check_degree(d, 2)
    except ValueError as exc:
        raise QuandleError(f"T_d {exc}") from None
    elements = permutations.all_transpositions(d)
    index = {p: k for k, p in enumerate(elements)}
    op = tuple(
        tuple(index[x ** y] for y in elements) for x in elements
    )
    names = tuple(str(p) for p in elements)
    return FiniteQuandle(op, names)


# -- diagram colorings -------------------------------------------------------


def _crossing_rule(q: FiniteQuandle):
    """Outgoing under-arc element: u |> o, or the inverse translation at a
    negative crossing."""
    return lambda u, o, sign: q.apply(u, o) if sign == 1 else q.inverse_apply(u, o)


def quandle_colorings(dg: LinkDiagram, q: FiniteQuandle) -> list[dict]:
    """All maps arc -> element satisfying the crossing rule.

    Plain dicts (arc -> element index), in lexicographic order of the
    elements along the arcs.
    """
    candidates = dict.fromkeys(dg.arcs(), range(len(q)))
    return _solve_colorings(dg, candidates, _crossing_rule(q))[0]


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
    n = len(source)
    if len(p) != n or any(not (0 <= v < len(target)) for v in p):
        return False
    return all(
        p[source.apply(x, y)] == target.apply(p[x], p[y])
        for x in range(n)
        for y in range(n)
    )


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
        if coloring[arc] not in fibers:
            raise QuandleError(
                f"arc {arc}: color {coloring[arc]!r} is not an element of the target"
            )
    # A forced value leaves its fiber only where the coloring breaks a
    # crossing rule; fits then prunes, and no lift is found.
    found, _ = _solve_colorings(
        dg,
        {arc: fibers[coloring[arc]] for arc in arcs},
        _crossing_rule(source),
        fits=lambda arc, x: p[x] == coloring[arc],
        limit=1,
    )
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
    if len(values) != n * n:
        raise QuandleError(f"expected {n * n} table entries, got {len(values)}")
    op = tuple(tuple(values[r * n : (r + 1) * n]) for r in range(n))
    return FiniteQuandle(op)


def surjection_from_text(text: str) -> list[int]:
    try:
        return [int(t) for t in text.split()]
    except ValueError as exc:
        raise QuandleError(f"bad token in surjection file: {exc}") from exc
