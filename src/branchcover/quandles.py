"""Finite quandles, conjugation quandles of simple elements, and lifting.

A quandle is a set with a binary operation x |> y that is idempotent, has
bijective right translations, and is right self-distributive; conjugation
x |> y = y^-1 x y in a group is the guiding example.  Two families matter
here: the transpositions of S_d under conjugation (finite, ``make_Td``) and
the conjugates of braid generators and their inverses under conjugation
(infinite).  The second is reached through ``lift_to_Ad``, whose search in
the link module materializes it lazily, one conjugation table per lift,
with words compared by normal form so equality stays exact.

Diagram colorings by a quandle follow the same crossing rule as the link
module: at a positive crossing the outgoing under-arc is u |> o, at a
negative one the inverse translation.  The coloring and lift functions run
the link module's search and import it themselves, so reading and checking
a quandle table loads no link code.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING, Optional, Sequence

from . import permutations
from .permutations import _Value, _check_degree, _exact_int, _exact_ints, _plain_int

if TYPE_CHECKING:
    from .links import LiftSearchResult, LinkDiagram, SimpleColoring

# links.DEFAULT_CONJUGATOR_BOUND and links.DEFAULT_LIFT_BUDGET, copied so
# that importing this module does not load links; tests/test_quandles.py
# pins them to the library.
CONJUGATOR_BOUND = 3
LIFT_BUDGET = 1_000_000


class QuandleError(ValueError):
    pass


class QuandleReport(_Value):
    def __init__(self, valid: bool, error: Optional[str] = None):
        self.__dict__.update(valid=valid, error=error)


class FiniteQuandle(_Value):
    """Elements 0..n-1 with op[x][y] = x |> y; optional display names.

    The table is stored as a tuple of tuples of exact ints, which the
    coloring search indexes directly."""

    def __init__(self, op: tuple[tuple[int, ...], ...], names: Optional[tuple[str, ...]] = None):
        op = tuple(map(tuple, op))
        if names is not None:
            names = tuple(names)
        n = len(op)
        if any(len(row) != n for row in op):
            raise QuandleError("operation table is not square")
        _exact_ints([v for row in op for v in row], "table entry", 0, n - 1, QuandleError)
        if names is not None and len(names) != n:
            raise QuandleError("names must match the element count")
        self.__dict__.update(op=op, names=names)

    def __len__(self) -> int:
        return len(self.op)

    def _check_elements(self, *xs) -> None:
        """Refuse anything but exact ints in 0..n-1; the public
        operations check here, the package's own loops read ``op``."""
        last = len(self.op) - 1
        if len(xs) == 1:
            what = f"{{}} is not an element of 0..{last}"
        else:
            what = f"{xs!r} are not two elements of 0..{last}: {{}} is not one"
        _exact_ints(xs, what, 0, last, QuandleError)

    def apply(self, x: int, y: int) -> int:
        self._check_elements(x, y)
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
        self._check_elements(x, y)
        return self._inverse[x][y]

    def _table(self, sign: int) -> tuple[tuple[int, ...], ...]:
        """The table the coloring search reads at a crossing of this sign."""
        return self.op if sign == 1 else self._inverse

    def name(self, x: int) -> str:
        self._check_elements(x)
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
    _exact_int(n, "trivial quandle order", 0, error=QuandleError)
    return FiniteQuandle(tuple(tuple(x for _ in range(n)) for x in range(n)))


def dihedral_quandle(n: int) -> FiniteQuandle:
    """Z_n with x |> y = 2y - x; for n = 3 this is T_3 in disguise."""
    _exact_int(n, "dihedral quandle order", 0, error=QuandleError)
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
    point pairs.

    The table is built from checked point pairs, so it is not re-checked.
    T_d is involutory, (x |> y) |> y = x, so its table is its own right
    inverse and is handed over as such rather than computed."""
    _check_degree(d, 2, QuandleError)
    pairs, table = permutations._transposition_table(d)
    q = object.__new__(FiniteQuandle)
    q.__dict__.update(op=table, names=tuple(f"({a} {b})" for a, b in pairs), _inverse=table)
    return q


# -- diagram colorings -------------------------------------------------------


def quandle_colorings(dg: LinkDiagram, q: FiniteQuandle) -> list[dict]:
    """All maps arc -> element satisfying the crossing rule.

    Plain dicts (arc -> element index), in lexicographic order of the
    elements along the arcs.
    """
    from .links import _solve_colorings

    candidates = dict.fromkeys(dg.arcs(), range(len(q)))
    return _solve_colorings(dg, candidates, q._table)[0]


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
    _exact_ints(p, f"map value {{}} is not an element of 0..{m - 1}", 0, m - 1, QuandleError)
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

    Seeds come from their fibers and p is a homomorphism, so on a valid
    coloring every forced value lands in its fiber and every solution is a
    lift.  A coloring that breaks a crossing rule has no lift, and any
    solution the search finds for it fails to project to it: so the first
    solution is checked once, at the end.
    """
    from .links import _solve_colorings

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
        _exact_int(coloring[arc], f"arc {arc}: color {{}} is not an element of the target", 0, len(target) - 1,
                   QuandleError)
    found, _ = _solve_colorings(dg, {arc: fibers[coloring[arc]] for arc in arcs}, source._table, limit=1)
    if found and all(p[found[0][arc]] == coloring[arc] for arc in arcs):
        return {arc: found[0][arc] for arc in arcs}  # keys in arc order
    return None


def lift_to_Ad(
    dg: LinkDiagram,
    coloring: SimpleColoring,
    conjugator_bound: int = CONJUGATOR_BOUND,
    budget: int = LIFT_BUDGET,
) -> LiftSearchResult:
    """Lift a T_d coloring through the projection A_d -> T_d.

    A_d colorings of a diagram are exactly simple braid colorings, so this
    delegates to the link module's search; results agree by construction.
    """
    from .links import find_simple_lift

    return find_simple_lift(dg, coloring, conjugator_bound, budget)


# -- text formats -------------------------------------------------------------
#
# Quandle table: first token n, then n*n table entries (0-based, row-major).
# Surjection file: n tokens, the image of each source element in order.


def quandle_to_text(q: FiniteQuandle) -> str:
    lines = [str(len(q))]
    for row in q.op:
        lines.append(" ".join(str(v) for v in row))
    return "\n".join(lines) + "\n"


def _plain_ints(tokens: list[str], what: str) -> list[int]:
    """The tokens as integers, each written as ``str`` writes it (so "0_1",
    "+2" and "00" are refused, although ``int`` reads them)."""
    values = [_plain_int(t) for t in tokens]
    if None in values:
        raise QuandleError(f"bad token in {what}: {tokens[values.index(None)]!r} is not an integer")
    return values


def quandle_from_text(text: str) -> FiniteQuandle:
    tokens = text.split()
    if not tokens:
        raise QuandleError("empty quandle file")
    n, *values = _plain_ints(tokens, "quandle file")
    if n < 0:
        raise QuandleError(f"negative element count {n}")
    if len(values) != n * n:
        raise QuandleError(f"expected {n * n} table entries, got {len(values)}")
    op = tuple(tuple(values[r * n : (r + 1) * n]) for r in range(n))
    return FiniteQuandle(op)


def surjection_from_text(text: str) -> list[int]:
    return _plain_ints(text.split(), "surjection file")
