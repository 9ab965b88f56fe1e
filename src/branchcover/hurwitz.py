"""Hurwitz systems over S_d and B_d, their moves, and HC-equivalence.

A Hurwitz system is an ordered tuple of group elements (the meridian images of
a branched-covering monodromy along a chosen generating system).  The two
moves are

  forward at k:   (..., a_k, a_{k+1}, ...) -> (..., a_{k+1}, a_{k+1}^-1 a_k a_{k+1}, ...)
  inverse at k:   (..., a_k, a_{k+1}, ...) -> (..., a_k a_{k+1} a_k^-1, a_k, ...)

plus entrywise conjugation by a group element.  Positions are 0-based here;
products read left to right as everywhere in this package.

The normal form for simple transitive closing permutation systems is
((12), ..., (12), (23), (23), (34), (34), ..., (d-1 d), (d-1 d)) with a
positive even number of (12) entries.  ``hc_normal_form`` produces it together
with a replayable move trace, reducing one letter d, d-1, ..., 3 at a time
with a terminating forward-move rule (``_reduce_letter``).  Since every such
system of a given degree and length has this one normal form (the
classification theorem of Hurwitz 1891 and Berstein-Edmonds 1984),
``hc_equivalent`` decides those systems by comparing lengths, without
computing normal forms.
"""

from __future__ import annotations

import dataclasses
import enum
from collections import deque
from typing import Callable, Iterable, NamedTuple, Sequence, Union

from . import braids, permutations
from .braids import BraidWord, braid_product, parse_braid
from .permutations import Permutation, parse_permutation

Entry = Union[Permutation, BraidWord]

PERMUTATION = "permutation"
BRAID = "braid"

DEFAULT_EQUIV_BUDGET = 100_000


class Flavor(NamedTuple):
    """What a flavor means: its element type, the parser of its entry text
    (``str(e)`` writes it), and the least degree of its groups."""

    element: type
    parse: Callable[[str, int], Entry]
    least_degree: int


FLAVORS = {
    PERMUTATION: Flavor(Permutation, parse_permutation, 1),
    BRAID: Flavor(BraidWord, parse_braid, 2),
}


def flavor_spec(flavor) -> Flavor:
    """The table row of a flavor; an unknown flavor is refused here only."""
    if not isinstance(flavor, str) or flavor not in FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r}")
    return FLAVORS[flavor]


def check_elements(flavor, degree, elements: Iterable[tuple], where: str = "entry {}") -> None:
    """Refuse an unknown flavor, a degree outside its range, or an element of
    another type or degree among the (label, element) pairs.  ``where``
    formats a label into the error; it is formatted only when a check fails.
    """
    element, _, least = flavor_spec(flavor)
    permutations._check_degree(degree, least)
    for label, e in elements:
        if not isinstance(e, element):
            raise ValueError(
                f"{where.format(label)}: a {type(e).__name__} is not of flavor {flavor}"
            )
        if e.degree != degree:
            raise ValueError(f"{where.format(label)}: degree {e.degree} is not {degree}")


def as_permutations(flavor: str, elements: Iterable[Entry]) -> list[Permutation]:
    """The images in S_d of elements of a flavor: braids project, permutations stay."""
    if flavor == PERMUTATION:
        return list(elements)
    return [braids.project(e) for e in elements]


class HurwitzError(ValueError):
    pass


class NonSimpleSystemError(HurwitzError):
    pass


class IntransitiveSystemError(HurwitzError):
    pass


class NonClosingSystemError(HurwitzError):
    pass


class Simplicity(enum.Enum):
    SIMPLE = "simple"
    NOT_SIMPLE = "not_simple"


class Equivalence(enum.Enum):
    EQUIVALENT = "equivalent"
    DISTINCT = "distinct"
    UNKNOWN = "unknown"


@dataclasses.dataclass(frozen=True)
class HurwitzSystem:
    """Ordered tuple of meridian images, all of one flavor and degree."""

    degree: int
    entries: tuple[Entry, ...]
    flavor: str = PERMUTATION

    def __post_init__(self):
        if type(self.entries) is not tuple:
            object.__setattr__(self, "entries", tuple(self.entries))
        check_elements(self.flavor, self.degree, enumerate(self.entries))

    def __len__(self) -> int:
        return len(self.entries)

    @staticmethod
    def of_permutations(entries: Sequence[Permutation], degree: int | None = None) -> "HurwitzSystem":
        if degree is None:
            if not entries:
                raise ValueError("empty system needs an explicit degree")
            degree = entries[0].degree
        return HurwitzSystem(degree, tuple(entries), PERMUTATION)

    @staticmethod
    def of_braids(entries: Sequence[BraidWord], degree: int | None = None) -> "HurwitzSystem":
        if degree is None:
            if not entries:
                raise ValueError("empty system needs an explicit degree")
            degree = entries[0].degree
        return HurwitzSystem(degree, tuple(entries), BRAID)

    def __str__(self) -> str:
        body = ", ".join(str(e) for e in self.entries)
        return f"[{self.flavor} d={self.degree}: {body}]"


def hurwitz_move(s: HurwitzSystem, k: int, direction: str = "forward") -> HurwitzSystem:
    """One move at 0-based position k (acting on entries k and k+1).

    The total product is unchanged; forward and inverse at the same k undo
    each other.
    """
    n = len(s.entries)
    if not (0 <= k <= n - 2):
        raise IndexError(f"move position {k} out of range for {n} entries")
    a, b = s.entries[k], s.entries[k + 1]
    if direction == "forward":
        pair = (b, a ** b)
    elif direction == "inverse":
        pair = (b ** a.inverse(), a)
    else:
        raise ValueError(f"direction must be 'forward' or 'inverse', not {direction!r}")
    entries = s.entries[:k] + pair + s.entries[k + 2 :]
    return HurwitzSystem(s.degree, entries, s.flavor)


def conjugate_system(s: HurwitzSystem, g: Entry) -> HurwitzSystem:
    """Entrywise conjugation (a_1, ..., a_n) -> (g^-1 a_1 g, ..., g^-1 a_n g)."""
    check_elements(s.flavor, s.degree, [(None, g)], "conjugator")
    return HurwitzSystem(s.degree, tuple(e ** g for e in s.entries), s.flavor)


def total_monodromy(s: HurwitzSystem) -> Entry:
    """Ordered product a_1 a_2 ... a_n (identity for the empty system)."""
    if s.flavor == PERMUTATION:
        return permutations.product(s.entries, degree=s.degree)
    return braid_product(s.entries, degree=s.degree)


def is_closing(s: HurwitzSystem) -> bool:
    return total_monodromy(s).is_identity()


# -- simplicity ----------------------------------------------------------


def braid_simplicity(w: BraidWord) -> Simplicity:
    """Is w a conjugate of some generator or inverse generator?

    Decided by three tests.  The exponent sum must be +1 or -1 and the
    projection a transposition.  For d = 2 that suffices (B_2 is infinite
    cyclic).  For d >= 3, take u = w, or u = w^-1 when the sum is -1: u is
    a conjugate of a generator iff its super summit invariants
    (inf_s, sup_s) are (0, 1) (``braids.summit``).  Such a summit element
    is a single simple factor of length e = 1, an atom, and all atoms are
    conjugate; conversely the generators have inf 0 and sup 1, which the
    exponent sum makes extremal (inf_s <= e / ||Delta|| <= sup_s).  The
    summit search stops as soon as it reaches (0, 1), and its conjugator is
    the certificate.
    """
    e = braids.exponent_sum(w)
    if e not in (1, -1):
        return Simplicity.NOT_SIMPLE
    if not permutations.is_transposition(braids.project(w)):
        return Simplicity.NOT_SIMPLE
    if w.degree == 2:
        return Simplicity.SIMPLE
    inf, sup, _ = braids.summit(w if e == 1 else w.inverse())
    return Simplicity.SIMPLE if (inf, sup) == (0, 1) else Simplicity.NOT_SIMPLE


def entry_simplicity_verdicts(s: HurwitzSystem) -> list[Simplicity]:
    """Per-entry verdicts: transpositions, or conjugates of braid generators."""
    if s.flavor == PERMUTATION:
        return [
            Simplicity.SIMPLE if permutations.is_transposition(e) else Simplicity.NOT_SIMPLE
            for e in s.entries
        ]
    return [braid_simplicity(e) for e in s.entries]


def is_simple_system(s: HurwitzSystem) -> bool:
    """True iff every entry is simple (see entry_simplicity_verdicts)."""
    return all(v is Simplicity.SIMPLE for v in entry_simplicity_verdicts(s))


def is_transitive(s: HurwitzSystem) -> bool:
    """Does the monodromy group act transitively on the sheets?"""
    return permutations.is_transitive(as_permutations(s.flavor, s.entries), s.degree)


def orbit_partition(s: HurwitzSystem) -> list[frozenset[int]]:
    return permutations.orbits(as_permutations(s.flavor, s.entries), s.degree)


# -- normal form ---------------------------------------------------------

Trace = list[tuple]  # ("H", k, "forward"|"inverse") or ("C", Entry)


def replay_trace(s: HurwitzSystem, trace: Iterable[tuple]) -> HurwitzSystem:
    """Apply a recorded move sequence to a system."""
    for step in trace:
        if step[0] == "H":
            s = hurwitz_move(s, step[1], step[2])
        elif step[0] == "C":
            s = conjugate_system(s, step[1])
        else:
            raise ValueError(f"unknown trace step {step!r}")
    return s


class _Worker:
    """Mutable system plus its accumulating move trace."""

    def __init__(self, s: HurwitzSystem):
        self.degree = s.degree
        self.entries: list[Permutation] = list(s.entries)
        self.trace: Trace = []

    def system(self) -> HurwitzSystem:
        return HurwitzSystem.of_permutations(self.entries, self.degree)

    def fwd(self, k: int) -> None:
        a, b = self.entries[k], self.entries[k + 1]
        self.entries[k], self.entries[k + 1] = b, a ** b
        self.trace.append(("H", k, "forward"))

    def conj(self, g: Permutation) -> None:
        self.entries = [e ** g for e in self.entries]
        self.trace.append(("C", g))

    def push_right(self, j: int, target: int) -> None:
        """Move the entry at j to position target > j; it is conjugated en route."""
        for k in range(j, target):
            self.fwd(k)


def _gather_letter(w: _Worker, ell: int, end: int) -> int:
    """Push every entry moving ell to the tail of entries[:end]; returns the count."""
    target = end - 1
    while target >= 0:
        j = None
        for k in range(target, -1, -1):
            if ell in w.entries[k].support():
                j = k
                break
        if j is None:
            break
        w.push_right(j, target)
        target -= 1
    return end - 1 - target


def _reduce_letter(w: _Worker, ell: int, end: int) -> None:
    """Leave exactly two entries moving ell, equal and at the tail of entries[:end].

    Each round gathers the entries (x ell) at the tail entries[start:end],
    c = end - start of them, and stops at c <= 2.  Otherwise it either
    forward-moves the leftmost differing tail pair,
    (a ell)(b ell) -> (b ell)(a b), so that c drops by one, or, when all c
    tail entries equal (x ell), borrows: it slides the rightmost prefix entry
    (x y) to start-1 and forward-moves at start-1 and at start, which turns
    (x y)(x ell)^c into (x ell)(x ell)(x y)(x ell)^(c-2); the next gather
    makes that (y ell)(y ell)(x ell)^(c-2), whose first differing pair the
    following round merges.

    Termination.  On entry the block entries[:end] moves only points of
    {1..ell}, is closing, and is transitive on {1..ell}; Hurwitz moves keep
    its product and the group it generates.
      - c != 0, because the group moves ell.
      - c != 1: a lone (x ell) would send ell to x, and the other entries,
        which fix ell, never send it back.
      - When all tail entries equal (x ell), the group is generated by the
        prefix entries[:start], which fixes ell, and (x ell).  Transitivity
        then needs the prefix to be transitive on {1..ell-1}, so (ell >= 3)
        some prefix entry moves x and the borrow finds one.
      - So c falls at least every two rounds.
      - At c = 2 the pair is equal: (a ell)(b ell) with a != b would send
        ell to a.
    The tail pair (x ell)(x ell) has trivial product, so the remaining block
    entries[:end-2] again meets the entry conditions on {1..ell-1} once x is
    relabelled to ell-1, which is how hc_normal_form proceeds.
    """
    while True:
        count = _gather_letter(w, ell, end)
        if count <= 2:
            return
        start = end - count
        tail = w.entries[start:end]
        k = next((k for k in range(count - 1) if tail[k] != tail[k + 1]), None)
        if k is not None:
            w.fwd(start + k)
            continue
        x = min(tail[0].support() - {ell})
        j = max(k for k in range(start) if x in w.entries[k].support())
        w.push_right(j, start - 1)
        w.fwd(start - 1)
        w.fwd(start)


def _check_normal_preconditions(s: HurwitzSystem) -> None:
    if s.flavor != PERMUTATION:
        raise HurwitzError("normal form is defined for permutation systems")
    verdicts = entry_simplicity_verdicts(s)
    if any(v is not Simplicity.SIMPLE for v in verdicts):
        bad = next(i for i, v in enumerate(verdicts) if v is not Simplicity.SIMPLE)
        raise NonSimpleSystemError(f"entry {bad} is not a transposition")
    if not is_closing(s):
        raise NonClosingSystemError(
            f"total monodromy {total_monodromy(s)} is not the identity"
        )
    if not is_transitive(s):
        raise IntransitiveSystemError(
            f"monodromy group is intransitive: orbits {[sorted(o) for o in orbit_partition(s)]}"
        )


def hc_normal_form(s: HurwitzSystem) -> tuple[HurwitzSystem, Trace]:
    """Normal form of a simple transitive closing permutation system.

    Returns the normal form together with the move trace realizing it:
    ``replay_trace(s, trace)`` equals the returned system.  Raises
    NonSimpleSystemError / NonClosingSystemError / IntransitiveSystemError
    when the preconditions fail.
    """
    _check_normal_preconditions(s)
    d, n = s.degree, len(s.entries)
    if d == 1:
        return s, []

    w = _Worker(s)
    end = n
    for ell in range(d, 2, -1):
        _reduce_letter(w, ell, end)
        pair = w.entries[end - 2 : end]
        if pair[0] != pair[1] or ell not in pair[0].support():
            raise HurwitzError("letter reduction failed to produce an equal tail pair")
        x = min(pair[0].support() - {ell})
        if x != ell - 1:
            w.conj(Permutation.transposition(d, x, ell - 1))
        end -= 2

    tau1 = Permutation.adjacent(d, 1)
    if any(e != tau1 for e in w.entries[:end]):
        raise HurwitzError("leading block failed to reduce to (1 2) entries")
    m = end
    if m < 2 or m % 2 != 0 or m != n - 2 * (d - 2):
        raise HurwitzError(f"normal form has malformed (1 2) block of size {m}")
    return w.system(), w.trace


def normal_form_template(degree: int, n: int) -> HurwitzSystem:
    """The expected normal form for a given degree and length."""
    m = n - 2 * (degree - 2)
    if degree < 2 or m < 2 or m % 2 != 0:
        raise ValueError(f"no normal form of degree {degree} and length {n}")
    entries = [Permutation.adjacent(degree, 1)] * m
    for i in range(2, degree):
        entries += [Permutation.adjacent(degree, i)] * 2
    return HurwitzSystem.of_permutations(entries, degree)


# -- HC-equivalence ------------------------------------------------------


def _entry_class_invariant(e: Entry):
    if isinstance(e, Permutation):
        return e.cycle_type()
    return (braids.exponent_sum(e), braids.project(e).cycle_type())


def _screen_distinct(s: HurwitzSystem, t: HurwitzSystem) -> bool:
    """Cheap HC-invariants that certify two systems are inequivalent."""
    if len(s) != len(t):
        return True
    if sorted(_entry_class_invariant(e) for e in s.entries) != sorted(
        _entry_class_invariant(e) for e in t.entries
    ):
        return True
    total_s, total_t = total_monodromy(s), total_monodromy(t)
    if _entry_class_invariant(total_s) != _entry_class_invariant(total_t):
        return True
    if sorted(map(len, orbit_partition(s))) != sorted(map(len, orbit_partition(t))):
        return True
    if s.flavor == BRAID and s.degree >= 3:
        # The total monodromy changes only by conjugation, so its super
        # summit invariants (inf_s, sup_s) are HC-invariants.
        return braids.summit(total_s)[:2] != braids.summit(total_t)[:2]
    return False


def _neighbors(s: HurwitzSystem) -> Iterable[HurwitzSystem]:
    n = len(s.entries)
    for k in range(n - 1):
        yield hurwitz_move(s, k, "forward")
        yield hurwitz_move(s, k, "inverse")
    if s.flavor == PERMUTATION:
        for i in range(1, s.degree):
            yield conjugate_system(s, Permutation.adjacent(s.degree, i))
    else:
        for i in range(1, s.degree):
            yield conjugate_system(s, BraidWord(s.degree, (i,)))
            yield conjugate_system(s, BraidWord(s.degree, (-i,)))


def _bidirectional_search(
    s: HurwitzSystem, t: HurwitzSystem, budget: int
) -> Equivalence:
    if s == t:
        return Equivalence.EQUIVALENT
    sides = [{s}, {t}]
    frontiers = [deque([s]), deque([t])]
    explored = 0
    while explored < budget:
        if not frontiers[0] or not frontiers[1]:
            # One component is fully explored without meeting the other.
            return Equivalence.DISTINCT
        side = 0 if len(frontiers[0]) <= len(frontiers[1]) else 1
        current = frontiers[side].popleft()
        for nxt in _neighbors(current):
            if nxt in sides[side]:
                continue
            if nxt in sides[1 - side]:
                return Equivalence.EQUIVALENT
            sides[side].add(nxt)
            frontiers[side].append(nxt)
            explored += 1
            if explored >= budget:
                return Equivalence.UNKNOWN
    return Equivalence.UNKNOWN


def hc_equivalent(
    s: HurwitzSystem, t: HurwitzSystem, budget: int = DEFAULT_EQUIV_BUDGET
) -> Equivalence:
    """Decide HC-equivalence.

    Permutation systems are first asked whether they are simple, transitive
    and closing; moves and conjugation keep each of the three (cycle types,
    the generated group up to conjugacy, a trivial product).  Two such
    systems are EQUIVALENT exactly when their lengths agree, by the
    classification of simple branched coverings (Hurwitz 1891;
    Berstein-Edmonds 1984): both reduce to ``normal_form_template`` of their
    degree and length, which ``hc_normal_form`` realizes with a move trace
    when a certificate is wanted.  When only one of them is, they are
    DISTINCT.  Otherwise cheap invariants (length, entry classes, total
    monodromy, orbit sizes, and for braid systems of degree >= 3 the super
    summit invariants of the total monodromy) certify DISTINCT, and
    everything else falls back to a bounded bidirectional search over the
    move graph, which reports UNKNOWN when the budget is exhausted.
    """
    if s.degree != t.degree or s.flavor != t.flavor:
        raise HurwitzError("systems must share degree and flavor")
    if s.flavor == PERMUTATION:
        normal = [_meets_normal_preconditions(s), _meets_normal_preconditions(t)]
        if all(normal):
            return Equivalence.EQUIVALENT if len(s) == len(t) else Equivalence.DISTINCT
        if any(normal):
            return Equivalence.DISTINCT
    if _screen_distinct(s, t):
        return Equivalence.DISTINCT
    return _bidirectional_search(s, t, budget)


def _meets_normal_preconditions(s: HurwitzSystem) -> bool:
    try:
        _check_normal_preconditions(s)
    except HurwitzError:
        return False
    return True


# -- enumeration (shared by tests and the covering classification) --------


def iter_simple_closing_systems(
    degree: int, n: int, transitive_only: bool = True
) -> Iterable[HurwitzSystem]:
    """All length-n transposition systems with identity product, one by one.

    The last entry is forced (it must invert the prefix product), so this
    walks (#transpositions)^(n-1) prefixes.
    """
    if n <= 0:
        return
    trans = permutations.all_transpositions(degree)
    identity = Permutation.identity(degree)

    def rec(prefix: list[Permutation], prod: Permutation):
        if len(prefix) == n - 1:
            last = prod.inverse()
            if permutations.is_transposition(last):
                entries = prefix + [last]
                if not transitive_only or permutations.is_transitive(entries, degree):
                    yield HurwitzSystem.of_permutations(entries, degree)
            return
        for t in trans:
            prefix.append(t)
            yield from rec(prefix, permutations.compose(prod, t))
            prefix.pop()

    yield from rec([], identity)


# -- JSON files ----------------------------------------------------------


def system_to_json(s: HurwitzSystem) -> dict:
    return {"degree": s.degree, "flavor": s.flavor, "entries": [str(e) for e in s.entries]}


def system_from_json(data: dict) -> HurwitzSystem:
    try:
        degree = data["degree"]
        flavor = data["flavor"]
        raw = data["entries"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"system file needs degree/flavor/entries: {exc}") from exc
    if not isinstance(raw, list) or not all(isinstance(text, str) for text in raw):
        raise ValueError(f"system entries must be a list of strings, got {raw!r}")
    parse = flavor_spec(flavor).parse
    return HurwitzSystem(degree, tuple(parse(text, degree) for text in raw), flavor)
