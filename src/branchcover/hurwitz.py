"""Hurwitz systems over S_d and B_d, their moves, and HC-equivalence.

A Hurwitz system is an ordered tuple of group elements (the meridian images of
a branched-covering monodromy along a chosen generating system).  The two
moves are

  forward at k:   (..., a_k, a_{k+1}, ...) -> (..., a_{k+1}, a_{k+1}^-1 a_k a_{k+1}, ...)
  inverse at k:   (..., a_k, a_{k+1}, ...) -> (..., a_k a_{k+1} a_k^-1, a_k, ...)

plus entrywise conjugation by a group element.  Positions are 0-based here;
products read left to right as everywhere in this package.  The
``HurwitzSystem`` constructor checks every entry; moves, conjugations (after
checking the conjugator) and the normal form build their results from
checked entries without re-checking them.

The normal form for simple transitive closing permutation systems is
((12), ..., (12), (23), (23), (34), (34), ..., (d-1 d), (d-1 d)) with a
positive even number of (12) entries.  ``hc_normal_form`` produces it together
with a replayable move trace, reducing one letter d, d-1, ..., 3 at a time
with a terminating forward-move rule (``_reduce_letter``).  It checks its
input in one pass that reads each distinct entry once as a sorted point
pair and tests simplicity, closing and transitivity on those pairs
(``_check_normal_preconditions``).  The move loop runs inline on a local
list of the same pairs, so a move relabels one or two points, and
``Permutation``s are built only for the trace's conjugators and for the
returned system.  Since
every such system of a given degree and length has this one normal form
(the classification theorem of Hurwitz 1891 and Berstein-Edmonds 1984),
``hc_equivalent`` decides those systems by comparing lengths, without
computing normal forms.

The braids module is imported only on braid-flavored paths, once per call,
so a permutation system never loads it.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import TYPE_CHECKING, Iterable, Sequence, Union

from . import permutations
from .permutations import (
    BRAID,
    PERMUTATION,
    Permutation,
    _Value,
    _check_degree,
    _check_json_object,
    _exact_bool,
    _exact_int,
    _relabel,
    as_permutations,
    check_elements,
    flavor_spec,
)

if TYPE_CHECKING:
    from .braids import BraidWord

Entry = Union[Permutation, "BraidWord"]

DEFAULT_EQUIV_BUDGET = 100_000


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


class HurwitzSystem(_Value):
    """Ordered tuple of meridian images, all of one flavor and degree."""

    def __init__(self, degree: int, entries: tuple[Entry, ...], flavor: str = PERMUTATION):
        if type(entries) is not tuple:
            entries = tuple(entries)
        check_elements(flavor, degree, enumerate(entries))
        self.__dict__.update(degree=degree, entries=entries, flavor=flavor)

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


def _unchecked(degree: int, entries: tuple[Entry, ...], flavor: str) -> HurwitzSystem:
    """A HurwitzSystem of entries computed from a checked system (moves,
    conjugates by a checked element) or from checked permutations of the
    given degree; nothing is re-checked."""
    s = object.__new__(HurwitzSystem)
    s.__dict__.update(degree=degree, entries=entries, flavor=flavor)
    return s


def hurwitz_move(s: HurwitzSystem, k: int, direction: str = "forward") -> HurwitzSystem:
    """One move at 0-based position k (acting on entries k and k+1).

    The total product is unchanged; forward and inverse at the same k undo
    each other.  A position that is not an int is refused (ValueError); one
    past the entries raises IndexError.
    """
    forward = _is_forward(k, direction, len(s.entries))
    a, b = s.entries[k], s.entries[k + 1]
    pair = (b, a ** b) if forward else (b ** a.inverse(), a)
    entries = s.entries[:k] + pair + s.entries[k + 2 :]
    return _unchecked(s.degree, entries, s.flavor)


def _is_forward(k: int, direction: str, n: int) -> bool:
    """Check a move's position among n entries, then its direction; True
    for a forward move.  Raises as ``hurwitz_move`` documents."""
    if not (0 <= _exact_int(k, "move position") <= n - 2):
        raise IndexError(f"move position {k} out of range for {n} entries")
    if direction == "forward":
        return True
    if direction == "inverse":
        return False
    raise ValueError(f"direction must be 'forward' or 'inverse', not {direction!r}")


def conjugate_system(s: HurwitzSystem, g: Entry) -> HurwitzSystem:
    """Entrywise conjugation (a_1, ..., a_n) -> (g^-1 a_1 g, ..., g^-1 a_n g)."""
    check_elements(s.flavor, s.degree, [(None, g)], "conjugator")
    return _unchecked(s.degree, tuple([e ** g for e in s.entries]), s.flavor)


def total_monodromy(s: HurwitzSystem) -> Entry:
    """Ordered product a_1 a_2 ... a_n (identity for the empty system)."""
    acc = flavor_spec(s.flavor).element.identity(s.degree)
    for e in s.entries:
        acc = acc * e
    return acc


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
    from . import braids

    return _braid_simplicity(braids, w)


def _braid_simplicity(braids, w: BraidWord) -> Simplicity:
    """``braid_simplicity`` with the braids module handed in, so that a
    system's entries are decided after one import."""
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
    from . import braids

    return [_braid_simplicity(braids, e) for e in s.entries]


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
    """Apply a recorded move sequence to a system.

    A step is ("H", k, direction) or ("C", g); any other shape is refused.
    Each step is checked as ``hurwitz_move`` and ``conjugate_system`` check
    it.  A braid system takes the steps one by one; a permutation system's
    steps act on one list of image tuples, and the system is built once.
    """
    if s.flavor != PERMUTATION:
        for step in trace:
            match step:
                case ("H", k, direction):
                    s = hurwitz_move(s, k, direction)
                case ("C", g):
                    s = conjugate_system(s, g)
                case _:
                    raise ValueError(f"unknown trace step {step!r}")
        return s
    conjugated = permutations._conjugated
    images = [e.images for e in s.entries]
    for step in trace:
        match step:
            case ("H", k, direction):
                forward = _is_forward(k, direction, len(images))
                a, b = images[k], images[k + 1]
                if forward:
                    images[k], images[k + 1] = b, conjugated(a, b)
                else:
                    a_inverse = permutations._unchecked(a).inverse().images
                    images[k], images[k + 1] = conjugated(b, a_inverse), a
            case ("C", g):
                check_elements(PERMUTATION, s.degree, [(None, g)], "conjugator")
                images = [conjugated(e, g.images) for e in images]
            case _:
                raise ValueError(f"unknown trace step {step!r}")
    return _unchecked(s.degree, tuple([permutations._unchecked(e) for e in images]), PERMUTATION)


def _reduce_letter(entries: list[tuple[int, int]], trace: Trace, ell: int, end: int) -> None:
    """Leave exactly two entries moving ell, equal and at the tail of entries[:end].

    The entries are sorted point pairs (a, b), a < b, and every entry of the
    block moves only points of {1..ell}, so an entry moving ell is (x, ell)
    with x < ell.  Every move is a forward move (x, y) -> (y, x^y), which
    relabels the two points of x through y and is appended to ``trace``; a
    push carries one entry right over several positions this way.  Each
    round gathers the entries (x ell) at the tail entries[start:end], c =
    end - start of them, by pushing them there right to left, and stops at
    c <= 2.  Otherwise it either forward-moves the leftmost differing tail
    pair, (a ell)(b ell) -> (b ell)(a b), so that c drops by one, or, when
    all c tail entries equal (x ell), borrows: it pushes the rightmost
    prefix entry (x y) to start+1, which turns (x y)(x ell)^c into
    (x ell)(x ell)(x y)(x ell)^(c-2); the next gather makes that
    (y ell)(y ell)(x ell)^(c-2), whose first differing pair the following
    round merges.  Neither step moves an entry (x ell) below start-1, so
    the next gather starts no lower.

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
    low = 0  # entries[:low] move no ell
    while True:
        target = end - 1
        for j in range(end - 1, low - 1, -1):
            if entries[j][1] == ell:
                if j < target:  # push (a ell) over entries that fix ell: only a is relabelled
                    a = entries[j][0]
                    for k in range(j, target):
                        u, v = entries[k] = entries[k + 1]
                        if a == u:
                            a = v
                        elif a == v:
                            a = u
                        trace.append(("H", k, "forward"))
                    entries[target] = (a, ell)
                target -= 1
        start = target + 1
        if end - start <= 2:
            return
        for k in range(start, end - 1):
            a, b = entries[k][0], entries[k + 1][0]
            if a != b:  # (a ell)(b ell) -> (b ell)(a b)
                entries[k], entries[k + 1] = entries[k + 1], (a, b) if a < b else (b, a)
                trace.append(("H", k, "forward"))
                low = start
                break
        else:
            # Borrow the rightmost prefix entry moving x, (x y): the entries it
            # crosses before the tail fix x and ell, so only y is relabelled,
            # and crossing two (x ell) then leaves (x ell)(x ell)(x y).
            x = entries[start][0]
            j = next(k for k in range(start - 1, -1, -1) if x in entries[k])
            y = sum(entries[j]) - x
            for k in range(j, start - 1):
                u, v = entries[k] = entries[k + 1]
                y = v if y == u else u if y == v else y
            entries[start - 1 : start + 2] = (x, ell), (x, ell), (x, y) if x < y else (y, x)
            trace.extend([("H", k, "forward") for k in range(j, start + 1)])
            low = start - 1


def _check_normal_preconditions(s: HurwitzSystem) -> list[tuple[int, int]]:
    """The entries of a simple, closing, transitive permutation system as
    sorted point pairs; refuses any other system.

    One pass reads the moved points of each distinct entry once: a count
    other than two raises NonSimpleSystemError for the first such entry.
    Swapping two slots of an image list per pair, right to left, builds the
    left-to-right total monodromy, which must be the identity
    (NonClosingSystemError).  The orbit of point 1, grown over the distinct
    pairs until it stops growing, must hold every point
    (IntransitiveSystemError).  The checks run in this order, and an
    error's text is built only when its check fails.
    """
    if s.flavor != PERMUTATION:
        raise HurwitzError("normal form is defined for permutation systems")
    pairs = []
    read: dict[tuple[int, ...], tuple[int, int]] = {}  # images -> point pair
    for i, e in enumerate(s.entries):
        pair = read.get(e.images)
        if pair is None:
            moved = [k for k, image in enumerate(e.images, 1) if image != k]
            if len(moved) != 2:
                raise NonSimpleSystemError(f"entry {i} is not a transposition")
            pair = read[e.images] = (moved[0], moved[1])
        pairs.append(pair)
    identity = list(range(1, s.degree + 1))
    images = identity.copy()
    for a, b in reversed(pairs):
        images[a - 1], images[b - 1] = images[b - 1], images[a - 1]
    if images != identity:
        raise NonClosingSystemError(f"total monodromy {total_monodromy(s)} is not the identity")
    orbit, size = {1}, 0
    while size < len(orbit) < s.degree:
        size = len(orbit)
        for pair in read.values():
            if pair[0] in orbit or pair[1] in orbit:
                orbit.update(pair)
    if len(orbit) < s.degree:
        orbits = permutations._pair_orbits(pairs, s.degree)
        raise IntransitiveSystemError(
            f"monodromy group is intransitive: orbits {[sorted(o) for o in orbits]}"
        )
    return pairs


def hc_normal_form(s: HurwitzSystem) -> tuple[HurwitzSystem, Trace]:
    """Normal form of a simple transitive closing permutation system.

    Returns the normal form together with the move trace realizing it:
    ``replay_trace(s, trace)`` equals the returned system.  Raises
    NonSimpleSystemError / NonClosingSystemError / IntransitiveSystemError
    when the preconditions fail.
    """
    entries = _check_normal_preconditions(s)
    d, n = s.degree, len(entries)
    if d == 1:
        return s, []

    trace: Trace = []
    end = n
    for ell in range(d, 2, -1):
        _reduce_letter(entries, trace, ell, end)
        a, b = entries[end - 2 : end]
        if a != b or a[1] != ell:
            raise HurwitzError("letter reduction failed to produce an equal tail pair")
        if a[0] != ell - 1:
            u, v = a[0], ell - 1
            entries = [_relabel(e, u, v) if u in e or v in e else e for e in entries]
            trace.append(("C", permutations._transposition(d, u, v)))
        end -= 2

    if any(e != (1, 2) for e in entries[:end]):
        raise HurwitzError("leading block failed to reduce to (1 2) entries")
    if end < 2 or end % 2 != 0 or end != n - 2 * (d - 2):
        raise HurwitzError(f"normal form has malformed (1 2) block of size {end}")
    # The normal form's distinct pairs are the adjacent ones, (a a+1).
    adjacent = [permutations._transposition(d, a, a + 1) for a in range(1, d)]
    return _unchecked(d, tuple([adjacent[a - 1] for a, _ in entries]), PERMUTATION), trace


def normal_form_template(degree: int, n: int) -> HurwitzSystem:
    """The expected normal form for a given degree and length."""
    m = _exact_int(n, "length") - 2 * (_check_degree(degree, 2) - 2)
    if m < 2 or m % 2 != 0:
        raise ValueError(f"no normal form of degree {degree} and length {n}")
    entries = [Permutation.adjacent(degree, 1)] * m
    for i in range(2, degree):
        entries += [Permutation.adjacent(degree, i)] * 2
    return HurwitzSystem.of_permutations(entries, degree)


# -- HC-equivalence ------------------------------------------------------


def _screen_distinct(s: HurwitzSystem, t: HurwitzSystem) -> bool:
    """Cheap HC-invariants that certify two systems are inequivalent.

    An element's class invariant is its cycle type, for a braid the
    exponent sum and the cycle type of its projection.
    """
    if len(s) != len(t):
        return True
    if s.flavor == PERMUTATION:
        invariant = Permutation.cycle_type
    else:
        from . import braids

        def invariant(w):
            return braids.exponent_sum(w), braids.project(w).cycle_type()

    if sorted(map(invariant, s.entries)) != sorted(map(invariant, t.entries)):
        return True
    total_s, total_t = total_monodromy(s), total_monodromy(t)
    if invariant(total_s) != invariant(total_t):
        return True
    if sorted(map(len, orbit_partition(s))) != sorted(map(len, orbit_partition(t))):
        return True
    if s.flavor == PERMUTATION or s.degree < 3:
        return False
    # The total monodromy changes only by conjugation, so its super summit
    # invariants (inf_s, sup_s) are HC-invariants.
    return braids.summit(total_s)[:2] != braids.summit(total_t)[:2]


def _neighbors(s: HurwitzSystem, generators: list[Entry]) -> Iterable[HurwitzSystem]:
    n = len(s.entries)
    for k in range(n - 1):
        yield hurwitz_move(s, k, "forward")
        yield hurwitz_move(s, k, "inverse")
    for g in generators:
        yield conjugate_system(s, g)


def _bidirectional_search(
    s: HurwitzSystem, t: HurwitzSystem, budget: int
) -> Equivalence:
    if s == t:
        return Equivalence.EQUIVALENT
    d = s.degree
    if s.flavor == PERMUTATION:
        generators = [Permutation.adjacent(d, i) for i in range(1, d)]
    else:
        from .braids import BraidWord

        generators = [BraidWord(d, (x,)) for i in range(1, d) for x in (i, -i)]
    sides = [{s}, {t}]
    frontiers = [deque([s]), deque([t])]
    explored = 0
    while explored < budget:
        if not frontiers[0] or not frontiers[1]:
            # One component is fully explored without meeting the other.
            return Equivalence.DISTINCT
        side = 0 if len(frontiers[0]) <= len(frontiers[1]) else 1
        current = frontiers[side].popleft()
        for nxt in _neighbors(current, generators):
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
    move graph, which reports UNKNOWN when the budget is exhausted.  A
    budget that is not an integer >= 0 is refused (HurwitzError), as the
    CLI's ``--budget`` is.
    """
    if s.degree != t.degree or s.flavor != t.flavor:
        raise HurwitzError("systems must share degree and flavor")
    _exact_int(budget, "budget", 0, error=HurwitzError)
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

    The systems come in ``itertools.product(all_transpositions(degree),
    repeat=n)`` order, keeping those whose product is the identity and, when
    ``transitive_only``, whose group is transitive.  A degree outside
    1..MAX_DEGREE, a length that is not an exact int or a flag that is not
    a bool is refused (ValueError) when the first system is asked for; a
    length below 2 yields nothing.

    Cost.  The walk holds the inverse of the product of its first n-2
    entries as one image list, swaps two slots in place on the way down and
    back on the way up (a transposition is an involution), and so visits
    C(d, 2)^(n-2) prefixes without building a ``Permutation``.  The last
    two entries (t, u) must satisfy t u = (prefix product)^-1, so the
    closing (t, u), in t order, are listed once per distinct inverse (at
    most d! lists): each of the C(d, 2)^(n-1) candidate systems costs one
    step of such a list.  Transitivity depends only on the set of
    transpositions used, so it runs one union-find
    (``permutations._pair_orbits``) per distinct set, keyed by the bitmask
    of their indices.  Every system is built fresh, its entries taken from
    one ``all_transpositions`` list.
    """
    _check_degree(degree)
    _exact_bool(transitive_only, "transitive_only")
    if _exact_int(n, "length") < 2:
        return
    trans = permutations.all_transpositions(degree)
    pairs = permutations._transposition_table(degree)[0]  # in ``trans`` order
    index = {pair: k for k, pair in enumerate(pairs)}
    points = range(1, degree + 1)
    inverse = list(range(degree + 1))  # slot x: the prefix product's preimage of x
    prefix = [None] * (n - 2)  # the first n-2 entries
    endings: dict[tuple[int, ...], list[tuple[Permutation, Permutation, int]]] = {}
    transitive: dict[int, bool] = {}

    def walk(depth: int, used: int):
        if depth < n - 2:
            for k, (a, b) in enumerate(pairs):
                inverse[a], inverse[b] = inverse[b], inverse[a]
                prefix[depth] = trans[k]
                yield from walk(depth + 1, used | 1 << k)
                inverse[a], inverse[b] = inverse[b], inverse[a]
            return
        key = tuple(inverse)
        if key not in endings:
            endings[key] = []
            for k, (a, b) in enumerate(pairs):
                # Swapped, the list holds the images of t (prefix product)^-1 = u.
                inverse[a], inverse[b] = inverse[b], inverse[a]
                moved = [x for x in points if inverse[x] != x]
                inverse[a], inverse[b] = inverse[b], inverse[a]
                if len(moved) == 2:
                    j = index[moved[0], moved[1]]
                    endings[key].append((trans[k], trans[j], 1 << k | 1 << j))
        for t, u, bits in endings[key]:
            if transitive_only:
                mask = used | bits
                joined = transitive.get(mask)
                if joined is None:
                    chosen = [pair for k, pair in enumerate(pairs) if mask >> k & 1]
                    orbits = permutations._pair_orbits(chosen, degree)
                    joined = transitive[mask] = len(orbits) == 1
                if not joined:
                    continue
            yield _unchecked(degree, (*prefix, t, u), PERMUTATION)

    yield from walk(0, 0)


# -- JSON files ----------------------------------------------------------


def system_to_json(s: HurwitzSystem) -> dict:
    return {"degree": s.degree, "flavor": s.flavor, "entries": [str(e) for e in s.entries]}


def system_from_json(data: dict) -> HurwitzSystem:
    _check_json_object(data, "system")
    try:
        degree = data["degree"]
        flavor = data["flavor"]
        raw = data["entries"]
    except KeyError as exc:
        raise ValueError(f"system file needs degree/flavor/entries: {exc}") from exc
    if not isinstance(raw, list) or not all(isinstance(text, str) for text in raw):
        raise ValueError(f"system entries must be a list of strings, got {raw!r}")
    parse = flavor_spec(flavor).parse
    return HurwitzSystem(degree, tuple(parse(text, degree) for text in raw), flavor)
