"""Exact arithmetic in braid groups B_d.

A BraidWord is a word in the standard generators: ``letters`` is a tuple of
signed integers where ``i`` stands for the i-th generator and ``-i`` for its
inverse (1 <= i <= d-1).  Words multiply by concatenation, read LEFT TO RIGHT
like everything else in this package.  The constructor checks the degree and
every letter; products and inverses of checked words are not re-checked.

Equality of group elements is decided by the left normal form
Delta^p A_1 ... A_r over permutation braids (``garside_normal_form``;
El-Rifai and Morton 1994, Epstein et al., *Word Processing in Groups*,
ch. 9): two words are equal in B_d, and as BraidWords, iff their normal forms
coincide; the form costs polynomial time in the word length.  Its super
summit invariants (``summit``; Birman, Ko and Lee) are conjugacy invariants.

``canonical_key`` gives the images of (x_1, ..., x_d) under Artin's faithful
action on the free group F_d (s_i: x_i -> x_i x_{i+1} x_i^-1, x_{i+1} ->
x_i), freely reduced, as tuples of nonzero ints.  It composes the action
right to left, psi <- psi o s_x from the last letter x to the first, so a
letter rewrites only two images, each a join of two or three freely reduced
images that can cancel only at the seams: two tuple concatenations plus a
Python step per cancelled pair, where substituting every image letter by
letter costs a Python step per letter of every image.  The images can
still grow exponentially with the word, so they serve two purposes only:
the order of the lift candidates (``links._simple_conjugates``) and the
tests' independent oracle for the normal form.
"""

from __future__ import annotations

import functools
import re
from operator import neg
from typing import Iterable, Sequence

from . import permutations
from .permutations import ParseError, Permutation, _Value, _check_degree, _exact_int, _exact_ints, _exact_sign

Letter = int


def free_reduce(letters: Iterable[int]) -> tuple[int, ...]:
    """Cancel adjacent inverse pairs.

    >>> free_reduce((1, 2, -2, -1, 3))
    (3,)
    """
    stack: list[int] = []
    for x in letters:
        if stack and stack[-1] == -x:
            stack.pop()
        else:
            stack.append(x)
    return tuple(stack)


class BraidWord(_Value):
    """A word in the generators of B_d that compares and hashes as the group
    element it spells, by its left normal form (computed once per word)."""

    def __init__(self, degree: int, letters: tuple[Letter, ...]):
        _check_degree(degree, 2)
        if type(letters) is not tuple:
            letters = tuple(letters)
        _exact_ints(letters, "generator index", 1 - degree, degree - 1)
        if 0 in letters:
            raise ValueError(f"generator index 0 out of range for degree {degree}")
        self.__dict__.update(degree=degree, letters=letters)

    @staticmethod
    def identity(d: int) -> "BraidWord":
        return BraidWord(d, ())

    @staticmethod
    def generator(d: int, i: int, sign: int = 1) -> "BraidWord":
        return BraidWord(d, (_exact_int(i, "generator index", 1) * _exact_sign(sign, "sign"),))

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        if not isinstance(other, BraidWord):
            return NotImplemented
        if self.degree != other.degree:
            raise ValueError(f"degree mismatch: {self.degree} vs {other.degree}")
        return _unchecked(self.degree, free_reduce(self.letters + other.letters))

    def inverse(self) -> "BraidWord":
        return _unchecked(self.degree, tuple([-x for x in reversed(self.letters)]))

    def __pow__(self, g: "BraidWord") -> "BraidWord":
        """Conjugate: self ** g == g^-1 self g, freely reduced in one pass."""
        if not isinstance(g, BraidWord):
            return NotImplemented
        if g.degree != self.degree:
            raise ValueError(f"degree mismatch: {g.degree} vs {self.degree}")
        inverse = tuple(map(neg, reversed(g.letters)))
        return _unchecked(self.degree, free_reduce(inverse + self.letters + g.letters))

    @functools.cached_property
    def _normal_form(self):
        return garside_normal_form(self)

    def __eq__(self, other):
        if not isinstance(other, BraidWord):
            return NotImplemented
        return self.degree == other.degree and (
            self.letters == other.letters
            or exponent_sum(self) == exponent_sum(other) and self._normal_form == other._normal_form
        )

    def __hash__(self) -> int:
        return hash((self.degree, self._normal_form))

    def is_identity(self) -> bool:
        return self._normal_form == (0, ())

    def __str__(self) -> str:
        return word_string(self)

    def __repr__(self) -> str:
        return f"BraidWord({self.degree}, {word_string(self)!r})"


def _unchecked(degree: int, letters: tuple[Letter, ...]) -> BraidWord:
    """A BraidWord whose degree and letters come from checked words (their
    product or inverse); nothing is re-checked."""
    w = object.__new__(BraidWord)
    w.__dict__.update(degree=degree, letters=letters)
    return w


def _join(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The free reduction of a b for freely reduced a and b: only the seam
    can cancel."""
    n = min(len(a), len(b))
    k = 0
    while k < n and a[-1 - k] == -b[k]:
        k += 1
    return a[: len(a) - k] + b[k:]


def canonical_key(w: BraidWord) -> tuple[tuple[int, ...], ...]:
    """Freely reduced images of x_1, ..., x_d under w; only for the lift
    candidate order and the tests' oracle (see the module docstring).

    The automorphism is built right to left, psi <- psi o s_x for each
    letter x from the last: s_i changes only the images of x_i and x_i+1,
    to psi(x_i) psi(x_i+1) psi(x_i)^-1 and psi(x_i), and s_i^-1 to
    psi(x_i+1) and psi(x_i+1)^-1 psi(x_i) psi(x_i+1).  The images stay
    freely reduced, so a letter costs two seam-only joins (``_join``) and
    one inversion, all linear in the two images it touches; free reduction
    is unique, so the key is the letter-by-letter substitution's.

    >>> canonical_key(parse_braid("s1 s2^-1", 3))
    ((1, 3, -1), (1,), (-3, 2, 3))
    """
    images = [(k,) for k in range(1, w.degree + 1)]
    for x in reversed(w.letters):
        if x > 0:
            a, b = images[x - 1], images[x]
            images[x - 1] = _join(_join(a, b), tuple(map(neg, reversed(a))))
            images[x] = a
        else:
            a, b = images[-x - 1], images[-x]
            images[-x - 1] = b
            images[-x] = _join(_join(tuple(map(neg, reversed(b))), a), b)
    return tuple(images)


def braids_equal(u: BraidWord, v: BraidWord) -> bool:
    """True iff u and v represent the same element of B_d (by normal forms)."""
    if u.degree != v.degree:
        raise ValueError(f"degree mismatch: {u.degree} vs {v.degree}")
    return u == v


def project(w: BraidWord) -> Permutation:
    """Natural projection B_d -> S_d; exponent signs are forgotten.

    Swapping slots |x|-1 and |x| of an image list per letter x, right to
    left, builds the left-to-right product of the adjacent transpositions.
    """
    images = list(range(1, w.degree + 1))
    for x in reversed(w.letters):
        i = abs(x)
        images[i - 1], images[i] = images[i], images[i - 1]
    return permutations._unchecked(tuple(images))


def exponent_sum(w: BraidWord) -> int:
    """Abelianization B_d -> Z; invariant under the braid relations."""
    return sum(1 if x > 0 else -1 for x in w.letters)


# -- Garside normal form -----------------------------------------------------
#
# A simple factor (permutation braid: a positive braid in which any two
# strands cross at most once) is held as a position tuple ``a`` of length d:
# a[k] is the 0-based starting position of the strand that ends at position
# k.  Right multiplication by the generator s_{j+1} swaps a[j] and a[j+1]; it
# keeps the factor simple iff a[j] < a[j+1] (those strands have not crossed
# yet), and s_{j+1} is a right divisor iff a[j] > a[j+1].  The product of
# simple factors a, b is ``[a[x] for x in b]``, Delta is the reversal, and
# tau(A) = Delta^-1 A Delta reflects positions and labels.  A pair (A, B) is
# left-weighted when every generator that left-divides B right-divides A.


def _tau(a: Sequence[int]) -> list[int]:
    top = len(a) - 1
    return [top - x for x in reversed(a)]


def _left_weight(a: list[int], b: list[int]) -> bool:
    """Make the pair of simple factors (a, b) left-weighted in place.

    Moves C = (a^-1 Delta) meet b, the greatest left divisor of b whose
    product with a stays simple, from b to a (El-Rifai and Morton 1994);
    returns whether C was nontrivial.  The meet is built one atom at a time:
    s_{j+1} can move while it left-divides what is left of b (the strands
    at j and j+1 cross in it) and a times it stays simple.  A move changes
    only the gaps next to j, so one bubble pass finds every move, and it
    swaps two entries each of a, pos and b.  Measured on words of 7-64
    letters at d = 3-8, this was 2-2.7x faster than taking the meet as the
    transitive closure of the order constraints on strands (timed while the
    normal form re-left-weighted after every letter).  Pushing one simple
    factor at a time, the normal form of a random word of 64 letters makes
    1.6 calls per letter at d = 4 and 2.1 at d = 8, and of 512 letters at
    d = 8, 7.9.
    """
    n = len(a)
    pos = [0] * n  # pos[s]: end position in b of the strand starting at s
    for k, s in enumerate(b):
        pos[s] = k
    moved = False
    j = 0
    while j < n - 1:
        k, m = pos[j], pos[j + 1]
        if k > m and a[j] < a[j + 1]:
            a[j], a[j + 1] = a[j + 1], a[j]
            pos[j], pos[j + 1] = m, k
            b[k], b[m] = j + 1, j
            moved = True
            if j:
                j -= 1
        else:
            j += 1
    return moved


class _NormalForm:
    """Delta^p A_1 ... A_r P under right multiplication: A_1 ... A_r is a
    left normal form and P is one pending simple factor, not yet weighed
    against it.  It starts from a left normal form (p, factors) and P = 1.

    A positive letter s goes into P while P s stays simple, and a negative
    letter s^-1 comes off P while s right-divides P; nothing else changes
    meanwhile.  Only a letter that does not fit pushes P: P is appended and
    the pairs are re-left-weighted from the end, once per simple factor
    rather than once per letter.  Then a positive letter starts a new P,
    and s^-1 either cancels a right divisor s of A_r in place or becomes
    Delta^-1 (Delta s^-1), the Delta^-1 passing every factor and Delta s^-1
    the new P.  The cancel needs no re-left-weighting: a generator that
    left-divides A_r s^-1 also left-divides A_r, so the pair (A_r-1, A_r
    s^-1) stays left-weighted.  P's letters are counted, and a P that is one
    generator s is appended without weighing a pair when s right-divides
    A_r, as (A_r, s) is then left-weighted.

    ``factors`` and ``pending`` hold tau^flip(A_k) and tau^flip(P), so that
    a Delta^-1 passing every factor (x Delta^-1 = Delta^-1 tau(x)) costs one
    flip of a bit; left-weighting commutes with tau.
    """

    def __init__(self, degree: int, p: int = 0, factors=()):
        self.degree = degree
        self.p = p
        self.flip = 0
        self.factors = [list(f) for f in factors]
        self._identity = list(range(degree))
        self._delta = self._identity[::-1]
        self.pending = self._identity[:]
        self.length = 0  # the number of letters of P

    def letters(self, word: Sequence[Letter]) -> None:
        """Right-multiply by each generator x of word (negative: its inverse)."""
        identity, factors = self._identity, self.factors
        top = self.degree - 2  # gap of s_i: i - 1, or top - (i - 1) under a flip
        pend, flip, n = self.pending, self.flip, self.length
        for x in word:
            if x > 0:
                j = top + 1 - x if flip else x - 1
                if pend[j] < pend[j + 1]:
                    pend[j], pend[j + 1] = pend[j + 1], pend[j]
                    n += 1
                    continue
                self._push(pend, n == 1)
                pend = identity[:]
                pend[j], pend[j + 1] = j + 1, j
                n = 1
                continue
            j = top + 1 + x if flip else -x - 1
            if pend[j] > pend[j + 1]:
                pend[j], pend[j + 1] = pend[j + 1], pend[j]
                n -= 1
                continue
            if n:
                self._push(pend, n == 1)
                pend = identity[:]
                n = 0
            if factors:
                last = factors[-1]
                if last[j] > last[j + 1]:
                    last[j], last[j + 1] = last[j + 1], last[j]
                    if last == identity:
                        factors.pop()
                    continue
            # s^-1 = Delta^-1 (Delta s^-1), and the Delta^-1 passes every factor.
            self.p -= 1
            flip ^= 1
            j = top - j
            pend = self._delta[:]
            pend[j], pend[j + 1] = pend[j + 1], pend[j]
            n = self.degree * (self.degree - 1) // 2 - 1  # the letters of Delta s^-1
        self.pending, self.flip, self.length = pend, flip, n

    def simple(self, a) -> None:
        """Right-multiply by a simple factor given as a position tuple,
        after pushing P."""
        self._flush()
        self._push(_tau(a) if self.flip else list(a))

    def _flush(self) -> None:
        """Push the pending factor unless it is 1."""
        if self.length:
            self._push(self.pending, self.length == 1)
            self.pending, self.length = self._identity[:], 0

    def _push(self, f: list[int], atom: bool = False) -> None:
        """Append the simple factor f and re-left-weight the pairs from the
        end, (r, f), (r-1, r), ..., until one is unchanged.  A Delta can only
        form at the front and an identity only at the end.  If f is a
        generator (``atom``) that right-divides A_r, the pair (A_r, f) is
        left-weighted already: nothing moves, and no pair is weighed."""
        factors = self.factors
        factors.append(f)
        k = len(factors) - 1
        if atom and k:
            j = 0
            while f[j] < f[j + 1]:
                j += 1
            if factors[k - 1][j] > factors[k - 1][j + 1]:
                return
        while k > 0 and _left_weight(factors[k - 1], factors[k]):
            k -= 1
        if factors[-1] == self._identity:
            factors.pop()
        while factors and factors[0] == self._delta:
            factors.pop(0)
            self.p += 1

    def result(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        self._flush()
        if self.flip:
            return self.p, tuple(tuple(_tau(f)) for f in self.factors)
        return self.p, tuple(map(tuple, self.factors))


def garside_normal_form(w: BraidWord) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Left normal form (p, (A_1, ..., A_r)) of w: w = Delta^p A_1 ... A_r.

    Each A_k is a simple factor other than 1 and Delta, given as a position
    tuple (entry k is the 0-based starting position of the strand ending at
    position k), and every pair (A_k, A_k+1) is left-weighted.  The form is
    unique, so it decides equality in B_d; inf(w) = p and sup(w) = p + r.
    Built left to right through one pending simple factor (``_NormalForm``):
    letters go into it or come off it while it stays simple, and the pairs
    are re-left-weighted only when a letter does not fit, once per simple
    factor rather than once per letter.

    >>> garside_normal_form(parse_braid("s1 s2 s1", 3))
    (1, ())
    >>> garside_normal_form(parse_braid("s2 s1 s2", 3))
    (1, ())
    >>> garside_normal_form(parse_braid("s1 s2^-1", 3))  # Delta^-1 s2 (s2 s1)
    (-1, ((0, 2, 1), (2, 0, 1)))
    >>> full_twist = parse_braid("s1 s2 s1 s2 s1 s2", 3)
    >>> s1 = parse_braid("s1", 3)
    >>> garside_normal_form(full_twist * s1) == garside_normal_form(s1 * full_twist)
    True
    """
    if w.degree == 2:
        return exponent_sum(w), ()
    nf = _NormalForm(w.degree)
    nf.letters(w.letters)
    return nf.result()


def _simple_letters(a) -> list[int]:
    """A positive word for a simple factor, peeling right divisors off."""
    a = list(a)
    out: list[int] = []
    j = 0
    while j < len(a) - 1:
        if a[j] > a[j + 1]:
            a[j], a[j + 1] = a[j + 1], a[j]
            out.append(j + 1)
            j = max(j - 1, 0)
        else:
            j += 1
    out.reverse()
    return out


def summit(w: BraidWord) -> tuple[int, int, BraidWord]:
    """Super summit invariants (inf_s, sup_s) of w's conjugacy class, with a
    conjugator c such that w ** c attains both.

    Neither cycling, Delta^p A_1 ... A_r -> Delta^p A_2 ... A_r tau^-p(A_1),
    nor decycling, -> A_r Delta^p A_1 ... A_r-1, lowers inf or raises sup
    (El-Rifai and Morton 1994).  If inf is not yet maximal in the conjugacy
    class, some run of at most ||Delta|| = d(d-1)/2 cyclings raises it;
    likewise for sup and decyclings (Birman, Ko and Lee 1998, 2001).  So
    cycling runs first and decycling second, each stopping after ||Delta||
    steps without progress, or as soon as it reaches the bound the exponent
    sum e gives: inf_s <= floor(e / ||Delta||) and sup_s >= ceil(e / ||Delta||).
    """
    d = w.degree
    e = exponent_sum(w)
    if d == 2:
        return e, e, BraidWord.identity(d)
    norm = d * (d - 1) // 2
    best_inf, best_sup = e // norm, -(-e // norm)
    p, factors = garside_normal_form(w)
    conjugator: list[int] = []

    idle = 0
    while p < best_inf and idle < norm:
        first = _tau(factors[0]) if p % 2 else factors[0]
        nf = _NormalForm(d, p, factors[1:])
        nf.simple(first)
        conjugator += _simple_letters(first)
        idle = 0 if nf.p > p else idle + 1
        p, factors = nf.result()

    idle = 0
    while p + len(factors) > best_sup and idle < norm:
        last = factors[-1]
        nf = _NormalForm(d, 0, [_tau(last) if p % 2 else last])
        for f in factors[:-1]:
            nf.simple(f)
        conjugator += [-x for x in reversed(_simple_letters(last))]
        q, rest = nf.result()
        idle = 0 if q + len(rest) < len(factors) else idle + 1
        p, factors = p + q, rest
    return p, p + len(factors), BraidWord(d, free_reduce(conjugator))


# -- text format ---------------------------------------------------------
#
# Words are whitespace-separated tokens "s<i>" or "s<i>^-1", e.g.
# "s1 s2^-1 s3"; the empty string is the identity.

_BRAID_TOKEN = re.compile(r"s([0-9]+)(\^(-?1))?$")


def word_string(w: BraidWord) -> str:
    return " ".join(f"s{abs(x)}" if x > 0 else f"s{abs(x)}^-1" for x in w.letters)


def parse_braid(text: str, degree: int) -> BraidWord:
    """Parse "s1 s2^-1" tokens; errors carry the character position.

    >>> parse_braid("s1 s2^-1", 3).letters
    (1, -2)
    """
    _check_degree(degree, 2)
    letters: list[int] = []
    pos = 0
    for raw in text.split():
        at = text.index(raw, pos)
        pos = at + len(raw)
        m = _BRAID_TOKEN.match(raw)
        if m is None:
            raise ParseError(f"bad braid token {raw!r}", at)
        idx = int(m.group(1))
        if not (1 <= idx <= degree - 1):
            raise ParseError(
                f"generator index {idx} out of range 1..{degree - 1}", at
            )
        sign = -1 if m.group(3) == "-1" else 1
        letters.append(idx * sign)
    return BraidWord(degree, free_reduce(letters))

