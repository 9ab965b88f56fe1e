"""Exact arithmetic in symmetric groups S_d.

Points are 1-based: a Permutation of degree d acts on {1, ..., d} and is stored
as the tuple of images (images[k] is the image of the point k+1).

Convention used throughout the package: products read LEFT TO RIGHT, so
``compose(a, b)`` means "apply a first, then b" and ``(a * b)(x) == b(a(x))``.
Conjugation is ``a ** g == g^-1 * a * g``, which relabels the support of a
through g under this convention.
"""

from __future__ import annotations

import dataclasses
import itertools
import re
from typing import Iterable, Sequence

from ._unionfind import UnionFind

MAX_DEGREE = 16


def _check_degree(d: int, least: int = 1) -> None:
    """The one degree rule: an exact int (not a bool), least <= d <= MAX_DEGREE."""
    if type(d) is not int or d < least:
        raise ValueError(f"degree must be an integer >= {least}, got {d!r}")
    if d > MAX_DEGREE:
        raise ValueError(f"degree {d} exceeds the configured cap {MAX_DEGREE}")


@dataclasses.dataclass(frozen=True)
class Permutation:
    """A bijection of {1, ..., d}, immutable and hashable.

    >>> Permutation((2, 1, 3)) * Permutation((1, 3, 2))
    Permutation('(1 3 2)', degree=3)
    """

    images: tuple[int, ...]

    def __post_init__(self):
        if type(self.images) is not tuple:
            object.__setattr__(self, "images", tuple(self.images))
        d = len(self.images)
        _check_degree(d)
        if sorted(self.images) != list(range(1, d + 1)):
            raise ValueError(f"images {self.images} are not a bijection of 1..{d}")

    @property
    def degree(self) -> int:
        return len(self.images)

    @staticmethod
    def identity(d: int) -> "Permutation":
        _check_degree(d)
        return Permutation(tuple(range(1, d + 1)))

    @staticmethod
    def transposition(d: int, i: int, j: int) -> "Permutation":
        """The transposition (i j) in S_d."""
        _check_degree(d)
        if not (1 <= i <= d and 1 <= j <= d and i != j):
            raise ValueError(f"({i} {j}) is not a transposition in S_{d}")
        images = list(range(1, d + 1))
        images[i - 1], images[j - 1] = j, i
        return Permutation(tuple(images))

    @staticmethod
    def adjacent(d: int, i: int) -> "Permutation":
        """The standard generator (i, i+1), 1 <= i <= d-1."""
        return Permutation.transposition(d, i, i + 1)

    @staticmethod
    def from_cycles(d: int, cycles: Sequence[Sequence[int]]) -> "Permutation":
        """Build a permutation from disjoint cycles (fixed points omitted)."""
        _check_degree(d)
        images = list(range(1, d + 1))
        seen: set[int] = set()
        for cycle in cycles:
            for p in cycle:
                if not (1 <= p <= d):
                    raise ValueError(f"point {p} out of range 1..{d}")
                if p in seen:
                    raise ValueError(f"point {p} repeated across cycles")
                seen.add(p)
            for k, p in enumerate(cycle):
                images[p - 1] = cycle[(k + 1) % len(cycle)]
        return Permutation(tuple(images))

    def __call__(self, point: int) -> int:
        if not (1 <= point <= self.degree):
            raise ValueError(f"point {point} out of range 1..{self.degree}")
        return self.images[point - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if not isinstance(other, Permutation):
            return NotImplemented
        return compose(self, other)

    def __pow__(self, g: "Permutation") -> "Permutation":
        """Conjugate: self ** g == g^-1 self g (support relabeled through g)."""
        if not isinstance(g, Permutation):
            return NotImplemented
        return compose(compose(g.inverse(), self), g)

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for k, image in enumerate(self.images):
            inv[image - 1] = k + 1
        return Permutation(tuple(inv))

    def is_identity(self) -> bool:
        return all(image == k + 1 for k, image in enumerate(self.images))

    def support(self) -> frozenset[int]:
        """The set of moved points."""
        return frozenset(k + 1 for k, image in enumerate(self.images) if image != k + 1)

    def cycles(self, include_fixed: bool = False) -> list[tuple[int, ...]]:
        """Disjoint cycles, least point first, ordered by least point."""
        out = []
        seen = [False] * self.degree
        for start in range(1, self.degree + 1):
            if seen[start - 1]:
                continue
            cycle = [start]
            seen[start - 1] = True
            p = self(start)
            while p != start:
                cycle.append(p)
                seen[p - 1] = True
                p = self(p)
            if len(cycle) > 1 or include_fixed:
                out.append(tuple(cycle))
        return out

    def cycle_count(self) -> int:
        """Number of cycles including fixed points (the fiber size over a branch value)."""
        return len(self.cycles(include_fixed=True))

    def cycle_type(self) -> tuple[int, ...]:
        return tuple(sorted((len(c) for c in self.cycles(include_fixed=True)), reverse=True))

    def __repr__(self) -> str:
        return f"Permutation({cycle_string(self)!r}, degree={self.degree})"

    def __str__(self) -> str:
        return cycle_string(self)


def compose(a: Permutation, b: Permutation) -> Permutation:
    """Left-to-right product: apply a, then b."""
    if a.degree != b.degree:
        raise ValueError(f"degree mismatch: {a.degree} vs {b.degree}")
    return Permutation(tuple(b.images[image - 1] for image in a.images))


def product(perms: Iterable[Permutation], degree: int | None = None) -> Permutation:
    """Ordered left-to-right product; identity for an empty sequence (degree required)."""
    acc: Permutation | None = None
    for p in perms:
        acc = p if acc is None else compose(acc, p)
    if acc is None:
        if degree is None:
            raise ValueError("empty product needs an explicit degree")
        return Permutation.identity(degree)
    return acc


def is_transposition(a: Permutation) -> bool:
    """True iff a moves exactly two points."""
    return len(a.support()) == 2


def all_transpositions(d: int) -> list[Permutation]:
    return [
        Permutation.transposition(d, i, j)
        for i, j in itertools.combinations(range(1, d + 1), 2)
    ]


def orbits(perms: Sequence[Permutation], degree: int) -> list[frozenset[int]]:
    """Orbits of <perms> acting on {1..degree}, sorted by least element."""
    classes = UnionFind(range(1, degree + 1))
    for p in perms:
        if p.degree != degree:
            raise ValueError(f"degree mismatch: {p.degree} vs {degree}")
        for x, y in enumerate(p.images, 1):
            if x != y:
                classes.union(x, y)
    return [frozenset(g) for g in classes.groups()]  # groups come in point order


def is_transitive(perms: Sequence[Permutation], degree: int) -> bool:
    return len(orbits(perms, degree)) == 1


# -- text format ---------------------------------------------------------
#
# Two interchangeable forms: cycle notation "(1 2)(3 4)" (fixed points
# omitted, "()" is the identity) and one-line image arrays "[2, 1, 3]"
# or "2 1 3". Parsers annotate errors with the character position.

_TOKEN_RE = re.compile(r"\s*(\(|\)|\[|\]|,|\d+)")


class ParseError(ValueError):
    """Text parse failure; carries the character position of the offending token."""

    def __init__(self, message: str, position: int):
        super().__init__(f"at position {position}: {message}")
        self.position = position


def cycle_string(p: Permutation) -> str:
    cycles = p.cycles()
    if not cycles:
        return "()"
    return "".join("(" + " ".join(str(x) for x in c) + ")" for c in cycles)


def image_string(p: Permutation) -> str:
    return "[" + ", ".join(str(x) for x in p.images) + "]"


def _tokens(text: str):
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            at = len(text) - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", at)
        yield m.group(1), m.start(1)
        pos = m.end()


def parse_permutation(text: str, degree: int) -> Permutation:
    """Parse cycle notation or a one-line image array.

    >>> parse_permutation("(1 2)(3 4)", 4).images
    (2, 1, 4, 3)
    >>> parse_permutation("2 1 3", 3).images
    (2, 1, 3)
    """
    _check_degree(degree)
    toks = list(_tokens(text))
    if not toks:
        raise ParseError("empty permutation text", 0)
    kind = toks[0][0]
    if kind == "(":
        return _parse_cycles(toks, degree, text)
    return _parse_images(toks, degree)


def _parse_cycles(toks, degree: int, text: str) -> Permutation:
    cycles: list[list[int]] = []
    current: list[int] | None = None
    for tok, at in toks:
        if tok == "(":
            if current is not None:
                raise ParseError("nested '('", at)
            current = []
        elif tok == ")":
            if current is None:
                raise ParseError("unmatched ')'", at)
            if current:
                cycles.append(current)
            current = None
        elif tok == ",":
            continue
        elif tok.isdigit():
            if current is None:
                raise ParseError(f"point {tok} outside a cycle", at)
            val = int(tok)
            if not (1 <= val <= degree):
                raise ParseError(f"point {val} out of range 1..{degree}", at)
            current.append(val)
        else:
            raise ParseError(f"unexpected token {tok!r}", at)
    if current is not None:
        raise ParseError("unclosed '('", len(text))
    flat = [p for c in cycles for p in c]
    if len(set(flat)) != len(flat):
        raise ParseError("cycles are not disjoint", 0)
    return Permutation.from_cycles(degree, cycles)


def _parse_images(toks, degree: int) -> Permutation:
    images: list[int] = []
    for tok, at in toks:
        if tok in ("[", "]", ","):
            continue
        if not tok.isdigit():
            raise ParseError(f"unexpected token {tok!r}", at)
        val = int(tok)
        if not (1 <= val <= degree):
            raise ParseError(f"image {val} out of range 1..{degree}", at)
        images.append(val)
    if len(images) != degree:
        raise ParseError(f"expected {degree} images, got {len(images)}", 0)
    try:
        return Permutation(tuple(images))
    except ValueError as exc:
        raise ParseError(str(exc), 0) from exc
