"""Exact arithmetic in symmetric groups S_d.

Points are 1-based: a Permutation of degree d acts on {1, ..., d} and is stored
as the tuple of images (images[k] is the image of the point k+1).

Convention used throughout the package: products read LEFT TO RIGHT, so
``compose(a, b)`` means "apply a first, then b" and ``(a * b)(x) == b(a(x))``.
Conjugation is ``a ** g == g^-1 * a * g``, which relabels the support of a
through g under this convention.

Values are checked where they enter the package: the ``Permutation``
constructor, ``identity``, ``transposition``, ``from_cycles`` and the parsers
refuse anything but a bijection of 1..d in exact ints.  Results computed from
checked values (``compose``, ``inverse``, ``**``) are built by ``_unchecked``
without re-checking them.

``_exact_int`` is the one gate for every integer argument of the package:
each image, count, point, position, index, sign, budget, edge and letter
goes through it, its sequence form ``_exact_ints`` or, for a flag,
``_exact_bool``, and each module passes its own error class.  A whole token
of text read as an integer (a quandle file token, a coloring file key, a CLI
option) goes through ``_plain_int``; the text parsers match ASCII digits.

``_Value`` is the base of the package's value classes, this module's
``Permutation`` among them.  The flavor table (``flavor_spec``) says what
the elements of a Hurwitz system or a coloring are; it lives here, in the
module every other one imports, so that no module needs ``hurwitz`` or
``braids`` only to read it.
"""

from __future__ import annotations

import functools
import itertools
import operator
import re
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from ._unionfind import UnionFind

MAX_DEGREE = 16

_INT = frozenset({int})


def _exact_int(value, what: str, least: int | None = None, most: int | None = None, error=ValueError) -> int:
    """``value`` itself when it is an int, not a bool, float or str, and
    least <= value <= most (a bound of None is open); else ``error``.

    The message reads "{what} {value!r} is not an integer" plus the range.
    A ``what`` holding "{}" is the whole message instead, with the value's
    repr in place of the "{}".
    """
    if type(value) is int and (least is None or value >= least) and (most is None or value <= most):
        return value
    if "{}" in what:
        raise error(what.replace("{}", repr(value)))
    if least is None:
        bounds = "" if most is None else f" <= {most}"
    else:
        bounds = f" >= {least}" if most is None else f" in {least}..{most}"
    raise error(f"{what} {value!r} is not an integer{bounds}")


def _exact_ints(values: Sequence, what: str, least: int | None = None, most: int | None = None, error=ValueError) -> None:
    """``_exact_int`` for every value of a sequence, in one pass over the
    types and one per bound; the scalar form names the first that fails."""
    if values and (
        not _INT.issuperset(map(type, values))
        or least is not None and min(values) < least
        or most is not None and max(values) > most
    ):
        for value in values:
            _exact_int(value, what, least, most, error)


def _exact_bool(value, what: str, error=ValueError) -> bool:
    """``value`` itself when it is True or False, not 1, "no" or None."""
    if type(value) is not bool:
        raise error(f"{what} must be true or false, got {value!r}")
    return value


def _exact_sign(value, what: str, error=ValueError) -> int:
    """``value`` itself when it is the int 1 or -1."""
    if _exact_int(value, what, -1, 1, error) == 0:
        raise error(f"{what} 0 is not 1 or -1")
    return value


def _check_degree(d: int, least: int = 1, error=ValueError) -> int:
    """The one degree rule: an exact int with least <= d <= MAX_DEGREE."""
    if _exact_int(d, "degree", least, error=error) > MAX_DEGREE:
        raise error(f"degree {d} exceeds the configured cap {MAX_DEGREE}")
    return d


def _plain_int(text) -> int | None:
    """The int that ``text`` writes the way ``str`` writes it, else None.

    So "12" and "-3" name integers, while "012", "+1", "1_2", " 1" and
    non-ASCII digits such as "١" name none, although ``int`` reads them all.
    """
    try:
        value = int(text)
    except (TypeError, ValueError):
        return None
    return value if str(value) == text else None


_JSON_TYPES = {list: "an array", str: "a string", int: "a number", float: "a number",
               bool: "a boolean", type(None): "null"}


def _check_json_object(data, kind: str, error=ValueError) -> None:
    """Refuse the top level of a JSON file unless it is an object; the
    ``error`` names the kind of file and the JSON type it holds."""
    if not isinstance(data, dict):
        got = _JSON_TYPES.get(type(data), type(data).__name__)
        raise error(f"{kind} file must hold a JSON object, got {got}")


class _Value:
    """Base of the package's value classes: immutable, compared and hashed
    by their fields.

    The fields are the parameters of the subclass's ``__init__``, in order;
    ``__init__`` checks its arguments and stores them in ``__dict__``, where
    ``functools.cached_property`` and the ``_unchecked`` functions write too.
    Assigning or deleting an attribute raises AttributeError.  ``==`` holds
    between instances of one class with equal field tuples, and the hash is
    the hash of the field tuple; repr reads ``Name(field=value, ...)``.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1 : code.co_argcount]
        # attrgetter of two names or more returns their tuple.  Permutation,
        # the one class with a single field, has its own __eq__ and __hash__.
        cls._field_tuple = staticmethod(operator.attrgetter(*cls._fields))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._field_tuple(self) == other._field_tuple(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._field_tuple(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class Permutation(_Value):
    """A bijection of {1, ..., d}, immutable and hashable.

    >>> Permutation((2, 1, 3)) * Permutation((1, 3, 2))
    Permutation('(1 3 2)', degree=3)
    """

    def __init__(self, images: tuple[int, ...]):
        if type(images) is not tuple:
            images = tuple(images)
        d = len(images)
        _check_degree(d)
        _exact_ints(images, "images are not integers: {} is not one")
        if sorted(images) != list(range(1, d + 1)):
            raise ValueError(f"images {images} are not a bijection of 1..{d}")
        object.__setattr__(self, "images", images)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.images == other.images
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.images,))

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
        _exact_int(i, "point", 1, d)
        if _exact_int(j, "point", 1, d) == i:
            raise ValueError(f"({i} {j}) is not a transposition in S_{d}")
        return _transposition(d, i, j)

    @staticmethod
    def adjacent(d: int, i: int) -> "Permutation":
        """The standard generator (i, i+1), 1 <= i <= d-1."""
        return Permutation.transposition(d, _exact_int(i, "generator index"), i + 1)

    @staticmethod
    def from_cycles(d: int, cycles: Sequence[Sequence[int]]) -> "Permutation":
        """Build a permutation from disjoint cycles (fixed points omitted)."""
        _check_degree(d)
        images = list(range(1, d + 1))
        seen: set[int] = set()
        for cycle in cycles:
            _exact_ints(cycle, "point", 1, d)
            for p in cycle:
                if p in seen:
                    raise ValueError(f"point {p} repeated across cycles")
                seen.add(p)
            for k, p in enumerate(cycle):
                images[p - 1] = cycle[(k + 1) % len(cycle)]
        return Permutation(tuple(images))

    def __call__(self, point: int) -> int:
        return self.images[_exact_int(point, "point", 1, self.degree) - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if not isinstance(other, Permutation):
            return NotImplemented
        return compose(self, other)

    def __pow__(self, g: "Permutation") -> "Permutation":
        """Conjugate: self ** g == g^-1 self g (support relabeled through g).

        One pass: g^-1 self g sends g(x) to g(self(x)).
        """
        if not isinstance(g, Permutation):
            return NotImplemented
        if g.degree != self.degree:
            raise ValueError(f"degree mismatch: {g.degree} vs {self.degree}")
        return _unchecked(_conjugated(self.images, g.images))

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for k, image in enumerate(self.images):
            inv[image - 1] = k + 1
        return _unchecked(tuple(inv))

    def is_identity(self) -> bool:
        return all(image == k + 1 for k, image in enumerate(self.images))

    def support(self) -> frozenset[int]:
        """The set of moved points."""
        return frozenset(k + 1 for k, image in enumerate(self.images) if image != k + 1)

    def cycles(self, include_fixed: bool = False) -> list[tuple[int, ...]]:
        """Disjoint cycles, least point first, ordered by least point."""
        _exact_bool(include_fixed, "include_fixed")
        images = self.images
        out = []
        seen = [False] * len(images)
        for start in range(1, len(images) + 1):
            if seen[start - 1]:
                continue
            cycle = [start]
            seen[start - 1] = True
            p = images[start - 1]
            while p != start:
                cycle.append(p)
                seen[p - 1] = True
                p = images[p - 1]
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


def _unchecked(images: tuple[int, ...]) -> Permutation:
    """A Permutation of images computed from checked permutations, which are
    a bijection of 1..d in exact ints by construction; nothing is re-checked."""
    p = object.__new__(Permutation)
    p.__dict__["images"] = images
    return p


def _conjugated(images: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...]:
    """The images of g^-1 a g from those of a and g, of one degree."""
    out = [0] * len(g)
    for k, image in enumerate(images):
        out[g[k] - 1] = g[image - 1]
    return tuple(out)


def _transposition(d: int, i: int, j: int) -> Permutation:
    """(i j) in S_d for checked, distinct points; nothing is re-checked."""
    images = list(range(1, d + 1))
    images[i - 1], images[j - 1] = j, i
    return _unchecked(tuple(images))


def compose(a: Permutation, b: Permutation) -> Permutation:
    """Left-to-right product: apply a, then b."""
    if a.degree != b.degree:
        raise ValueError(f"degree mismatch: {a.degree} vs {b.degree}")
    bi = b.images
    return _unchecked(tuple([bi[image - 1] for image in a.images]))


def is_transposition(a: Permutation) -> bool:
    """True iff a moves exactly two points."""
    return len(a.support()) == 2


def all_transpositions(d: int) -> list[Permutation]:
    _check_degree(d)
    return [_transposition(d, i, j) for i, j in itertools.combinations(range(1, d + 1), 2)]


def orbits(perms: Sequence[Permutation], degree: int) -> list[frozenset[int]]:
    """Orbits of <perms> acting on {1..degree}, sorted by least element."""
    _check_degree(degree)
    for p in perms:
        if p.degree != degree:
            raise ValueError(f"degree mismatch: {p.degree} vs {degree}")
    moved = [(x, y) for p in perms for x, y in enumerate(p.images, 1) if x != y]
    return _pair_orbits(moved, degree)


def _pair_orbits(pairs: Iterable[tuple[int, int]], degree: int) -> list[frozenset[int]]:
    """The classes of {1..degree} that the point pairs join, sorted by least
    element: the orbits of the group the pairs generate as transpositions."""
    classes = UnionFind(range(1, degree + 1))
    union = classes.union
    for x, y in pairs:
        union(x, y)
    return [frozenset(g) for g in classes.groups()]  # groups come in point order


def _relabel(pair: tuple[int, int], u: int, v: int) -> tuple[int, int]:
    """The point pair of (a b) ** (u v): a and b relabelled through (u v)."""
    a, b = pair
    if a == u:
        a = v
    elif a == v:
        a = u
    if b == u:
        b = v
    elif b == v:
        b = u
    return (a, b) if a < b else (b, a)


@functools.lru_cache(maxsize=MAX_DEGREE)  # callers check the degree first
def _transposition_table(d: int) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, ...], ...]]:
    """The point pairs of the transpositions of S_d, in ``all_transpositions``
    order, and their conjugation table: entry [x][y] is the index of
    pairs[x] ** pairs[y], read off by ``_relabel``."""
    pairs = tuple(itertools.combinations(range(1, d + 1), 2))
    index = {pair: k for k, pair in enumerate(pairs)}
    return pairs, tuple(tuple(index[_relabel(x, u, v)] for u, v in pairs) for x in pairs)


def is_transitive(perms: Sequence[Permutation], degree: int) -> bool:
    return len(orbits(perms, degree)) == 1


# -- text format ---------------------------------------------------------
#
# Two interchangeable forms: cycle notation "(1 2)(3 4)" (fixed points
# omitted, "()" is the identity) and one-line image arrays "[2, 1, 3]"
# or "2 1 3". Parsers annotate errors with the character position.

_TOKEN_RE = re.compile(r"\s*(\(|\)|\[|\]|,|[0-9]+)")


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


# -- flavors -------------------------------------------------------------
#
# The elements of a Hurwitz system or a coloring are of one flavor:
# permutations in S_d or braids in B_d.  The braid row is built from the
# braids module the first time the braid flavor is asked for, so a
# permutation-flavored call never loads that module.

PERMUTATION = "permutation"
BRAID = "braid"


class Flavor(NamedTuple):
    """What a flavor means: its element type, the parser of its entry text
    (``str(e)`` writes it), the least degree of its groups, and the map of
    its elements to S_d (None when they are permutations)."""

    element: type
    parse: Callable[[str, int], object]
    least_degree: int
    project: Optional[Callable[[object], Permutation]]


FLAVORS = {PERMUTATION: Flavor(Permutation, parse_permutation, 1, None)}


def flavor_spec(flavor) -> Flavor:
    """The table row of a flavor; an unknown flavor is refused here only."""
    row = FLAVORS.get(flavor) if isinstance(flavor, str) else None
    if row is None:
        if flavor != BRAID:
            raise ValueError(f"unknown flavor {flavor!r}")
        from . import braids

        row = FLAVORS[BRAID] = Flavor(braids.BraidWord, braids.parse_braid, 2, braids.project)
    return row


def check_elements(flavor, degree, elements: Iterable[tuple], where: str = "entry {}") -> None:
    """Refuse an unknown flavor, a degree outside its range, or an element of
    another type or degree among the (label, element) pairs.  ``where``
    formats a label into the error; it is formatted only when a check fails.
    """
    element, _, least, _ = flavor_spec(flavor)
    _check_degree(degree, least)
    for label, e in elements:
        if not isinstance(e, element):
            raise ValueError(
                f"{where.format(label)}: a {type(e).__name__} is not of flavor {flavor}"
            )
        if e.degree != degree:
            raise ValueError(f"{where.format(label)}: degree {e.degree} is not {degree}")


def as_permutations(flavor: str, elements: Iterable) -> list[Permutation]:
    """The images in S_d of elements of a flavor: braids project, permutations stay."""
    project = flavor_spec(flavor).project
    return list(elements) if project is None else [project(e) for e in elements]
