import itertools
import random
import re
from fractions import Fraction

import pytest

from branchcover.permutations import (
    ParseError,
    Permutation,
    _pair_orbits,
    _relabel,
    all_transpositions,
    compose,
    cycle_string,
    image_string,
    is_transitive,
    is_transposition,
    orbits,
    parse_permutation,
)

from oracles import product


def tau(d, i):
    return Permutation.adjacent(d, i)


class TestCompose:
    def test_identity_is_left_unit(self):
        a = Permutation((3, 1, 2))
        assert compose(Permutation.identity(3), a) == a
        assert compose(a, Permutation.identity(3)) == a

    def test_involution(self):
        assert compose(tau(3, 1), tau(3, 1)) == Permutation.identity(3)

    def test_left_to_right_convention(self):
        # tau1 tau2 tau1 evaluated pointwise on {1,2,3} gives (1 3).
        got = product([tau(3, 1), tau(3, 2), tau(3, 1)])
        assert got.images == (3, 2, 1)
        # Pointwise oracle: apply the factors in order to every point.
        for x in (1, 2, 3):
            y = x
            for p in (tau(3, 1), tau(3, 2), tau(3, 1)):
                y = p(y)
            assert got(x) == y

    def test_degree_mismatch(self):
        with pytest.raises(ValueError, match="degree mismatch"):
            compose(tau(3, 1), tau(4, 1))
        with pytest.raises(ValueError, match="degree mismatch"):
            tau(3, 1) ** tau(4, 1)

    def test_group_axioms_exhaustive_d4(self):
        elements = [
            Permutation(p) for p in itertools.permutations(range(1, 5))
        ]
        e = Permutation.identity(4)
        for a in elements:
            assert compose(a, e) == a and compose(e, a) == a
            assert compose(a, a.inverse()) == e
        for a, b, c in itertools.islice(
            itertools.product(elements, repeat=3), 0, None, 97
        ):
            assert compose(compose(a, b), c) == compose(a, compose(b, c))


class TestIsTransposition:
    def test_simple(self):
        assert is_transposition(tau(3, 1))

    def test_identity(self):
        assert not is_transposition(Permutation.identity(3))

    def test_three_cycle(self):
        # (123) moves three points.
        assert not is_transposition(Permutation.from_cycles(3, [(1, 2, 3)]))


class TestConjugation:
    def test_relabels_support(self):
        a = Permutation.transposition(3, 1, 2)
        g = Permutation.transposition(3, 2, 3)
        assert (a ** g) == Permutation.transposition(3, 1, 3)

    def test_exhaustive_supports_d5(self):
        for a in all_transpositions(5):
            for g in all_transpositions(5):
                conj = a ** g
                assert conj.support() == frozenset(g(x) for x in a.support())
                # The point-pair relabel is the same conjugation.
                pair = tuple(sorted(a.support()))
                assert _relabel(pair, *sorted(g.support())) == tuple(sorted(conj.support()))


class TestComputedResults:
    """compose, inverse and ** build their results without re-checking them;
    the results must be the values the public constructor builds."""

    S4 = [Permutation(p) for p in itertools.permutations(range(1, 5))]

    @staticmethod
    def assert_public(p):
        public = Permutation(p.images)
        assert type(p.images) is tuple
        assert p == public and hash(p) == hash(public)
        assert vars(p) == vars(public)

    def test_conjugate_is_the_product_exhaustive_s4(self):
        for a, g in itertools.product(self.S4, repeat=2):
            conj = a ** g
            assert conj == compose(compose(g.inverse(), a), g)
            self.assert_public(conj)

    def test_conjugate_is_the_product_seeded_d16(self):
        rng = random.Random(16)
        points = list(range(1, 17))
        for _ in range(500):
            a, g = (Permutation(rng.sample(points, 16)) for _ in range(2))
            assert a ** g == compose(compose(g.inverse(), a), g)

    def test_products_and_inverses_are_public_values(self):
        for a, b in itertools.islice(itertools.product(self.S4, repeat=2), 0, None, 7):
            self.assert_public(compose(a, b))
            self.assert_public(a * b)
            self.assert_public(a.inverse())

    def test_conjugate_by_a_non_permutation(self):
        with pytest.raises(TypeError):
            tau(3, 1) ** 2


class TestOrbits:
    def test_transitive_pair(self):
        assert is_transitive([tau(3, 1), tau(3, 2)], 3)

    def test_intransitive(self):
        assert not is_transitive([tau(3, 1), tau(3, 1)], 3)
        assert orbits([tau(3, 1)], 3) == [frozenset({1, 2}), frozenset({3})]

    def test_empty_generators(self):
        assert orbits([], 2) == [frozenset({1}), frozenset({2})]

    def test_pair_orbits_match_orbits_exhaustive_s4_pairs(self):
        group = [Permutation(images) for images in itertools.permutations(range(1, 5))]
        for gens in itertools.combinations(group, 2):
            pairs = [(x, y) for g in gens for x, y in enumerate(g.images, 1) if x != y]
            assert _pair_orbits(pairs, 4) == orbits(gens, 4)


class TestCycleStructure:
    def test_cycle_count(self):
        assert tau(4, 1).cycle_count() == 3  # (12)(3)(4)
        assert Permutation.identity(4).cycle_count() == 4

    def test_cycle_type(self):
        assert Permutation.from_cycles(4, [(1, 2, 3)]).cycle_type() == (3, 1)


class TestText:
    @pytest.mark.parametrize(
        "text, degree, images",
        [
            ("(1 2)", 3, (2, 1, 3)),
            ("(1 2)(3 4)", 4, (2, 1, 4, 3)),
            ("()", 3, (1, 2, 3)),
            ("[2, 1, 3]", 3, (2, 1, 3)),
            ("3 1 2", 3, (3, 1, 2)),
        ],
    )
    def test_parse(self, text, degree, images):
        assert parse_permutation(text, degree).images == images

    def test_roundtrip(self):
        for p in (tau(4, 2), Permutation.from_cycles(4, [(1, 3, 2)])):
            assert parse_permutation(cycle_string(p), 4) == p
            assert parse_permutation(image_string(p), 4) == p

    def test_out_of_range_is_positioned(self):
        with pytest.raises(ParseError, match="position 3.*out of range"):
            parse_permutation("(1 7)", 3)

    def test_bad_token(self):
        with pytest.raises(ParseError):
            parse_permutation("(1 x)", 3)

    # Arabic-Indic digits matched \d and parsed as (1 2).
    @pytest.mark.parametrize("text", ["(\u0661 \u0662)", "\u0662 \u0661 3"])
    def test_non_ascii_digits_are_refused(self, text):
        with pytest.raises(ParseError, match="unexpected character"):
            parse_permutation(text, 3)

    def test_not_bijection(self):
        with pytest.raises(ParseError):
            parse_permutation("[1, 1, 3]", 3)


def test_degree_cap():
    with pytest.raises(ValueError, match="cap"):
        Permutation.identity(17)


def test_images_given_as_a_list_are_stored_as_a_tuple():
    a = Permutation([2, 1, 3])
    assert a == Permutation((2, 1, 3))
    assert hash(a) == hash(Permutation((2, 1, 3)))


@pytest.mark.parametrize("images", [(2.0, 1.0, 3.0), (Fraction(2), 1, 3), [1, 2.0], (2.0, 1.0)])
def test_non_integer_images_are_refused(images):
    with pytest.raises(ValueError, match="not integers"):
        Permutation(images)


@pytest.mark.parametrize(
    "build, value",
    [
        (lambda: Permutation.transposition(4, True, 2), "True"),
        (lambda: Permutation.transposition(4, 1, True), "True"),
        (lambda: Permutation.transposition(4, 1.0, 2), "1.0"),
        (lambda: Permutation.adjacent(4, True), "True"),
        (lambda: Permutation.adjacent(4, 1.0), "1.0"),
        (lambda: Permutation.adjacent(4, "1"), "'1'"),
        (lambda: Permutation.from_cycles(4, [(1.0, 2)]), "1.0"),
        (lambda: Permutation.from_cycles(4, [(1, True)]), "True"),
    ],
)
def test_non_integer_points_are_refused(build, value):
    with pytest.raises(ValueError, match=re.escape(value)):
        build()


def test_repeated_images_are_refused():
    with pytest.raises(ValueError, match="not a bijection"):
        Permutation((1, 1))
