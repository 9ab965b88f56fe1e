import itertools

import pytest

from branchcover.permutations import (
    ParseError,
    Permutation,
    all_transpositions,
    compose,
    cycle_string,
    image_string,
    is_transitive,
    is_transposition,
    orbits,
    parse_permutation,
    product,
)


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


class TestOrbits:
    def test_transitive_pair(self):
        assert is_transitive([tau(3, 1), tau(3, 2)], 3)

    def test_intransitive(self):
        assert not is_transitive([tau(3, 1), tau(3, 1)], 3)
        assert orbits([tau(3, 1)], 3) == [frozenset({1, 2}), frozenset({3})]

    def test_empty_generators(self):
        assert orbits([], 2) == [frozenset({1}), frozenset({2})]


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
