import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchcover.braids import (
    BraidWord,
    braids_equal,
    canonical_key,
    exponent_sum,
    free_reduce,
    garside_normal_form,
    parse_braid,
    project,
    summit,
    word_string,
)
from branchcover.hurwitz import BRAID, HurwitzSystem
from branchcover.links import SimpleColoring
from branchcover.permutations import ParseError, Permutation, compose


def bw(d, *letters):
    return BraidWord(d, letters)


class TestFreeReduce:
    def test_reduction(self):
        assert free_reduce((1, -1)) == ()
        assert free_reduce((1, 2, -2, -1)) == ()
        assert free_reduce((1, 2, -1)) == (1, 2, -1)


class TestCanonical:
    def test_identity(self):
        assert canonical_key(bw(3)) == ((1,), (2,), (3,))

    def test_single_generator(self):
        # One application of the defining rule at d=2.
        assert canonical_key(bw(2, 1)) == ((1, 2, -1), (1,))

    def test_braid_relation(self):
        assert canonical_key(bw(3, 1, 2, 1)) == canonical_key(bw(3, 2, 1, 2))

    def test_all_relations_up_to_d6(self):
        for d in range(3, 7):
            for i, j in itertools.permutations(range(1, d), 2):
                if abs(i - j) == 1:
                    assert braids_equal(bw(d, i, j, i), bw(d, j, i, j))
                elif abs(i - j) > 1:
                    assert braids_equal(bw(d, i, j), bw(d, j, i))


class TestConstruction:
    def test_letters_given_as_a_list_are_stored_as_a_tuple(self):
        w = BraidWord(3, [1, 2])
        assert w.letters == (1, 2)
        assert w == bw(3, 1, 2) and hash(w) == hash(bw(3, 1, 2))
        assert w * bw(3, 1) == bw(3, 1, 2, 1)

    @pytest.mark.parametrize("letter", [1.0, True, "1"])
    def test_letters_must_be_ints(self, letter):
        with pytest.raises(ValueError, match="generator index"):
            BraidWord(3, (letter,))


class TestEqual:
    def test_cancellation(self):
        assert braids_equal(bw(2, 1, -1), bw(2))

    def test_far_commutation(self):
        assert braids_equal(bw(4, 1, 3), bw(4, 3, 1))

    def test_example_word_collapses(self):
        # s2^-1 s1^-1 s2^-1 s1 s2 equals s1^-1 in B_4.
        assert braids_equal(bw(4, -2, -1, -2, 1, 2), bw(4, -1))

    def test_degree_mismatch(self):
        with pytest.raises(ValueError, match="degree mismatch"):
            braids_equal(bw(3, 1), bw(4, 1))

    def test_distinguishes(self):
        assert not braids_equal(bw(3, 1), bw(3, 2))
        assert not braids_equal(bw(3, 1), bw(3, -1))


class TestProject:
    def test_generator(self):
        assert project(bw(3, 1)) == Permutation.adjacent(3, 1)

    def test_sign_forgotten(self):
        assert project(bw(3, -1)) == Permutation.adjacent(3, 1)

    def test_word(self):
        assert project(bw(3, 1, 2, 1)) == Permutation.transposition(3, 1, 3)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_homomorphism(self, data):
        d = data.draw(st.integers(2, 5))
        gens = [i for i in range(1, d)] + [-i for i in range(1, d)]
        u = bw(d, *data.draw(st.lists(st.sampled_from(gens), max_size=8)))
        v = bw(d, *data.draw(st.lists(st.sampled_from(gens), max_size=8)))
        assert project(u * v) == compose(project(u), project(v))


class TestExponentSum:
    def test_empty(self):
        assert exponent_sum(bw(3)) == 0

    def test_positive_word(self):
        assert exponent_sum(bw(3, 1, 2, 1)) == 3

    def test_conjugate_of_generator(self):
        rng = random.Random(7)
        for _ in range(30):
            d = rng.choice([3, 4, 5])
            w = bw(d, *[rng.choice([1, -1]) * rng.randrange(1, d) for _ in range(6)])
            i = rng.randrange(1, d)
            conj = BraidWord.generator(d, i) ** w
            assert exponent_sum(conj) == 1

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_additive(self, data):
        gens = [1, -1, 2, -2, 3, -3]
        u = bw(4, *data.draw(st.lists(st.sampled_from(gens), max_size=10)))
        v = bw(4, *data.draw(st.lists(st.sampled_from(gens), max_size=10)))
        assert exponent_sum(u * v) == exponent_sum(u) + exponent_sum(v)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_relator_multiplication_preserves_equality(data):
    # w and w * relator are equal as elements, for every defining relator.
    d = data.draw(st.integers(3, 5))
    gens = [i for i in range(1, d)] + [-i for i in range(1, d)]
    w = bw(d, *data.draw(st.lists(st.sampled_from(gens), max_size=12)))
    r = data.draw(st.sampled_from(relators(d)))
    assert braids_equal(w, w * bw(d, *r))


def relators(d):
    out = []
    for i, j in itertools.combinations(range(1, d), 2):
        if j - i == 1:
            out.append((i, j, i, -j, -i, -j))
        else:
            out.append((i, j, -i, -j))
    return out


@st.composite
def word_pairs(draw):
    """A random word and either another random word or a respelling of it:
    relators, their inverses and cancelling pairs inserted at random places."""
    d = draw(st.integers(2, 5))
    gens = [i for i in range(1, d)] + [-i for i in range(1, d)]
    letters = st.sampled_from(gens)
    u = draw(st.lists(letters, max_size=14))
    if draw(st.booleans()):
        return d, u, draw(st.lists(letters, max_size=14))
    v = list(u)
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(v)))
        if d > 2 and draw(st.booleans()):
            r = draw(st.sampled_from(relators(d)))
            piece = list(r) if draw(st.booleans()) else [-x for x in reversed(r)]
        else:
            x = draw(letters)
            piece = [x, -x]
        v[at:at] = piece
    return d, u, v


class TestGarside:
    @given(word_pairs())
    @settings(max_examples=300, deadline=None)
    def test_same_equality_as_free_group_images(self, pair):
        d, u, v = pair
        u, v = bw(d, *u), bw(d, *v)
        same = garside_normal_form(u) == garside_normal_form(v)
        assert same == (canonical_key(u) == canonical_key(v))
        assert braids_equal(u, v) == same
        assert (u == v) == same
        if same:
            assert hash(u) == hash(v)

    def test_respellings_are_one_element_everywhere(self):
        u, v = parse_braid("s1 s2 s1", 3), parse_braid("s2 s1 s2", 3)
        pairs = [
            (u, v),
            (HurwitzSystem.of_braids([u], 3), HurwitzSystem.of_braids([v], 3)),
            (SimpleColoring(3, BRAID, {0: u}), SimpleColoring(3, BRAID, {0: v})),
        ]
        for a, b in pairs:
            assert a == b
            assert len({a, b}) == 1
        assert u != parse_braid("s1 s2", 3)
        assert u != BraidWord(4, (1, 2, 1))

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_form_is_left_weighted_and_spells_the_element(self, data):
        d = data.draw(st.integers(3, 5))
        gens = [i for i in range(1, d)] + [-i for i in range(1, d)]
        w = bw(d, *data.draw(st.lists(st.sampled_from(gens), max_size=14)))
        p, factors = garside_normal_form(w)
        identity, delta = tuple(range(d)), tuple(range(d - 1, -1, -1))

        def starting(a):  # generators left-dividing a: strands j, j+1 cross
            pos = {s: k for k, s in enumerate(a)}
            return {j for j in range(d - 1) if pos[j] > pos[j + 1]}

        def finishing(a):  # generators right-dividing a
            return {j for j in range(d - 1) if a[j] > a[j + 1]}

        def letters(a):
            a, out = list(a), []
            while finishing(a):
                j = min(finishing(a))
                a[j], a[j + 1] = a[j + 1], a[j]
                out.append(j + 1)
            return out[::-1]

        assert all(sorted(a) == list(identity) and a not in (identity, delta) for a in factors)
        assert all(starting(b) <= finishing(a) for a, b in zip(factors, factors[1:]))
        word = letters(delta) * p if p >= 0 else [-x for x in letters(delta)[::-1]] * -p
        for a in factors:
            word += letters(a)
        assert canonical_key(bw(d, *word)) == canonical_key(w)

    def test_long_word_is_fast(self):
        rng = random.Random(512)
        w = bw(4, *[rng.choice([1, 2, 3, -1, -2, -3]) for _ in range(512)])
        start = time.perf_counter()
        p, factors = garside_normal_form(w)
        assert time.perf_counter() - start < 5
        assert garside_normal_form(w * w.inverse()) == (0, ())


class TestSummit:
    def test_trivial_and_weak_screen_pair(self):
        assert summit(bw(3))[:2] == (0, 0)
        assert summit(bw(3, 1, 1, -2, -2))[:2] == (-2, 2)

    def test_full_twist_is_its_own_summit(self):
        inf, sup, c = summit(bw(3, 1, 2, 1, 1, 2, 1))
        assert (inf, sup) == (2, 2)

    def test_conjugator_reaches_a_generator(self):
        rng = random.Random(11)
        for _ in range(120):
            d = rng.choice([3, 4, 5])
            gens = [i for i in range(1, d)] + [-i for i in range(1, d)]
            g = bw(d, rng.randrange(1, d))
            w = g ** bw(d, *[rng.choice(gens) for _ in range(rng.randrange(0, 8))])
            inf, sup, c = summit(w)
            assert (inf, sup) == (0, 1)
            atoms = {canonical_key(bw(d, i)) for i in range(1, d)}
            assert canonical_key(w ** c) in atoms
            inf, sup, c = summit(w.inverse())
            assert (inf, sup) == (-1, 0)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_conjugation_invariant(self, data):
        d = data.draw(st.integers(3, 5))
        gens = [i for i in range(1, d)] + [-i for i in range(1, d)]
        w = bw(d, *data.draw(st.lists(st.sampled_from(gens), max_size=10)))
        g = bw(d, *data.draw(st.lists(st.sampled_from(gens), max_size=6)))
        inf, sup, c = summit(w)
        assert summit(w ** g)[:2] == (inf, sup)
        assert garside_normal_form(w ** c)[0] == inf
        assert garside_normal_form(w ** c)[0] + len(garside_normal_form(w ** c)[1]) == sup


class TestText:
    def test_parse(self):
        assert parse_braid("s1 s2^-1 s3", 4).letters == (1, -2, 3)

    def test_empty(self):
        assert parse_braid("", 3).letters == ()

    def test_roundtrip(self):
        w = bw(4, 1, -2, 3, -1)
        assert parse_braid(word_string(w), 4) == w

    def test_out_of_range_positioned(self):
        with pytest.raises(ParseError, match="position 3.*out of range"):
            parse_braid("s1 s7", 4)

    def test_bad_token(self):
        with pytest.raises(ParseError, match="bad braid token"):
            parse_braid("s1 q2", 4)
