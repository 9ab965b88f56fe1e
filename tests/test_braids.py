import hashlib
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
from oracles import braid_projection_images, free_group_images


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

    def test_key_matches_the_substitution_oracle(self):
        # Two seeded words for every d = 2..9 and length 0..40: mixed-sign,
        # and respelled with adjacent x x^-1 pairs (not freely reduced).
        rng = random.Random(35)
        for d in range(2, 10):
            gens = range(1, d)
            assert canonical_key(bw(d)) == free_group_images(d, ()) == tuple((k,) for k in range(1, d + 1))
            for length in range(41):
                mixed = [rng.choice(gens) * rng.choice((1, -1)) for _ in range(length)]
                respelled = mixed[: length // 2]
                while len(respelled) < length - 1:
                    x = rng.choice(gens) * rng.choice((1, -1))
                    at = rng.randint(0, len(respelled))
                    respelled[at:at] = (x, -x)
                for letters in (mixed, respelled):
                    assert canonical_key(bw(d, *letters)) == free_group_images(d, letters)

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

    def test_products_and_inverses_are_public_values(self):
        rng = random.Random(5)
        for _ in range(100):
            d = rng.randrange(2, 6)
            gens = [s * i for i in range(1, d) for s in (1, -1)]
            u, v = (bw(d, *rng.choices(gens, k=rng.randrange(8))) for _ in range(2))
            for w in (u * v, u.inverse(), u ** v):
                public = BraidWord(w.degree, w.letters)
                assert type(w.letters) is tuple
                assert w == public and hash(w) == hash(public)
                assert (w.degree, w.letters) == (public.degree, public.letters)
            assert (u * v).letters == free_reduce(u.letters + v.letters)
            assert u.inverse().letters == tuple(-x for x in reversed(u.letters))
            assert (u ** v).letters == (v.inverse() * u * v).letters

    def test_conjugation_checks_its_operand(self):
        # The mismatch names the conjugator's degree first, as g^-1 * u does.
        with pytest.raises(ValueError, match=r"^degree mismatch: 4 vs 3$"):
            bw(3, 1) ** bw(4, 1)
        assert bw(3, 1).__pow__(3) is NotImplemented
        with pytest.raises(TypeError):
            bw(3, 1) ** 3

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

    def test_matches_the_product_of_adjacent_transpositions(self):
        rng = random.Random(7)
        for d in range(2, 17):
            for n in range(41):
                letters = [rng.choice((1, -1)) * rng.randrange(1, d) for _ in range(n)]
                assert project(BraidWord(d, letters)) == Permutation(braid_projection_images(d, letters))

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


def assert_left_normal_form(w):
    """garside_normal_form(w) is Delta^p A_1 ... A_r with every A_k simple
    and neither 1 nor Delta, every pair (A_k, A_k+1) left-weighted, and it
    spells w (same canonical_key)."""
    d = w.degree
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
        assert_left_normal_form(bw(d, *data.draw(st.lists(st.sampled_from(gens), max_size=14))))

    def test_long_word_is_fast(self):
        rng = random.Random(512)
        w = bw(4, *[rng.choice([1, 2, 3, -1, -2, -3]) for _ in range(512)])
        start = time.perf_counter()
        p, factors = garside_normal_form(w)
        assert time.perf_counter() - start < 5
        assert garside_normal_form(w * w.inverse()) == (0, ())

    # Words that take each route of the pending simple factor P (_NormalForm).
    @pytest.mark.parametrize(
        "d, letters, form",
        [
            # P is pushed twice, then s1^-1 comes off the last P, leaving 1.
            pytest.param(3, (1, 1, 1, -1), (0, ((1, 0, 2), (1, 0, 2))), id="pending-cancels-to-1"),
            pytest.param(4, (2, 1, 3, -3, -1, -2), (0, ()), id="pending-cancels-whole-word"),
            # Pushing P empties it into the last factor; s^-1 then cancels there.
            pytest.param(4, (1, -2, 3, -1), (-1, ((1, 3, 2, 0), (0, 2, 3, 1))), id="cancel-after-push"),
            pytest.param(3, (1, 1, -2, 2, -1, -1), (0, ()), id="cancel-after-push-to-1"),
            pytest.param(4, (1, 1, 2, -2, -1, 3), (0, ((1, 0, 3, 2),)), id="pushed-factor-absorbed"),
            # A pushed P completes a Delta at the front.
            pytest.param(3, (1, 1, 2, 1, -2), (1, ()), id="delta-at-front"),
            pytest.param(3, (1, 1, 2, 1, 2), (1, ((0, 2, 1), (0, 2, 1))), id="delta-at-front-then-factors"),
            pytest.param(4, (1, 2, 1, 3, 2, 1, 1), (1, ((1, 0, 2, 3),)), id="delta-from-one-pending"),
            # Letters read after a Delta^-1 flip.
            pytest.param(3, (1, -2, 2), (0, ((1, 0, 2),)), id="flip-then-delta"),
            pytest.param(4, (-1, -1, 2, -3), (-2, ((3, 2, 0, 1), (2, 0, 3, 1), (0, 3, 1, 2))), id="flips-in-a-row"),
            pytest.param(
                4, (1, -2, -2, 1, -3), (-2, ((3, 1, 0, 2), (2, 0, 3, 1), (3, 0, 1, 2), (1, 0, 2, 3))),
                id="flip-push-flip",
            ),
            pytest.param(
                5, (-2, 1, 3, -4, 4, 2, 1, -1, 3), (-1, ((4, 2, 3, 1, 0), (1, 3, 2, 0, 4))), id="mixed-routes-degree-5"
            ),
        ],
    )
    def test_pending_factor_routes(self, d, letters, form):
        w = bw(d, *letters)
        assert garside_normal_form(w) == form
        assert_left_normal_form(w)
        reduced = bw(d, *free_reduce(letters))
        assert w == reduced
        assert canonical_key(w) == canonical_key(reduced)

    def test_degree_two_is_the_exponent_sum(self):
        for letters, e in [((), 0), ((1, -1, 1, 1), 2), ((-1, 1, -1, -1), -2)]:
            w = bw(2, *letters)
            power = bw(2, *[1 if e > 0 else -1] * abs(e))
            assert garside_normal_form(w) == (e, ())
            assert summit(w) == (e, e, bw(2))
            assert w == power and canonical_key(w) == canonical_key(power)


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


# -- the normal form pinned on a seeded corpus ----------------------------------


def _normal_form_corpus():
    """Three words for every d = 2..9 and length 0..80: mixed-sign, biased
    to one sign, and half of it respelled with adjacent x x^-1 pairs (the
    BraidWord constructor does not free-reduce)."""
    rng = random.Random(80)
    words = []
    for d in range(2, 10):
        gens = range(1, d)
        for length in range(81):
            words.append(bw(d, *[rng.choice(gens) * rng.choice((1, -1)) for _ in range(length)]))
            bias = rng.choice((0.85, 0.15))
            words.append(bw(d, *[rng.choice(gens) * (1 if rng.random() < bias else -1) for _ in range(length)]))
            letters = [rng.choice(gens) * rng.choice((1, -1)) for _ in range(length // 2)]
            while len(letters) < length - 1:
                x = rng.choice(gens) * rng.choice((1, -1))
                at = rng.randint(0, len(letters))
                letters[at:at] = (x, -x)
            words.append(bw(d, *letters))
    return words


def _summit_corpus():
    """600 conjugates g^-1 v g at d = 2..7, v of up to 24 letters mixed or
    biased to one sign, g of up to 6."""
    rng = random.Random(81)
    words = []
    for _ in range(600):
        d = rng.randint(2, 7)
        gens = range(1, d)
        bias = rng.choice((0.5, 0.85, 0.15))
        v = bw(d, *[rng.choice(gens) * (1 if rng.random() < bias else -1) for _ in range(rng.randint(0, 24))])
        g = bw(d, *[rng.choice(gens) * rng.choice((1, -1)) for _ in range(rng.randint(0, 6))])
        words.append(v ** g)
    return words


# sha256 over the repr of each output, recorded while the normal form was
# still re-left-weighted after every letter.
NORMAL_FORM_DIGEST = "13227994ec13848fe74b917882f2c282b3e906b256fc2339f6ec3410ad1ff114"
SUMMIT_DIGEST = "5b5e229031cc40e8bbc14d5350abfa694971d3f66f89ee6a2a6f56872ea2263a"


def test_normal_form_output_is_pinned():
    words = _normal_form_corpus()
    assert len(words) == 1944
    h = hashlib.sha256()
    for w in words:
        h.update(repr(garside_normal_form(w)).encode())
    assert h.hexdigest() == NORMAL_FORM_DIGEST


def test_summit_output_is_pinned():
    h = hashlib.sha256()
    for w in _summit_corpus():
        inf, sup, c = summit(w)
        h.update(repr((inf, sup, c.letters)).encode())
    assert h.hexdigest() == SUMMIT_DIGEST


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

    def test_non_ascii_digits_are_refused(self):
        # "s\u0661" matched \d and parsed as s1.
        with pytest.raises(ParseError, match="bad braid token"):
            parse_braid("s\u0661", 3)
