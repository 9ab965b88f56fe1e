import itertools
import json
import random
import time

import pytest

from branchcover.braids import BraidWord, braids_equal
from branchcover.covering import covering_equivalent
from branchcover.hurwitz import (
    Equivalence,
    HurwitzError,
    HurwitzSystem,
    IntransitiveSystemError,
    NonClosingSystemError,
    NonSimpleSystemError,
    Simplicity,
    braid_simplicity,
    conjugate_system,
    hc_equivalent,
    hc_normal_form,
    hurwitz_move,
    is_closing,
    is_simple_system,
    is_transitive,
    iter_simple_closing_systems,
    normal_form_template,
    orbit_partition,
    replay_trace,
    system_from_json,
    system_to_json,
    total_monodromy,
)
from branchcover.hurwitz import _check_normal_preconditions
from branchcover.permutations import Permutation, all_transpositions
from oracles import bounded_conjugacy_simple


def tr(d, i, j):
    return Permutation.transposition(d, i, j)


def perm_system(d, *pairs):
    return HurwitzSystem.of_permutations([tr(d, i, j) for i, j in pairs], d)


def braid_system(d, *words):
    return HurwitzSystem.of_braids([BraidWord(d, w) for w in words], d)


def random_simple_system(rng, d, n):
    trans = all_transpositions(d)
    return HurwitzSystem.of_permutations([rng.choice(trans) for _ in range(n)], d)


class TestMoves:
    def test_forward_conjugates(self):
        s = perm_system(3, (1, 2), (2, 3))
        moved = hurwitz_move(s, 0, "forward")
        assert moved.entries == (tr(3, 2, 3), tr(3, 1, 3))

    def test_forward_then_inverse_is_identity(self):
        rng = random.Random(1)
        for _ in range(50):
            s = random_simple_system(rng, 4, 5)
            k = rng.randrange(4)
            assert hurwitz_move(hurwitz_move(s, k, "forward"), k, "inverse") == s
            assert hurwitz_move(hurwitz_move(s, k, "inverse"), k, "forward") == s

    def test_braid_far_commutation(self):
        s = braid_system(4, (1,), (3,))
        moved = hurwitz_move(s, 0, "forward")
        assert braids_equal(moved.entries[0], BraidWord(4, (3,)))
        assert braids_equal(moved.entries[1], BraidWord(4, (1,)))

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            hurwitz_move(perm_system(3, (1, 2), (2, 3)), 1, "forward")

    @pytest.mark.parametrize("k", [True, 1.0, "1"])
    def test_position_must_be_an_exact_int(self, k):
        s = perm_system(3, (1, 2), (2, 3), (1, 3))
        with pytest.raises(ValueError, match=f"move position {k!r} is not an integer"):
            hurwitz_move(s, k)
        with pytest.raises(ValueError, match="move position"):
            replay_trace(s, [("H", k, "forward")])

    def test_product_preserved(self):
        rng = random.Random(2)
        for _ in range(60):
            s = random_simple_system(rng, 5, 6)
            k = rng.randrange(5)
            direction = rng.choice(["forward", "inverse"])
            assert total_monodromy(hurwitz_move(s, k, direction)) == total_monodromy(s)


class TestConjugate:
    def test_identity(self):
        s = perm_system(3, (1, 2), (2, 3))
        assert conjugate_system(s, Permutation.identity(3)) == s

    def test_pointwise(self):
        s = perm_system(3, (1, 2), (1, 2))
        assert conjugate_system(s, tr(3, 2, 3)).entries == (tr(3, 1, 3), tr(3, 1, 3))

    def test_longer_example(self):
        s = perm_system(3, (1, 2), (2, 3), (2, 3), (1, 2))
        got = conjugate_system(s, tr(3, 1, 2))
        assert got.entries == (tr(3, 1, 2), tr(3, 1, 3), tr(3, 1, 3), tr(3, 1, 2))

    def test_flavor_mismatch(self):
        with pytest.raises(ValueError, match="flavor"):
            conjugate_system(perm_system(3, (1, 2)), BraidWord(3, (1,)))

    @pytest.mark.parametrize(
        "s, g",
        [
            (perm_system(3, (1, 2)), Permutation.identity(4)),
            (braid_system(3, (1,)), BraidWord(4, (1,))),
            (braid_system(3, (1,)), Permutation.identity(3)),
        ],
    )
    def test_conjugator_of_another_degree_or_flavor_is_refused(self, s, g):
        with pytest.raises(ValueError, match="conjugator"):
            conjugate_system(s, g)

    def test_invariants_preserved(self):
        rng = random.Random(3)
        for _ in range(40):
            s = random_simple_system(rng, 4, 5)
            g = rng.choice(all_transpositions(4))
            c = conjugate_system(s, g)
            assert len(c) == len(s)
            assert is_simple_system(c)
            assert is_transitive(c) == is_transitive(s)


class TestComputedSystems:
    """Moves, conjugations, the normal form and the enumeration build their
    systems without re-checking the entries; the results must be the values
    the public constructor builds."""

    @staticmethod
    def assert_public(s):
        public = HurwitzSystem(s.degree, s.entries, s.flavor)
        assert type(s.entries) is tuple
        assert s == public and hash(s) == hash(public)
        assert vars(s) == vars(public)

    def test_moves_and_conjugates_are_public_values(self):
        rng = random.Random(19)
        for _ in range(60):
            s = random_simple_system(rng, 5, 6)
            k = rng.randrange(5)
            for direction in ("forward", "inverse"):
                self.assert_public(hurwitz_move(s, k, direction))
            self.assert_public(conjugate_system(s, rng.choice(all_transpositions(5))))

    def test_braid_moves_and_conjugates_are_public_values(self):
        s = braid_system(4, (1, -2), (3,), (2, 2, -1))
        for k in range(2):
            for direction in ("forward", "inverse"):
                self.assert_public(hurwitz_move(s, k, direction))
        self.assert_public(conjugate_system(s, BraidWord(4, (2, -3))))

    def test_normal_forms_and_enumeration_are_public_values(self):
        for s in itertools.islice(iter_simple_closing_systems(4, 6), 0, None, 11):
            self.assert_public(s)
            nf, _ = hc_normal_form(s)
            self.assert_public(nf)
            assert nf == normal_form_template(4, 6)


class TestTotalMonodromy:
    def test_empty(self):
        s = HurwitzSystem.of_permutations([], 3)
        assert total_monodromy(s) == Permutation.identity(3)

    def test_torus_example(self):
        s = perm_system(3, (1, 2), (1, 2), (1, 2), (1, 2), (2, 3), (2, 3))
        assert total_monodromy(s).is_identity()

    def test_braid_cancellation(self):
        s = braid_system(4, (1,), (-1,), (3,), (-3,))
        assert total_monodromy(s).is_identity()


class TestSimplicity:
    def test_permutation_flavor(self):
        assert is_simple_system(perm_system(3, (1, 2), (2, 3)))
        bad = HurwitzSystem.of_permutations(
            [Permutation.from_cycles(3, [(1, 2, 3)]), tr(3, 1, 2)], 3
        )
        assert not is_simple_system(bad)

    def test_braid_conjugate_detected(self):
        # s2^-1 s1^-1 s2^-1 s1 s2 equals s1^-1, a conjugate of a generator.
        w = BraidWord(4, (-2, -1, -2, 1, 2))
        assert braid_simplicity(w) is Simplicity.SIMPLE
        assert is_simple_system(HurwitzSystem.of_braids([w], 4))

    def test_braid_negative_certificates(self):
        assert braid_simplicity(BraidWord(3, (1, 1))) is Simplicity.NOT_SIMPLE
        assert braid_simplicity(BraidWord(3, ())) is Simplicity.NOT_SIMPLE
        # Exponent sum 1 but projection is not a transposition.
        w = BraidWord(4, (1, 2, -3))
        assert braid_simplicity(w) is Simplicity.NOT_SIMPLE

    def test_random_conjugates_certified(self):
        rng = random.Random(4)
        for _ in range(25):
            d = rng.choice([3, 4])
            conj = BraidWord(
                d, tuple(rng.choice([1, -1]) * rng.randrange(1, d) for _ in range(4))
            )
            seed = BraidWord.generator(d, rng.randrange(1, d), rng.choice([1, -1]))
            assert braid_simplicity(seed ** conj) is Simplicity.SIMPLE

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_formerly_undetermined_word_decides_fast(self, d):
        # s1^3 s2^-2: exponent sum 1 and a transposition, yet not simple.
        start = time.perf_counter()
        assert braid_simplicity(BraidWord(d, (1, 1, 1, -2, -2))) is Simplicity.NOT_SIMPLE
        assert time.perf_counter() - start < 0.1

    def test_agrees_with_bounded_conjugacy_search(self):
        rng = random.Random(12)
        decided = 0
        for _ in range(400):
            d = rng.choice([3, 4, 5])
            gens = [i for i in range(1, d)] + [-i for i in range(1, d)]
            if rng.random() < 0.5:
                conj = BraidWord(d, tuple(rng.choice(gens) for _ in range(rng.randrange(6))))
                w = BraidWord(d, (rng.choice(gens),)) ** conj
            else:
                w = BraidWord(d, tuple(rng.choice(gens) for _ in range(rng.choice([1, 3, 5, 7]))))
            expected = bounded_conjugacy_simple(w, 3)
            if expected is not None:
                decided += 1
                assert (braid_simplicity(w) is Simplicity.SIMPLE) == expected, w
        assert decided > 300


class TestTransitivity:
    def test_cases(self):
        assert is_transitive(perm_system(3, (1, 2), (2, 3)))
        assert not is_transitive(perm_system(3, (1, 2), (1, 2)))
        assert is_transitive(
            perm_system(3, (1, 2), (1, 2), (1, 2), (1, 2), (2, 3), (2, 3))
        )

    def test_braid_flavor_projects(self):
        assert not is_transitive(braid_system(4, (1,), (-1,)))
        assert is_transitive(braid_system(3, (1,), (2,)))


class TestNormalForm:
    def test_already_normal(self):
        s = perm_system(2, (1, 2), (1, 2))
        nf, trace = hc_normal_form(s)
        assert nf == s
        assert trace == []

    def test_intransitive_rejected(self):
        # (t1, t1 t3 t1, t3, t2 t1 t2 t1 t2) evaluates to (t1, t3, t3, t1),
        # whose monodromy group has orbits {1,2} and {3,4}.
        words = [
            [(1, 2)],
            [(1, 2), (3, 4), (1, 2)],
            [(3, 4)],
            [(2, 3), (1, 2), (2, 3), (1, 2), (2, 3)],
        ]
        entries = []
        for word in words:
            p = Permutation.identity(4)
            for pair in word:
                p = p * tr(4, *pair)
            entries.append(p)
        assert tuple(entries) == (tr(4, 1, 2), tr(4, 3, 4), tr(4, 3, 4), tr(4, 1, 2))
        s = HurwitzSystem.of_permutations(entries, 4)
        with pytest.raises(IntransitiveSystemError):
            hc_normal_form(s)

    def test_six_entry_example(self):
        for s in (
            perm_system(3, (1, 2), (2, 3), (2, 3), (1, 2), (1, 2), (1, 2)),
            # The letter-3 tail gathers to four equal entries: a borrow.
            perm_system(3, (1, 2), (1, 3), (1, 3), (1, 3), (1, 3), (1, 2)),
        ):
            nf, trace = hc_normal_form(s)
            assert nf == normal_form_template(3, 6)
            assert replay_trace(s, trace) == nf

    def test_non_simple_rejected(self):
        s = HurwitzSystem.of_permutations(
            [Permutation.from_cycles(3, [(1, 2, 3)]), Permutation.from_cycles(3, [(1, 3, 2)])], 3
        )
        with pytest.raises(NonSimpleSystemError):
            hc_normal_form(s)

    def test_non_closing_rejected(self):
        with pytest.raises(NonClosingSystemError):
            hc_normal_form(perm_system(3, (1, 2), (2, 3)))

    def test_random_systems_normalize_and_replay(self):
        rng = random.Random(5)
        done = 0
        while done < 40:
            d = rng.choice([3, 4, 5])
            n = rng.choice([4, 6, 8, 10])
            s = random_simple_system(rng, d, n)
            if not total_monodromy(s).is_identity() or not is_transitive(s):
                continue
            nf, trace = hc_normal_form(s)
            assert nf == normal_form_template(d, n)
            assert replay_trace(s, trace) == nf
            done += 1


def cycles(d, *cs):
    return Permutation.from_cycles(d, cs)


# Systems outside the classification theorem's reach, with the error class
# and message the precondition check raises for each; the checks run in the
# order flavor, simplicity, closing, transitivity.
PRECONDITION_FAILURES = [
    pytest.param(
        braid_system(3, (1,), (-1,)),
        HurwitzError, "normal form is defined for permutation systems",
        id="braid",
    ),
    pytest.param(
        HurwitzSystem.of_permutations([Permutation.identity(3), tr(3, 1, 2), tr(3, 1, 2)]),
        NonSimpleSystemError, "entry 0 is not a transposition",
        id="identity-first",
    ),
    pytest.param(
        HurwitzSystem.of_permutations([tr(3, 1, 2), tr(3, 1, 2), Permutation.identity(3)]),
        NonSimpleSystemError, "entry 2 is not a transposition",
        id="identity-later",
    ),
    pytest.param(
        HurwitzSystem.of_permutations([cycles(3, (1, 2, 3)), tr(3, 1, 2), tr(3, 2, 3)]),
        NonSimpleSystemError, "entry 0 is not a transposition",
        id="3-cycle-first",
    ),
    pytest.param(
        HurwitzSystem.of_permutations(
            [tr(4, 1, 2), tr(4, 2, 3), cycles(4, (1, 2, 3)), cycles(4, (1, 3, 2))]
        ),
        NonSimpleSystemError, "entry 2 is not a transposition",
        id="3-cycle-later",
    ),
    pytest.param(
        HurwitzSystem.of_permutations([cycles(4, (1, 2), (3, 4)), tr(4, 1, 2), tr(4, 3, 4)]),
        NonSimpleSystemError, "entry 0 is not a transposition",
        id="double-transposition-first",
    ),
    pytest.param(
        HurwitzSystem.of_permutations(
            [tr(4, 1, 2), tr(4, 2, 3), tr(4, 3, 4), cycles(4, (1, 3), (2, 4))]
        ),
        NonSimpleSystemError, "entry 3 is not a transposition",
        id="double-transposition-later",
    ),
    pytest.param(
        perm_system(3, (1, 2), (2, 3)),
        NonClosingSystemError, "total monodromy (1 3 2) is not the identity",
        id="non-closing",
    ),
    pytest.param(
        perm_system(4, (1, 2), (1, 2), (2, 3), (2, 3), (1, 4)),
        NonClosingSystemError, "total monodromy (1 4) is not the identity",
        id="non-closing-odd",
    ),
    pytest.param(
        perm_system(4, (1, 2), (3, 4), (3, 4), (1, 2)),
        IntransitiveSystemError,
        "monodromy group is intransitive: orbits [[1, 2], [3, 4]]",
        id="intransitive",
    ),
    pytest.param(
        perm_system(5, (1, 2), (1, 2), (3, 5), (3, 5)),
        IntransitiveSystemError,
        "monodromy group is intransitive: orbits [[1, 2], [3, 5], [4]]",
        id="intransitive-fixed-point",
    ),
    pytest.param(
        perm_system(4, (1, 2), (3, 4)),
        NonClosingSystemError, "total monodromy (1 2)(3 4) is not the identity",
        id="non-closing-and-intransitive",
    ),
]


class TestPreconditions:
    @pytest.mark.parametrize("s, error, message", PRECONDITION_FAILURES)
    def test_error_class_and_message(self, s, error, message):
        with pytest.raises(HurwitzError) as info:
            hc_normal_form(s)
        assert type(info.value) is error
        assert str(info.value) == message

    @pytest.mark.parametrize("s, error, message", PRECONDITION_FAILURES)
    def test_covering_equivalent_names_the_system(self, s, error, message):
        good = normal_form_template(s.degree, 2 * s.degree - 2)
        for args, prefix in (((s, good), "first system: "), ((good, s), "second system: ")):
            with pytest.raises(HurwitzError) as info:
                covering_equivalent(*args)
            assert type(info.value) is error
            assert str(info.value) == prefix + message

    def test_equivalence_verdicts_on_mixed_pairs(self):
        template = normal_form_template(4, 6)
        longer = normal_form_template(4, 8)
        scrambled = scrambled_template(3, 4, 8)
        intransitive = perm_system(4, (1, 2), (3, 4), (3, 4), (1, 2))
        non_closing = perm_system(4, (1, 2), (2, 3), (3, 4), (1, 2), (1, 2), (2, 3))
        non_simple = HurwitzSystem.of_permutations(
            [cycles(4, (1, 2, 3)), cycles(4, (1, 3, 2)), tr(4, 1, 2), tr(4, 1, 2), tr(4, 3, 4), tr(4, 3, 4)]
        )
        cases = [
            (longer, scrambled, Equivalence.EQUIVALENT),
            (template, longer, Equivalence.DISTINCT),
            (template, non_closing, Equivalence.DISTINCT),
            (non_simple, template, Equivalence.DISTINCT),
            (intransitive, template, Equivalence.DISTINCT),
            (intransitive, intransitive, Equivalence.EQUIVALENT),
            (non_closing, non_simple, Equivalence.DISTINCT),
        ]
        for s, t, verdict in cases:
            assert hc_equivalent(s, t) is verdict
            assert hc_equivalent(t, s) is verdict

    def test_pair_check_agrees_with_the_predicates(self):
        """Every system of length <= 5 over S_1, S_2 and S_3, non-transpositions
        included: the pair check accepts exactly the simple, closing,
        transitive systems, hands over their entries as sorted point pairs,
        and refuses the others for the first predicate that fails."""
        checked = 0
        for d in (1, 2, 3):
            group = [Permutation(images) for images in itertools.permutations(range(1, d + 1))]
            for n in range(6):
                for entries in itertools.product(group, repeat=n):
                    s = HurwitzSystem(d, entries)
                    simple, closing = is_simple_system(s), is_closing(s)
                    transitive = is_transitive(s)
                    try:
                        pairs = _check_normal_preconditions(s)
                    except HurwitzError as exc:
                        assert not (simple and closing and transitive)
                        expected = (
                            NonSimpleSystemError if not simple
                            else NonClosingSystemError if not closing
                            else IntransitiveSystemError
                        )
                        assert type(exc) is expected
                    else:
                        assert simple and closing and transitive
                        assert pairs == [tuple(sorted(e.support())) for e in entries]
                    checked += 1
        assert checked == 6 + 63 + 9331


def scrambled_template(seed, d, n):
    """The (d, n) template after 3n seeded moves and transposition conjugations."""
    rng = random.Random(seed)
    s = normal_form_template(d, n)
    for _ in range(3 * n):
        if rng.random() < 0.1:
            s = conjugate_system(s, tr(d, *sorted(rng.sample(range(1, d + 1), 2))))
        else:
            s = hurwitz_move(s, rng.randrange(n - 1), rng.choice(["forward", "inverse"]))
    return s


# Traces of hc_normal_form recorded from the worker that held Permutation
# entries, which the point-pair worker must reproduce step for step.  An int
# k is the forward move at k, a pair (a, b) the conjugation by (a b).  Keys:
# a test_six_entry_example system, or (seed, d, n) of scrambled_template.
GOLDEN_TRACES = {
    "six-entry": [2, 3, 4, 1, 2, 3, (1, 2)],
    "six-entry-borrow": [4, 3, 2, 1, 1, 2, 2, 1, 3, 3, 2, 3, 3],
    (1, 4, 8): [
        4, 5, 5, (2, 3), 2, 1, 0, 3, 3, 2, 1, 3, 3, 2, 3, 3, (1, 2),
    ],
    (2, 4, 8): [
        5, 2, 1, 3, 3, 2, 3, 3,
    ],
    (3, 8, 16): [
        14, 13, 12, 11, 12, 12, 13, 13, (4, 7), 8, 9, 9, 10, 10, 11, 11, (5, 6), 9, 9,
        (1, 5), 6, 5, 3, 4, 2, 3, 1, 2, 0, 1, 2, 2, 4, 4, 3, 4, 4, 5, 5, 6, 6, 7, 7,
        (3, 4), 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, (2, 3), 0, 0, 1, 1, 2, 2, 3, 3,
    ],
    (4, 16, 32): [
        30, 29, 25, 26, 27, 28, 24, 25, 26, 27, 23, 24, 25, 26, 27, 27, 28, 28, 29, 29,
        (4, 15), 25, 26, 26, 27, 27, (11, 14), 25, 25, (11, 13), 23, 20, 21, (10, 11), 20,
        17, 18, 19, (3, 10), (5, 9), 16, 15, (5, 8), 13, 12, 10, 11, 9, 10, 11, 11, 13, 13,
        12, 13, 13, (4, 7), (4, 6), 8, 5, 6, 7, 9, 9, 8, 9, 9, (4, 5), (1, 4), 6, 4, 5, 3,
        4, 2, 3, 1, 2, 3, 3, 5, 5, 4, 5, 5, 2, 0, 1, 3, 3, 2, 3, 3, (1, 2),
    ],
}


def golden_system(key):
    if key == "six-entry":
        return perm_system(3, (1, 2), (2, 3), (2, 3), (1, 2), (1, 2), (1, 2))
    if key == "six-entry-borrow":
        return perm_system(3, (1, 2), (1, 3), (1, 3), (1, 3), (1, 3), (1, 2))
    return scrambled_template(*key)


@pytest.mark.parametrize("key", GOLDEN_TRACES, ids=str)
def test_normal_form_trace_is_golden(key):
    s = golden_system(key)
    d = s.degree
    nf, trace = hc_normal_form(s)
    assert trace == [
        ("C", tr(d, *step)) if isinstance(step, tuple) else ("H", step, "forward")
        for step in GOLDEN_TRACES[key]
    ]
    assert nf == normal_form_template(d, len(s))
    assert replay_trace(s, trace) == nf


@pytest.mark.parametrize("step", [("H", 0), ("C",), ("H", 0, "forward", "x"), "H", None])
def test_replay_refuses_a_malformed_step(step):
    s = perm_system(3, (1, 2), (2, 3), (1, 3))
    with pytest.raises(ValueError, match="unknown trace step"):
        replay_trace(s, [step])


class TestEquivalence:
    def test_permutation_example(self):
        s = perm_system(4, (1, 2), (3, 4), (3, 4), (1, 2))
        t = perm_system(4, (1, 2), (1, 2), (3, 4), (3, 4))
        assert hc_equivalent(s, t) is Equivalence.EQUIVALENT

    def test_braid_example(self):
        s = braid_system(4, (1,), (3,), (-3,), (-1,))
        t = braid_system(4, (1,), (-1,), (3,), (-3,))
        assert hc_equivalent(s, t) is Equivalence.EQUIVALENT

    def test_length_screen(self):
        s = perm_system(2, (1, 2), (1, 2))
        t = perm_system(2, (1, 2), (1, 2), (1, 2), (1, 2))
        assert hc_equivalent(s, t) is Equivalence.DISTINCT

    def test_orbit_screen_gives_distinct(self):
        # Same length and entry classes, but the orbit-size multisets differ.
        s = perm_system(4, (1, 2), (1, 2), (3, 4), (3, 4))
        t = perm_system(4, (1, 2), (2, 3), (2, 3), (1, 2))
        assert total_monodromy(t).is_identity()
        assert hc_equivalent(s, t) is Equivalence.DISTINCT

    def test_intransitive_pair_decided_by_search(self):
        # No normal form exists for intransitive systems; the bounded search
        # still proves these equivalent (the two blocks commute).
        s = perm_system(4, (1, 2), (1, 2), (3, 4), (3, 4))
        t = perm_system(4, (3, 4), (3, 4), (1, 2), (1, 2))
        assert hc_equivalent(s, t) is Equivalence.EQUIVALENT

    def test_unknown_on_tiny_budget(self):
        # Far apart but equivalent braid systems; a one-state budget cannot tell.
        s = braid_system(4, (1,), (3,), (-3,), (-1,))
        t = braid_system(4, (1,), (-1,), (3,), (-3,))
        assert hc_equivalent(s, t, budget=1) is Equivalence.UNKNOWN

    @pytest.mark.parametrize("x, y", [(1, 2), (2, 1)])
    def test_summit_screen_separates_weak_pair(self, x, y):
        # Entry classes and total exponent sum and projection agree; the
        # totals 1 and x^2 y^-2 have summits (0, 0) and (-2, 2).
        s = braid_system(3, (x,), (-x,), (y,), (-y,))
        t = braid_system(3, (x,), (x,), (-y,), (-y,))
        assert hc_equivalent(s, t, budget=1) is Equivalence.DISTINCT

    def test_degree_mismatch_raises(self):
        with pytest.raises(ValueError):
            hc_equivalent(perm_system(3, (1, 2)), perm_system(4, (1, 2)))

    def test_move_images_equivalent(self):
        rng = random.Random(6)
        for _ in range(15):
            s = random_simple_system(rng, 4, 5)
            t = s
            for _ in range(rng.randrange(1, 5)):
                t = hurwitz_move(t, rng.randrange(len(t) - 1), rng.choice(["forward", "inverse"]))
            if rng.random() < 0.5:
                t = conjugate_system(t, rng.choice(all_transpositions(4)))
            assert hc_equivalent(s, t, budget=50_000) is Equivalence.EQUIVALENT


class TestEnumeration:
    def test_d2_counts(self):
        assert len(list(iter_simple_closing_systems(2, 2))) == 1
        assert len(list(iter_simple_closing_systems(2, 3))) == 0

    def test_d3_n4(self):
        family = list(iter_simple_closing_systems(3, 4))
        for s in family:
            assert total_monodromy(s).is_identity()
            assert is_transitive(s)
            assert is_simple_system(s)
        # Independent count: brute force over all 3^4 tuples.
        trans = all_transpositions(3)
        brute = 0
        import itertools as it

        for combo in it.product(trans, repeat=4):
            s = HurwitzSystem.of_permutations(list(combo), 3)
            if total_monodromy(s).is_identity() and is_transitive(s):
                brute += 1
        assert len(family) == brute


class TestJson:
    def test_roundtrip_permutation(self):
        s = perm_system(3, (1, 2), (2, 3))
        data = json.loads(json.dumps(system_to_json(s)))
        assert system_from_json(data) == s

    def test_roundtrip_braid(self):
        s = braid_system(4, (1, -2), (3,))
        data = json.loads(json.dumps(system_to_json(s)))
        assert system_from_json(data) == s

    def test_bad_file(self):
        with pytest.raises(ValueError):
            system_from_json({"degree": 3})


@pytest.mark.parametrize("flavor", ["permutation", "braid"])
@pytest.mark.parametrize("degree", [True, "3", 0, 17])
def test_system_degree_is_checked(flavor, degree):
    with pytest.raises(ValueError, match="degree"):
        HurwitzSystem(degree, (), flavor)


@pytest.mark.parametrize("n", [8.0, True, "8"])
def test_template_length_is_checked(n):
    with pytest.raises(ValueError, match=f"length {n!r} is not an integer"):
        normal_form_template(4, n)


def test_entries_given_as_a_list_are_stored_as_a_tuple():
    s = HurwitzSystem(3, [tr(3, 1, 2), tr(3, 2, 3)])
    assert s == perm_system(3, (1, 2), (2, 3))
    assert hash(s) == hash(perm_system(3, (1, 2), (2, 3)))
    assert hurwitz_move(s, 0) == perm_system(3, (2, 3), (1, 3))


def test_orbit_partition():
    s = perm_system(4, (1, 2), (3, 4))
    assert orbit_partition(s) == [frozenset({1, 2}), frozenset({3, 4})]


def _subgroup_order(entries, degree):
    seen = {Permutation.identity(degree)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for g in frontier:
            for e in entries:
                h = g * e
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
        frontier = nxt
    return len(seen)


def test_moves_preserve_generated_subgroup_order():
    rng = random.Random(9)
    for _ in range(30):
        d = rng.choice([3, 4, 5])
        s = random_simple_system(rng, d, 5)
        order = _subgroup_order(s.entries, d)
        t = hurwitz_move(s, rng.randrange(4), rng.choice(["forward", "inverse"]))
        t = conjugate_system(t, rng.choice(all_transpositions(d)))
        assert _subgroup_order(t.entries, d) == order
        assert len(t) == len(s)
