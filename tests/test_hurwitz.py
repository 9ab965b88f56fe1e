import json
import random
import time

import pytest

from branchcover.braids import BraidWord, braids_equal
from branchcover.hurwitz import (
    Equivalence,
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

    def test_invariants_preserved(self):
        rng = random.Random(3)
        for _ in range(40):
            s = random_simple_system(rng, 4, 5)
            g = rng.choice(all_transpositions(4))
            c = conjugate_system(s, g)
            assert len(c) == len(s)
            assert is_simple_system(c)
            assert is_transitive(c) == is_transitive(s)


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
