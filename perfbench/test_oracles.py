"""Tests of the benchmark's own oracles and generators.

    python3 -m unittest perfbench.test_oracles      (from the repository root)

Each oracle is fed a right answer and a tampered one, so a wrong answer
from the library is known to raise ``fail_ratio``.  Nothing here imports
branchcover.
"""

import itertools
import random
import subprocess
import sys
import unittest

from perfbench import gen
from perfbench import oracles as O

def scramble_with_trace(rng, d, n, moves):
    """A scrambled template and the trace that takes it back to the template."""
    entries = O.template(d, n)
    undo = []
    for _ in range(moves):
        if rng.random() < 0.2:
            g = gen.random_transposition(rng, d)
            entries = tuple(O.conj(e, g) for e in entries)
            undo.append(("C", g))
            continue
        k = rng.randrange(n - 1)
        if rng.random() < 0.5:
            entries = O.hurwitz_forward(entries, k)
            undo.append(("H", k, "inverse"))
        else:
            entries = O.hurwitz_inverse(entries, k)
            undo.append(("H", k, "forward"))
    return entries, list(reversed(undo))


class NormalFormReplay(unittest.TestCase):
    def setUp(self):
        self.d, self.n = 4, 8
        self.entries, self.trace = scramble_with_trace(random.Random(1), self.d, self.n, 30)
        self.result = O.template(self.d, self.n)

    def test_true_answer_passes(self):
        self.assertTrue(O.check_normal_form(self.entries, self.d, self.result, self.trace))

    def test_wrong_template_fails(self):
        wrong = (O.transposition(4, 1, 3),) + self.result[1:]
        self.assertFalse(O.check_normal_form(self.entries, self.d, wrong, self.trace))

    def test_trace_that_does_not_replay_fails(self):
        broken = self.trace[:-1] if self.trace[-1][0] == "H" else self.trace[:-2]
        self.assertFalse(O.check_normal_form(self.entries, self.d, self.result, broken))

    def test_moves_keep_the_product(self):
        self.assertEqual(O.product(self.entries, self.d), O.identity(self.d))

    def test_closing_system_count_matches_a_known_value(self):
        # (d, n) = (3, 4): the 3 * 2 = 6 ordered pairs of distinct
        # transpositions a, b with a a b b ... closing; counted by hand below.
        trans = [O.transposition(3, i, j) for i, j in ((1, 2), (1, 3), (2, 3))]
        manual = sum(
            1
            for seq in itertools.product(trans, repeat=4)
            if O.product(seq, 3) == O.identity(3) and len(O.orbits(seq, 3)) == 1
        )
        self.assertEqual(O.count_closing_systems(3, 4), manual)


class Covering(unittest.TestCase):
    def test_block_sum_components(self):
        entries, d, components = gen.block_sum(random.Random(2), 3, 6, 4, 8)
        self.assertEqual(O.product(entries, d), O.identity(d))
        orbits = O.orbits(entries, d)
        self.assertEqual(sorted(tuple(sorted(o)) for o in orbits), [c[0] for c in components])
        self.assertTrue(O.check_covering(components, components))

    def test_wrong_genus_fails(self):
        expected = [((1, 2, 3), 1)]
        self.assertFalse(O.check_covering([((1, 2, 3), 2)], expected))
        self.assertFalse(O.check_covering([((1, 2), 1), ((3,), 0)], expected))


class Burau(unittest.TestCase):
    def test_braid_relations_keep_the_trace(self):
        for t in O.BURAU_POINTS:
            self.assertEqual(O.burau_trace(3, (1, 2, 1), t), O.burau_trace(3, (2, 1, 2), t))
            self.assertEqual(O.burau_trace(4, (1, 3, -2), t), O.burau_trace(4, (3, 1, -2), t))
            self.assertEqual(O.burau_trace(3, (1, -1), t), 3)

    def test_hard_words_are_certified_not_simple(self):
        for w in gen.HARD_SIMPLICITY:
            self.assertTrue(O.certify_not_simple(3, w))

    def test_a_simple_conjugate_is_not_certified(self):
        # A tampered verdict: calling a true conjugate of s1 non-simple.
        rng = random.Random(3)
        for d in (3, 4, 5):
            for length in range(4):
                self.assertFalse(O.certify_not_simple(d, gen.simple_conjugate(rng, d, length)))

    def test_distinct_pair_totals_are_separated(self):
        s, t = gen.distinct_braid_pair(random.Random(4))
        total_s = O.free_reduce(sum(s, ()))
        total_t = O.free_reduce(sum(t, ()))
        self.assertEqual(total_s, ())
        self.assertTrue(O.certify_not_conjugate(3, total_s, total_t))
        self.assertFalse(O.certify_not_conjugate(3, total_t, O.braid_conj(total_t, (1, -2))))


class FreeGroupAction(unittest.TestCase):
    def test_respelling_keeps_the_element(self):
        rng = random.Random(5)
        for d, length in ((3, 16), (4, 24), (5, 32)):
            u = gen.capped_word(rng, d, length)
            self.assertTrue(O.braids_equal(d, u, gen.respell(rng, u, length)))
            self.assertFalse(O.braids_equal(d, u, gen.respell(rng, u + (1,), length)))

    def test_capped_word_stays_under_the_ceiling(self):
        w = gen.capped_word(random.Random(6), 4, 48)
        self.assertEqual(len(w), 48)
        self.assertEqual(O.free_reduce(w), w)
        self.assertLess(sum(map(len, O.artin_images(4, w))), 3 * gen.key_cap(48))

    def test_lift_check(self):
        trefoil = gen.KNOTS["trefoil"]
        arcs = set(O.pd_arcs(trefoil).values())
        base = {a: (2, 1) for a in arcs}
        lift = {a: (1,) for a in arcs}
        self.assertTrue(O.check_braid_lift(2, trefoil, base, lift))
        corrupted = {**lift, min(arcs): (1, 1, 1)}  # projects right, exponent sum 3
        self.assertFalse(O.check_braid_lift(2, trefoil, base, corrupted))
        corrupted = {**lift, min(arcs): (-1,)}  # projects right, breaks a relation
        self.assertFalse(O.check_braid_lift(2, trefoil, base, corrupted))

    def test_lift_of_a_three_coloring(self):
        # Search conjugates of generators by one letter for a lift, then
        # corrupt one arc by a pure braid, which keeps its projection.
        trefoil = gen.KNOTS["trefoil"]
        fox = next(c for c in O.fox_colorings(trefoil) if len(set(c.values())) == 3)
        base = gen.fox_to_transpositions(fox)
        candidates = {}
        for arc, p in base.items():
            candidates[arc] = [w for w in ((1,), (2,), (-2, 1, 2), (2, 1, -2), (1, 2, -1), (-1, 2, 1))
                               if O.braid_project(3, w) == p]
        found = [dict(zip(candidates, combo)) for combo in itertools.product(*candidates.values())
                 if O.check_braid_lift(3, trefoil, base, dict(zip(candidates, combo)))]
        self.assertTrue(found)
        arc = min(found[0])
        bad = {**found[0], arc: O.braid_conj(found[0][arc], (1, 1, 2, 2))}
        self.assertFalse(O.check_braid_lift(3, trefoil, base, bad))


class Fox(unittest.TestCase):
    def brute_count(self, pd):
        arcs = sorted(set(O.pd_arcs(pd).values()))
        table = O.dihedral_table(3)
        signs = O.pd_signs(pd)
        return sum(
            O.quandle_coloring_ok(pd, signs, table, dict(zip(arcs, values)))
            for values in itertools.product(range(3), repeat=len(arcs))
        )

    def test_counts_match_exhaustion(self):
        rng = random.Random(7)
        diagrams = list(gen.KNOTS.values())
        while len(diagrams) < 10:
            _, pd = gen.random_closure(rng, 3, rng.randrange(3, 8))
            try:
                O.pd_signs(pd)
            except ValueError:
                continue
            diagrams.append(pd)
        for pd in diagrams:
            self.assertEqual(O.fox_count(pd), self.brute_count(pd))
        self.assertEqual(O.fox_count(gen.KNOTS["trefoil"]), 9)
        self.assertEqual(O.fox_count(gen.KNOTS["figure-eight"]), 3)

    def test_colorings_satisfy_the_relations(self):
        pd = gen.KNOTS["trefoil"]
        for fox in O.fox_colorings(pd):
            self.assertTrue(O.check_transposition_coloring(pd, gen.fox_to_transpositions(fox)))
        fox = next(c for c in O.fox_colorings(pd) if len(set(c.values())) == 3)
        wrong = gen.fox_to_transpositions(fox)
        arc = min(wrong)
        wrong[arc] = next(t for t in gen.T3 if t != wrong[arc])
        self.assertFalse(O.check_transposition_coloring(pd, wrong))

    def test_surjection_lifts(self):
        source, target, p = gen.surjections()[1]  # R8 -> R4
        self.assertTrue(O.quandle_axioms_hold(source) and O.quandle_axioms_hold(target))
        trefoil = gen.KNOTS["trefoil"]
        for coloring in gen.target_colorings(trefoil, target):
            for lifted in O.surjection_lifts(trefoil, source, p, coloring):
                self.assertEqual({a: p[v] for a, v in lifted.items()}, coloring)


class Charts(unittest.TestCase):
    def test_gadget_is_not_orientable(self):
        self.assertFalse(O.orientable_brute_force(3, gen.GADGET))

    def test_prefix_plus_gadget(self):
        rng = random.Random(8)
        for size, edges in ((12, 4), (16, 5), (20, 6)):
            prefix = gen.closed_prefix(rng, 3, size, edges)
            self.assertEqual(len(prefix), size)
            self.assertTrue(O.orientable_brute_force(3, prefix))
            self.assertFalse(O.orientable_brute_force(3, prefix + gen.GADGET))

    def test_witness_check(self):
        rng = random.Random(9)
        oriented = gen.random_chart(rng, 4, 20, True)
        plain = gen.forget(oriented)
        self.assertTrue(O.check_witness(4, plain, oriented))
        # One flipped birth sign reaches a death or cap that disagrees.
        k = next(i for i, ev in enumerate(oriented) if ev[0] == "black" and ev[3])
        kind, p, labels, insert, sign = oriented[k]
        flipped = oriented[:k] + ((kind, p, labels, insert, -sign),) + oriented[k + 1 :]
        self.assertFalse(O.check_witness(4, plain, flipped))

    def test_witness_that_does_not_project_back_fails(self):
        rng = random.Random(10)
        oriented = gen.random_chart(rng, 3, 16, True)
        plain = gen.forget(oriented)
        other = gen.random_chart(rng, 3, 16, True)
        self.assertFalse(O.check_witness(3, plain, other))

    def test_random_charts_are_valid(self):
        rng = random.Random(11)
        for oriented in (False, True):
            for _ in range(20):
                d = rng.choice((3, 4, 5))
                O.chart_sweep(d, gen.random_chart(rng, d, rng.randrange(5, 60), oriented), oriented)

    def test_moves_produce_valid_equivalent_charts(self):
        rng = random.Random(12)
        for _ in range(30):
            d = rng.choice((3, 4, 5))
            events = gen.transitive_chart(rng, d, 25)
            _, _, moved = gen.chart_move_site(rng, d, events)
            before = O.chart_sweep(d, events, False)[0]
            after = O.chart_sweep(d, moved, False)[0]
            self.assertEqual(len(before), len(after))
            self.assertEqual(len(O.orbits(after, d)), 1)


class Generators(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        def draw(seed):
            rng = random.Random(seed)
            return (gen.family_member(rng, 4, 8), gen.scrambled_template(rng, 6, 16),
                    gen.capped_word(rng, 4, 32), gen.random_chart(rng, 4, 30, False))

        self.assertEqual(draw("a"), draw("a"))
        self.assertNotEqual(draw("a"), draw("b"))

    def test_no_library_import(self):
        code = "import sys, perfbench.gen, perfbench.oracles; print('branchcover' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        self.assertEqual(out.stdout.strip(), "False")


if __name__ == "__main__":
    unittest.main()
