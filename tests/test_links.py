import hashlib
import itertools
import random
import re

import pytest

from branchcover.braids import BraidWord, braids_equal, canonical_key, project
from branchcover.links import (
    CORPUS,
    LinkDiagram,
    LinkError,
    SimpleColoring,
    braid_closure_pd,
    Tangle,
    color_name,
    coloring_from_json,
    coloring_satisfies,
    coloring_to_json,
    corpus_diagram,
    enumerate_simple_colorings,
    find_simple_lift,
    flat_tangle,
    montesinos_flat_colors,
    montesinos_replace,
    parse_pd,
    pd_string,
    r1_add,
    r1_remove,
    r2_add,
    r2_remove,
    twist_boundary_colors,
    _ConjugationTable,
    _simple_conjugates,
)
from branchcover.permutations import ParseError, Permutation
from oracles import fox_three_colorings, montesinos_pair_check, pd_orientation, simple_braid_candidates


def tr(d, i, j):
    return Permutation.transposition(d, i, j)


TREFOIL = corpus_diagram("trefoil")


class TestParsePd:
    def test_trefoil(self):
        dg = parse_pd("X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)")
        assert len(dg.crossings) == 3
        assert len(dg.arcs()) == 3
        assert dg.component_count() == 1

    def test_empty(self):
        dg = parse_pd("")
        assert dg.crossings == ()
        assert dg.component_count() == 0

    def test_crossings_given_as_lists_are_stored_as_tuples(self):
        dg = LinkDiagram([[1, 4, 2, 5], [3, 6, 4, 1], [5, 2, 6, 3]])
        assert dg == TREFOIL and hash(dg) == hash(TREFOIL)
        assert pd_string(dg) == "X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)"

    def test_unknot_token(self):
        dg = parse_pd("U")
        assert dg.component_count() == 1
        assert dg.arcs() == [-1]

    def test_repeated_edge_rejected(self):
        with pytest.raises(ParseError, match="appears"):
            parse_pd("X(1,1,1,2) X(2,3,3,4)")

    def test_bad_token(self):
        with pytest.raises(ParseError, match="bad PD token"):
            parse_pd("X(1,2,3,4) Y(1,2)")

    def test_non_ascii_digits_are_refused(self):
        # "X(\u0661,4,2,5)" matched \d and read arc 1: a valid trefoil.
        with pytest.raises(ParseError, match="bad PD token"):
            parse_pd("X(\u0661,4,2,5) X(3,6,4,1) X(5,2,6,3)")

    def test_roundtrip(self):
        for name, text in CORPUS.items():
            dg = parse_pd(text)
            assert parse_pd(pd_string(dg)) == dg

    def test_corpus_parses(self):
        for name in CORPUS:
            dg = corpus_diagram(name)
            assert dg.component_count() >= 1

    def test_corpus_component_counts(self):
        assert corpus_diagram("trefoil").component_count() == 1
        assert corpus_diagram("figure-eight").component_count() == 1
        assert corpus_diagram("5_2").component_count() == 1
        assert corpus_diagram("granny").component_count() == 1
        assert corpus_diagram("square").component_count() == 1


class TestOrientation:
    def test_every_edge_has_one_head(self):
        # Words such as s1 s1^-1 close into a component that never passes
        # under anything; its crossings must still be oriented consistently.
        rng = random.Random(8)
        words = [([1, -1], 2), ([-1, 1, 1, -1], 2), ([2, -2, 1, 1], 3)]
        for _ in range(40):
            strands = rng.choice((2, 3, 4))
            letters = [
                rng.choice((1, -1)) * rng.randrange(1, strands)
                for _ in range(rng.randrange(1, 7))
            ]
            words.append((letters, strands))
        for letters, strands in words:
            dg = braid_closure_pd(letters, strands)
            heads = [dg.edge_head(e) for e in dg.edges()]
            assert len(set(heads)) == len(heads), (letters, strands)

    def test_cancelling_pair_has_opposite_signs(self):
        dg = braid_closure_pd([1, -1], 2)
        assert sorted(dg.crossing_sign(k) for k in range(2)) == [-1, 1]

    def test_walk_matches_parity_oracle(self):
        rng = random.Random(11)
        codes = []
        for _ in range(150):
            strands = rng.choice((2, 3, 4))
            letters = [
                rng.choice((1, -1)) * rng.randrange(1, strands)
                for _ in range(rng.randrange(1, 9))
            ]
            if rng.random() < 0.3:
                letters = [1, -1] + letters  # a strand that never passes under
            codes.append(braid_closure_pd(letters, strands).crossings)
        for _ in range(400):
            # 4n slots paired at random into 2n edges
            n = rng.randrange(1, 6)
            slots = rng.sample(range(4 * n), 4 * n)
            quads = [[0] * 4 for _ in range(n)]
            for i, slot in enumerate(slots):
                quads[slot // 4][slot % 4] = i // 2 + 1
            codes.append(tuple(map(tuple, quads)))
        inconsistent = 0
        for crossings in codes:
            expected = pd_orientation(crossings)
            if expected is None:
                inconsistent += 1
                with pytest.raises(LinkError, match="orientation inconsistent"):
                    LinkDiagram(crossings)
                continue
            signs, heads, arc_of, strands = expected
            dg = LinkDiagram(crossings)
            assert [dg.crossing_sign(k) for k in range(len(crossings))] == signs
            assert {e: dg.edge_head(e) for e in dg.edges()} == heads
            assert {e: dg.arc_of(e) for e in dg.edges()} == arc_of
            assert dg.arcs() == sorted(set(arc_of.values()))
            assert dg.component_count() == strands
        assert 0 < inconsistent < len(codes)


class TestColorings:
    def test_trefoil_d3(self):
        cols = enumerate_simple_colorings(TREFOIL, 3)
        assert len(cols) == 9
        assert sum(1 for c in cols if c.is_transitive()) == 6
        for c in cols:
            assert coloring_satisfies(TREFOIL, c)

    def test_unknot_d3(self):
        cols = enumerate_simple_colorings(corpus_diagram("unknot"), 3)
        assert len(cols) == 3
        assert not any(c.is_transitive() for c in cols)

    def test_figure_eight_d3(self):
        cols = enumerate_simple_colorings(corpus_diagram("figure-eight"), 3)
        assert len(cols) == 3

    def test_5_2_d3(self):
        # Determinant 7 is prime to 3, so only constant colorings remain.
        assert len(enumerate_simple_colorings(corpus_diagram("5_2"), 3)) == 3

    def test_connected_sums_d3(self):
        # col(K1 # K2) = col(K1) * col(K2) / 3 for Fox 3-colorings.
        assert len(enumerate_simple_colorings(corpus_diagram("granny"), 3)) == 27
        assert len(enumerate_simple_colorings(corpus_diagram("square"), 3)) == 27

    def test_matches_fox_oracle(self):
        for name in CORPUS:
            dg = corpus_diagram(name)
            assert len(enumerate_simple_colorings(dg, 3)) == fox_three_colorings(dg)

    def test_trefoil_d2(self):
        cols = enumerate_simple_colorings(TREFOIL, 2)
        assert len(cols) == 1  # all arcs (1 2)

    def test_color_names(self):
        assert color_name(tr(3, 1, 2)) == "blue"
        assert color_name(tr(3, 2, 3)) == "red"
        assert color_name(tr(3, 1, 3)) == "green"
        assert color_name(tr(4, 1, 2)) is None


class TestJson:
    def test_roundtrip(self):
        cols = enumerate_simple_colorings(TREFOIL, 3)
        for c in cols[:3]:
            assert coloring_from_json(coloring_to_json(c)) == c

    def test_braid_roundtrip(self):
        c = SimpleColoring(2, "braid", {-1: BraidWord(2, (1,))})
        assert coloring_from_json(coloring_to_json(c)) == c

    @pytest.mark.parametrize("flavor", ["permutation", "braid"])
    @pytest.mark.parametrize("degree", [True, "3", 0, 17])
    def test_degree_is_checked(self, flavor, degree):
        with pytest.raises(LinkError, match="degree"):
            SimpleColoring(degree, flavor, {})

    @pytest.mark.parametrize("assignment", [[1], None, "1"], ids=repr)
    def test_assignment_must_be_a_dict(self, assignment):
        with pytest.raises(LinkError, match="assignment must be a dict"):
            SimpleColoring(3, "permutation", assignment)

    # "01" beside "1" silently kept one of the two arcs; "4_0" read as arc 40.
    @pytest.mark.parametrize("key", ["01", "4_0", "+4", " 4", "x"])
    def test_arc_key_must_be_an_integer_written_plainly(self, key):
        assignment = {"1": "(1 2)", "2": "(1 2)", "4": "(1 2)", key: "(1 2)"}
        with pytest.raises(LinkError, match=re.escape(f"assignment key {key!r}")):
            coloring_from_json({"degree": 2, "flavor": "permutation", "assignment": assignment})

    def test_unknown_flavor(self):
        # A flavor other than "permutation" used to be read as braid.
        with pytest.raises(LinkError, match="unknown flavor 'foo'"):
            SimpleColoring(2, "foo", {-1: BraidWord(2, (1,))})
        with pytest.raises(ValueError, match="unknown flavor 'foo'"):
            coloring_from_json({"degree": 2, "flavor": "foo", "assignment": {"-1": "s1"}})


def surjective_trefoil_coloring():
    cols = enumerate_simple_colorings(TREFOIL, 3)
    return next(c for c in cols if c.is_transitive())


class TestMontesinos:
    def test_registration_check(self):
        for d in range(3, 9):
            assert montesinos_pair_check(d), d

    def test_twist_boundary_evolution(self):
        a, b = tr(3, 1, 2), tr(3, 2, 3)
        colors = twist_boundary_colors(a, b, 3)
        assert colors[103] == a and colors[203] == b

    def test_replace_by_itself(self):
        dg, coloring = TREFOIL, surjective_trefoil_coloring()
        t = Tangle((TREFOIL.crossings[0],))
        colors = {e: coloring.assignment[dg.arc_of(e)] for e in TREFOIL.crossings[0]}
        new_dg, new_col = montesinos_replace(dg, coloring, [0], t, colors)
        assert set(new_dg.crossings) == set(dg.crossings)
        assert coloring_satisfies(new_dg, new_col)

    def test_boundary_color_mismatch(self):
        dg, coloring = TREFOIL, surjective_trefoil_coloring()
        t = Tangle((TREFOIL.crossings[0],))
        colors = {e: tr(3, 1, 2) for e in TREFOIL.crossings[0]}
        if all(
            coloring.assignment[dg.arc_of(e)] == tr(3, 1, 2)
            for e in TREFOIL.crossings[0]
        ):
            pytest.skip("coloring happens to be constant")
        with pytest.raises(LinkError, match="color mismatch"):
            montesinos_replace(dg, coloring, [0], t, colors)

    def test_three_half_twists_to_flat(self):
        # Host: granny knot with an extra cancelling pair so the first
        # trefoil factor's 3-half-twist region is a genuine 4-ended site.
        from branchcover.links import braid_closure_pd

        dg = braid_closure_pd([1, 1, 1, 2, 2, 2, 1, -1], 3)
        site = [0, 1, 2]
        from branchcover.links import extract_tangle

        assert sorted(extract_tangle(dg, site).boundary_edges()) == [1, 2, 8, 9]
        col = next(
            c
            for c in enumerate_simple_colorings(dg, 3)
            if c.assignment[dg.arc_of(1)] != c.assignment[dg.arc_of(2)]
        )
        a, b = col.assignment[dg.arc_of(1)], col.assignment[dg.arc_of(2)]
        new_dg, new_col = montesinos_replace(
            dg,
            col,
            site,
            flat_tangle(3),
            montesinos_flat_colors(a, b),
            boundary_map={100: 1, 103: 8, 200: 2, 203: 9},
        )
        assert len(new_dg.crossings) == len(dg.crossings) - 3
        assert coloring_satisfies(new_dg, new_col)
        # Flattening the twist splits off an unknot: trefoil + circle,
        # 9 * 3 colorings over two components.
        assert new_dg.component_count() == 2
        assert len(enumerate_simple_colorings(new_dg, 3)) == 27

    def test_flat_colors_requires_intersecting(self):
        with pytest.raises(LinkError):
            montesinos_flat_colors(tr(4, 1, 2), tr(4, 3, 4))


class TestReidemeister:
    @pytest.mark.parametrize("name", ["trefoil", "figure-eight", "5_2"])
    def test_r1_preserves_counts(self, name):
        dg = corpus_diagram(name)
        for d in (2, 3):
            base = enumerate_simple_colorings(dg, d)
            col = base[0]
            for sign in (1, -1):
                new_dg, new_col = r1_add(dg, col, dg.edges()[0], sign)
                assert coloring_satisfies(new_dg, new_col)
                assert len(enumerate_simple_colorings(new_dg, d)) == len(base)

    def test_r1_roundtrip(self):
        dg = corpus_diagram("trefoil")
        col = surjective_trefoil_coloring()
        new_dg, new_col = r1_add(dg, col, 1, 1)
        assert len(new_dg.crossings) == 4
        kink = next(
            k for k, (a, b, c, d) in enumerate(new_dg.crossings) if c in (b, d)
        )
        back_dg, back_col = r1_remove(new_dg, new_col, kink)
        assert len(back_dg.crossings) == 3
        assert len(enumerate_simple_colorings(back_dg, 3)) == 9

    @pytest.mark.parametrize("sign", [1, -1])
    def test_r1_roundtrip_is_exact(self, sign):
        # sign -1 puts the kink's under-out in slot b (c == b), +1 in slot d.
        dg, col = TREFOIL, surjective_trefoil_coloring()
        for edge in dg.edges():
            new_dg, new_col = r1_add(dg, col, edge, sign)
            kink = len(new_dg.crossings) - 1
            _, b, c, d = new_dg.crossings[kink]
            assert c == (b if sign == -1 else d)
            assert r1_remove(new_dg, new_col, kink) == (dg, col)

    @pytest.mark.parametrize("sign", [0, 2, "x", True])
    def test_r1_add_refuses_a_sign_other_than_plus_or_minus_one(self, sign):
        with pytest.raises(LinkError, match="sign"):
            r1_add(TREFOIL, surjective_trefoil_coloring(), 1, sign)

    @pytest.mark.parametrize("quad", [(1, 1, 2, 2), (1, 2, 2, 1)])
    def test_r1_remove_refuses_a_one_crossing_component(self, quad):
        # Welding the kink's ends would join an edge to itself and silently
        # delete the component.
        dg = LinkDiagram((quad,))
        col = enumerate_simple_colorings(dg, 2)[0]
        with pytest.raises(LinkError, match="whole component"):
            r1_remove(dg, col, 0)

    @pytest.mark.parametrize("name", ["trefoil", "figure-eight"])
    def test_r2_preserves_counts(self, name):
        dg = corpus_diagram(name)
        for d in (2, 3):
            base = enumerate_simple_colorings(dg, d)
            col = base[-1]
            edges = dg.edges()
            new_dg, new_col = r2_add(dg, col, edges[0], edges[2])
            assert len(new_dg.crossings) == len(dg.crossings) + 2
            assert coloring_satisfies(new_dg, new_col)
            assert len(enumerate_simple_colorings(new_dg, d)) == len(base)

    def test_r2_roundtrip(self):
        dg = corpus_diagram("trefoil")
        col = surjective_trefoil_coloring()
        edges = dg.edges()
        new_dg, new_col = r2_add(dg, col, edges[1], edges[4])
        k1, k2 = len(new_dg.crossings) - 2, len(new_dg.crossings) - 1
        back_dg, back_col = r2_remove(new_dg, new_col, (k1, k2))
        assert len(back_dg.crossings) == 3
        assert coloring_satisfies(back_dg, back_col)
        assert len(enumerate_simple_colorings(back_dg, 3)) == 9

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_r2_roundtrip_is_exact(self, order):
        # Order (1, 0) lists the second crossing first: the under strand
        # chains c2 == a1.
        dg, col = TREFOIL, surjective_trefoil_coloring()
        for over, under in itertools.permutations(dg.edges(), 2):
            new_dg, new_col = r2_add(dg, col, over, under)
            sites = tuple(len(dg.crossings) + k for k in order)
            assert r2_remove(new_dg, new_col, sites) == (dg, col)

    def test_moves_carry_a_braid_coloring(self):
        # The splice re-checks every relation exactly, so a wrong sign for
        # r2_add's first crossing would be refused on braid colors.
        dg = TREFOIL
        lift = find_simple_lift(dg, surjective_trefoil_coloring()).lift
        for edge in dg.edges():
            for sign in (1, -1):
                new_dg, new_col = r1_add(dg, lift, edge, sign)
                assert coloring_satisfies(new_dg, new_col)
        for over, under in itertools.permutations(dg.edges(), 2):
            new_dg, new_col = r2_add(dg, lift, over, under)
            assert coloring_satisfies(new_dg, new_col)
            n = len(new_dg.crossings)
            assert r2_remove(new_dg, new_col, (n - 2, n - 1)) == (dg, lift)


class TestLifts:
    def test_unknot_constant(self):
        dg = corpus_diagram("unknot")
        f = SimpleColoring(2, "permutation", {-1: tr(2, 1, 2)})
        res = find_simple_lift(dg, f)
        assert res.lift is not None
        assert braids_equal(res.lift.assignment[-1], BraidWord(2, (1,)))

    def test_trefoil_d2(self):
        dg = TREFOIL
        f = enumerate_simple_colorings(dg, 2)[0]
        res = find_simple_lift(dg, f)
        assert res.lift is not None
        for arc, w in res.lift.assignment.items():
            assert project(w) == f.assignment[arc]
        assert coloring_satisfies(dg, res.lift)

    def test_corpus_d2_all_lift(self):
        for name in CORPUS:
            dg = corpus_diagram(name)
            for f in enumerate_simple_colorings(dg, 2):
                res = find_simple_lift(dg, f)
                assert res.lift is not None, name
                assert coloring_satisfies(dg, res.lift)

    def test_trefoil_surjective_d3(self):
        f = surjective_trefoil_coloring()
        res = find_simple_lift(TREFOIL, f)
        assert res.lift is not None
        for arc, w in res.lift.assignment.items():
            assert project(w) == f.assignment[arc]
        assert coloring_satisfies(TREFOIL, res.lift)

    def test_budget_exhaustion_reported(self):
        f = surjective_trefoil_coloring()
        res = find_simple_lift(TREFOIL, f, budget=1)
        assert res.lift is None
        assert res.exhausted

    def test_closure_with_all_over_circle_lifts(self):
        # The closure has an all-over circle; oriented wrongly, it makes the
        # forced conjugates grow until memory runs out within the budget.
        dg = braid_closure_pd([1, -1, 2, -2, 2, 2], 3)
        colorings = enumerate_simple_colorings(dg, 3)
        assert len(colorings) == 9
        for f in colorings:
            res = find_simple_lift(dg, f, budget=3000)
            assert res.lift is not None and not res.exhausted
            assert coloring_satisfies(dg, res.lift)

    def test_conjugation_table_interns_equal_braids(self):
        # s2^-1 s1 s2 and s1 s2 s1^-1 are one braid, met by two conjugations.
        words = [BraidWord(3, (1,)), BraidWord(3, (2,)), BraidWord(3, (-1,))]
        table = _ConjugationTable({w: k for k, w in enumerate(words)}, words, 1)
        assert table[0][1] == 3 and words[3].letters == (-2, 1, 2)
        assert table[1][2] == 3
        assert len(words) == 4

    def test_candidates_project_correctly(self):
        for target in (tr(3, 1, 2), tr(3, 1, 3)):
            cands = simple_braid_candidates(3, target, 2)
            assert cands
            for w in cands:
                assert project(w) == target

    @pytest.mark.parametrize("d, bound", [(3, 0), (3, 1), (3, 2), (3, 3), (4, 0), (4, 1), (4, 2)])
    def test_candidate_pool_is_every_bounded_conjugate_once(self, d, bound):
        pool = _simple_conjugates(d, bound)
        letters = [x for i in range(1, d) for x in (i, -i)]
        expected = {
            canonical_key(BraidWord(d, (g,)) ** BraidWord(d, c))
            for g in letters
            for n in range(bound + 1)
            for c in itertools.product(letters, repeat=n)
        }
        keys = [canonical_key(w) for w, _ in pool]
        assert set(keys) == expected
        assert len(set(keys)) == len(pool) == len({w for w, _ in pool})
        for w, pair in pool:
            assert pair == tuple(sorted(project(w).support()))

    def test_candidate_pool_is_pinned(self):
        # sha256 over each pool's (letters, pair) list in order, recorded
        # while canonical_key still substituted letter by letter.
        h = hashlib.sha256()
        for d in range(2, 6):
            for bound in range(4):
                h.update(repr([(w.letters, pair) for w, pair in _simple_conjugates(d, bound)]).encode())
        assert h.hexdigest() == "22ac6f97c86777f106ef7b1dd4c89588786a9a9cac8e07ddd8dffc6d3ae23f15"


class TestValidation:
    @pytest.mark.parametrize("n", [True, 2.5, "3", 0])
    def test_half_twist_counts_must_be_exact_ints(self, n):
        with pytest.raises(LinkError, match="half-twist count"):
            flat_tangle(n)
        with pytest.raises(LinkError, match="half-twist count"):
            twist_boundary_colors(tr(3, 1, 2), tr(3, 2, 3), n)

    @pytest.mark.parametrize(
        "letters, strands",
        [((1, 1, 1), 2.0), ((1, 1, 1), True), ((1, 1, 1), "2"), ((1.0, 1, 1), 2), ((True, 1, 1), 2),
         ((1, 0), 3), ((1, -3), 3)],
    )
    def test_closure_letters_and_strands_must_be_exact_ints(self, letters, strands):
        with pytest.raises(LinkError):
            braid_closure_pd(letters, strands)

    def test_wrong_flavor_lift_input(self):
        f = SimpleColoring(2, "braid", {-1: BraidWord(2, (1,))})
        with pytest.raises(LinkError):
            find_simple_lift(corpus_diagram("unknot"), f)

    def test_invalid_base_coloring(self):
        bad = SimpleColoring(
            3,
            "permutation",
            {a: tr(3, 1, 2) for a in TREFOIL.arcs()},
        )
        # constant colorings satisfy the trefoil; break one arc instead
        arcs = TREFOIL.arcs()
        broken = dict(bad.assignment)
        broken[arcs[0]] = tr(3, 2, 3)
        with pytest.raises(LinkError):
            find_simple_lift(TREFOIL, SimpleColoring(3, "permutation", broken))

    @pytest.mark.parametrize("bound", [1.5, True, "2", -1])
    def test_conjugator_bound_must_be_an_exact_int(self, bound):
        f = enumerate_simple_colorings(TREFOIL, 2)[0]
        with pytest.raises(LinkError, match="conjugator bound"):
            find_simple_lift(TREFOIL, f, conjugator_bound=bound)

    @pytest.mark.parametrize("budget", [1.5, float("inf"), True, -1])
    def test_budget_must_be_an_exact_int(self, budget):
        f = enumerate_simple_colorings(TREFOIL, 2)[0]
        with pytest.raises(LinkError, match="budget"):
            find_simple_lift(TREFOIL, f, budget=budget)

    @pytest.mark.parametrize(
        "crossings, free_loops",
        [(((True, 2, 2, True),), 0), (((1.0, 2, 2, 1),), 0), (((1, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, "3")), 0),
         ((), True), ((), 1.0),
         # A free loop is the arc -1, so an edge -1 would name a second arc -1.
         (((-1, 4, 2, 5), (3, 6, 4, -1), (5, 2, 6, 3)), 1)],
    )
    def test_diagram_edges_and_free_loops_must_be_ints_at_least_zero(self, crossings, free_loops):
        with pytest.raises(LinkError, match="integer"):
            LinkDiagram(crossings, free_loops)
