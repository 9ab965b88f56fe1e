import itertools
import random

import pytest

from branchcover.braids import BraidWord, braids_equal, project
from branchcover.links import LinkError, corpus_diagram, enumerate_simple_colorings
from branchcover.permutations import Permutation, all_transpositions
from branchcover.quandles import (
    FiniteQuandle,
    LazyBraidQuandle,
    QuandleError,
    dihedral_quandle,
    is_quandle_homomorphism,
    lift_through_surjection,
    lift_to_Ad,
    make_Td,
    product_quandle,
    quandle_colorings,
    quandle_from_text,
    quandle_to_text,
    quandle_validate,
    surjection_from_text,
    td_coloring_to_simple,
    trivial_quandle,
)


def tr(d, i, j):
    return Permutation.transposition(d, i, j)


@pytest.mark.parametrize("degree", ["3", True, 3.0, 1, 17])
def test_degree_is_checked(degree):
    # Each goes through the one degree rule and raises its own module's error.
    with pytest.raises(LinkError, match="degree"):
        enumerate_simple_colorings(corpus_diagram("trefoil"), degree)
    with pytest.raises(QuandleError, match="degree"):
        make_Td(degree)
    with pytest.raises(QuandleError, match="degree"):
        LazyBraidQuandle(degree)


class TestValidate:
    def test_T3_valid(self):
        assert quandle_validate(make_Td(3)).valid

    def test_trivial_valid(self):
        assert quandle_validate(trivial_quandle(4)).valid

    def test_broken_idempotence(self):
        q = FiniteQuandle(((1, 0), (1, 0)))
        report = quandle_validate(q)
        assert not report.valid
        assert "idempotence" in report.error

    def test_broken_bijection(self):
        q = FiniteQuandle(((0, 0), (0, 1)))
        report = quandle_validate(q)
        assert not report.valid
        assert "bijection" in report.error

    def test_broken_distributivity(self):
        # Right translations bijective, idempotent, but not distributive:
        # x |> y = x + y (mod 3) fails idempotence except 0... construct a
        # genuinely non-distributive table instead.
        op = [
            [0, 2, 1],
            [2, 1, 0],
            [1, 0, 2],
        ]
        q = FiniteQuandle(tuple(tuple(r) for r in op))
        report = quandle_validate(q)
        assert report.valid or "distributivity" in report.error

    def test_Td_valid_up_to_8(self):
        for d in range(2, 9):
            q = make_Td(d)
            assert len(q) == d * (d - 1) // 2
            assert quandle_validate(q).valid


class TestMakeTd:
    def test_sizes(self):
        assert len(make_Td(2)) == 1
        assert len(make_Td(3)) == 3
        assert len(make_Td(4)) == 6

    def test_conjugation_example(self):
        q = make_Td(3)
        elements = all_transpositions(3)
        i12 = elements.index(tr(3, 1, 2))
        i23 = elements.index(tr(3, 2, 3))
        i13 = elements.index(tr(3, 1, 3))
        assert q.apply(i12, i23) == i13

    def test_T3_is_dihedral(self):
        # (1 2) -> 0, (1 3) -> 1, (2 3) -> 2 matches x |> y = 2y - x mod 3.
        q = make_Td(3)
        r3 = dihedral_quandle(3)
        assert q.op == r3.op


class TestColorings:
    def test_trefoil_T3(self):
        dg = corpus_diagram("trefoil")
        cols = quandle_colorings(dg, make_Td(3))
        assert len(cols) == 9

    def test_trivial_quandle_single_coloring(self):
        for name in ("trefoil", "figure-eight"):
            dg = corpus_diagram(name)
            assert len(quandle_colorings(dg, trivial_quandle(1))) == 1

    def test_unknot_T4(self):
        dg = corpus_diagram("unknot")
        assert len(quandle_colorings(dg, make_Td(4))) == 6

    def test_counts_match_simple_colorings(self):
        for name in ("unknot", "trefoil", "figure-eight", "5_2", "granny", "square"):
            dg = corpus_diagram(name)
            for d in (2, 3):
                assert len(quandle_colorings(dg, make_Td(d))) == len(
                    enumerate_simple_colorings(dg, d)
                ), (name, d)

    def test_dictionary_is_simple_coloring(self):
        dg = corpus_diagram("trefoil")
        for col in quandle_colorings(dg, make_Td(3)):
            simple = td_coloring_to_simple(dg, 3, col)
            from branchcover.links import coloring_satisfies

            assert coloring_satisfies(dg, simple)


class TestHomomorphisms:
    def test_projection_of_product(self):
        q = make_Td(3)
        t2 = trivial_quandle(2)
        prod = product_quandle(q, t2)
        assert quandle_validate(prod).valid
        p = [x // 2 for x in range(len(prod))]
        assert is_quandle_homomorphism(p, prod, q)

    def test_dihedral_reduction(self):
        r9, r3 = dihedral_quandle(9), dihedral_quandle(3)
        p = [x % 3 for x in range(9)]
        assert is_quandle_homomorphism(p, r9, r3)

    def test_not_homomorphism(self):
        q = make_Td(3)
        assert not is_quandle_homomorphism([0, 0, 1], q, make_Td(3))


class TestLiftThroughSurjection:
    def test_identity_lifts(self):
        dg = corpus_diagram("trefoil")
        q = make_Td(3)
        p = list(range(len(q)))
        for col in quandle_colorings(dg, q):
            lift = lift_through_surjection(p, q, q, dg, col)
            assert lift == col

    def test_product_projection_always_lifts(self):
        dg = corpus_diagram("trefoil")
        q = make_Td(3)
        prod = product_quandle(q, trivial_quandle(2))
        p = [x // 2 for x in range(len(prod))]
        for col in quandle_colorings(dg, q):
            lift = lift_through_surjection(p, prod, q, dg, col)
            assert lift is not None
            assert all(p[lift[a]] == col[a] for a in col)

    def test_dihedral_obstruction(self):
        # A nontrivial 3-coloring of the trefoil does not lift through
        # R_9 ->> R_3: the relations force a = b mod 3 on adjacent arcs.
        dg = corpus_diagram("trefoil")
        r9, r3 = dihedral_quandle(9), dihedral_quandle(3)
        p = [x % 3 for x in range(9)]
        cols = quandle_colorings(dg, r3)
        nontrivial = [c for c in cols if len(set(c.values())) > 1]
        assert nontrivial
        for col in nontrivial:
            assert lift_through_surjection(p, r9, r3, dg, col) is None
        constant = [c for c in cols if len(set(c.values())) == 1]
        for col in constant:
            assert lift_through_surjection(p, r9, r3, dg, col) is not None

    def test_verdicts_match_brute_force(self):
        # Complete cross-check on small surjections (|source| <= 8).
        dg = corpus_diagram("trefoil")
        q3 = make_Td(3)
        r6, r3 = dihedral_quandle(6), dihedral_quandle(3)
        cases = [
            (list(range(3)), q3, q3),
            ([x % 3 for x in range(6)], r6, r3),
            ([x // 2 for x in range(6)], product_quandle(q3, trivial_quandle(2)), q3),
        ]
        for p, source, target in cases:
            assert is_quandle_homomorphism(p, source, target)
            for col in quandle_colorings(dg, target):
                got = lift_through_surjection(p, source, target, dg, col)
                arcs = dg.arcs()
                fibers = [
                    [x for x in range(len(source)) if p[x] == col[a]] for a in arcs
                ]
                brute = None
                for combo in itertools.product(*fibers):
                    candidate = dict(zip(arcs, combo))
                    ok = True
                    for rel in dg.crossing_relations():
                        u, o = candidate[rel.under_in], candidate[rel.over]
                        val = (
                            source.apply(u, o)
                            if rel.sign == 1
                            else source.inverse_apply(u, o)
                        )
                        if candidate[rel.under_out] != val:
                            ok = False
                            break
                    if ok:
                        brute = candidate
                        break
                assert (got is None) == (brute is None)

    def test_rejects_non_homomorphism(self):
        dg = corpus_diagram("unknot")
        q = make_Td(3)
        with pytest.raises(QuandleError, match="homomorphism"):
            lift_through_surjection([0, 0, 1], q, q, dg, {-1: 0})

    def test_rejects_non_surjection(self):
        dg = corpus_diagram("unknot")
        q = make_Td(3)
        with pytest.raises(QuandleError, match="surjective"):
            lift_through_surjection([0, 0, 0], trivial_quandle(3), trivial_quandle(3), dg, {-1: 0})

    @pytest.mark.parametrize("color", [99, -1, 3])
    def test_rejects_color_outside_target(self, color):
        dg = corpus_diagram("trefoil")
        q = make_Td(3)
        col = dict(quandle_colorings(dg, q)[0])
        arc = max(col)
        col[arc] = color
        with pytest.raises(QuandleError, match=f"arc {arc}: color {color} "):
            lift_through_surjection([0, 1, 2], q, q, dg, col)


class TestLiftToAd:
    def test_delegates_to_link_search(self):
        dg = corpus_diagram("trefoil")
        cols = enumerate_simple_colorings(dg, 2)
        res = lift_to_Ad(dg, cols[0])
        assert res.lift is not None
        for arc, w in res.lift.assignment.items():
            assert project(w) == cols[0].assignment[arc]

    def test_trefoil_d3_surjective(self):
        dg = corpus_diagram("trefoil")
        col = next(
            c for c in enumerate_simple_colorings(dg, 3) if c.is_transitive()
        )
        res = lift_to_Ad(dg, col)
        assert res.lift is not None


class TestLazyBraidQuandle:
    def test_membership_certificates(self):
        q = LazyBraidQuandle(4)
        w = BraidWord(4, (-2, -1, -2, 1, 2))  # equals s1^-1
        elem = q.element(w)
        assert braids_equal(elem, BraidWord(4, (-1,)))
        with pytest.raises(QuandleError, match="not certified"):
            q.element(BraidWord(4, (1, 1)))

    def test_op_stays_simple_and_projects(self):
        rng = random.Random(31)
        for d in (3, 4, 5):
            q = LazyBraidQuandle(d)
            for _ in range(25):
                x = BraidWord.generator(d, rng.randrange(1, d), rng.choice([1, -1]))
                conj = BraidWord(
                    d, tuple(rng.choice([1, -1]) * rng.randrange(1, d) for _ in range(3))
                )
                x = q.element(x ** conj)
                y = BraidWord.generator(d, rng.randrange(1, d), rng.choice([1, -1]))
                z = q.apply(x, y)
                # conjugation preserves the set of simple elements
                from branchcover.hurwitz import Simplicity, braid_simplicity

                assert braid_simplicity(z) is Simplicity.SIMPLE
                # projection is a quandle homomorphism onto T_d
                got = project(z)
                expect = project(x) ** project(y)
                assert got == expect

    def test_inverse_apply_inverts(self):
        q = LazyBraidQuandle(3)
        x = q.element(BraidWord(3, (1,)))
        y = BraidWord(3, (2,))
        assert braids_equal(q.inverse_apply(q.apply(x, y), y), x)

    def test_cache_deduplicates(self):
        q = LazyBraidQuandle(3)
        before = q.materialized_count()
        q.element(BraidWord(3, (2, 1, -2)))  # s1 conjugated by s2
        q.element(BraidWord(3, (-1, 2, 1)))  # the same element, other spelling
        assert q.materialized_count() == before + 1


class TestTextFormats:
    def test_roundtrip(self):
        q = make_Td(4)
        assert quandle_from_text(quandle_to_text(q)).op == q.op

    def test_bad_file(self):
        with pytest.raises(QuandleError):
            quandle_from_text("3 0 1")
        with pytest.raises(QuandleError):
            quandle_from_text("")

    def test_surjection_text(self):
        assert surjection_from_text("0 1 2 0 1 2") == [0, 1, 2, 0, 1, 2]
        with pytest.raises(QuandleError):
            surjection_from_text("a b")
