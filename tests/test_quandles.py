import inspect
import itertools
import re

import pytest

from branchcover.braids import project
from branchcover.links import LinkError, braid_closure_pd, corpus_diagram, enumerate_simple_colorings
from branchcover.permutations import Permutation, all_transpositions
from branchcover.quandles import (
    FiniteQuandle,
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
    trivial_quandle,
)
from oracles import td_coloring_to_simple


def tr(d, i, j):
    return Permutation.transposition(d, i, j)


@pytest.mark.parametrize("degree", ["3", True, 3.0, 1, 17])
def test_degree_is_checked(degree):
    # Each goes through the one degree rule and raises its own module's error.
    with pytest.raises(LinkError, match="degree"):
        enumerate_simple_colorings(corpus_diagram("trefoil"), degree)
    with pytest.raises(QuandleError, match="degree"):
        make_Td(degree)


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


class TestFiniteQuandleValues:
    def test_table_is_stored_as_tuples(self):
        q = FiniteQuandle([[0]], ["x"])
        assert q.op == ((0,),) and q.names == ("x",)
        assert hash(q) == hash(FiniteQuandle(((0,),), ("x",)))

    @pytest.mark.parametrize("entry", [0.0, False, "0", None])
    def test_entries_must_be_exact_ints(self, entry):
        with pytest.raises(QuandleError, match="not an integer"):
            FiniteQuandle(((entry,),))

    def test_inverse_table_inverts(self):
        # Z_5 with x |> y = 2x - y: right translations are not involutions.
        q = FiniteQuandle(tuple(tuple((2 * x - y) % 5 for y in range(5)) for x in range(5)))
        for x in range(5):
            for y in range(5):
                assert q.inverse_apply(q.apply(x, y), y) == x
        with pytest.raises(QuandleError, match="elements"):
            q.inverse_apply(-1, 0)

    def test_non_bijective_column_is_refused_before_the_search(self):
        # Column 0 of the table reads (0, 0): right translation by 0 is not
        # a bijection.  The trefoil's crossings are all negative, so the
        # coloring search needs the inverse table and refuses the quandle
        # before it colors an arc; a diagram whose crossings are all
        # positive never asks for it.
        q = FiniteQuandle(((0, 0), (0, 1)))
        dg = corpus_diagram("trefoil")
        assert {dg.crossing_sign(k) for k in range(3)} == {-1}
        with pytest.raises(QuandleError, match="right translation by 0 is not a bijection"):
            quandle_colorings(dg, q)
        with pytest.raises(QuandleError, match="right translation by 0"):
            q.inverse_apply(0, 1)
        mirror = braid_closure_pd([-1, -1, -1], 2)
        assert {mirror.crossing_sign(k) for k in range(3)} == {1}
        assert quandle_colorings(mirror, q) == [{1: 0, 2: 0, 4: 0}, {1: 1, 2: 1, 4: 1}]


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

    @pytest.mark.parametrize("d", range(2, 9))
    def test_table_is_its_own_right_inverse(self, d):
        q = make_Td(d)
        assert q._inverse == q.op == FiniteQuandle(q.op)._inverse

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

    @pytest.mark.parametrize("color", [99, -1, 3, True, 1.0])
    def test_rejects_color_outside_target(self, color):
        dg = corpus_diagram("trefoil")
        q = make_Td(3)
        col = dict(quandle_colorings(dg, q)[0])
        arc = max(col)
        col[arc] = color
        with pytest.raises(QuandleError, match=f"arc {arc}: color {color} "):
            lift_through_surjection([0, 1, 2], q, q, dg, col)


class TestElementChecks:
    @pytest.mark.parametrize("x, y", [(-1, 0), (3, 0), (0, -1), (True, 0), (0, 1.0), ("0", 0)])
    def test_apply_and_inverse_apply_refuse_non_elements(self, x, y):
        q = dihedral_quandle(3)
        with pytest.raises(QuandleError, match=r"not two elements of 0\.\.2"):
            q.apply(x, y)
        with pytest.raises(QuandleError, match=r"not two elements of 0\.\.2"):
            q.inverse_apply(x, y)

    @pytest.mark.parametrize("value", [2.0, True, -1, 3, "2"])
    def test_maps_must_be_element_numbers(self, value):
        q = dihedral_quandle(3)
        p = [0, 1, value]
        with pytest.raises(QuandleError, match=f"map value {value!r} is not an element"):
            is_quandle_homomorphism(p, q, q)
        dg = corpus_diagram("trefoil")
        with pytest.raises(QuandleError, match="map value"):
            lift_through_surjection(p, q, q, dg, quandle_colorings(dg, q)[0])

    @pytest.mark.parametrize("x", [-1, 3, 7, True, 1.0, "0"])
    def test_name_refuses_non_elements(self, x):
        for q in (make_Td(3), dihedral_quandle(3)):
            with pytest.raises(QuandleError, match=r"is not an element of 0\.\.2"):
                q.name(x)
        assert make_Td(3).name(2) == "(2 3)" and dihedral_quandle(3).name(2) == "2"

    @pytest.mark.parametrize("n", [True, 3.0, "3", -1])
    def test_dihedral_order_must_be_an_exact_int(self, n):
        with pytest.raises(QuandleError, match="dihedral quandle order"):
            dihedral_quandle(n)
        assert len(dihedral_quandle(0)) == 0

    @pytest.mark.parametrize("n", [True, 3.0, "3", -1])
    def test_trivial_order_must_be_an_exact_int(self, n):
        with pytest.raises(QuandleError, match="trivial quandle order"):
            trivial_quandle(n)
        assert len(trivial_quandle(0)) == 0

    def test_map_length_must_match_the_source(self):
        q = dihedral_quandle(3)
        with pytest.raises(QuandleError, match="2 entries for 3 source elements"):
            is_quandle_homomorphism([0, 1], q, q)


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

    def test_defaults_are_the_link_search_defaults(self):
        # quandles copies them so that importing it does not load links.
        from branchcover import links

        parameters = inspect.signature(lift_to_Ad).parameters
        assert parameters["conjugator_bound"].default == links.DEFAULT_CONJUGATOR_BOUND
        assert parameters["budget"].default == links.DEFAULT_LIFT_BUDGET


class TestTextFormats:
    def test_roundtrip(self):
        q = make_Td(4)
        assert quandle_from_text(quandle_to_text(q)).op == q.op

    def test_bad_file(self):
        with pytest.raises(QuandleError):
            quandle_from_text("3 0 1")
        with pytest.raises(QuandleError):
            quandle_from_text("")
        # n = -1 asked for n * n = 1 entry and read as the empty quandle.
        with pytest.raises(QuandleError, match="element count"):
            quandle_from_text("-1\n5")

    def test_surjection_text(self):
        assert surjection_from_text("0 1 2 0 1 2") == [0, 1, 2, 0, 1, 2]
        with pytest.raises(QuandleError):
            surjection_from_text("a b")

    # int() read "0_1" as 1, so a table holding it passed quandle-check;
    # "+2", "00" and non-ASCII digits were read too.
    @pytest.mark.parametrize("token", ["0_1", "+1", "01", "\u0661", "1.0"])
    def test_tokens_are_integers_written_plainly(self, token):
        table = quandle_to_text(make_Td(3)).replace("1", token, 1)  # the element count stays 3
        assert table.startswith("3\n")
        with pytest.raises(QuandleError, match=re.escape(f"bad token in quandle file: {token!r}")):
            quandle_from_text(table)
        with pytest.raises(QuandleError, match=re.escape(f"bad token in surjection file: {token!r}")):
            surjection_from_text(f"0 {token} 2")
