"""The one coloring search behind simple colorings, quandle colorings and
fiber lifts, checked against T_d colorings, an independent permutation
search, and a product over all arc maps (T_3, T_4, dihedral and
non-involutory quandles, fiber lifts) on seeded braid closures, kinks and
free loops; its relation-check counts are pinned at several budgets."""

import random

import pytest

from branchcover import links
from branchcover.braids import BraidWord
from branchcover.links import (
    CORPUS,
    LinkDiagram,
    SearchExhausted,
    _fresh_ids,
    _solve_colorings,
    _with_renamed_heads,
    braid_closure_pd,
    corpus_diagram,
    enumerate_simple_colorings,
    find_simple_lift,
    r1_add,
)
from branchcover.quandles import (
    FiniteQuandle,
    QuandleError,
    dihedral_quandle,
    is_quandle_homomorphism,
    lift_through_surjection,
    make_Td,
    product_quandle,
    quandle_colorings,
    quandle_validate,
    trivial_quandle,
)
from oracles import (
    colorings_by_product,
    quandle_rule,
    simple_colorings_by_permutations,
    td_coloring_to_simple,
)


def closures(d, count, seed, max_arcs=5):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        letters = [rng.choice((1, -1)) * rng.randrange(1, d) for _ in range(rng.randrange(1, 6))]
        dg = braid_closure_pd(letters, d)
        if len(dg.arcs()) <= max_arcs:
            out.append(dg)
    return out


def alexander_quandle(n, t):
    """Z_n with x |> y = t x + (1 - t) y; not involutory unless t^2 = 1."""
    return FiniteQuandle(
        tuple(tuple((t * x + (1 - t) * y) % n for y in range(n)) for x in range(n))
    )


def first_brute_force_lift(p, source, dg, coloring):
    fibers = {a: [x for x in range(len(source)) if p[x] == coloring[a]] for a in dg.arcs()}
    lifts = colorings_by_product(dg, fibers, quandle_rule(source))
    return lifts[0] if lifts else None


def over_first_kink(dg, edge, sign):
    """dg with a kink on ``edge`` that passes over first and then under, so
    the kink's under-in arc is its over arc."""
    m, z = _fresh_ids(dg, 2)
    quads = _with_renamed_heads(dg, {edge: z})
    quads.append([m, edge, z, m] if sign == -1 else [m, m, z, edge])
    return LinkDiagram(tuple(map(tuple, quads)))


def kinks_and_loops():
    """Kinks of both kinds and signs on the trefoil, and free loops with and
    without crossings."""
    trefoil = corpus_diagram("trefoil")
    out = [over_first_kink(trefoil, e, s) for e in (1, 4) for s in (1, -1)]
    f = enumerate_simple_colorings(trefoil, 3)[0]
    out += [r1_add(trefoil, f, 2, s)[0] for s in (1, -1)]
    return out + [LinkDiagram((), 2), LinkDiagram(trefoil.crossings, 1)]


@pytest.mark.parametrize("d", [3, 4])
def test_simple_colorings_are_mapped_td_colorings(d):
    for dg in closures(d, 25, seed=d):
        simple = enumerate_simple_colorings(dg, d)
        assert simple == sorted(simple, key=lambda c: [c.assignment[a].images for a in dg.arcs()])
        mapped = [td_coloring_to_simple(dg, d, c) for c in quandle_colorings(dg, make_Td(d))]
        assert len(simple) == len(mapped)
        assert set(simple) == set(mapped)


def assert_same_as_permutation_search(dg, d):
    got = enumerate_simple_colorings(dg, d)
    assert all(c.degree == d and c.flavor == "permutation" for c in got)
    want = simple_colorings_by_permutations(dg, d)
    assert [list(c.assignment.items()) for c in got] == [list(a.items()) for a in want]


def test_point_pair_search_matches_permutation_search():
    signs = set()
    for d in range(2, 7):
        for dg in closures(d, 12, seed=20 + d, max_arcs=4 if d <= 4 else 3):
            signs.update(dg.crossing_sign(k) for k in range(len(dg.crossings)))
            assert_same_as_permutation_search(dg, d)
    assert signs == {-1, 1}
    for name in CORPUS:
        for d in (3, 4):
            assert_same_as_permutation_search(corpus_diagram(name), d)
    assert_same_as_permutation_search(corpus_diagram("trefoil"), 8)


@pytest.mark.parametrize("name, count", [("unknot", 120), ("trefoil", 3480)])
def test_degree_16_counts(name, count):
    # The unknot takes each of the 120 transpositions of S_16 on its one
    # arc; the trefoil adds six non-constant colorings on each of the
    # C(16, 3) = 560 triples of points.
    dg = corpus_diagram(name)
    assert len(enumerate_simple_colorings(dg, 16)) == count
    assert len(simple_colorings_by_permutations(dg, 16)) == count


def surjections():
    td3 = make_Td(3)
    return [
        ([x % 3 for x in range(9)], alexander_quandle(9, 2), alexander_quandle(3, 2)),
        ([x % 5 for x in range(5)], alexander_quandle(5, 2), alexander_quandle(5, 2)),
        ([x // 2 for x in range(6)], product_quandle(td3, trivial_quandle(2)), td3),
    ]


@pytest.mark.parametrize("d", [3, 4])
def test_surjection_lift_is_first_brute_force_lift(d):
    # Random arc maps that break the crossing rule have no lift; the search
    # must not return one whose forced values leave the fibers.
    rng = random.Random(d)
    found = missing = 0
    for p, source, target in surjections():
        assert quandle_validate(source).valid and quandle_validate(target).valid
        assert is_quandle_homomorphism(p, source, target)
        for dg in closures(d, 12, seed=10 + d) + kinks_and_loops():
            maps = quandle_colorings(dg, target)
            maps += [{a: rng.randrange(len(target)) for a in dg.arcs()} for _ in range(3)]
            for col in maps:
                got = lift_through_surjection(p, source, target, dg, col)
                assert got == first_brute_force_lift(p, source, dg, col)
                found += got is not None
                missing += got is None
    assert found and missing


def brute_force_colorings(dg, q):
    return colorings_by_product(dg, dict.fromkeys(dg.arcs(), range(len(q))), quandle_rule(q))


def test_negative_crossings_read_the_inverse_table():
    # T_d and dihedral quandles are involutory, so only a quandle whose
    # right translations are not involutions tells the inverse table from
    # the forward one: in Z_5 with t = 2, x |> y = 2x - y.
    q = alexander_quandle(5, 2)
    assert quandle_validate(q).valid
    assert any(q.apply(q.apply(x, y), y) != x for x in range(5) for y in range(5))
    diagrams = [corpus_diagram(name) for name in CORPUS]
    diagrams += [dg for d in (2, 3) for dg in closures(d, 15, seed=40 + d)]
    telling = 0  # diagrams with a negative crossing and a non-constant coloring
    for dg in diagrams:
        want = brute_force_colorings(dg, q)
        assert quandle_colorings(dg, q) == want
        negative = any(dg.crossing_sign(k) == -1 for k in range(len(dg.crossings)))
        telling += negative and any(len(set(c.values())) > 1 for c in want)
    assert telling >= 5


def small_diagrams():
    """Diagrams of at most 6 arcs: the corpus, seeded closures, kinks and
    free loops."""
    out = [corpus_diagram(name) for name in CORPUS]
    return out + [dg for d in (2, 3, 4) for dg in closures(d, 6, seed=60 + d)] + kinks_and_loops()


def test_over_first_kink_reads_its_over_arc_as_under_in():
    dg = over_first_kink(corpus_diagram("trefoil"), 1, -1)
    rel = dg.crossing_relations()[-1]
    assert rel.under_in == rel.over != rel.under_out


@pytest.mark.parametrize("q", [make_Td(3), make_Td(4), dihedral_quandle(5)], ids=["T3", "T4", "R5"])
def test_search_matches_the_product_over_all_arc_maps(q):
    # The order of the solutions too: the search's order is the product's.
    for dg in small_diagrams():
        arcs = dg.arcs()
        got = [[c[a] for a in arcs] for c in quandle_colorings(dg, q)]
        assert got == [[c[a] for a in arcs] for c in brute_force_colorings(dg, q)]


def test_a_table_without_right_inverse_is_refused_only_at_a_negative_crossing():
    q = FiniteQuandle(((0, 0), (0, 1)))  # right translation by 0 is not a bijection
    positive = braid_closure_pd([-1, -1, -1], 2)
    assert {positive.crossing_sign(k) for k in range(3)} == {1}
    forward = colorings_by_product(
        positive, dict.fromkeys(positive.arcs(), range(2)), lambda u, o, out, sign: q.op[u][o] == out
    )
    assert quandle_colorings(positive, q) == forward
    with pytest.raises(QuandleError, match="not a bijection"):
        quandle_colorings(corpus_diagram("trefoil"), q)


def pinned_diagrams():
    """Seeded closures on 3 and 4 strands, an over-first kink, and free
    loops with and without crossings."""
    rng = random.Random(2012)
    out = []
    for strands in (3, 3, 3, 4, 4):
        n = rng.randrange(6, 10)
        out.append(braid_closure_pd([rng.choice((1, -1)) * rng.randrange(1, strands) for _ in range(n)], strands))
    trefoil = corpus_diagram("trefoil")
    return out + [over_first_kink(trefoil, 1, -1), LinkDiagram(trefoil.crossings, 1), LinkDiagram((), 2)]


# Relation checks of a full search of each pinned diagram, per quandle
# (T_3, T_4, Z_5 with t = 2), at limits 1, 2 and None.  Any budget below a
# count raises SearchExhausted(budget + 1); any other returns the count.
PINNED_CHECKS = [
    ((11, 28, 45), (11, 34, 126), (11, 32, 95)),
    ((10, 19, 252), (10, 19, 1944), (10, 19, 1050)),
    ((10, 35, 60), (10, 40, 240), (10, 20, 250)),
    ((9, 36, 63), (9, 15, 372), (9, 48, 165)),
    ((11, 21, 99), (11, 21, 378), (11, 62, 215)),
    ((6, 10, 42), (6, 10, 144), (6, 22, 70)),
    ((4, 4, 36), (4, 4, 132), (4, 4, 60)),
    ((0, 0, 0), (0, 0, 0), (0, 0, 0)),
]


@pytest.mark.parametrize("budget", [5, 50, 500])
def test_check_counts_are_pinned_at_every_budget(budget):
    quandles = [make_Td(3), make_Td(4), alexander_quandle(5, 2)]
    for dg, row in zip(pinned_diagrams(), PINNED_CHECKS, strict=True):
        for q, counts in zip(quandles, row, strict=True):
            candidates = dict.fromkeys(dg.arcs(), range(len(q)))
            for limit, full in zip((1, 2, None), counts, strict=True):
                if full <= budget:
                    assert _solve_colorings(dg, candidates, q._table, limit=limit, budget=budget)[1] == full
                else:
                    with pytest.raises(SearchExhausted) as info:
                        _solve_colorings(dg, candidates, q._table, limit=limit, budget=budget)
                    assert info.value.args == (budget + 1,)


def counting_table(q):
    """q's table(sign), with a count of the entries read from it."""
    reads = [0]

    class Row(tuple):
        def __getitem__(self, o):
            reads[0] += 1
            return tuple.__getitem__(self, o)

    return (lambda sign: [Row(r) for r in q._table(sign)]), reads


@pytest.mark.parametrize("budget", [0, 1, 5, 50])
def test_no_entry_is_read_past_the_budget(budget):
    for q in (make_Td(3), alexander_quandle(5, 2)):
        for dg in pinned_diagrams():
            table, reads = counting_table(q)
            try:
                checks = _solve_colorings(dg, dict.fromkeys(dg.arcs(), range(len(q))), table, budget=budget)[1]
            except SearchExhausted:
                checks = budget
            assert reads[0] == checks <= budget


@pytest.mark.parametrize("budget", [0, 1, 5])
def test_a_lift_conjugates_no_word_past_the_budget(budget, monkeypatch):
    trefoil = corpus_diagram("trefoil")
    f = next(c for c in enumerate_simple_colorings(trefoil, 3) if c.is_transitive())
    made = []  # braid conjugations; the base coloring's check conjugates permutations
    conjugated = links._conjugated

    def counted(u, o, sign):
        if isinstance(u, BraidWord):
            made.append(u)
        return conjugated(u, o, sign)

    monkeypatch.setattr(links, "_conjugated", counted)
    result = find_simple_lift(trefoil, f, 2, budget)
    assert result.exhausted and result.checks == budget + 1 and len(made) <= budget


# find_simple_lift on the trefoil's transitive 3-colorings at conjugator
# bound 2: (checks, exhausted) at budgets 5, 50 and 500.
PINNED_LIFTS = [
    [(6, True), (12, False), (12, False)],
    [(6, True), (10, False), (10, False)],
    [(6, True), (10, False), (10, False)],
    [(6, True), (10, False), (10, False)],
    [(6, True), (8, False), (8, False)],
    [(6, True), (8, False), (8, False)],
]


def test_lift_checks_are_pinned():
    trefoil = corpus_diagram("trefoil")
    colorings = [c for c in enumerate_simple_colorings(trefoil, 3) if c.is_transitive()]
    got = [
        [(r.checks, r.exhausted) for r in (find_simple_lift(trefoil, c, 2, budget) for budget in (5, 50, 500))]
        for c in colorings
    ]
    assert got == PINNED_LIFTS


# find_simple_lift at the default conjugator bound and budget on the first
# 12 simple colorings of each corpus diagram at degrees 2 and 3: (checks,
# letters by arc) per lift.  The spelling found depends on the order of the
# candidate pool, so a change of that order shows here.
CORPUS_LIFTS = {
    ("unknot", 2): [
        (0, {-1: (1,)}),
    ],
    ("unknot", 3): [
        (0, {-1: (2, -1, 2, -1, -2, 1, -2)}),
        (0, {-1: (-1, 2, 2, -1, -2, -2, 1)}),
        (0, {-1: (2, 2, 2, -1, -2, -2, -2)}),
    ],
    ("trefoil", 2): [
        (4, {1: (1,), 2: (1,), 4: (1,)}),
    ],
    ("trefoil", 3): [
        (4, {1: (2, -1, 2, -1, -2, 1, -2), 2: (2, -1, 2, -1, -2, 1, -2), 4: (2, -1, 2, -1, -2, 1, -2)}),
        (6, {
            1: (2, -1, 2, -1, -2, 1, -2),
            2: (2, 2, -1, -2, -2),
            4: (2, -1, 2, -1, -2, 1, 2, -1, -2, -1, 2, 1, -2, 1, -2),
        }),
        (26, {1: (2, -1, 2, -1, -2, 1, -2), 2: (2, -1, -2), 4: (2, 2, -1, -2, -2)}),
        (6, {1: (-1, 2, 2, -1, -2, -2, 1), 2: (-1, 2, -1, -2, 1), 4: (2, -1, -2)}),
        (4, {1: (-1, 2, 2, -1, -2, -2, 1), 2: (-1, 2, 2, -1, -2, -2, 1), 4: (-1, 2, 2, -1, -2, -2, 1)}),
        (26, {
            1: (-1, 2, 2, -1, -2, -2, 1),
            2: (2, -1, -2),
            4: (-1, 2, 2, -1, -2, -2, 1, 2, -1, -2, -1, 2, 2, 1, -2, -2, 1),
        }),
        (12, {1: (2, 2, 2, -1, -2, -2, -2), 2: (-2,), 4: (2, 2, 2, -1, -2, 1, -2, -2, -2)}),
        (6, {1: (2, 2, 2, -1, -2, -2, -2), 2: (2, 2, -1, -2, -2), 4: (-2,)}),
        (4, {1: (2, 2, 2, -1, -2, -2, -2), 2: (2, 2, 2, -1, -2, -2, -2), 4: (2, 2, 2, -1, -2, -2, -2)}),
    ],
    ("figure-eight", 2): [
        (6, {1: (1,), 2: (1,), 4: (1,), 3: (1,)}),
    ],
    ("figure-eight", 3): [
        (6, {
            1: (2, -1, 2, -1, -2, 1, -2),
            2: (2, -1, 2, -1, -2, 1, -2),
            4: (2, -1, 2, -1, -2, 1, -2),
            3: (2, -1, 2, -1, -2, 1, -2),
        }),
        (6, {
            1: (-1, 2, 2, -1, -2, -2, 1),
            2: (-1, 2, 2, -1, -2, -2, 1),
            4: (-1, 2, 2, -1, -2, -2, 1),
            3: (-1, 2, 2, -1, -2, -2, 1),
        }),
        (6, {
            1: (2, 2, 2, -1, -2, -2, -2),
            2: (2, 2, 2, -1, -2, -2, -2),
            4: (2, 2, 2, -1, -2, -2, -2),
            3: (2, 2, 2, -1, -2, -2, -2),
        }),
    ],
    ("5_2", 2): [
        (5, {1: (1,), 2: (1,), 4: (1,), 6: (1,), 8: (1,)}),
    ],
    ("5_2", 3): [
        (5, {
            1: (2, -1, 2, -1, -2, 1, -2),
            2: (2, -1, 2, -1, -2, 1, -2),
            4: (2, -1, 2, -1, -2, 1, -2),
            6: (2, -1, 2, -1, -2, 1, -2),
            8: (2, -1, 2, -1, -2, 1, -2),
        }),
        (5, {
            1: (-1, 2, 2, -1, -2, -2, 1),
            2: (-1, 2, 2, -1, -2, -2, 1),
            4: (-1, 2, 2, -1, -2, -2, 1),
            6: (-1, 2, 2, -1, -2, -2, 1),
            8: (-1, 2, 2, -1, -2, -2, 1),
        }),
        (5, {
            1: (2, 2, 2, -1, -2, -2, -2),
            2: (2, 2, 2, -1, -2, -2, -2),
            4: (2, 2, 2, -1, -2, -2, -2),
            6: (2, 2, 2, -1, -2, -2, -2),
            8: (2, 2, 2, -1, -2, -2, -2),
        }),
    ],
    ("granny", 2): [
        (8, {1: (1,), 2: (1,), 4: (1,), 6: (1,), 3: (1,), 10: (1,)}),
    ],
    ("granny", 3): [
        (8, {
            1: (2, -1, 2, -1, -2, 1, -2),
            2: (2, -1, 2, -1, -2, 1, -2),
            4: (2, -1, 2, -1, -2, 1, -2),
            6: (2, -1, 2, -1, -2, 1, -2),
            3: (2, -1, 2, -1, -2, 1, -2),
            10: (2, -1, 2, -1, -2, 1, -2),
        }),
        (10, {
            1: (2, -1, 2, -1, -2, 1, -2),
            2: (2, -1, 2, -1, -2, 1, -2),
            4: (2, -1, 2, -1, -2, 1, -2),
            6: (2, -1, 2, -1, -2, 1, -2),
            3: (2, 2, -1, -2, -2),
            10: (2, -1, 2, -1, -2, 1, 2, -1, -2, -1, 2, 1, -2, 1, -2),
        }),
        (30, {
            1: (2, -1, 2, -1, -2, 1, -2),
            2: (2, -1, 2, -1, -2, 1, -2),
            4: (2, -1, 2, -1, -2, 1, -2),
            6: (2, -1, 2, -1, -2, 1, -2),
            3: (2, -1, -2),
            10: (2, 2, -1, -2, -2),
        }),
        (11, {
            1: (2, -1, 2, -1, -2, 1, -2),
            2: (2, 2, -1, -2, -2),
            4: (2, -1, 2, -1, -2, 1, 2, -1, -2, -1, 2, 1, -2, 1, -2),
            6: (2, 2, -1, -2, -2),
            3: (2, -1, 2, -1, -2, 1, -2),
            10: (2, -1, -2),
        }),
        (13, {
            1: (2, -1, 2, -1, -2, 1, -2),
            2: (2, 2, -1, -2, -2),
            4: (2, -1, 2, -1, -2, 1, 2, -1, -2, -1, 2, 1, -2, 1, -2),
            6: (2, 2, -1, -2, -2),
            3: (2, 2, -1, -2, -2),
            10: (2, 2, -1, -2, -2),
        }),
        (11, {
            1: (2, -1, 2, -1, -2, 1, -2),
            2: (2, 2, -1, -2, -2),
            4: (2, -1, 2, -1, -2, 1, 2, -1, -2, -1, 2, 1, -2, 1, -2),
            6: (2, 2, -1, -2, -2),
            3: (2, 2, 2, -1, -2, -2, -2),
            10: (2, 2, -1, 2, -1, -2, 1, -2, -2),
        }),
        (41, {
            1: (2, -1, 2, -1, -2, 1, -2),
            2: (2, -1, -2),
            4: (2, 2, -1, -2, -2),
            6: (2, -1, -2),
            3: (2, -1, 2, -1, -2, 1, -2),
            10: (2, -1, -1, 2, -1, -2, 1, 1, -2),
        }),
        (41, {
            1: (2, -1, 2, -1, -2, 1, -2),
            2: (2, -1, -2),
            4: (2, 2, -1, -2, -2),
            6: (2, -1, -2),
            3: (-1, 2, 2, -1, -2, -2, 1),
            10: (-1, 2, -1, -2, 1),
        }),
        (63, {
            1: (2, -1, 2, -1, -2, 1, -2),
            2: (2, -1, -2),
            4: (2, 2, -1, -2, -2),
            6: (2, -1, -2),
            3: (2, -1, -2),
            10: (2, -1, -2),
        }),
        (13, {
            1: (-1, 2, 2, -1, -2, -2, 1),
            2: (-1, 2, -1, -2, 1),
            4: (2, -1, -2),
            6: (-1, 2, -1, -2, 1),
            3: (-1, 2, -1, -2, 1),
            10: (-1, 2, -1, -2, 1),
        }),
        (11, {
            1: (-1, 2, 2, -1, -2, -2, 1),
            2: (-1, 2, -1, -2, 1),
            4: (2, -1, -2),
            6: (-1, 2, -1, -2, 1),
            3: (-1, 2, 2, -1, -2, -2, 1),
            10: (-1, 2, -1, 2, -1, -2, 1, -2, 1),
        }),
        (13, {
            1: (-1, 2, 2, -1, -2, -2, 1),
            2: (-1, 2, -1, -2, 1),
            4: (2, -1, -2),
            6: (-1, 2, -1, -2, 1),
            3: (-1, -1, 2, -1, -2, 1, 1),
            10: (-1,),
        }),
    ],
    ("square", 2): [
        (8, {1: (1,), 2: (1,), 4: (1,), 6: (1,), 3: (1,), 11: (1,)}),
    ],
    ("square", 3): [
        (8, {
            1: (2, -1, 2, -1, -2, 1, -2),
            2: (2, -1, 2, -1, -2, 1, -2),
            4: (2, -1, 2, -1, -2, 1, -2),
            6: (2, -1, 2, -1, -2, 1, -2),
            3: (2, -1, 2, -1, -2, 1, -2),
            11: (2, -1, 2, -1, -2, 1, -2),
        }),
        (10, {
            1: (2, -1, 2, -1, -2, 1, -2),
            2: (2, -1, 2, -1, -2, 1, -2),
            4: (2, -1, 2, -1, -2, 1, -2),
            6: (2, -1, 2, -1, -2, 1, -2),
            3: (2, 2, -1, -2, -2),
            11: (2, 2, 1, -2, -1, 2, -1, -2, 1, 2, -1, -2, -2),
        }),
        (30, {
            1: (2, -1, 2, -1, -2, 1, -2),
            2: (2, -1, 2, -1, -2, 1, -2),
            4: (2, -1, 2, -1, -2, 1, -2),
            6: (2, -1, 2, -1, -2, 1, -2),
            3: (2, -1, -2),
            11: (2, 2, -1, -2, -2),
        }),
        (11, {
            1: (2, -1, 2, -1, -2, 1, -2),
            2: (2, 2, -1, -2, -2),
            4: (2, -1, 2, -1, -2, 1, 2, -1, -2, -1, 2, 1, -2, 1, -2),
            6: (2, 2, -1, -2, -2),
            3: (2, -1, 2, -1, -2, 1, -2),
            11: (2, -1, -2),
        }),
        (13, {
            1: (2, -1, 2, -1, -2, 1, -2),
            2: (2, 2, -1, -2, -2),
            4: (2, -1, 2, -1, -2, 1, 2, -1, -2, -1, 2, 1, -2, 1, -2),
            6: (2, 2, -1, -2, -2),
            3: (2, 2, -1, -2, -2),
            11: (2, 2, -1, -2, -2),
        }),
        (11, {
            1: (2, -1, 2, -1, -2, 1, -2),
            2: (2, 2, -1, -2, -2),
            4: (2, -1, 2, -1, -2, 1, 2, -1, -2, -1, 2, 1, -2, 1, -2),
            6: (2, 2, -1, -2, -2),
            3: (2, 2, 2, -1, -2, -2, -2),
            11: (2, 2, 2, 1, -2, -1, 2, -1, -2, -2, -2),
        }),
        (41, {
            1: (2, -1, 2, -1, -2, 1, -2),
            2: (2, -1, -2),
            4: (2, 2, -1, -2, -2),
            6: (2, -1, -2),
            3: (2, -1, 2, -1, -2, 1, -2),
            11: (2, -1, 2, 1, -2, -1, 2, -1, -2, 1, -2),
        }),
        (41, {
            1: (2, -1, 2, -1, -2, 1, -2),
            2: (2, -1, -2),
            4: (2, 2, -1, -2, -2),
            6: (2, -1, -2),
            3: (-1, 2, 2, -1, -2, -2, 1),
            11: (-1, 2, -1, -2, 1),
        }),
        (63, {
            1: (2, -1, 2, -1, -2, 1, -2),
            2: (2, -1, -2),
            4: (2, 2, -1, -2, -2),
            6: (2, -1, -2),
            3: (2, -1, -2),
            11: (2, -1, -2),
        }),
        (13, {
            1: (-1, 2, 2, -1, -2, -2, 1),
            2: (-1, 2, -1, -2, 1),
            4: (2, -1, -2),
            6: (-1, 2, -1, -2, 1),
            3: (-1, 2, -1, -2, 1),
            11: (-1, 2, -1, -2, 1),
        }),
        (11, {
            1: (-1, 2, 2, -1, -2, -2, 1),
            2: (-1, 2, -1, -2, 1),
            4: (2, -1, -2),
            6: (-1, 2, -1, -2, 1),
            3: (-1, 2, 2, -1, -2, -2, 1),
            11: (-1, 2, 2, 1, -2, -1, 2, -1, -2, -2, 1),
        }),
        (13, {
            1: (-1, 2, 2, -1, -2, -2, 1),
            2: (-1, 2, -1, -2, 1),
            4: (2, -1, -2),
            6: (-1, 2, -1, -2, 1),
            3: (-1, -1, 2, -1, -2, 1, 1),
            11: (-1,),
        }),
    ],
}


@pytest.mark.parametrize("name, d", list(CORPUS_LIFTS))
def test_corpus_lifts_are_pinned(name, d):
    dg = corpus_diagram(name)
    got = []
    for f in enumerate_simple_colorings(dg, d)[:12]:
        result = find_simple_lift(dg, f)
        assert not result.exhausted
        got.append((result.checks, {arc: w.letters for arc, w in result.lift.assignment.items()}))
    assert got == CORPUS_LIFTS[name, d]
