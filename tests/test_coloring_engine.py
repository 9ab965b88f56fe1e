"""The one coloring search behind simple colorings, quandle colorings and
fiber lifts, checked against T_d colorings, an independent permutation
search, brute-force colorings of a non-involutory quandle and brute-force
fiber lifts on seeded braid closures."""

import itertools
import random

import pytest

from branchcover.links import CORPUS, braid_closure_pd, corpus_diagram, enumerate_simple_colorings
from branchcover.quandles import (
    FiniteQuandle,
    is_quandle_homomorphism,
    lift_through_surjection,
    make_Td,
    product_quandle,
    quandle_colorings,
    quandle_validate,
    td_coloring_to_simple,
    trivial_quandle,
)
from oracles import simple_colorings_by_permutations


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


def rule(q, u, o, sign):
    return q.apply(u, o) if sign == 1 else q.inverse_apply(u, o)


def first_brute_force_lift(p, source, dg, coloring):
    arcs = dg.arcs()
    relations = dg.crossing_relations()
    fibers = [[x for x in range(len(source)) if p[x] == coloring[a]] for a in arcs]
    for combo in itertools.product(*fibers):
        lift = dict(zip(arcs, combo))
        if all(
            lift[r.under_out] == rule(source, lift[r.under_in], lift[r.over], r.sign)
            for r in relations
        ):
            return lift
    return None


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
        for dg in closures(d, 12, seed=10 + d):
            maps = quandle_colorings(dg, target)
            maps += [{a: rng.randrange(len(target)) for a in dg.arcs()} for _ in range(3)]
            for col in maps:
                got = lift_through_surjection(p, source, target, dg, col)
                assert got == first_brute_force_lift(p, source, dg, col)
                found += got is not None
                missing += got is None
    assert found and missing


def brute_force_colorings(dg, q):
    """Every arc map in lexicographic order, kept when each crossing holds:
    u |> o = out at a positive crossing, out |> o = u at a negative one."""
    arcs = dg.arcs()
    relations = dg.crossing_relations()
    out = []
    for combo in itertools.product(range(len(q)), repeat=len(arcs)):
        c = dict(zip(arcs, combo))
        if all(
            q.apply(c[r.under_in], c[r.over]) == c[r.under_out]
            if r.sign == 1
            else q.apply(c[r.under_out], c[r.over]) == c[r.under_in]
            for r in relations
        ):
            out.append(c)
    return out


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
