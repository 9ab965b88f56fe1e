"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The exhaustive-family criteria (3, 4, 5) share a session fixture and
together take a couple of minutes; everything else is fast.
"""

import itertools
import random
import time

import pytest

from branchcover.braids import BraidWord, braids_equal, canonical_key, project
from branchcover.charts import (
    MOVES,
    apply_chart_move,
    chart_hurwitz_system,
    chart_orientable,
    forget_orientation,
    validate_chart,
    MoveError,
)
from branchcover.covering import build_covering
from branchcover.hurwitz import (
    Equivalence,
    HurwitzSystem,
    hc_equivalent,
    hc_normal_form,
    iter_simple_closing_systems,
    normal_form_template,
    replay_trace,
    total_monodromy,
)
from branchcover.links import (
    CORPUS,
    coloring_satisfies,
    corpus_diagram,
    enumerate_simple_colorings,
    find_simple_lift,
    r1_add,
    r2_add,
)
from branchcover.permutations import Permutation
from branchcover.quandles import (
    dihedral_quandle,
    is_quandle_homomorphism,
    lift_through_surjection,
    lift_to_Ad,
    make_Td,
    product_quandle,
    quandle_colorings,
    quandle_validate,
    trivial_quandle,
)
from oracles import chart_cell_euler_data, fox_three_colorings, polygon_euler_data, product, random_chart


def report(number: int, detail: str) -> None:
    print(f"\nACCEPTANCE {number}: PASS - {detail}")


def tau(d, i):
    return Permutation.adjacent(d, i)


def perm_system(d, *pairs):
    return HurwitzSystem.of_permutations(
        [Permutation.transposition(d, i, j) for i, j in pairs], d
    )


@pytest.fixture(scope="module")
def exhaustive_family():
    """All simple transitive closing systems with d <= 4, n <= 8, with their
    normal forms, plus the closing-but-possibly-intransitive systems."""
    transitive = {}
    closing = {}
    for d in (2, 3, 4):
        for n in range(2, 9):
            transitive[(d, n)] = list(iter_simple_closing_systems(d, n))
            closing[(d, n)] = list(
                iter_simple_closing_systems(d, n, transitive_only=False)
            )
    normal_forms = {}
    for key, family in transitive.items():
        normal_forms[key] = [hc_normal_form(s) for s in family]
    return transitive, closing, normal_forms


def test_criterion_1_permutation_example():
    start = time.perf_counter()
    d = 4
    words = [
        [1],
        [1, 3, 1],
        [3],
        [2, 1, 2, 1, 2],
    ]
    entries = [product([tau(d, i) for i in word]) for word in words]
    evaluated = HurwitzSystem.of_permutations(entries, d)
    expected = perm_system(d, (1, 2), (3, 4), (3, 4), (1, 2))
    assert evaluated.entries == expected.entries  # exact entrywise equality
    target = perm_system(d, (1, 2), (1, 2), (3, 4), (3, 4))
    assert hc_equivalent(evaluated, target) is Equivalence.EQUIVALENT
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    report(1, f"tuple evaluates exactly and is HC-equivalent ({elapsed:.3f}s)")


def test_criterion_2_braid_example():
    start = time.perf_counter()
    d = 4
    s = HurwitzSystem.of_braids(
        [
            BraidWord(d, (1,)),
            BraidWord(d, (-1, 3, 1)),
            BraidWord(d, (-3,)),
            BraidWord(d, (-2, -1, -2, 1, 2)),
        ],
        d,
    )
    expected = [
        BraidWord(d, (1,)),
        BraidWord(d, (3,)),
        BraidWord(d, (-3,)),
        BraidWord(d, (-1,)),
    ]
    for got, want in zip(s.entries, expected):
        assert braids_equal(got, want)
    target = HurwitzSystem.of_braids(
        [BraidWord(d, (1,)), BraidWord(d, (-1,)), BraidWord(d, (3,)), BraidWord(d, (-3,))],
        d,
    )
    assert hc_equivalent(s, target) is Equivalence.EQUIVALENT
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    report(2, f"braid tuple collapses entrywise and is Hurwitz-equivalent ({elapsed:.3f}s)")


@pytest.mark.slow
def test_criterion_3_normal_form_exhaustive(exhaustive_family):
    transitive, _closing, normal_forms = exhaustive_family
    checked = 0
    for (d, n), family in transitive.items():
        for s, (nf, trace) in zip(family, normal_forms[(d, n)]):
            assert nf == normal_form_template(d, n), (d, n)
            assert replay_trace(s, trace) == nf, (d, n)
            checked += 1

    # Independent BFS oracle for d = 3, n <= 6: the move orbit of the normal
    # form is computed outright and must contain the entire family.
    for n in (4, 6):
        template = normal_form_template(3, n)
        orbit = {template.entries}
        frontier = [template]
        while frontier:
            nxt = []
            for item in frontier:
                neighbors = []
                for k in range(n - 1):
                    from branchcover.hurwitz import hurwitz_move, conjugate_system

                    neighbors.append(hurwitz_move(item, k, "forward"))
                    neighbors.append(hurwitz_move(item, k, "inverse"))
                for i in range(1, 3):
                    neighbors.append(conjugate_system(item, tau(3, i)))
                for nb in neighbors:
                    key = nb.entries
                    if key not in orbit:
                        orbit.add(key)
                        nxt.append(nb)
            frontier = nxt
        family_keys = {s.entries for s in transitive[(3, n)]}
        assert family_keys <= orbit
        assert orbit == family_keys  # moves stay inside the family
    report(3, f"{checked} systems reach the template; BFS orbit agrees for d=3")


@pytest.mark.slow
def test_criterion_4_classification(exhaustive_family):
    transitive, _closing, normal_forms = exhaustive_family
    # Factorized universal check: within each (d, n) every normal form is the
    # template (so all equal-length pairs are equivalent), and templates of
    # different lengths differ (so all unequal-length pairs are distinct).
    # Together these decide all pairs, matching the length-equality predicate.
    for (d, n), forms in normal_forms.items():
        for nf, _trace in forms:
            assert nf == normal_form_template(d, n)
    for d in (2, 3, 4):
        lengths = [n for n in range(2, 9) if transitive[(d, n)]]
        for n1, n2 in itertools.combinations(lengths, 2):
            assert normal_form_template(d, n1) != normal_form_template(d, n2)

    # Direct spot checks through the public operation.
    rng = random.Random(40)
    calls = 0
    for d in (3, 4):
        lengths = [n for n in range(2, 9) if transitive[(d, n)]]
        for n in lengths:
            family = transitive[(d, n)]
            for _ in range(5):
                s, t = rng.choice(family), rng.choice(family)
                assert hc_equivalent(s, t) is Equivalence.EQUIVALENT
                calls += 1
        for n1, n2 in itertools.combinations(lengths, 2):
            s = rng.choice(transitive[(d, n1)])
            t = rng.choice(transitive[(d, n2)])
            assert hc_equivalent(s, t) is Equivalence.DISTINCT
            calls += 1
    report(4, f"verdict equals length-equality on all pairs ({calls} direct calls)")


@pytest.mark.slow
def test_criterion_5_parity_and_genus(exhaustive_family):
    transitive, closing, _normal_forms = exhaustive_family
    # Parity: no simple transitive closing system of odd length exists.
    for (d, n), family in transitive.items():
        if n % 2 == 1:
            assert family == []
    # The six-branch-point degree-3 system gives one genus-1 component.
    s = perm_system(3, (1, 2), (1, 2), (1, 2), (1, 2), (2, 3), (2, 3))
    cov = build_covering(s)
    assert [(sorted(c.sheets), c.genus) for c in cov.components] == [([1, 2, 3], 1)]

    # Riemann-Hurwitz counting vs the explicit cut-and-glue cell complex,
    # over every closing system with d <= 4, n <= 8 (intransitive included).
    checked = 0
    for (d, n), family in closing.items():
        for sys_ in family:
            got = {
                (c.sheets, c.euler_characteristic)
                for c in build_covering(sys_).components
            }
            assert got == set(polygon_euler_data(sys_)), (d, n)
            checked += 1

    # The same two-route check on charts (d <= 4, at most 8 branch points).
    rng = random.Random(41)
    chart_checked = 0
    while chart_checked < 60:
        c = random_chart(rng.choice([2, 3, 4]), rng.randrange(4, 22), rng)
        if c.black_count() > 8:
            continue
        got = {
            (comp.sheets, comp.euler_characteristic)
            for comp in build_covering(chart_hurwitz_system(c)).components
        }
        assert got == set(chart_cell_euler_data(c))
        chart_checked += 1
    report(
        5,
        f"even lengths, torus example, oracle agreement on {checked} systems "
        f"and {chart_checked} charts",
    )


def _applicable_moves(c, rng, limit):
    """Discover up to ``limit`` applicable (move, site) pairs by trying."""
    found = []
    names = sorted(MOVES)
    rng.shuffle(names)
    for name in names:
        for at in range(len(c.events) + 1):
            kwargs_list = [{"at": at}]
            if name == "cup-cap-insert":
                kwargs_list = [{"at": at, "position": 0, "label": 1}]
            elif name == "white-insert":
                kwargs_list = [
                    {"at": at, "position": p, "i": i, "j": j}
                    for p in (0, 1) for i, j in ((1, 2), (2, 1))
                ]
            elif name == "crossing-insert":
                kwargs_list = [{"at": at, "position": p, "i": 1, "j": 3} for p in (0, 1)]
            for kwargs in kwargs_list:
                try:
                    moved = apply_chart_move(c, name, **kwargs)
                except MoveError:
                    continue
                found.append((name, moved))
                if len(found) >= limit:
                    return found
    return found


def test_criterion_6_chart_calculus():
    start = time.perf_counter()
    rng = random.Random(42)
    total_moves = 0
    for _ in range(200):
        c = random_chart(rng.choice([2, 3, 4]), rng.randrange(4, 31), rng)
        assert validate_chart(c).valid
        system = chart_hurwitz_system(c)
        assert total_monodromy(system).is_identity()
        for name, moved in _applicable_moves(c, rng, 3):
            assert validate_chart(moved).valid, name
            moved_system = chart_hurwitz_system(moved)
            assert total_monodromy(moved_system).is_identity()
            verdict = hc_equivalent(system, moved_system, budget=20_000)
            assert verdict is Equivalence.EQUIVALENT, name
            total_moves += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    report(6, f"200 charts, {total_moves} move applications preserved monodromy ({elapsed:.1f}s)")


def test_criterion_7_orientability():
    rng = random.Random(43)
    done = 0
    while done < 60:
        oriented = random_chart(rng.choice([2, 3, 4]), rng.randrange(4, 24), rng, oriented=True)
        plain = forget_orientation(oriented)
        result = chart_orientable(plain)
        assert result.orientable  # complete on the orientable side
        witness = result.witness
        assert validate_chart(witness).valid
        assert witness.oriented
        assert forget_orientation(witness).events == plain.events
        lifted = chart_hurwitz_system(witness)
        base = chart_hurwitz_system(plain)
        assert tuple(project(w) for w in lifted.entries) == base.entries
        done += 1
    report(7, f"{done} forgetful images certified orientable with verified witnesses")


def test_criterion_8_fox_colorings():
    trefoil = corpus_diagram("trefoil")
    cols = enumerate_simple_colorings(trefoil, 3)
    assert len(cols) == 9
    assert sum(1 for c in cols if c.is_transitive()) == 6
    assert len(enumerate_simple_colorings(corpus_diagram("figure-eight"), 3)) == 3

    moved_counts = []
    for name in CORPUS:
        dg = corpus_diagram(name)
        base = enumerate_simple_colorings(dg, 3)
        assert len(base) == fox_three_colorings(dg)  # independent oracle
        if not dg.crossings:
            continue
        col = base[0]
        edges = dg.edges()
        for sign in (1, -1):
            new_dg, _ = r1_add(dg, col, edges[0], sign)
            assert len(enumerate_simple_colorings(new_dg, 3)) == len(base)
        new_dg, _ = r2_add(dg, col, edges[0], edges[2])
        assert len(enumerate_simple_colorings(new_dg, 3)) == len(base)
        moved_counts.append(name)
    report(8, f"trefoil 9/6, figure-eight 3, R-move invariance on {moved_counts}")


def test_criterion_9_lifting():
    reverified = 0
    for name in CORPUS:
        dg = corpus_diagram(name)
        for f in enumerate_simple_colorings(dg, 2):
            result = find_simple_lift(dg, f)
            assert result.lift is not None, name  # d=2 always lifts
            lift = result.lift
            # Independent reverification through canonical forms.
            for arc, w in lift.assignment.items():
                assert project(w) == f.assignment[arc]
            for rel in dg.crossing_relations():
                u = lift.assignment[rel.under_in]
                o = lift.assignment[rel.over]
                conj = (u ** o) if rel.sign == 1 else (u ** o.inverse())
                assert canonical_key(lift.assignment[rel.under_out]) == canonical_key(conj)
            reverified += 1
    # The quandle route returns the same certified lifts.
    trefoil = corpus_diagram("trefoil")
    col = next(c for c in enumerate_simple_colorings(trefoil, 3) if c.is_transitive())
    for route in (find_simple_lift, lift_to_Ad):
        result = route(trefoil, col)
        assert result.lift is not None
        for arc, w in result.lift.assignment.items():
            assert project(w) == col.assignment[arc]
        assert coloring_satisfies(trefoil, result.lift)
    report(9, f"{reverified} d=2 lifts plus surjective trefoil lift reverified exactly")


def test_criterion_10_quandle_layer():
    for d in range(2, 9):
        q = make_Td(d)
        assert quandle_validate(q).valid
        assert len(q) == d * (d - 1) // 2

    for name in CORPUS:
        dg = corpus_diagram(name)
        for d in (2, 3):
            assert len(quandle_colorings(dg, make_Td(d))) == len(
                enumerate_simple_colorings(dg, d)
            ), (name, d)

    # Verdicts against brute-force fiber enumeration, |source| <= 8.
    trefoil = corpus_diagram("trefoil")
    q3 = make_Td(3)
    r6, r3 = dihedral_quandle(6), dihedral_quandle(3)
    surjections = [
        (list(range(3)), q3, q3),
        ([x % 3 for x in range(6)], r6, r3),
        ([x // 2 for x in range(6)], product_quandle(q3, trivial_quandle(2)), q3),
        ([0] * 3, q3, trivial_quandle(1)),
    ]
    matched = 0
    for p, source, target in surjections:
        assert len(source) <= 8
        assert is_quandle_homomorphism(p, source, target)
        for col in quandle_colorings(trefoil, target):
            got = lift_through_surjection(p, source, target, trefoil, col)
            arcs = trefoil.arcs()
            fibers = [[x for x in range(len(source)) if p[x] == col[a]] for a in arcs]
            brute = None
            for combo in itertools.product(*fibers):
                candidate = dict(zip(arcs, combo))
                if all(
                    candidate[rel.under_out]
                    == (
                        source.apply(candidate[rel.under_in], candidate[rel.over])
                        if rel.sign == 1
                        else source.inverse_apply(
                            candidate[rel.under_in], candidate[rel.over]
                        )
                    )
                    for rel in trefoil.crossing_relations()
                ):
                    brute = candidate
                    break
            assert (got is None) == (brute is None)
            if got is not None:
                assert all(p[got[a]] == col[a] for a in arcs)
            matched += 1
    report(10, f"T_d axioms to d=8, coloring counts equal, {matched} lift verdicts match brute force")
