import random

import pytest

from branchcover.covering import (
    CoveringSurface,
    build_covering,
    covering_equivalent,
)
from branchcover.hurwitz import (
    HurwitzSystem,
    NonClosingSystemError,
    HurwitzError,
    conjugate_system,
    hc_normal_form,
    hurwitz_move,
    iter_simple_closing_systems,
    total_monodromy,
)
from branchcover.permutations import Permutation, all_transpositions
from oracles import polygon_euler_data


def tr(d, i, j):
    return Permutation.transposition(d, i, j)


def perm_system(d, *pairs):
    return HurwitzSystem.of_permutations([tr(d, i, j) for i, j in pairs], d)


class TestBuildCovering:
    def test_two_fold_sphere(self):
        cov = build_covering(perm_system(2, (1, 2), (1, 2)))
        assert len(cov.components) == 1
        assert cov.components[0].euler_characteristic == 2
        assert cov.components[0].genus == 0
        # Independent route: explicit cell-complex gluing.
        assert polygon_euler_data(perm_system(2, (1, 2), (1, 2))) == [
            (frozenset({1, 2}), 2)
        ]

    def test_torus(self):
        s = perm_system(3, (1, 2), (1, 2), (1, 2), (1, 2), (2, 3), (2, 3))
        cov = build_covering(s)
        assert len(cov.components) == 1
        assert cov.components[0].euler_characteristic == 0
        assert cov.components[0].genus == 1
        assert cov.components[0].sheets == frozenset({1, 2, 3})

    def test_two_components(self):
        s = perm_system(4, (1, 2), (3, 4), (3, 4), (1, 2))
        cov = build_covering(s)
        assert [(sorted(c.sheets), c.euler_characteristic, c.genus) for c in cov.components] == [
            ([1, 2], 2, 0),
            ([3, 4], 2, 0),
        ]

    def test_non_closing_rejected(self):
        with pytest.raises(NonClosingSystemError):
            build_covering(perm_system(3, (1, 2), (2, 3)))

    def test_non_simple_entries_supported(self):
        # Cyclic 3-fold cover branched at two full 3-cycles: a sphere.
        s = HurwitzSystem.of_permutations(
            [
                Permutation.from_cycles(3, [(1, 2, 3)]),
                Permutation.from_cycles(3, [(1, 3, 2)]),
            ],
            3,
        )
        cov = build_covering(s)
        assert cov.components[0].euler_characteristic == 2
        assert polygon_euler_data(s) == [(frozenset({1, 2, 3}), 2)]

    def test_simple_total_chi_formula(self):
        rng = random.Random(11)
        done = 0
        while done < 60:
            d = rng.choice([2, 3, 4, 5, 6])
            n = rng.choice([2, 4, 6, 8, 10, 12])
            trans = all_transpositions(d)
            s = HurwitzSystem.of_permutations(
                [rng.choice(trans) for _ in range(n)], d
            )
            if not total_monodromy(s).is_identity():
                continue
            assert build_covering(s).total_euler_characteristic() == 2 * d - n
            done += 1

    def test_invariant_under_moves(self):
        rng = random.Random(12)
        done = 0
        while done < 40:
            d = rng.choice([3, 4])
            trans = all_transpositions(d)
            s = HurwitzSystem.of_permutations([rng.choice(trans) for _ in range(6)], d)
            if not total_monodromy(s).is_identity():
                continue
            cov = build_covering(s)
            t = s
            for _ in range(5):
                t = hurwitz_move(t, rng.randrange(5), rng.choice(["forward", "inverse"]))
            t = conjugate_system(t, rng.choice(trans))
            assert build_covering(t) == cov
            done += 1

    def test_oracle_agreement_random(self):
        rng = random.Random(13)
        done = 0
        while done < 120:
            d = rng.choice([2, 3, 4])
            n = rng.choice([2, 4, 6, 8])
            trans = all_transpositions(d)
            s = HurwitzSystem.of_permutations([rng.choice(trans) for _ in range(n)], d)
            if not total_monodromy(s).is_identity():
                continue
            got = {
                (c.sheets, c.euler_characteristic) for c in build_covering(s).components
            }
            assert got == set(polygon_euler_data(s))
            done += 1

    def test_json_shape(self):
        s = perm_system(3, (1, 2), (1, 2), (1, 2), (1, 2), (2, 3), (2, 3))
        data = build_covering(s).to_json()
        assert data == {
            "degree": 3,
            "branch_count": 6,
            "components": [{"sheets": [1, 2, 3], "euler": 0, "genus": 1}],
        }


class TestParity:
    def test_basic(self):
        (c,) = build_covering(perm_system(2, (1, 2), (1, 2))).components
        assert c.euler_characteristic % 2 == 0

    def test_no_odd_closing_transitive_simple_system_at_n3(self):
        # Exhaustive search finds nothing to falsify at d=3, n=3.
        assert list(iter_simple_closing_systems(3, 3)) == []

    def test_normal_forms_pass(self):
        from branchcover.hurwitz import normal_form_template

        for d, n in [(2, 2), (2, 4), (3, 6), (4, 8)]:
            for c in build_covering(normal_form_template(d, n)).components:
                assert c.euler_characteristic % 2 == 0, (d, n)


class TestCoveringEquivalent:
    def test_equal_lengths(self):
        family = [s for s in iter_simple_closing_systems(3, 6)]
        a, b = family[0], family[-1]
        assert covering_equivalent(a, b)
        assert covering_equivalent(a, a)

    def test_different_lengths(self):
        a = next(iter(iter_simple_closing_systems(3, 4)))
        b = next(iter(iter_simple_closing_systems(3, 6)))
        assert not covering_equivalent(a, b)

    def test_precondition_violations(self):
        with pytest.raises(HurwitzError):
            covering_equivalent(
                perm_system(3, (1, 2), (1, 2)),  # intransitive
                perm_system(3, (1, 2), (1, 2)),
            )
        with pytest.raises(HurwitzError):
            covering_equivalent(
                perm_system(3, (1, 2), (2, 3)),  # not closing
                perm_system(3, (1, 2), (2, 3)),
            )

    def test_agrees_with_normal_forms(self):
        rng = random.Random(14)
        pool = {n: list(iter_simple_closing_systems(3, n)) for n in (4, 6)}
        for _ in range(30):
            n1, n2 = rng.choice([(4, 4), (6, 6), (4, 6)])
            s, t = rng.choice(pool[n1]), rng.choice(pool[n2])
            want = hc_normal_form(s)[0] == hc_normal_form(t)[0]
            assert covering_equivalent(s, t) == want


def test_component_validation():
    from branchcover.covering import SurfaceComponent

    with pytest.raises(ValueError):
        SurfaceComponent(frozenset({1}), 1, 0)
    with pytest.raises(ValueError):
        CoveringSurface(2, 0, (SurfaceComponent(frozenset({1}), 2, 0),))
