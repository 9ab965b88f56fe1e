"""Topological invariants of the covering surface determined by a monodromy.

Given a permutation Hurwitz system with identity total monodromy, the covering
surface over the 2-sphere splits into one closed orientable component per
orbit of the monodromy group on the sheets.  Per component the Euler
characteristic comes from counting branch deficiencies orbit by orbit:

    chi(O) = 2 |O| - sum_k (|O| - #cycles of a_k restricted to O)

and the genus is (2 - chi)/2.  Entries need not be transpositions; a
transposition whose support lies inside O contributes deficiency one and one
missing O entirely contributes zero.
"""

from __future__ import annotations

import dataclasses

from .hurwitz import (
    HurwitzSystem,
    NonClosingSystemError,
    PERMUTATION,
    HurwitzError,
    _check_normal_preconditions,
    orbit_partition,
    total_monodromy,
)


@dataclasses.dataclass(frozen=True)
class SurfaceComponent:
    sheets: frozenset[int]
    euler_characteristic: int
    genus: int

    def __post_init__(self):
        if self.euler_characteristic % 2 != 0:
            raise ValueError(f"odd Euler characteristic {self.euler_characteristic}")
        if self.genus != (2 - self.euler_characteristic) // 2 or self.genus < 0:
            raise ValueError(
                f"genus {self.genus} inconsistent with chi {self.euler_characteristic}"
            )


@dataclasses.dataclass(frozen=True)
class CoveringSurface:
    degree: int
    branch_count: int
    components: tuple[SurfaceComponent, ...]

    def __post_init__(self):
        sheets = sorted(x for c in self.components for x in c.sheets)
        if sheets != list(range(1, self.degree + 1)):
            raise ValueError("component sheet sets do not partition the sheets")

    def total_euler_characteristic(self) -> int:
        return sum(c.euler_characteristic for c in self.components)

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "branch_count": self.branch_count,
            "components": [
                {
                    "sheets": sorted(c.sheets),
                    "euler": c.euler_characteristic,
                    "genus": c.genus,
                }
                for c in self.components
            ],
        }


def build_covering(s: HurwitzSystem) -> CoveringSurface:
    """Components, Euler characteristics and genera of the covering surface.

    Requires a permutation system whose total monodromy is the identity (the
    monodromy of the sphere must close up).
    """
    if s.flavor != PERMUTATION:
        raise HurwitzError("covering reconstruction needs a permutation system")
    if not total_monodromy(s).is_identity():
        raise NonClosingSystemError("total monodromy is not the identity")
    # The orbits are invariant under every entry, so no cycle leaves one.
    cycles = [c for a in s.entries for c in a.cycles()]
    components = []
    for orbit in orbit_partition(s):
        size = len(orbit)
        deficiency = sum(len(c) - 1 for c in cycles if c[0] in orbit)
        chi = 2 * size - deficiency
        components.append(
            SurfaceComponent(orbit, chi, (2 - chi) // 2)
        )
    return CoveringSurface(s.degree, len(s.entries), tuple(components))


def covering_equivalent(s: HurwitzSystem, t: HurwitzSystem) -> bool:
    """Equivalence of the branched coverings (connected case): length equality.

    Both systems must be simple, transitive and closing, of equal degree;
    the classification of simple branched coverings then reduces equivalence
    to comparing branch-point counts.
    """
    if s.degree != t.degree:
        raise HurwitzError("systems must share the degree")
    for name, sys_ in (("first", s), ("second", t)):
        try:
            _check_normal_preconditions(sys_)
        except HurwitzError as exc:
            raise type(exc)(f"{name} system: {exc}") from None
    return len(s.entries) == len(t.entries)
