"""Combinatorial calculus of simple branched coverings of the 2-sphere.

Exact symmetric-group and braid-group arithmetic, Hurwitz systems and their
normal form, covering-surface reconstruction, slice-encoded charts with
moves and the orientability decision, link diagram colorings with braid
lifts, and finite/lazy quandles with lifting problems.
"""

from .braids import (
    BraidWord,
    FreeWord,
    braids_equal,
    canonical,
    exponent_sum,
    garside_normal_form,
    parse_braid,
    project,
)
from .charts import (
    Chart,
    ChartEvent,
    apply_chart_move,
    chart_hurwitz_system,
    chart_orientable,
    validate_chart,
)
from .covering import (
    CoveringSurface,
    build_covering,
    covering_equivalent,
)
from .hurwitz import (
    Equivalence,
    HurwitzSystem,
    Simplicity,
    conjugate_system,
    hc_equivalent,
    hc_normal_form,
    hurwitz_move,
    is_simple_system,
    is_transitive,
    replay_trace,
    total_monodromy,
)
from .links import (
    LinkDiagram,
    SimpleColoring,
    enumerate_simple_colorings,
    find_simple_lift,
    parse_pd,
)
from .permutations import Permutation, parse_permutation
from .quandles import (
    FiniteQuandle,
    LazyBraidQuandle,
    lift_through_surjection,
    lift_to_Ad,
    make_Td,
    quandle_colorings,
    quandle_validate,
)

__version__ = "0.1.0"
