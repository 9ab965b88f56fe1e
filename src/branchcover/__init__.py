"""Combinatorial calculus of simple branched coverings of the 2-sphere.

Exact symmetric-group and braid-group arithmetic, Hurwitz systems and their
normal form, covering-surface reconstruction, slice-encoded charts with
moves and the orientability decision, link diagram colorings with braid
lifts, and finite/lazy quandles with lifting problems.

``import branchcover`` loads no submodule.  Each public name below is
imported from its module on first use (PEP 562), so a caller, and each CLI
subcommand, compiles only the modules it reaches.
"""

import importlib

_EXPORTS = {
    "braids": (
        "BraidWord",
        "braids_equal",
        "exponent_sum",
        "garside_normal_form",
        "parse_braid",
        "project",
    ),
    "charts": (
        "Chart",
        "ChartEvent",
        "apply_chart_move",
        "chart_hurwitz_system",
        "chart_orientable",
        "validate_chart",
    ),
    "covering": (
        "CoveringSurface",
        "build_covering",
        "covering_equivalent",
    ),
    "hurwitz": (
        "Equivalence",
        "HurwitzSystem",
        "Simplicity",
        "conjugate_system",
        "hc_equivalent",
        "hc_normal_form",
        "hurwitz_move",
        "is_simple_system",
        "is_transitive",
        "replay_trace",
        "total_monodromy",
    ),
    "links": (
        "LinkDiagram",
        "SimpleColoring",
        "enumerate_simple_colorings",
        "find_simple_lift",
        "parse_pd",
    ),
    "permutations": ("Permutation", "parse_permutation"),
    "quandles": (
        "FiniteQuandle",
        "LazyBraidQuandle",
        "lift_through_surjection",
        "lift_to_Ad",
        "make_Td",
        "quandle_colorings",
        "quandle_validate",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name):
    # Only public names are served here.  Any other name, a submodule's
    # included, raises AttributeError, so ``from branchcover import charts``
    # falls back to importing the submodule.
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
