"""The package namespace: its public names, served from their modules on first use."""

import importlib

import pytest

import branchcover

PUBLIC = {
    "braids": ["BraidWord", "braids_equal", "exponent_sum", "garside_normal_form",
               "parse_braid", "project"],
    "charts": ["Chart", "ChartEvent", "apply_chart_move", "chart_hurwitz_system",
               "chart_orientable", "validate_chart"],
    "covering": ["CoveringSurface", "build_covering", "covering_equivalent"],
    "hurwitz": ["Equivalence", "HurwitzSystem", "Simplicity", "conjugate_system",
                "hc_equivalent", "hc_normal_form", "hurwitz_move", "is_simple_system",
                "is_transitive", "replay_trace", "total_monodromy"],
    "links": ["LinkDiagram", "SimpleColoring", "enumerate_simple_colorings",
              "find_simple_lift", "parse_pd"],
    "permutations": ["Permutation", "parse_permutation"],
    "quandles": ["FiniteQuandle", "lift_through_surjection", "lift_to_Ad", "make_Td",
                 "quandle_colorings", "quandle_validate"],
}
NAMES = sorted(name for names in PUBLIC.values() for name in names)


def test_all_lists_the_public_names():
    assert len(NAMES) == 39
    assert sorted(branchcover.__all__) == NAMES
    assert branchcover.__version__ == "0.1.0"


@pytest.mark.parametrize("module, name", [(m, n) for m, names in PUBLIC.items() for n in names])
def test_name_is_the_module_attribute(module, name):
    defining = importlib.import_module(f"branchcover.{module}")
    assert getattr(branchcover, name) is getattr(defining, name)


def test_dir_lists_the_public_names():
    assert set(NAMES) <= set(dir(branchcover))


def test_star_import():
    namespace = {}
    exec("from branchcover import *", namespace)
    assert {name: namespace[name] for name in NAMES} == {
        name: getattr(branchcover, name) for name in NAMES}


def test_submodules_import_by_name():
    from branchcover import charts, quandles

    assert charts is importlib.import_module("branchcover.charts")
    assert quandles.make_Td is branchcover.make_Td


@pytest.mark.parametrize("name", ["no_such_name", "MOVES", "charts"])
def test_getattr_serves_only_public_names(name):
    # A submodule name raises too, so that ``from branchcover import charts``
    # falls back to importing the submodule.
    with pytest.raises(AttributeError, match=name):
        branchcover.__getattr__(name)
