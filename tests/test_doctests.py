"""Run the examples in the package docstrings."""

import doctest
import importlib
import pkgutil

import pytest

import branchcover

MODULES = sorted(m.name for m in pkgutil.iter_modules(branchcover.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    module = importlib.import_module(f"branchcover.{name}")
    result = doctest.testmod(module)
    assert result.failed == 0

