"""The examples in the package's docstrings run, and every one passes."""

import doctest
import importlib
import pkgutil

import pytest

import lzero

# lzero.__main__ runs the CLI when imported, and holds no examples
MODULES = ["lzero"] + sorted(
    m.name for m in pkgutil.iter_modules(lzero.__path__, "lzero.") if m.name != "lzero.__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests_pass(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0, f"{result.failed} of {result.attempted} examples failed"


def test_doctests_are_found():
    attempted = sum(
        doctest.testmod(importlib.import_module(name)).attempted for name in MODULES
    )
    assert attempted >= 7
