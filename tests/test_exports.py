"""pqclust.__all__ lists each public function and class of the package
namespace once, and every name it lists resolves to the object of that
name in the module __init__ imports it from; a function or class is
imported from the module that defines it and documents itself. Modules and
dunders are not exports."""

import ast
import inspect
import sys
from pathlib import Path

import pytest

import pqclust

# The submodule __init__ imports each name from.
_IMPORTED_FROM = {
    alias.name: f"pqclust.{node.module}"
    for node in ast.parse(Path(pqclust.__file__).read_text()).body
    if isinstance(node, ast.ImportFrom)
    for alias in node.names
}


def test_no_name_is_exported_twice():
    assert len(set(pqclust.__all__)) == len(pqclust.__all__)


def test_every_public_function_and_class_is_exported():
    public = {
        name
        for name, value in vars(pqclust).items()
        if not name.startswith("_") and (inspect.isfunction(value) or inspect.isclass(value))
    }
    assert sorted(public - set(pqclust.__all__)) == []


@pytest.mark.parametrize("name", pqclust.__all__)
def test_export_is_the_object_of_its_home_module(name):
    value = getattr(pqclust, name)
    home = sys.modules[_IMPORTED_FROM[name]]
    assert getattr(home, name) is value
    # A constant such as MAX_CODEWORDS carries no defining module or name.
    if inspect.isfunction(value) or inspect.isclass(value):
        assert (value.__module__, value.__name__) == (home.__name__, name)
        assert inspect.getdoc(value)
