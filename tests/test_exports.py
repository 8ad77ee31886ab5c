"""The public names: each module's __all__ lists only names it has, and
every name the package re-exports from a module is in that module's
__all__, so `from biquat.<module> import *` gives what `biquat` gives."""

import ast
import importlib
from pathlib import Path

import pytest

import biquat

# the modules of the package that declare a public API
MODULES = ("algebra", "alpha", "dirac", "factorization", "grid", "harness", "physics")


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_only_existing_names(name):
    module = importlib.import_module(f"biquat.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, missing


def test_package_reexports_are_in_the_modules_all():
    tree = ast.parse(Path(biquat.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert {node.module for node in imports} <= set(MODULES)
    unlisted = [f"{node.module}.{alias.name}" for node in imports for alias in node.names
                if alias.name not in importlib.import_module(f"biquat.{node.module}").__all__]
    assert not unlisted, unlisted
