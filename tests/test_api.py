"""The public surface: every ``__all__`` entry exists, and the package re-exports only listed names."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import conescore

MODULES = sorted(f"conescore.{m.name}" for m in pkgutil.iter_modules(conescore.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(name)
    missing = [entry for entry in getattr(module, "__all__", ()) if not hasattr(module, entry)]
    assert missing == []


def _package_imports() -> dict[str, list[str]]:
    """Names ``conescore/__init__.py`` imports, keyed by the module they come from."""
    tree = ast.parse(Path(conescore.__file__).read_text())
    return {
        f"conescore.{node.module}": [alias.name for alias in node.names]
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
    }


LISTING = sorted(name for name in _package_imports() if hasattr(importlib.import_module(name), "__all__"))


@pytest.mark.parametrize("name", LISTING)
def test_package_reexports_only_listed_names(name):
    listed = importlib.import_module(name).__all__
    assert [n for n in _package_imports()[name] if n not in listed] == []
