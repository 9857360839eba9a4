"""The public surface: every ``__all__`` entry exists, and the package re-exports only listed names."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import conescore
from conescore import boundary, convexity, rules, sampling

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


# options that only one value ever reached, now constants of their functions
SINGLE_VALUE_OPTIONS = [
    (rules.mode_set, {"delta_mode"}),
    (rules.sup_subgradient, {"delta_mode"}),
    (convexity.gateaux_check, {"tol_linear", "seed", "steps"}),
    (convexity.certify_sublinearity, {"lambdas", "strict_tol", "seed"}),
    (convexity.certify_directional_derivatives, {"seed", "steps"}),
    (convexity.certify_subgradient, {"tol_quad", "tol_fd", "steps"}),
    (convexity.right_directional_derivative, {"steps"}),
    (convexity.left_directional_derivative, {"steps"}),
    (convexity.two_sided_derivative, {"steps"}),
    (sampling.sample_mixture, {"max_components"}),
    (sampling.reweighted_mixture, {"spread"}),
    (boundary.DyadicSequence.geometric, {"scale"}),
]


@pytest.mark.parametrize(("fn", "removed"), SINGLE_VALUE_OPTIONS, ids=[fn.__qualname__ for fn, _ in SINGLE_VALUE_OPTIONS])
def test_single_value_options_stay_constants(fn, removed):
    assert removed.isdisjoint(inspect.signature(fn).parameters)
