"""The export lists agree with the modules: each module's ``__all__`` names
only what the module defines, the lists are disjoint, and the package
exports exactly their union.  Every name the benchmark traces or imports
resolves."""

import ast
import importlib
import pkgutil
import types
from collections import Counter
from pathlib import Path

import pytest

import cdmlotto

LISTING = sorted(
    name for _, name, _ in pkgutil.iter_modules(cdmlotto.__path__)
    if hasattr(importlib.import_module(f"cdmlotto.{name}"), "__all__")
)
LAYERS = ("backtest", "distributions", "estimators", "ingest", "strategy")


def test_the_modules_with_export_lists_are_found():
    assert set(LAYERS) <= set(LISTING)


@pytest.mark.parametrize("name", LISTING)
def test_every_listed_name_is_defined(name):
    module = importlib.import_module(f"cdmlotto.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_the_layer_lists_are_disjoint():
    """A name in two lists would be exported from whichever layer the
    package star-imports last, silently shadowing the other."""
    counts = Counter(n for layer in LAYERS for n in importlib.import_module(f"cdmlotto.{layer}").__all__)
    assert [n for n, count in counts.items() if count > 1] == []


def test_the_package_exports_the_union_of_the_lists():
    exported = {
        name for name, value in vars(cdmlotto).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    listed = {n for layer in LAYERS for n in importlib.import_module(f"cdmlotto.{layer}").__all__}
    assert exported == listed


def test_the_backtest_knows_no_game_kind():
    """The backtest reads a game through ``GameSpec.layout`` alone; the
    game's kind is decided in ingest."""
    assert not hasattr(importlib.import_module("cdmlotto.backtest"), "GameKind")


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def benchmark_names():
    """The (module, name) pairs of the functions ``perfbench/tracer.py``
    lists in ``TRACED``, and those of the names ``perfbench/checks.py``
    imports from the package, read from their source without running either."""
    tracer = ast.parse((PERFBENCH / "tracer.py").read_text(encoding="utf-8"))
    (traced,) = [node.value for node in tracer.body
                 if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED"]]
    checks = ast.parse((PERFBENCH / "checks.py").read_text(encoding="utf-8"))
    return (
        [(f"cdmlotto.{layer}", name) for layer, names in ast.literal_eval(traced).items() for name in names],
        [(node.module, alias.name) for node in checks.body
         if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "cdmlotto" for alias in node.names],
    )


def test_the_benchmark_names_resolve():
    """The traced benchmark run wraps each ``TRACED`` name and the output
    checks import theirs, so a package change that drops one breaks the
    benchmark."""
    traced, imported = benchmark_names()
    assert traced and imported
    assert [f"{module}.{name}" for module, name in traced + imported
            if not hasattr(importlib.import_module(module), name)] == []
