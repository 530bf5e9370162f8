"""The export lists agree with the modules: each module's ``__all__`` names
only what the module defines, and the package imports only listed names."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import cdmlotto

LISTING = sorted(
    name for _, name, _ in pkgutil.iter_modules(cdmlotto.__path__)
    if hasattr(importlib.import_module(f"cdmlotto.{name}"), "__all__")
)


def test_the_modules_with_export_lists_are_found():
    assert {"backtest", "distributions", "estimators", "ingest", "strategy"} <= set(LISTING)


@pytest.mark.parametrize("name", LISTING)
def test_every_listed_name_is_defined(name):
    module = importlib.import_module(f"cdmlotto.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_the_package_imports_only_listed_names():
    tree = ast.parse(Path(cdmlotto.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"cdmlotto.{node.module}")
        assert [alias.name for alias in node.names if alias.name not in module.__all__] == [], node.module
