"""numpy, imported on first use.

The array layers bind ``np`` from here instead of importing numpy
themselves.  The binding is numpy's module object, but until code reads
one of its attributes numpy is not executed, so commands that never touch
an array (the staking replay, hits replays, help and usage errors) skip
numpy's import and never start its BLAS thread pool.  The mechanism is
``importlib.util.LazyLoader``, after the lazy-import recipe in the
``importlib`` documentation.  A numpy that is already imported is used
as it is, and a missing numpy still fails at import time.
"""

from __future__ import annotations

import importlib.util
import sys


def _lazy_import(name: str):
    module = sys.modules.get(name)
    if module is not None:
        return module
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module


np = _lazy_import("numpy")
