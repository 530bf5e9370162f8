"""Dirichlet-multinomial count prediction for lottery draw histories.

The package wires four layers together: log-space density math for the
multinomial-Dirichlet conjugate family (:mod:`cdmlotto.distributions`),
closed-form concentration estimators (:mod:`cdmlotto.estimators`), draw
history ingestion and count-matrix construction (:mod:`cdmlotto.ingest`),
a walk-forward backtest with hit-gap statistics (:mod:`cdmlotto.backtest`),
and a quarterly staking simulator (:mod:`cdmlotto.strategy`).  The
``cdmlotto`` console script exposes all of it.

The package exports every name in its layers' ``__all__`` lists; those
lists are the one record of the public API.
"""

from .backtest import *
from .distributions import *
from .estimators import *
from .ingest import *
from .strategy import *

__version__ = "0.1.0"
