"""Dirichlet-multinomial count prediction for lottery draw histories.

The package wires four layers together: log-space density math for the
multinomial-Dirichlet conjugate family (:mod:`cdmlotto.distributions`),
closed-form concentration estimators (:mod:`cdmlotto.estimators`), draw
history ingestion and count-matrix construction (:mod:`cdmlotto.ingest`),
a walk-forward backtest with hit-gap statistics (:mod:`cdmlotto.backtest`),
and a quarterly staking simulator (:mod:`cdmlotto.strategy`).  The
``cdmlotto`` console script exposes all of it.
"""

from .backtest import (
    ALTERNATION_NOTE,
    SHORT_LONG_CUTOFF,
    BacktestConfig,
    BacktestError,
    BacktestResult,
    GapStats,
    PredictedCombination,
    StretchSummary,
    classify_stretches,
    extrapolate_gaps,
    gap_stats,
    match_count,
    predict_next,
    render_comparison,
    run_backtest,
    select_combination,
)
from .distributions import (
    CountMatrix,
    beta_bernoulli_posterior_pdf,
    cdm_expectation,
    cdm_log_pmf,
    dirichlet_log_pdf,
    dirichlet_posterior,
    log_gamma,
    multinomial_log_pmf,
    posterior_predictive_log_pmf,
    predictive_expectation,
)
from .estimators import (
    EULER_MASCHERONI,
    DegenerateDataError,
    EstimationError,
    EstimatorConfig,
    EstimatorKind,
    InsufficientRowsError,
    NonPositiveAlphaError,
    ZeroEntryError,
    estimate_alpha,
    estimate_main_diagonal,
    estimate_mle,
    estimate_mom,
)
from .ingest import (
    DrawHistory,
    GameKind,
    GameSpec,
    HistoryParseError,
    HistoryValidationError,
    build_count_matrices,
    parse_history,
    serialize_history,
    slice_window,
    synthetic_history,
)
from .strategy import (
    AccountingMode,
    CapExceededError,
    ExtensionKind,
    ExtensionRule,
    QuarterRecord,
    StrategyConfig,
    StreamLedger,
    StreamsSummary,
    next_player_count,
    quarter_net,
    required_budget,
    simulate_stream,
    simulate_streams,
    summarize_streams,
)

__version__ = "0.1.0"
