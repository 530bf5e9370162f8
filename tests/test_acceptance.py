"""Acceptance suite: one test per criterion, each asserting its stated
tolerance and runtime bound and printing a pass line when it holds."""

import json
import math
import time

import numpy as np
import pytest

from cdmlotto.backtest import (
    ALTERNATION_NOTE,
    classify_stretches,
    gap_stats,
    run_backtest,
)
from cdmlotto.cli import main
from cdmlotto.distributions import (
    cdm_expectation,
    cdm_log_pmf,
    predictive_expectation,
)
from cdmlotto.estimators import (
    EstimatorConfig,
    EstimatorKind,
    ZeroEntryError,
    estimate_main_diagonal,
    estimate_mle,
    estimate_mom,
)
from cdmlotto.ingest import GameKind, GameSpec, parse_history, serialize_history, synthetic_history
from cdmlotto.strategy import StrategyConfig, simulate_stream

SIX_52 = GameSpec(GameKind.SET_DRAW, 52, 6)


def compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in compositions(total - head, parts - 1):
            yield (head,) + rest


def test_criterion_1_strategy_arithmetic_exact():
    started = time.perf_counter()
    config = StrategyConfig()
    # A first win on quarter q's first draw: the winning row's net.
    draws_per_quarter = config.quarter_days * config.draws_per_day
    nets = [simulate_stream((q - 1) * draws_per_quarter, config).quarters[-1].net_cents for q in (1, 2, 3, 4)]
    assert nets == [38_000, 64_000, 154_000, 360_000]
    drought = simulate_stream(None, config, horizon_days=240)
    assert drought.total_spend_cents == 240_000
    fourth = simulate_stream(479, config)
    assert fourth.total_payout_cents == 600_000
    assert fourth.profit_cents == 360_000
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 PASS: quarterly profits 380/640/1540/3600, drought 2400, payout 6000 ({elapsed:.3f}s)")


def test_criterion_2_reference_gap_statistics(capsys):
    started = time.perf_counter()
    indices = [0, 44, 659, 1357, 1369, 1915, 2039, 3449, 3685, 4285]
    stats = gap_stats(indices)
    assert stats["gaps"] == [44, 615, 698, 12, 546, 124, 1410, 236, 600]
    assert round(stats["average_gap"]) == 476
    stretch = classify_stretches(stats["gaps"])
    assert stretch["cutoff"] == 500
    assert stretch["labels"] == ["S", "L", "L", "S", "L", "S", "L", "S", "L"]
    assert stretch["alternation_fraction"] == pytest.approx(7 / 8)
    assert "60%" in ALTERNATION_NOTE and "not reproduced" in ALTERNATION_NOTE
    code = main(["backtest", "--hits", ",".join(str(i) for i in indices)])
    report = capsys.readouterr().out
    assert code == 0
    assert "rounded 476" in report
    assert "60%" in report and "not reproduced" in report
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"ACCEPTANCE 2 PASS: reference gaps, average 476, labels S L L S L S L S L, alternation 7/8 ({elapsed:.3f}s)")


def test_criterion_3_beta_binomial_equivalence():
    from scipy.stats import betabinom

    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(200):
        a, b = (float(v) for v in rng.uniform(0.1, 10.0, size=2))
        for n in range(1, 21):
            ks = np.arange(n + 1)
            oracle = betabinom.pmf(ks, n, a, b)
            ours = np.array([math.exp(cdm_log_pmf((int(k), n - int(k)), (a, b))) for k in ks])
            worst = max(worst, float(np.max(np.abs(ours - oracle))))
    assert worst < 1e-10
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    print(f"ACCEPTANCE 3 PASS: two-category pmf matches the beta-binomial oracle (worst {worst:.2e}, {elapsed:.3f}s)")


def test_criterion_4_normalization_by_enumeration():
    started = time.perf_counter()
    rng = np.random.default_rng(77)
    worst = 0.0
    for k in (2, 3, 4):
        for n in range(1, 7):
            vectors = list(compositions(n, k))
            for _ in range(20):
                alpha = rng.uniform(0.05, 20.0, size=k)
                total = sum(math.exp(cdm_log_pmf(x, alpha)) for x in vectors)
                worst = max(worst, abs(total - 1.0))
    assert worst < 1e-9
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(f"ACCEPTANCE 4 PASS: pmf sums to 1 over all count vectors (worst {worst:.2e}, {elapsed:.3f}s)")


def test_criterion_5_predictive_expectation_contract():
    started = time.perf_counter()
    rng = np.random.default_rng(11)
    for _ in range(1000):
        k = int(rng.integers(2, 8))
        alpha = rng.uniform(0.0, 10.0, size=k)
        if alpha.sum() == 0.0:
            alpha[0] = 1.0
        counts = rng.integers(0, 50, size=k)
        m = int(rng.integers(1, 20))
        scores = predictive_expectation(alpha, counts, m)
        assert abs(float(scores.sum()) - m) <= 1e-12 * m
        zeros = np.zeros(k, dtype=int)
        assert np.array_equal(predictive_expectation(alpha, zeros, m), cdm_expectation(alpha, m))
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"ACCEPTANCE 5 PASS: predictive expectation sums to m and reduces to the prior form ({elapsed:.3f}s)")


def test_criterion_6_estimator_checks():
    started = time.perf_counter()
    rng = np.random.default_rng(8)
    for _ in range(100):
        rows = int(rng.integers(2, 10))
        cols = int(rng.integers(2, 7))
        matrix = rng.multinomial(int(rng.integers(1, 15)), rng.dirichlet(np.ones(cols)), size=rows)
        by_hand = [sum(int(v) for v in matrix[:, j]) / rows for j in range(cols)]
        assert list(estimate_mom(matrix)) == by_hand
        if rows >= cols:
            diagonal = [int(matrix[rows - cols + j, j]) for j in range(cols)]
            assert list(estimate_main_diagonal(matrix)) == diagonal
    np.testing.assert_allclose(estimate_mle(np.array([[1, 2], [2, 1]])), [4.9002, 4.9002], atol=1e-3)
    with pytest.raises(ZeroEntryError):
        estimate_mle(np.array([[1, 0], [2, 1]]))
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"ACCEPTANCE 6 PASS: moment/diagonal estimators exact, closed-form MLE at 4.9002 ({elapsed:.3f}s)")


def test_criterion_7_null_model_oracle():
    started = time.perf_counter()
    # P(at least 2 of 6 predicted numbers among 6 uniform draws from 52).
    p = 1.0 - (math.comb(46, 6) + 6 * math.comb(46, 5)) / math.comb(52, 6)
    history = synthetic_history(SIX_52, 20_000, seed=414)
    estimators = [
        EstimatorConfig(EstimatorKind.MAIN_DIAGONAL),
        EstimatorConfig(EstimatorKind.MOM),
        EstimatorConfig(EstimatorKind.MLE, mle_smoothing=1.0),
    ]
    rates = {}
    for estimator in estimators:
        result = run_backtest(history, estimator, hit_threshold=2)
        trials = len(result.draw_indices)
        empirical = len(result.hit_indices) / trials
        sigma = math.sqrt(p * (1.0 - p) / trials)
        assert abs(empirical - p) <= 3.0 * sigma, (
            f"{estimator.kind.value}: empirical {empirical:.5f} vs {p:.5f} (3 sigma {3 * sigma:.5f})"
        )
        rates[estimator.kind.value] = empirical
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    summary = ", ".join(f"{kind} {rate:.4f}" for kind, rate in rates.items())
    print(f"ACCEPTANCE 7 PASS: hit rates within 3 sigma of hypergeometric {p:.4f} ({summary}; {elapsed:.1f}s)")


def test_criterion_8_determinism_and_round_trips(capsys, tmp_path):
    started = time.perf_counter()
    argv = ["backtest", "--game", "set", "--pool", "52", "--picks", "6",
            "--draws", "500", "--seed", "12", "--threshold", "2", "--format", "json"]
    assert main(list(argv)) == 0
    first = capsys.readouterr().out
    assert main(list(argv)) == 0
    second = capsys.readouterr().out
    assert first.encode() == second.encode()

    history = synthetic_history(SIX_52, 300, seed=12)
    text = serialize_history(history)
    assert parse_history(text, SIX_52) == history
    assert serialize_history(parse_history(text, SIX_52)) == text

    report = tmp_path / "backtest.json"
    report.write_text(first, encoding="utf-8")
    gaps = json.loads(first)["gaps"]
    assert main(["simulate", "--gaps-file", str(report), "--format", "json"]) == 0
    streams = json.loads(capsys.readouterr().out)["streams"]
    assert [s["gap_draws"] for s in streams] == gaps
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(f"ACCEPTANCE 8 PASS: byte-identical reruns, CSV and JSON round trips ({elapsed:.3f}s)")
