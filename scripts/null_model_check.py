#!/usr/bin/env python3
"""Estimator hit rates on uniform synthetic histories vs the exact null.

On exchangeable data no prediction rule can beat chance: for a set game
the per-draw probability of matching at least t numbers is hypergeometric
whatever combination is played.  This experiment backtests every
estimator on a seeded uniform history and prints the empirical rate next
to the exact value with a three-sigma band.
"""

import argparse
import math

from cdmlotto.backtest import run_backtest
from cdmlotto.estimators import EstimatorConfig, EstimatorKind
from cdmlotto.ingest import GameKind, GameSpec, synthetic_history


def hypergeometric_at_least(threshold: int, picks: int, pool: int) -> float:
    total = math.comb(pool, picks)
    below = sum(
        math.comb(picks, m) * math.comb(pool - picks, picks - m) for m in range(threshold)
    )
    return 1.0 - below / total


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pool", type=int, default=52)
    parser.add_argument("--picks", type=int, default=6)
    parser.add_argument("--draws", type=int, default=20_000)
    parser.add_argument("--seed", type=int, default=414)
    parser.add_argument("--threshold", type=int, default=2)
    parser.add_argument("--smoothing", type=float, default=1.0,
                        help="additive smoothing for the mle estimator: the log of a zero entry is undefined, "
                             "so it must be positive on 0/1 draw matrices")
    args = parser.parse_args()

    spec = GameSpec(GameKind.SET_DRAW, args.pool, args.picks)
    history = synthetic_history(spec, args.draws, args.seed)
    expected = hypergeometric_at_least(args.threshold, args.picks, args.pool)

    estimators = [
        EstimatorConfig(EstimatorKind.MAIN_DIAGONAL),
        EstimatorConfig(EstimatorKind.MOM),
        EstimatorConfig(EstimatorKind.MLE, mle_smoothing=args.smoothing),
    ]
    print(f"uniform {args.picks}-of-{args.pool}, {args.draws} draws, seed {args.seed}, "
          f"threshold {args.threshold}")
    print(f"exact P(match >= {args.threshold}) = {expected:.6f}")
    print(f"{'estimator':<12} {'hits':>6} {'trials':>7} {'rate':>9} {'z':>7}")
    for estimator in estimators:
        result = run_backtest(history, estimator, hit_threshold=args.threshold)
        trials = len(result.match_counts)
        hits = len(result.hit_indices)
        rate = hits / trials
        sigma = math.sqrt(expected * (1 - expected) / trials)
        z = (rate - expected) / sigma
        print(f"{estimator.kind.value:<12} {hits:>6} {trials:>7} {rate:>9.5f} {z:>7.2f}")
    print("|z| <= 3 is consistent with chance; the model has no edge on exchangeable data")


if __name__ == "__main__":
    main()
