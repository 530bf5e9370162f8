"""Command-line front end: synthesize histories, predict, backtest, simulate.

Subcommands:

    synth      write a uniform-random draw history as CSV
    predict    fit each requested estimator on a history, print the next combination
    backtest   walk a history, score predictions, report hits, gaps and stretches
    simulate   replay the quarterly staking plan over hit gaps

Each flag is declared once, in :func:`build_parser`, with its converter
and default.  Flag values may also come from a ``key=value`` config file
(``--config``): :func:`parse_args` turns its values into the subcommand's
defaults, so explicit flags win over file values and file values win
over defaults.  The effective configuration is echoed in JSON output.
Exit codes: 0 success, 1 model or runtime failure, 2 usage or validation
problems.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .backtest import (
    ALTERNATION_NOTE,
    BacktestConfig,
    BacktestError,
    BacktestResult,
    classify_stretches,
    extrapolate_gaps,
    gap_stats,
    render_comparison,
    run_backtest,
    select_combination,
)
from .distributions import predictive_expectation
from .estimators import EstimationError, EstimatorConfig, EstimatorKind, estimate_alpha
from .ingest import (
    SYNTH_GENERATOR,
    DrawHistory,
    GameKind,
    GameSpec,
    build_count_matrices,
    is_digits,
    parse_history,
    serialize_history,
    slice_window,
    synthetic_history,
)
from .strategy import (
    AccountingMode,
    CapExceededError,
    ExtensionRule,
    StrategyConfig,
    format_cents,
    ledger_to_dict,
    render_ledger,
    required_budget,
    simulate_stream,
    simulate_streams,
    summarize_streams,
)

__all__ = ["main", "build_parser", "parse_args"]

# Namespace entries that steer parsing and dispatch rather than the run.
_INTERNAL_KEYS = ("command", "func", "config")


class CliError(Exception):
    """Usage or validation problem surfaced with exit code 2."""


def _parse_count(text: str) -> int:
    """A nonnegative integer of ASCII digits, the rule history files follow."""
    if not is_digits(text.strip()):
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer of ASCII digits, got {text!r}")
    return int(text)


def _parse_window(text: str):
    if text.lower() == "all":
        return "all"
    if not is_digits(text.strip()) or int(text) < 1:
        raise argparse.ArgumentTypeError("window must be a positive integer or 'all'")
    return int(text)


def _parse_game(text: str) -> str:
    if text not in ("set", "pick"):
        raise argparse.ArgumentTypeError("game must be 'set' or 'pick'")
    return text


def _parse_format(text: str) -> str:
    if text not in ("text", "json"):
        raise argparse.ArgumentTypeError("format must be 'text' or 'json'")
    return text


def _parse_int_list(text: str) -> tuple[int, ...]:
    values = tuple(_parse_count(tok) for tok in text.replace(",", " ").split())
    if not values:
        raise argparse.ArgumentTypeError("expected at least one integer")
    return values


def _parse_extension(text: str) -> ExtensionRule:
    if text == "min-recover":
        return ExtensionRule.min_recover()
    if text.startswith("ratio:"):
        try:
            return ExtensionRule.fixed_ratio(text.partition(":")[2])
        except (ValueError, ZeroDivisionError):
            raise argparse.ArgumentTypeError(f"bad ratio in {text!r}") from None
    raise argparse.ArgumentTypeError("extension must be 'min-recover' or 'ratio:R'")


def _parse_estimators(text: str) -> tuple[EstimatorKind, ...]:
    try:
        kinds = tuple(EstimatorKind(token) for token in text.replace(",", " ").split())
    except ValueError:
        raise argparse.ArgumentTypeError(f"unknown estimator in {text!r}; choose from md, mm, mle") from None
    if not kinds:
        raise argparse.ArgumentTypeError("no estimator given")
    return kinds


def _parse_smoothing(text: str) -> float:
    """A smoothing value under ``EstimatorConfig``'s rule: finite and
    nonnegative, checked here because a hits replay builds no config."""
    try:
        return EstimatorConfig(EstimatorKind.MLE, mle_smoothing=float(text)).mle_smoothing
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_money(text: str) -> int:
    try:
        amount = float(text) * 100
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a dollar amount, got {text!r}") from None
    if not math.isfinite(amount):
        raise argparse.ArgumentTypeError(f"dollar amounts must be finite, got {text!r}")
    cents = round(amount)
    if cents <= 0:
        raise argparse.ArgumentTypeError("dollar amounts must be positive")
    return cents


def _load_config_file(path: str) -> dict[str, str]:
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except FileNotFoundError:
        raise CliError(f"config file not found: {path}") from None
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise CliError(f"{path}:{lineno}: expected key=value")
        out[key.strip().lower().replace("-", "_")] = value.strip()
    return out


def _game_spec(cfg: dict) -> GameSpec:
    if cfg["game"] != "pick":
        if cfg["pool"] is None or cfg["picks"] is None:
            raise CliError("set games need --pool and --picks")
        return GameSpec(GameKind.SET_DRAW, cfg["pool"], cfg["picks"])
    if cfg["picks"] is None:
        raise CliError("pick games need --picks")
    if cfg["pool"] not in (None, 10):
        raise CliError("pick games draw from the 10 digits; --pool must be 10 or omitted")
    return GameSpec(GameKind.POSITIONAL_DIGITS, 10, cfg["picks"])


def _window_arg(value) -> int | None:
    return None if value in (None, "all") else value


def _load_history(cfg: dict, spec: GameSpec) -> DrawHistory:
    if cfg["input"] is not None:
        path = Path(cfg["input"])
        if not path.exists():
            raise CliError(f"input file not found: {path}")
        with open(path, encoding="utf-8-sig") as handle:
            return parse_history(handle, spec)
    if cfg.get("draws") is not None:
        return synthetic_history(spec, cfg["draws"], cfg["seed"])
    raise CliError("provide --input PATH, or --draws N with --seed for a synthetic history")


def _emit(text: str, cfg: dict) -> None:
    if cfg["output"]:
        Path(cfg["output"]).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _json_dumps(document: dict) -> str:
    return json.dumps(document, sort_keys=True, indent=2) + "\n"


def _echo_value(value):
    """A setting in the form the JSON echo prints it."""
    if isinstance(value, ExtensionRule):
        return value.kind.value if value.ratio is None else f"ratio:{value.ratio}"
    if isinstance(value, AccountingMode):
        return value.value
    if isinstance(value, tuple):
        if value and isinstance(value[0], EstimatorKind):
            return ",".join(kind.value for kind in value)
        return list(value)
    return value


def _config_echo(cfg: dict, spec: GameSpec | None = None) -> dict:
    echo = {key: _echo_value(value) for key, value in cfg.items()}
    if spec is not None:
        echo["game"] = spec.kind.value
        echo["pool"] = spec.categories
        echo["picks"] = spec.picks
    return echo


# ---------------------------------------------------------------------------
# synth


def cmd_synth(cfg: dict) -> int:
    if cfg["draws"] is None:
        raise CliError("synth needs --draws")
    spec = _game_spec(cfg)
    history = synthetic_history(spec, cfg["draws"], cfg["seed"])
    csv_text = serialize_history(history)
    if not cfg["output"]:
        sys.stdout.write(csv_text)
        return 0
    Path(cfg["output"]).write_text(csv_text, encoding="utf-8")
    if cfg["format"] == "json":
        document = {
            "config": _config_echo(cfg, spec),
            "generator": SYNTH_GENERATOR,
            "rows": len(history.records),
        }
        sys.stdout.write(_json_dumps(document))
    else:
        print(
            f"wrote {len(history.records)} draws to {cfg['output']}"
            f" (generator={SYNTH_GENERATOR}, seed={cfg['seed']})"
        )
    return 0


# ---------------------------------------------------------------------------
# predict


def cmd_predict(cfg: dict) -> int:
    spec = _game_spec(cfg)
    history = _load_history(cfg, spec)
    if not history.records:
        raise CliError("history is empty")
    matrices = build_count_matrices(history)
    window = _window_arg(cfg["window"])
    n = len(history.records)
    if window is not None and window > n:
        raise CliError(f"window {window} exceeds the {n} available draws")
    windows = [slice_window(m, n, window) for m in matrices]
    per_matrix_picks = spec.picks if spec.kind is GameKind.SET_DRAW else 1

    predictions = []
    for kind in cfg["estimator"]:
        est = EstimatorConfig(kind, mle_smoothing=cfg["smoothing"])
        vectors = [
            predictive_expectation(estimate_alpha(w, est), w.col_sums, per_matrix_picks)
            for w in windows
        ]
        combo = select_combination(vectors[0] if spec.kind is GameKind.SET_DRAW else vectors, spec)
        predictions.append((kind, combo))

    if cfg["format"] == "json":
        document = {
            "config": _config_echo(cfg, spec),
            "predictions": [
                {
                    "estimator": kind.value,
                    "numbers": list(combo.numbers),
                    "scores": [[float(x) for x in vec] for vec in combo.scores],
                }
                for kind, combo in predictions
            ],
        }
        _emit(_json_dumps(document), cfg)
    else:
        lines = render_comparison([(kind.value, combo.numbers) for kind, combo in predictions])
        _emit("\n".join(lines) + "\n", cfg)
    return 0


# ---------------------------------------------------------------------------
# backtest


def _gap_report(hit_indices) -> dict:
    """Hit indices, gap statistics and stretch labels: the fields that
    backtest and hits-replay documents share."""
    stats = gap_stats(hit_indices)
    stretch = classify_stretches(stats.gaps)
    return {
        "hit_indices": list(hit_indices),
        "gaps": list(stats.gaps),
        "average_gap": stats.average,
        "max_gap": stats.max_gap,
        "stretch": {
            "cutoff": stretch.cutoff,
            "labels": list(stretch.labels),
            "alternation_fraction": stretch.alternation_fraction,
            "note": ALTERNATION_NOTE,
        },
    }


def _gap_lines(report: dict) -> list[str]:
    lines = [
        "hit indices: " + (", ".join(str(i) for i in report["hit_indices"]) or "none"),
        "gaps: " + (", ".join(str(g) for g in report["gaps"]) or "none"),
    ]
    average = report["average_gap"]
    if average is not None:
        lines.append(f"average gap: {average:.3f} (rounded {round(average)})")
        lines.append(f"max gap: {report['max_gap']}")
    return lines


def _stretch_lines(report: dict) -> list[str]:
    stretch = report["stretch"]
    lines = []
    if stretch["labels"]:
        lines.append(f"stretches (cutoff {stretch['cutoff']}): {' '.join(stretch['labels'])}")
    if stretch["alternation_fraction"] is not None:
        lines.append(f"alternation fraction: {stretch['alternation_fraction']:.4f}")
        lines.append(f"note: {stretch['note']}")
    return lines


def _tier_gap_report(result: BacktestResult, picks: int) -> tuple[dict[int, float], dict[int, float]]:
    """Average gap per minimum match count, plus log-linear projections for
    the counts with too few hits to measure.

    One pass over the match counts keeps each tier's first and last hit and
    its hit count; successive gaps telescope, so their average is
    ``(last - first) / (hits - 1)``.
    """
    first: dict[int, int] = {}
    last: dict[int, int] = {}
    hits = [0] * (picks + 1)
    for r in result.records:
        for tier in range(1, r.match_count + 1):
            first.setdefault(tier, r.draw_index)
            last[tier] = r.draw_index
            hits[tier] += 1
    tiers = range(1, picks + 1)
    observed = {t: (last[t] - first[t]) / (hits[t] - 1) for t in tiers if hits[t] >= 2}
    missing = [t for t in tiers if hits[t] < 2]
    projections: dict[int, float] = {}
    if len(observed) >= 2 and missing:
        projections = extrapolate_gaps(observed, missing)
    return observed, projections


def _backtest_text(result: BacktestResult, spec: GameSpec, cfg: dict, report: dict) -> str:
    lines = []
    window = _window_arg(cfg["window"])
    lines.append(
        f"game: {spec.kind.value} (pool {spec.categories}, picks {spec.picks});"
        f" estimator {cfg['estimator']}; window {'all' if window is None else window};"
        f" warmup {result.warmup}; threshold {result.hit_threshold}"
    )
    lines.append(f"predicted draws: {len(result.records)}; hits: {result.hit_count}")
    for r in result.records:
        if r.match_count >= result.hit_threshold:
            lines.append(f"draw {r.draw_index} (matched {r.match_count}):")
            comparison = render_comparison([(cfg["estimator"], r.prediction)], r.actual)
            lines.extend("  " + line for line in comparison)
    lines.extend(_gap_lines(report))
    tiers = ", ".join(f"{k}: {v}" for k, v in sorted(result.tier_counts.items()))
    lines.append(f"match-count histogram: {tiers}")
    lines.extend(_stretch_lines(report))
    observed, projections = _tier_gap_report(result, spec.picks)
    if observed:
        lines.append("average gap by minimum match count:")
        for tier, gap in sorted(observed.items()):
            lines.append(f"  >={tier}: {gap:.1f} draws")
        for tier, gap in sorted(projections.items()):
            lines.append(f"  >={tier}: {gap:.1f} draws [PROJECTION]")
    return "\n".join(lines) + "\n"


def _hits_replay(cfg: dict) -> int:
    """Gap statistics for a precomputed hit-index list, no model walk."""
    if cfg["hits"] is not None:
        indices = list(cfg["hits"])
    else:
        path = Path(cfg["hits_file"])
        if not path.exists():
            raise CliError(f"hits file not found: {path}")
        indices = _read_int_series(path, "hit_indices")
    report = _gap_report(indices)
    if cfg["format"] == "json":
        _emit(_json_dumps({"config": _config_echo(cfg), **report}), cfg)
    else:
        _emit("\n".join(_gap_lines(report) + _stretch_lines(report)) + "\n", cfg)
    return 0


def cmd_backtest(cfg: dict) -> int:
    if cfg["hits"] is not None or cfg["hits_file"] is not None:
        return _hits_replay(cfg)

    spec = _game_spec(cfg)
    history = _load_history(cfg, spec)
    kinds = cfg["estimator"] or (EstimatorKind.MOM,)
    if len(kinds) != 1:
        raise CliError("backtest runs one estimator at a time; repeat the command per estimator")
    cfg["estimator"] = kinds[0].value
    config = BacktestConfig(
        estimator=EstimatorConfig(kinds[0], mle_smoothing=cfg["smoothing"]),
        window=_window_arg(cfg["window"]),
        warmup=cfg["warmup"],
        hit_threshold=cfg["threshold"],
    )
    result = run_backtest(history, config)
    report = _gap_report(result.hit_indices)

    if cfg["format"] == "json":
        observed, projections = _tier_gap_report(result, spec.picks)
        document = {
            "config": _config_echo(cfg, spec),
            **result.to_dict(),
            **report,
            "tier_average_gaps": {str(k): v for k, v in sorted(observed.items())},
            "projected_gaps": {str(k): v for k, v in sorted(projections.items())},
        }
        _emit(_json_dumps(document), cfg)
    else:
        _emit(_backtest_text(result, spec, cfg, report), cfg)
    return 0


# ---------------------------------------------------------------------------
# simulate


def _read_int_series(path: Path, field: str) -> list[int]:
    """Integers from a JSON document (its ``field`` list, or a bare list) or
    whitespace/comma-separated text."""
    text = path.read_text(encoding="utf-8")
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        try:
            return [_parse_count(tok) for tok in text.replace(",", " ").split()]
        except argparse.ArgumentTypeError:
            raise CliError(f"{path}: expected JSON or an integer list") from None
    if isinstance(data, dict):
        if field not in data:
            raise CliError(f"{path}: JSON document has no {field!r} field")
        data = data[field]
    # The text path's rule: bool is an int subclass, and counts are nonnegative.
    if not isinstance(data, list) or not all(type(v) is int and v >= 0 for v in data):
        raise CliError(f"{path}: expected a list of nonnegative integers")
    return data


def _strategy_config(cfg: dict) -> StrategyConfig:
    return StrategyConfig(
        ticket_price_cents=cfg["ticket_price"],
        payout_per_ticket_cents=cfg["payout"],
        quarter_days=cfg["quarter_days"],
        schedule=cfg["schedule"],
        extension=cfg["extension"],
        accounting=cfg["accounting"],
    )


def cmd_simulate(cfg: dict) -> int:
    sources = [cfg["gaps"] is not None, cfg["gaps_file"] is not None, cfg["no_win_horizon"] is not None]
    if sum(sources) != 1:
        raise CliError("provide exactly one of --gaps, --gaps-file, --no-win-horizon")
    config = _strategy_config(cfg)

    if cfg["no_win_horizon"] is not None:
        gaps: list[int] = []
        summary = summarize_streams([simulate_stream(None, config, horizon_days=cfg["no_win_horizon"])])
    else:
        gaps = list(cfg["gaps"] if cfg["gaps"] is not None else _read_int_series(Path(cfg["gaps_file"]), "gaps"))
        summary = simulate_streams(gaps, config)
    streams = summary.streams

    budget = required_budget(max(gaps), config) if gaps else None

    if cfg["format"] == "json":
        document = {
            "config": _config_echo(cfg),
            "streams": [
                {**({"gap_draws": g} if g is not None else {}), **ledger_to_dict(ledger)}
                for g, ledger in zip(gaps or [None] * len(streams), streams)
            ],
            "aggregate": {
                "total_spend_cents": summary.total_spend_cents,
                "total_payout_cents": summary.total_payout_cents,
                "profit_cents": summary.profit_cents,
                "max_drawdown_cents": summary.max_drawdown_cents,
                "required_budget_cents": budget,
            },
        }
        _emit(_json_dumps(document), cfg)
        return 0

    lines: list[str] = []
    for i, ledger in enumerate(streams):
        title = f"stream {i + 1}" + (f": gap {gaps[i]} draws" if gaps else ": no win")
        lines.extend(render_ledger(ledger, title))
        lines.append("")
    lines.append(
        f"aggregate: streams {len(streams)},"
        f" spend {format_cents(summary.total_spend_cents)},"
        f" payout {format_cents(summary.total_payout_cents)},"
        f" profit {format_cents(summary.profit_cents)},"
        f" max drawdown {format_cents(summary.max_drawdown_cents)}"
    )
    if budget is not None:
        lines.append(f"required budget for the longest gap ({max(gaps)} draws): {format_cents(budget)}")
    lines.append("note: each player plays one combination per draw; the 21-combination per-player cap is not binding")
    _emit("\n".join(lines) + "\n", cfg)
    return 0


# ---------------------------------------------------------------------------
# parser


# The staking flags default to the library's plan.
_PLAN = StrategyConfig()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdmlotto",
        description="Dirichlet-multinomial draw prediction, backtesting, and staking simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="key=value file supplying defaults for any flag")
        p.add_argument("--format", type=_parse_format, default="text", help="text or json (default text)")
        p.add_argument("--output", help="write the report to this path instead of stdout")

    def add_game(p: argparse.ArgumentParser) -> None:
        p.add_argument("--game", type=_parse_game, help="set or pick (default set)")
        p.add_argument("--pool", type=_parse_count, help="pool size for set games (pick games use the 10 digits)")
        p.add_argument("--picks", type=_parse_count, help="numbers per draw (set) or digit positions (pick)")

    p = sub.add_parser("synth", help="write a uniform-random history as CSV")
    add_common(p)
    add_game(p)
    p.add_argument("--draws", type=_parse_count, help="number of draws to generate")
    p.add_argument("--seed", type=_parse_count, default=0, help="generator seed (default 0)")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("predict", help="print the next combination per estimator")
    add_common(p)
    add_game(p)
    p.add_argument("--input", help="draw-history CSV path")
    p.add_argument("--estimator", type=_parse_estimators,
                   default=(EstimatorKind.MAIN_DIAGONAL, EstimatorKind.MOM),
                   help="md, mm or mle; comma-separate several (default md,mm)")
    p.add_argument("--smoothing", type=_parse_smoothing, default=0.0, help="additive smoothing for the mle estimator")
    p.add_argument("--window", type=_parse_window, help="fit on the last N draws, or 'all'")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("backtest", help="walk a history and report hits, gaps and stretches")
    add_common(p)
    add_game(p)
    p.add_argument("--input", help="draw-history CSV path")
    p.add_argument("--draws", type=_parse_count, help="generate a synthetic history of this many draws instead")
    p.add_argument("--seed", type=_parse_count, default=0, help="seed for the synthetic history (default 0)")
    p.add_argument("--estimator", type=_parse_estimators, help="md, mm or mle (default mm)")
    p.add_argument("--smoothing", type=_parse_smoothing, default=0.0, help="additive smoothing for the mle estimator")
    p.add_argument("--window", type=_parse_window, help="fit on the last N draws, or 'all'")
    p.add_argument("--warmup", type=_parse_count, help="draws to observe before the first prediction")
    p.add_argument("--threshold", type=_parse_count, help="minimum match count that counts as a hit")
    p.add_argument("--hits", type=_parse_int_list,
                   help="skip the model walk and report gap statistics for these hit indices")
    p.add_argument("--hits-file", dest="hits_file",
                   help="like --hits, read from a backtest JSON document (its 'hit_indices') or an integer list file")
    p.set_defaults(func=cmd_backtest)

    p = sub.add_parser("simulate", help="replay the quarterly staking plan over hit gaps")
    add_common(p)
    p.add_argument("--gaps", type=_parse_int_list, help="comma-separated draw gaps between hits")
    p.add_argument("--gaps-file", dest="gaps_file",
                   help="backtest JSON document (its 'gaps' field) or an integer list file")
    p.add_argument("--no-win-horizon", dest="no_win_horizon", type=_parse_count,
                   help="simulate a single stream that never wins for this many days")
    p.add_argument("--ticket-price", dest="ticket_price", type=_parse_money, default=_PLAN.ticket_price_cents,
                   help="dollars per ticket (default 1)")
    p.add_argument("--payout", type=_parse_money, default=_PLAN.payout_per_ticket_cents,
                   help="dollars per winning ticket (default 500)")
    p.add_argument("--quarter-days", dest="quarter_days", type=_parse_count, default=_PLAN.quarter_days,
                   help="days per quarter (default 60)")
    p.add_argument("--schedule", type=_parse_int_list, default=_PLAN.schedule,
                   help="players per quarter (default 1,2,5,12)")
    p.add_argument("--extension", type=_parse_extension, default=_PLAN.extension,
                   help="min-recover or ratio:R (default min-recover)")
    p.add_argument("--accounting", type=AccountingMode, default=_PLAN.accounting,
                   help="paper or exact (default paper)")
    p.set_defaults(func=cmd_simulate)
    return parser


def parse_args(argv=None) -> argparse.Namespace:
    """Parse the command line; with ``--config``, parse it a second time.

    The file's values become the subcommand's defaults, each converted by
    its flag's ``type``, so explicit flags still win.  Keys the subcommand
    does not use are ignored so one file can serve several subcommands.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config is None:
        return args
    file_cfg = _load_config_file(args.config)
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    command = sub.choices[args.command]
    defaults = {}
    for action in command._actions:
        if action.dest in file_cfg and action.dest not in ("help", "config"):
            try:
                defaults[action.dest] = (action.type or str)(file_cfg[action.dest])
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise CliError(f"config value for {action.dest!r}: {exc}") from None
    command.set_defaults(**defaults)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    try:
        args = parse_args(argv)
        return args.func({k: v for k, v in vars(args).items() if k not in _INTERNAL_KEYS})
    except SystemExit as exc:  # argparse has printed usage or help
        return int(exc.code or 0)
    # EstimationError is a ValueError, so this clause must come first.
    except (EstimationError, BacktestError, CapExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
