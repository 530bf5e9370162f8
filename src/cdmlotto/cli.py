"""Command-line front end: synthesize histories, predict, backtest, simulate.

Subcommands:

    synth      write a uniform-random draw history as CSV
    predict    fit each requested estimator on a history, print the next combination
    backtest   walk a history, score predictions, report hits, gaps and stretches
    simulate   replay the quarterly staking plan over hit gaps

:func:`build_parser` declares the flags with their converters and defaults;
``--input``, ``--estimator``, ``--smoothing``, ``--window``, ``--draws`` and
``--seed`` are declared per subcommand.  The hits replay echoes backtest's
estimator and the game as null, so their defaults (mm, set) are applied in
:func:`cmd_backtest` and :func:`_game_spec`.  A ``--config`` file of
``key=value`` lines supplies defaults through :func:`parse_args`: explicit
flags win over file values, file values over defaults, and JSON output
echoes the effective configuration.  Integers are ASCII digits, as in
history files; dollar amounts, ratios and smoothing share
:func:`_parse_decimal`'s exact decimal grammar.  Exit codes: 0 success,
1 model or runtime failure, 2 usage or validation problems.
"""

from __future__ import annotations

import argparse
import codecs
import json
import os
import re
import sys
from fractions import Fraction
from pathlib import Path

from .backtest import (
    BacktestError,
    BacktestResult,
    gap_report,
    predict_next,
    render_comparison,
    run_backtest,
)
from .estimators import EstimationError, EstimatorConfig, EstimatorKind
from .ingest import (
    SYNTH_GENERATOR,
    DrawHistory,
    GameKind,
    GameSpec,
    _quoted,
    is_digits,
    parse_history,
    serialize_history,
    synthetic_history,
)
from .jsondoc import ITEM_SEPARATOR, compact, document
from .strategy import (
    AccountingMode,
    CapExceededError,
    StrategyConfig,
    format_cents,
    ledger_to_dict,
    render_ledger,
    required_budget,
    simulate_stream,
    simulate_streams,
)

__all__ = ["main", "build_parser", "parse_args"]

# Namespace entries that steer parsing and dispatch rather than the run.
_INTERNAL_KEYS = ("command", "func", "config")


class CliError(Exception):
    """Usage or validation problem surfaced with exit code 2."""


def _parse_count(text: str) -> int:
    """A nonnegative integer of ASCII digits, the rule history files follow."""
    if not is_digits(text.strip()):
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer of ASCII digits, got {_quoted(text)}")
    try:
        return int(text)
    except ValueError:  # more digits than int() converts
        raise argparse.ArgumentTypeError(f"an integer of {len(text.strip())} digits is too long to read") from None


_DECIMAL = re.compile(r"(?=\.?[0-9])[0-9]*(?:\.[0-9]*)?(?:[eE][-+]?[0-9]+)?")


def _parse_decimal(text: str, what: str) -> Fraction:
    """The exact value of ASCII digits, an optional ``.fraction`` and ``e`` exponent, padded by
    whitespace.  Unless zero, it must read as a finite nonzero float, so no huge power of ten is built."""
    digits = text.strip()
    if not _DECIMAL.fullmatch(digits):
        raise argparse.ArgumentTypeError(f"{what} must be an unsigned decimal of ASCII digits, got {_quoted(text)}")
    value = float(digits)
    if value in (0, float("inf")) and digits.lower().partition("e")[0].strip("0."):
        raise argparse.ArgumentTypeError(f"{what} {_quoted(text)} is out of range")
    try:
        return Fraction(digits) if value else Fraction(0)
    except ValueError:  # more digits than int() converts
        raise argparse.ArgumentTypeError(f"a {what} of {len(digits)} characters is too long to read") from None


def _parse_window(text: str):
    """'all', or a positive integer under :func:`_parse_count`'s rule."""
    if text.lower() == "all":
        return "all"
    window = _parse_count(text) if is_digits(text.strip()) else 0
    if window < 1:
        raise argparse.ArgumentTypeError("window must be a positive integer or 'all'")
    return window


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


def _parse_extension(text: str) -> Fraction | None:
    """The extension ratio, or None for min-recover."""
    if text == "min-recover":
        return None
    if text.startswith("ratio:"):
        parts = [_parse_decimal(part, "ratio") for part in text.partition(":")[2].split("/", 1)]  # R or N/D
        if not all(parts):  # the parts are nonnegative: a zero leaves no positive ratio
            raise argparse.ArgumentTypeError(f"bad ratio in {_quoted(text)}")
        return Fraction(*parts)
    raise argparse.ArgumentTypeError("extension must be 'min-recover' or 'ratio:R'")


def _parse_estimators(text: str) -> tuple[EstimatorKind, ...]:
    try:
        kinds = tuple(EstimatorKind(token) for token in text.replace(",", " ").split())
    except ValueError:
        raise argparse.ArgumentTypeError(f"unknown estimator in {_quoted(text)}; choose from md, mm, mle") from None
    if not kinds:
        raise argparse.ArgumentTypeError("no estimator given")
    return kinds


def _parse_smoothing(text: str) -> float:
    """Finite and nonnegative by the grammar, as ``EstimatorConfig`` requires."""
    return float(_parse_decimal(text, "smoothing"))


def _parse_money(text: str) -> int:
    """Dollars as integer cents, read exactly: never rounded."""
    cents = _parse_decimal(text, "dollar amount") * 100
    if cents <= 0:
        raise argparse.ArgumentTypeError("dollar amounts must be positive")
    if cents.denominator != 1:
        raise argparse.ArgumentTypeError(f"dollar amounts must be a whole number of cents, got {_quoted(text)}")
    return cents.numerator


def _read_text(path: str | Path, role: str) -> str:
    """A ``utf-8-sig`` file's text with every line ending read as ``"\\n"``,
    as a text-mode read gives it.  A missing file, or a byte that is not
    UTF-8, is a usage error naming the file (and the line, counted at LF,
    CRLF or CR as the history parser counts)."""
    try:
        data = Path(path).read_bytes().removeprefix(codecs.BOM_UTF8)
    except FileNotFoundError:
        raise CliError(f"{role} file not found: {path}") from None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = len(data[: exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n").split(b"\n"))
        raise CliError(f"{path}: line {lineno}: byte 0x{data[exc.start]:02x} is not UTF-8 ({exc.reason})") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _load_config_file(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    # str.splitlines would also break at form feeds, U+2028 and other
    # characters a line may hold.
    for lineno, raw in enumerate(_read_text(path, "config").split("\n"), start=1):
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
        return parse_history(_read_text(Path(cfg["input"]), "input"), spec)
    if cfg.get("draws") is not None:
        return synthetic_history(spec, cfg["draws"], cfg["seed"])
    synthetic = ", or --draws N with --seed for a synthetic history" if "draws" in cfg else ""
    raise CliError(f"provide --input PATH{synthetic}")


def _emit(text: str, cfg: dict) -> None:
    if cfg["output"]:
        Path(cfg["output"]).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _echo_value(value):
    """A setting in the form the JSON echo prints it."""
    if isinstance(value, AccountingMode):
        return value.value
    if isinstance(value, tuple):
        if value and isinstance(value[0], EstimatorKind):
            return ",".join(kind.value for kind in value)
        return list(value)
    return value


def _config_echo(cfg: dict, spec: GameSpec | None = None) -> dict:
    echo = {key: _echo_value(value) for key, value in cfg.items()}
    if "extension" in cfg:
        echo["extension"] = "min-recover" if cfg["extension"] is None else f"ratio:{cfg['extension']}"
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
    if cfg["format"] == "json" and not cfg["output"]:
        raise CliError("synth --format json needs --output: the JSON document describes the CSV written there")
    spec = _game_spec(cfg)
    history = synthetic_history(spec, cfg["draws"], cfg["seed"])
    csv_text = serialize_history(history)
    if not cfg["output"]:
        sys.stdout.write(csv_text)
        return 0
    Path(cfg["output"]).write_text(csv_text, encoding="utf-8")
    if cfg["format"] == "json":
        fields = {"config": _config_echo(cfg, spec), "generator": SYNTH_GENERATOR, "rows": len(history)}
        sys.stdout.write(document(fields))
    else:
        print(
            f"wrote {len(history)} draws to {cfg['output']}"
            f" (generator={SYNTH_GENERATOR}, seed={cfg['seed']})"
        )
    return 0


# ---------------------------------------------------------------------------
# predict


def cmd_predict(cfg: dict) -> int:
    spec = _game_spec(cfg)
    history = _load_history(cfg, spec)
    estimators = [EstimatorConfig(kind, mle_smoothing=cfg["smoothing"]) for kind in cfg["estimator"]]
    predictions = list(zip(cfg["estimator"], predict_next(history, estimators, _window_arg(cfg["window"]))))

    if cfg["format"] == "json":
        items = [compact({"estimator": kind.value, "numbers": list(combo.numbers),
                          "scores": [vec.tolist() for vec in combo.scores]}) for kind, combo in predictions]
        _emit(document({"config": _config_echo(cfg, spec)}, {"predictions": ITEM_SEPARATOR.join(items)}), cfg)
    else:
        lines = render_comparison([(kind.value, combo.numbers) for kind, combo in predictions])
        _emit("\n".join(lines) + "\n", cfg)
    return 0


# ---------------------------------------------------------------------------
# backtest


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


def _backtest_text(result: BacktestResult, spec: GameSpec, cfg: dict) -> str:
    summary = result.summary()
    lines = []
    window = _window_arg(cfg["window"])
    lines.append(
        f"game: {spec.kind.value} (pool {spec.categories}, picks {spec.picks});"
        f" estimator {cfg['estimator']}; window {'all' if window is None else window};"
        f" warmup {result.warmup}; threshold {result.hit_threshold}"
    )
    lines.append(f"predicted draws: {len(result.match_counts)}; hits: {summary['hit_count']}")
    hit = result.match_counts >= result.hit_threshold
    columns = (result.draw_indices, result.match_counts, result.predictions, result.actuals)
    for t, matches, prediction, actual in zip(*(column[hit].tolist() for column in columns)):
        lines.append(f"draw {t} (matched {matches}):")
        lines.extend("  " + line for line in render_comparison([(cfg["estimator"], prediction)], actual))
    lines.extend(_gap_lines(summary))
    tiers = ", ".join(f"{k}: {v}" for k, v in summary["tier_counts"].items())
    lines.append(f"match-count histogram: {tiers}")
    lines.extend(_stretch_lines(summary))
    if summary["tier_average_gaps"]:
        lines.append("average gap by minimum match count:")
        for tier, gap in summary["tier_average_gaps"].items():
            lines.append(f"  >={tier}: {gap:.1f} draws")
        for tier, gap in summary["projected_gaps"].items():
            lines.append(f"  >={tier}: {gap:.1f} draws [PROJECTION]")
    return "\n".join(lines) + "\n"


def _hits_replay(cfg: dict) -> int:
    """Gap statistics for a precomputed hit-index list, no model walk."""
    if cfg["hits"] is not None and cfg["hits_file"] is not None:
        raise CliError("provide exactly one of --hits, --hits-file")
    hits = cfg["hits"]
    if hits is None:
        hits = _read_int_series(Path(cfg["hits_file"]), "hit_indices", "hits")
    report = gap_report(hits)
    if cfg["format"] == "json":
        _emit(document({"config": _config_echo(cfg), **report}), cfg)
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
    result = run_backtest(history, EstimatorConfig(kinds[0], mle_smoothing=cfg["smoothing"]),
                          window=_window_arg(cfg["window"]), warmup=cfg["warmup"], hit_threshold=cfg["threshold"])
    if cfg["format"] == "json":
        _emit(result.to_json({"config": _config_echo(cfg, spec)}), cfg)
    else:
        _emit(_backtest_text(result, spec, cfg), cfg)
    return 0


# ---------------------------------------------------------------------------
# simulate


def _read_int_series(path: Path, field: str, role: str) -> list[int]:
    """Integers from a JSON document (its ``field`` list, a bare list or one
    bare integer) or whitespace/comma-separated text."""
    text = _read_text(path, role)
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        try:
            return [_parse_count(tok) for tok in text.replace(",", " ").split()]
        except argparse.ArgumentTypeError as exc:
            raise CliError(f"{path}: expected JSON or an integer list; {exc}") from None
    except ValueError:  # a JSON integer with more digits than int() converts
        raise CliError(f"{path}: an integer is too long to read") from None
    except RecursionError:
        raise CliError(f"{path}: JSON nests too deeply to read") from None
    if type(data) is int:  # one integer, as the text path reads it; bool is an int subclass
        data = [data]
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
        extension_ratio=cfg["extension"],
        accounting=cfg["accounting"],
    )


def cmd_simulate(cfg: dict) -> int:
    sources = [cfg["gaps"] is not None, cfg["gaps_file"] is not None, cfg["no_win_horizon"] is not None]
    if sum(sources) != 1:
        raise CliError("provide exactly one of --gaps, --gaps-file, --no-win-horizon")
    config = _strategy_config(cfg)

    if cfg["no_win_horizon"] is not None:
        gaps: list[int] = []
        streams = (simulate_stream(None, config, horizon_days=cfg["no_win_horizon"]),)
    else:
        gaps = list(cfg["gaps"] if cfg["gaps"] is not None else _read_int_series(Path(cfg["gaps_file"]), "gaps", "gaps"))
        streams = simulate_streams(gaps, config)
    keys = gaps or [None] * len(streams)
    # A ledger is a function of its gap, so each distinct stream is rendered
    # once and its text repeated.
    distinct = dict(zip(keys, streams))

    spend = sum(ledger.total_spend_cents for ledger in streams)
    payout = sum(ledger.total_payout_cents for ledger in streams)
    aggregate = {
        "total_spend_cents": spend,
        "total_payout_cents": payout,
        "profit_cents": payout - spend,
        "max_drawdown_cents": max((ledger.drawdown_cents for ledger in streams), default=0),
        "required_budget_cents": required_budget(max(gaps), config) if gaps else None,
    }

    if cfg["format"] == "json":
        items = {
            g: compact({**({"gap_draws": g} if g is not None else {}), **ledger_to_dict(ledger)})
            for g, ledger in distinct.items()
        }
        fields = {"config": _config_echo(cfg), "aggregate": aggregate}
        _emit(document(fields, {"streams": ITEM_SEPARATOR.join([items[g] for g in keys])}), cfg)
        return 0

    bodies = {g: "\n".join(render_ledger(ledger)) for g, ledger in distinct.items()}
    report = "".join(
        f"stream {i + 1}" + (f": gap {g} draws" if gaps else ": no win") + f"\n{bodies[g]}\n\n"
        for i, g in enumerate(keys)
    )
    lines = [
        f"aggregate: streams {len(streams)},"
        f" spend {format_cents(aggregate['total_spend_cents'])},"
        f" payout {format_cents(aggregate['total_payout_cents'])},"
        f" profit {format_cents(aggregate['profit_cents'])},"
        f" max drawdown {format_cents(aggregate['max_drawdown_cents'])}"
    ]
    if gaps:
        lines.append(f"required budget for the longest gap ({max(gaps)} draws):"
                     f" {format_cents(aggregate['required_budget_cents'])}")
    lines.append("note: each player plays one combination per draw; the 21-combination per-player cap is not binding")
    _emit(report + "\n".join(lines) + "\n", cfg)
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
    p.add_argument("--extension", type=_parse_extension, default=_PLAN.extension_ratio,
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
    # OpenBLAS reads this when numpy loads, which is after this line (numpy
    # is deferred).  At 4, its floor, an idle pool worker sleeps at once
    # instead of spinning for BLAS work the commands never send.  The thread
    # count and a timeout the user set are left as they are.
    os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")
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
