"""Seeded end-to-end benchmark of the ``cdmlotto`` CLI, with a traced layer run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload set-mm-pipeline --seed 1 --seconds 50 --trace 0

One client runs the workload's commands one at a time as child processes
(a closed loop), each started the way the ``cdmlotto`` console script
starts.  The inputs are generated from ``--seed`` by ``cdmlotto synth``
before timing; ``setup_s`` times that step.  One untimed warm-up pass runs
next and its outputs are checked against independently computed values
(see ``checks.py``); every timed pass must then reproduce the warm-up's
bytes.  Passes repeat for ``--seconds`` and timings are medians.

With ``--trace 0`` the result holds the end-to-end metrics.  With
``--trace 1`` it holds the per-layer metrics instead: passes alternate
between untraced and traced, where each traced command runs in-process in
``tracer.py``, which times every call into the functions it wraps.

The last line of standard output is the result as one JSON object; a
summary with sample counts, quartiles, versions and input sizes goes to
standard error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from tracer import TRACED

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACER = Path(__file__).resolve().parent / "tracer.py"

# The same start-up the ``cdmlotto`` console script performs.
ENTRY = "import sys; from cdmlotto.cli import main; sys.exit(main())"

SETUP_SECONDS = 4
MIN_SETUPS = 3
MIN_PASSES = 3
COMMAND_TIMEOUT_S = 120.0
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "draws_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "report_bytes": "bytes",
}

HISTORY = "history.csv"  # every workload's generated input, in its scratch directory


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for layer, names in TRACED.items():
        for name in names:
            prefix = f"{layer}.{name}"
            units.update({f"{prefix}.calls": "count", f"{prefix}.s": "s",
                          f"{prefix}.self_s": "s", f"{prefix}.errors": "count"})
        units.update({f"{layer}.calls": "count", f"{layer}.self_s": "s"})
    units.update({"cli.import_s": "s", "trace.overhead_s": "s"})
    return units


@dataclass(frozen=True)
class Command:
    """One cdmlotto invocation.  ``output`` names the file it writes besides stdout."""

    argv: tuple[str, ...]
    output: str | None = None
    check: Callable | None = None  # check(workdir, stdout_text, draws); raises checks.CheckError


@dataclass(frozen=True)
class Workload:
    game: object  # checks.Game
    draws: int
    processed: int  # draws the backtest predicts, for draws_per_s
    commands: tuple[Command, ...]

    def setup(self, seed: int) -> Command:
        game = self.game
        argv = ("synth", "--game", game.kind, "--picks", str(game.picks), "--draws", str(self.draws),
                "--seed", str(seed), "--output", HISTORY)
        if game.kind == "set":
            argv += ("--pool", str(game.pool))
        return Command(argv, HISTORY)


def build_workloads(checks) -> dict[str, Workload]:
    set_game = checks.Game("set", 52, 6)
    pick_game = checks.Game("pick", 10, 4)
    set_flags = ("--game", "set", "--pool", "52", "--picks", "6", "--input", HISTORY)

    pipeline = checks.BacktestSettings(set_game, "mm", 0.0, None, warmup=52, threshold=2)

    def check_pipeline_backtest(workdir, stdout, draws):
        text = (workdir / "backtest.json").read_text(encoding="utf-8")
        checks.check_backtest(checks.parse_backtest_json(text), draws, pipeline)

    def check_pipeline_simulate(workdir, stdout, draws):
        gaps = json.loads((workdir / "backtest.json").read_text(encoding="utf-8"))["gaps"]
        checks.check_simulate(stdout, gaps)

    # Threshold 2, not 3: about 1,000 hits instead of 75 keep the text
    # report's size steady from seed to seed.
    window = checks.BacktestSettings(pick_game, "mle", 1.0, 500, warmup=500, threshold=2)

    def check_window_backtest(workdir, stdout, draws):
        checks.check_backtest(checks.parse_backtest_text(stdout), draws, window)

    predicted = ["md", "mm", "mle"]

    def check_predict(workdir, stdout, draws):
        checks.check_predict(stdout, draws, set_game, predicted)

    # The pipeline loads the per-draw walk, JSON emission and staking, then
    # predicts the next draw through the matrix-level estimators; the window
    # loads the rolling MLE refits.  README.md gives the reasons in full.
    return {
        "set-mm-pipeline": Workload(
            game=set_game,
            draws=20_000,
            processed=20_000 - pipeline.warmup,
            commands=(
                Command(("backtest", *set_flags, "--estimator", "mm", "--window", "all", "--threshold", "2",
                         "--format", "json", "--output", "backtest.json"), "backtest.json", check_pipeline_backtest),
                Command(("simulate", "--gaps-file", "backtest.json", "--format", "json"), None, check_pipeline_simulate),
                Command(("predict", *set_flags, "--estimator", ",".join(predicted), "--smoothing", "1",
                         "--format", "json"), None, check_predict),
            ),
        ),
        "pick-mle-window": Workload(
            game=pick_game,
            draws=20_000,
            processed=20_000 - window.warmup,
            commands=(
                Command(("backtest", "--game", "pick", "--picks", "4", "--input", HISTORY, "--estimator", "mle",
                         "--smoothing", "1", "--window", "500", "--warmup", "500", "--threshold", "2",
                         "--format", "text"), None, check_window_backtest),
            ),
        ),
    }


@dataclass
class Outcome:
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    stdout: Path
    stderr: Path
    output: Path | None
    spans: Path | None


@dataclass
class Pass:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    report_bytes: int
    spans: list[Path] = field(default_factory=list)


class Runner:
    """Runs commands for one workload in a scratch directory and tallies failures."""

    def __init__(self, workload: Workload, seed: int, workdir: Path, checks):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.checks = checks
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        nproc = len(os.sched_getaffinity(0))
        self.env.update({var: str(nproc) for var in BLAS_THREAD_VARS})
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: dict[str, str] = {}  # slot -> digest of its first, checked outputs
        self.valid: dict[str, bool] = {}  # slot -> whether those outputs passed the check
        self.draws = None

    def _spawn(self, slot: str, command: Command, traced: bool) -> Outcome:
        spans = self.workdir / f"{slot}.spans" if traced else None
        if spans is not None:
            spans.unlink(missing_ok=True)  # a failed command leaves none behind
        prefix = [sys.executable, str(TRACER), str(spans), "--"] if traced else [sys.executable, "-c", ENTRY]
        stdout, stderr = self.workdir / f"{slot}.stdout", self.workdir / f"{slot}.stderr"
        with open(stdout, "wb") as out, open(stderr, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([*prefix, *command.argv], cwd=self.workdir, stdout=out, stderr=err, env=self.env)
            timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        output = self.workdir / command.output if command.output else None
        return Outcome(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode,
                       stdout, stderr, output, spans)

    def _digest(self, outcome: Outcome) -> str:
        digest = hashlib.sha256(outcome.stdout.read_bytes())
        if outcome.output is not None and outcome.output.exists():
            digest.update(outcome.output.read_bytes())
        return digest.hexdigest()

    def _fail(self, slot: str, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{slot}: {message}")

    def _settle(self, slot: str, command: Command, outcome: Outcome) -> None:
        """Count the command and decide whether it failed.

        The first run of a slot is its reference and is checked field by
        field; later runs must reproduce its bytes exactly.
        """
        self.attempted += 1
        first = slot not in self.valid
        if outcome.code != 0:
            tail = outcome.stderr.read_text(encoding="utf-8", errors="replace").strip().splitlines()[-1:]
            self._fail(slot, f"exit code {outcome.code} {tail}")
            if first:
                self.valid[slot] = False
            return
        digest = self._digest(outcome)
        if first:
            self.reference[slot] = digest
            try:
                if slot.startswith("setup"):
                    self.draws = self.checks.read_history(outcome.output, self.workload.game)
                elif command.check is not None:
                    command.check(self.workdir, outcome.stdout.read_text(encoding="utf-8"), self.draws)
            except (self.checks.CheckError, ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
                self.valid[slot] = False
                self._fail(slot, f"output check failed: {type(exc).__name__}: {exc}")
                return
            self.valid[slot] = True
        elif not self.valid.get(slot, False):
            self._fail(slot, "reference output failed its check")
        elif digest != self.reference[slot]:
            self._fail(slot, "output differs from the checked reference run")

    def _run(self, slots: list[tuple[str, Command]], traced: bool) -> Pass:
        start = time.perf_counter()
        outcomes = [self._spawn(slot, command, traced) for slot, command in slots]
        wall = time.perf_counter() - start
        report_bytes = 0
        for (slot, command), outcome in zip(slots, outcomes):
            self._settle(slot, command, outcome)
            report_bytes += outcome.stdout.stat().st_size
            if outcome.output is not None and outcome.output.exists():
                report_bytes += outcome.output.stat().st_size
        return Pass(
            wall_s=wall,
            cpu_s=sum(o.cpu_s for o in outcomes),
            peak_rss_mb=max(o.rss_mb for o in outcomes),
            report_bytes=report_bytes,
            spans=[o.spans for o in outcomes if o.spans is not None and o.spans.exists()],
        )

    def setup(self, traced: bool = False) -> Pass:
        return self._run([("setup", self.workload.setup(self.seed))], traced)

    def sequence(self, traced: bool = False) -> Pass:
        return self._run([(f"run{i}", command) for i, command in enumerate(self.workload.commands)], traced)


def repeat_for(seconds: float, minimum: int, step: Callable[[], object]) -> list:
    """Call ``step`` at least ``minimum`` times, then again while a call as
    long as the last one would still end within ``seconds`` of the start."""
    results = []
    deadline = time.perf_counter() + seconds
    while True:
        began = time.perf_counter()
        results.append(step())
        took = time.perf_counter() - began
        if len(results) >= minimum and time.perf_counter() + took > deadline:
            return results


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def span_metrics(paths: list[Path]) -> tuple[dict[str, float], list[float]]:
    """Per-function and per-layer totals over the span files of one traced pass.

    Self time is a span's duration minus the durations of the traced calls
    made directly inside it; calls in one process never overlap.
    """
    totals = {name: 0.0 for name in layer_metric_units()}
    imports = []
    for path in paths:
        lines = path.read_text(encoding="utf-8").splitlines()
        imports.append(float(lines[0].split("\t")[1]))
        spans = []
        for line in lines[1:]:
            _, parent, name, start, end, ok = line.split("\t")
            spans.append((int(parent), name, float(end) - float(start), ok == "1"))
        child_time = [0.0] * len(spans)
        for parent, _, duration, _ in spans:
            if parent >= 0:
                child_time[parent] += duration
        for (_, name, duration, ok), inner in zip(spans, child_time):
            layer = name.split(".", 1)[0]
            totals[f"{name}.calls"] += 1
            totals[f"{name}.s"] += duration
            totals[f"{name}.self_s"] += duration - inner
            totals[f"{name}.errors"] += 0 if ok else 1
            totals[f"{layer}.calls"] += 1
            totals[f"{layer}.self_s"] += duration - inner
    return totals, imports


def run_plain(runner: Runner, seconds: int) -> tuple[dict, dict]:
    setups = repeat_for(SETUP_SECONDS, MIN_SETUPS, runner.setup)
    runner.sequence()  # warm-up; its outputs are the checked reference
    passes = repeat_for(seconds, MIN_PASSES, runner.sequence)
    processed = runner.workload.processed
    series = {
        "setup_s": [p.wall_s for p in setups],
        "run_s": [p.wall_s for p in passes],
        "draws_per_s": [processed / p.wall_s for p in passes],
        "cpu_s": [p.cpu_s for p in passes],
        "peak_rss_mb": [p.peak_rss_mb for p in passes],
        "report_bytes": [float(p.report_bytes) for p in passes],
    }
    metrics = {name: {"value": statistics.median(values), "unit": END_TO_END_UNITS[name]}
               for name, values in series.items()}
    summary = {name: {"samples": len(values), "quartiles": quartiles(values)} for name, values in series.items()}
    return metrics, summary


def run_traced(runner: Runner, seconds: int) -> tuple[dict, dict]:
    runner.setup()
    runner.sequence()  # warm-up; its outputs are the checked reference
    untraced, traced, layers = [], [], []

    def pair():
        untraced.append(runner.sequence().wall_s)
        setup = runner.setup(traced=True)
        run = runner.sequence(traced=True)
        traced.append(run.wall_s)
        layers.append(span_metrics(setup.spans + run.spans))

    repeat_for(seconds, MIN_PASSES, pair)
    units = layer_metric_units()
    values = {name: statistics.median(totals[name] for totals, _ in layers) for name in units}
    values["cli.import_s"] = statistics.median(s for _, imports in layers for s in imports)
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    summary = {
        "traced_passes": len(traced),
        "untraced_run_s": {"samples": len(untraced), "quartiles": quartiles(untraced)},
        "traced_run_s": {"samples": len(traced), "quartiles": quartiles(traced)},
    }
    return metrics, summary


def parse_args(argv, names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int, help="how long the timed passes run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    if not (SRC / "cdmlotto" / "cli.py").is_file():
        print(f"error: no cdmlotto sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import checks  # imports cdmlotto from SRC
    import cdmlotto
    import numpy

    if not Path(cdmlotto.__file__).resolve().is_relative_to(SRC):
        print("error: cdmlotto was not imported from this checkout", file=sys.stderr)
        return 2
    workloads = build_workloads(checks)
    args = parse_args(argv, sorted(workloads))
    workload = workloads[args.workload]

    scratch = ROOT / ".perfbench_work"
    workdir = scratch / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        runner = Runner(workload, args.seed, workdir, checks)
        measure = run_traced if args.trace else run_plain
        metrics, summary = measure(runner, args.seconds)
        history = workdir / HISTORY
        history_bytes = history.stat().st_size if history.exists() else 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if scratch.exists() and not any(scratch.iterdir()):
            scratch.rmdir()

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "input": {"draws": workload.draws, "bytes": history_bytes, "game": vars(workload.game)},
        "processed_draws": workload.processed,
        "fail_rate": runner.failed / runner.attempted,
        "problems": runner.problems,
        "summary": summary,
    }
    print(json.dumps(info), file=sys.stderr)
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
