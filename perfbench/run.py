"""Benchmark of qwtopo's reconstructions, end to end and layer by layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload star-trend --seed 0 --seconds 55 --trace 0

Each round is one in-process call of ``qwtopo.cli.cli_main`` that writes a
JSON report; the report is then checked against the oracle (see
``checks.py``).  Round r runs with master seed ``seed * 10000 + r``.
An untraced run plays the workload's reference rounds and then further
rounds until ``--seconds`` have passed; a traced run plays exactly the
reference rounds with spans around every layer (see ``spans.py``), so
its counts repeat for a fixed seed.  An untraced run also times units of
a fixed yardstick between the rounds and reports its timings at the
yardstick's reference speed (see ``yardstick.py``).  The last line of
standard output is the JSON result.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import resource
import statistics
import sys
import time
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import checks
from checks import Outcome, Request, Truths
from spans import LAYER_UNITS, Tracer, layer_metrics
from yardstick import REFERENCE_S, SETUP_IMPORTS, Yardstick, fresh_interpreter

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
TIMES = (0.5, 0.6)
SETUP_REPEATS = 10
# Yardstick units run between rounds until they fill this share of the
# time spent in the rounds.
YARD_SHARE = 0.5
END_TO_END_UNITS = {"setup_s": "s", "runs_per_s": "runs/s", "recovered": "runs", "peak_rss_mb": "MB"}


@dataclass(frozen=True)
class Workload:
    """A family of cli_main calls; round r differs only in its seed."""

    command: str  # "benchmark" or "sweep"
    topology: str
    n_values: tuple[int, ...]
    rounds: int  # reference rounds: `recovered` and the traced run cover exactly these
    runs: int = 1  # benchmark: runs per size in one round
    mc_runs: int = 0  # sweep: noise samples in one round
    inner_runs: int = 0

    def request(self, seed: int) -> Request:
        return Request(
            topology=self.topology,
            n_values=self.n_values,
            times=TIMES,
            seed=seed,
            runs=self.runs,
            mc_runs=self.mc_runs,
            inner_runs=self.inner_runs,
        )


# complete10 is runnable but not in BENCHMARK.json: a run's cost depends on
# whether it uses up the generation budget, which its seed decides, so its
# rate cannot be made steady across seeds in one run (see README).
WORKLOADS = {
    "complete10": Workload("benchmark", "complete", (10,), rounds=8),
    "star-trend": Workload("benchmark", "star", (5, 6, 7, 8, 9, 10), rounds=8),
    "noise-sweep": Workload("sweep", "star", (5,), rounds=8, mc_runs=10, inner_runs=1),
}


def cli_args(wl: Workload, req: Request, output: Path) -> list[str]:
    times = ",".join(str(t) for t in req.times)
    argv = [wl.command, "--topology", wl.topology, "--n", ",".join(map(str, wl.n_values))]
    argv += ["--times", times, "--probe", "ramp", "--seed", str(req.seed)]
    if wl.command == "benchmark":
        argv += ["--runs", str(wl.runs)]
    else:
        argv += ["--nr", str(checks.N_R), "--mc-runs", str(wl.mc_runs), "--inner-runs", str(wl.inner_runs)]
    return argv + ["--format", "json", "--output", str(output)]


def check_report(text: str, wl: Workload, req: Request, truths: Truths, read_span) -> Outcome:
    """Round-trip the report through the program's reader and writer, then
    check its content; any fault counts every run of the round as failed."""
    from qwtopo import harness

    try:
        with read_span:
            report = harness.report_from_json(text)
        if harness.report_to_text(report, harness.ReportFormat.JSON) != text:
            return Outcome(req.expected, 0)
        obj = json.loads(text)
        if wl.command == "benchmark":
            return checks.check_benchmark(obj, req, truths)
        return checks.check_sweep(obj, req)
    except (KeyError, TypeError, ValueError, AttributeError):
        return Outcome(req.expected, 0)


def play_round(wl: Workload, req: Request, truths: Truths, tracer: Tracer | None):
    """One cli_main call; returns (wall seconds, outcome)."""
    from qwtopo import cli

    output = OUT / f"report-{os.getpid()}.json"
    output.unlink(missing_ok=True)
    span = tracer.span("harness") if tracer else nullcontext()
    with redirect_stdout(io.StringIO()), span:
        start = time.perf_counter()
        code = cli.cli_main(cli_args(wl, req, output))
        wall = time.perf_counter() - start
    if code != 0 or not output.exists():
        return wall, Outcome(req.expected, 0)
    text = output.read_text()
    output.unlink()
    read_span = tracer.span("harness.read") if tracer else nullcontext()
    return wall, check_report(text, wl, req, truths, read_span)


def simulate_ok(wl: Workload, truths: Truths) -> bool:
    """``qwtopo simulate`` prints each truth's distribution as the oracle has it."""
    from qwtopo import cli

    for n in wl.n_values:
        buf = io.StringIO()
        argv = ["simulate", "--topology", wl.topology, "--n", str(n), "--probe", "ramp"]
        with redirect_stdout(buf):
            code = cli.cli_main(argv + ["--times", ",".join(map(str, TIMES))])
        if code != 0 or not checks.check_simulated(json.loads(buf.getvalue()), truths, n):
            return False
    return True


def setup_ratio() -> float:
    """Wall time of a fresh interpreter that runs ``import qwtopo.cli``,
    over that of one that imports only the modules it loads."""
    qwtopo_s = fresh_interpreter("import qwtopo.cli", str(ROOT))
    return qwtopo_s / fresh_interpreter(SETUP_IMPORTS, str(ROOT))


def run(name: str, seed: int, seconds: float, trace: bool, wl: Workload | None = None) -> dict:
    """Play a workload and return the result object printed as the last line."""
    wl = wl or WORKLOADS[name]
    OUT.mkdir(exist_ok=True)
    truths = Truths(wl.topology, TIMES)
    correct = simulate_ok(wl, truths)
    tracer = Tracer() if trace else None
    yard = None if trace else Yardstick(wl.command)
    if yard:
        yard.unit()  # warm-up, not counted
        yard.seconds.clear()
    setup: list[float] = []
    walls: list[float] = []
    attempted = failed = recovered = 0
    start = time.perf_counter()
    with tracer or nullcontext():
        r = 0
        while r < wl.rounds or (not trace and time.perf_counter() - start < seconds):
            req = wl.request(seed * 10000 + r)
            wall, outcome = play_round(wl, req, truths, tracer)
            walls.append(wall)
            attempted += req.expected
            failed += outcome.failed
            if r < wl.rounds:
                recovered += outcome.recovered
            r += 1
            while yard and sum(yard.seconds) < YARD_SHARE * sum(walls):
                yard.unit()
            if yard and len(setup) < SETUP_REPEATS and time.perf_counter() - start >= len(setup) * seconds / SETUP_REPEATS:
                setup.append(setup_ratio())
    while yard and len(setup) < SETUP_REPEATS:
        setup.append(setup_ratio())
    summary = f"{name} seed={seed} trace={int(trace)}: {len(walls)} rounds, {attempted} runs in {sum(walls):.3f} s "
    summary += f"({attempted / sum(walls):.4g} runs/s); reference rounds {wl.rounds} in {sum(walls[: wl.rounds]):.3f} s; "
    summary += f"recovered {recovered}; failed {failed}/{attempted}"
    if yard:
        summary += f"; {len(yard.seconds)} yardstick units, host {yard.factor():.3f}x reference time"
        summary += f"; set-up over its yardstick: {' '.join(f'{s:.3f}' for s in setup)}"
    print(summary)
    if trace:
        tracer.dump(OUT / f"trace-{name}-{seed}.json")
        values = layer_metrics(tracer)
        metrics = {}
        for key, unit in LAYER_UNITS.items():
            metrics[key] = {"value": values[key], "unit": unit}
            if values[key] is None:
                metrics[key]["absent"] = True
        if tracer.absent:
            print(f"absent in this version: {', '.join(tracer.absent)}")
    else:
        values = {
            "setup_s": statistics.median(setup) * REFERENCE_S["setup"],
            "runs_per_s": attempted / sum(walls) * yard.factor(),
            "recovered": recovered,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qwtopo").is_dir():
        print(f"perfbench: no qwtopo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    line = json.dumps(result)
    (OUT / f"result-{args.workload}-{args.seed}-{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
