"""Tests of the benchmark itself: its checks must catch wrong outputs, and a
tiny configuration of each workload must run clean.

Run from the root of a source checkout:

    PYTHONPATH=src python -m pytest -q perfbench
"""
from __future__ import annotations

import copy
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import yardstick  # noqa: E402
from checks import Truths  # noqa: E402

TINY = {
    "complete10": run.Workload("benchmark", "complete", (5,), rounds=1, runs=2),
    "star-trend": run.Workload("benchmark", "star", (5, 6), rounds=2),
    "noise-sweep": run.Workload("sweep", "star", (5,), rounds=1, mc_runs=1, inner_runs=2),
}


def report(wl: run.Workload, seed: int, tmp_path: Path) -> dict:
    from qwtopo.cli import cli_main

    out = tmp_path / "report.json"
    with redirect_stdout(io.StringIO()):
        assert cli_main(run.cli_args(wl, wl.request(seed), out)) == 0
    return json.loads(out.read_text())


@pytest.fixture(scope="module")
def star_report(tmp_path_factory):
    wl = TINY["star-trend"]
    return wl, report(wl, 3, tmp_path_factory.mktemp("star"))


@pytest.fixture(scope="module")
def sweep_report(tmp_path_factory):
    wl = TINY["noise-sweep"]
    return wl, report(wl, 3, tmp_path_factory.mktemp("sweep"))


def check_star(obj: dict, wl: run.Workload) -> checks.Outcome:
    return checks.check_benchmark(obj, wl.request(3), Truths(wl.topology, run.TIMES))


def test_clean_benchmark_report_passes(star_report):
    wl, obj = star_report
    assert check_star(obj, wl) == checks.Outcome(failed=0, recovered=2)


def test_flipped_chromosome_bit_fails_that_run(star_report):
    wl, obj = star_report
    bad = copy.deepcopy(obj)
    row = bad["results"][1]["runs"][0]
    row["chromosome"] = ("1" if row["chromosome"][0] == "0" else "0") + row["chromosome"][1:]
    assert check_star(bad, wl).failed == 1


@pytest.mark.parametrize("delta", [1e-6, -1e-6])
def test_score_off_by_1e6_fails_that_run(star_report, delta):
    wl, obj = star_report
    bad = copy.deepcopy(obj)
    bad["results"][0]["runs"][0]["score"] += delta
    assert check_star(bad, wl).failed == 1


def test_success_flag_and_halt_reason_must_agree_with_truth(star_report):
    wl, obj = star_report
    bad = copy.deepcopy(obj)
    bad["results"][0]["runs"][0]["halted_by"] = "MaxGenerations"
    bad["results"][1]["runs"][0]["success"] = False
    assert check_star(bad, wl).failed == 2


def test_missing_benchmark_row_fails(star_report):
    wl, obj = star_report
    bad = copy.deepcopy(obj)
    bad["results"][1]["runs"].clear()
    assert check_star(bad, wl) == checks.Outcome(failed=1, recovered=1)


def check_tiny_sweep(obj: dict, wl: run.Workload) -> checks.Outcome:
    return checks.check_sweep(obj, wl.request(3))


def test_clean_sweep_report_passes(sweep_report):
    wl, obj = sweep_report
    outcome = check_tiny_sweep(obj, wl)
    assert outcome.failed == 0
    assert outcome.recovered == sum(r["tp"] + r["fn"] for r in obj["results"])


def test_tally_with_a_run_missing_fails(sweep_report):
    wl, obj = sweep_report
    bad = copy.deepcopy(obj)
    row = bad["results"][0]
    key = max(("tp", "fp", "tn", "fn"), key=row.get)
    row[key] -= 1
    row["total"] -= 1
    assert check_tiny_sweep(bad, wl).failed == wl.mc_runs * wl.inner_runs


def test_positives_falling_with_threshold_fails(sweep_report):
    wl, obj = sweep_report
    bad = copy.deepcopy(obj)
    last = bad["results"][-1]
    assert last["tp"] + last["fp"] > 0
    last["tn"] += last["tp"] + last["fp"]
    last["tp"] = last["fp"] = 0
    assert check_tiny_sweep(bad, wl).failed == wl.mc_runs * wl.inner_runs


def test_simulated_distribution_must_match_oracle():
    truths = Truths("star", run.TIMES)
    _, target = truths.get(5)
    assert checks.check_simulated(list(target), truths, 5)
    assert not checks.check_simulated(list(target + 1e-9), truths, 5)


def test_oracle_agrees_with_closed_form_and_documented_seeds():
    # Two nodes, one edge: p_0(t) = |a cos t - i b sin t|^2 for amplitudes (a, b).
    a, b = oracle.ramp(2)
    t = 0.7
    p = oracle.distribution(oracle.adjacency([(0, 1)], 2), [t])
    assert p[0] == pytest.approx(a**2 * np.cos(t) ** 2 + b**2 * np.sin(t) ** 2, abs=1e-14)
    assert oracle.kld(p, p) == pytest.approx(0.0, abs=1e-15)
    from qwtopo.harness import run_seed
    from qwtopo.measurement import default_thresholds

    assert oracle.run_seed(7, "star", 6, 3) == run_seed(7, "star", 6, 3)
    assert oracle.default_thresholds() == pytest.approx(list(default_thresholds()), rel=1e-12)


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_runs_clean(name, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    wl = TINY[name]
    untraced = run.run(name, 1, 0.0, trace=False, wl=wl)
    assert untraced["correct"] and untraced["failed"] == 0
    assert untraced["attempted"] == wl.rounds * wl.request(0).expected
    assert set(untraced["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in untraced["metrics"].values())

    traced = run.run(name, 1, 0.0, trace=True, wl=wl)
    assert traced["correct"] and traced["failed"] == 0
    values = {k: m["value"] for k, m in traced["metrics"].items()}
    assert set(values) == set(spans.LAYER_UNITS)
    assert sum(values[k] for k in spans.SELF_TIME_METRICS) == pytest.approx(values["trace.wall_s"], rel=1e-9)
    assert values["ctqw.propagate.rows"] == values["ga.genomes_fresh"] == values["fitness.divergence.rows"]
    if wl.command == "sweep":
        assert values["measurement.run_ga.calls"] == untraced["attempted"]


def test_missing_layer_is_reported_absent(monkeypatch):
    import qwtopo.cli

    monkeypatch.delattr(qwtopo.cli, "emit_report")
    with spans.Tracer() as tracer:
        pass
    assert tracer.absent == ["qwtopo.cli.emit_report"]
    values = spans.layer_metrics(tracer)
    assert values["harness.emit.s"] is None and values["harness.emit.bytes"] is None
    assert values["ctqw.propagate.rows"] == 0


def test_benchmark_fails_without_program_sources(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "star-trend", "--seed", "0", "--seconds", "1"]) != 0


def test_wrong_program_output_counts_as_failed_runs(tmp_path, monkeypatch):
    import qwtopo.harness

    real = qwtopo.harness.run_seed
    monkeypatch.setattr(qwtopo.harness, "run_seed", lambda *a: real(*a) + 1)
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    result = run.run("star-trend", 1, 0.0, trace=False, wl=TINY["star-trend"])
    assert result["correct"] and result["failed"] == result["attempted"] == 4
    assert result["metrics"]["recovered"]["value"] == 0


def test_yardstick_unit_is_fixed_work():
    for command in ("benchmark", "sweep"):
        n, target, seed, _ = yardstick.Yardstick(command).plan[0]
        assert yardstick.search(n, target, seed, 6) == yardstick.search(n, target, seed, 6)


def test_yardstick_search_finds_the_star():
    """The unit is a working search: propagation and KLD as the oracle has them."""
    assert abs(yardstick.search(5, yardstick.Yardstick._truth(5), 1, 30)) < 1e-12
