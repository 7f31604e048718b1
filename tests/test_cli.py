"""Command-line behavior: arguments, outputs, exit codes."""
from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qwtopo import cli
from qwtopo.cli import _ga_from, _noise_from, build_parser, cli_main
from qwtopo.ctqw import ProbeState, TimeGrid, concatenated_distribution
from qwtopo.fitness import Metric
from qwtopo.ga import GAConfig, run_ga
from qwtopo.graph import TopologyKind, TopologySpec, build_topology
from qwtopo.harness import OUTPUT_DIR_ENV, BenchmarkReport, ExperimentSpec, load_target, report_from_json
from qwtopo.measurement import NoiseConfig


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_help_exits_zero(capsys) -> None:
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    assert "simulate" in out and "reconstruct" in out


def test_one_parser_serves_every_call_without_carrying_state(capsys, monkeypatch, tmp_path: Path) -> None:
    monkeypatch.setattr(cli, "_parser", None)
    plain = ["benchmark", "--topology", "star", "--n", "4", "--runs", "2", "--format", "json"]
    assert cli_main([*plain, "--output", str(tmp_path / "first.json")]) == 0
    parser = cli._parser
    tuned = ["--ng", "2", "--seed", "5", "--metric", "kolmogorov", "--output", str(tmp_path / "tuned.json")]
    assert cli_main([*plain, *tuned]) == 0
    assert cli_main([*plain, "--ng", "3", "--metric", "bogus"]) == 1
    assert cli_main([*plain, "--output", str(tmp_path / "again.json")]) == 0
    assert cli._parser is parser
    first = (tmp_path / "first.json").read_bytes()
    assert (tmp_path / "again.json").read_bytes() == first != (tmp_path / "tuned.json").read_bytes()
    capsys.readouterr()


def test_unknown_flag_exits_one(capsys) -> None:
    code, _, err = run_cli(capsys, "simulate", "--bogus")
    assert code == 1
    assert err


def test_missing_subcommand_exits_one(capsys) -> None:
    code, _, _ = run_cli(capsys)
    assert code == 1


def test_bad_topology_exits_one(capsys) -> None:
    code, _, err = run_cli(capsys, "simulate", "--topology", "moebius", "--n", "4")
    assert code == 1
    assert "error:" in err


def test_simulate_prints_flat_distribution(capsys) -> None:
    code, out, _ = run_cli(capsys, "simulate", "--topology", "star", "--n", "4")
    assert code == 0
    values = json.loads(out)
    assert len(values) == 8  # K=2 slices of n=4
    truth = build_topology(TopologySpec(TopologyKind.STAR), 4)
    expected = concatenated_distribution(truth, ProbeState.ramp(4), TimeGrid((0.5, 0.6)))
    assert np.array_equal(np.array(values), expected.flat)


def test_simulate_custom_times_and_probe(capsys) -> None:
    code, out, _ = run_cli(
        capsys,
        "simulate", "--topology", "circle", "--n", "5",
        "--times", "0.3,0.7,1.1", "--probe", "site:0",
    )
    assert code == 0
    values = json.loads(out)
    assert len(values) == 15
    assert abs(sum(values) - 3.0) < 1e-9


def test_simulate_writes_target_file(capsys, tmp_path: Path) -> None:
    out_file = tmp_path / "target.json"
    code, out, _ = run_cli(
        capsys, "simulate", "--topology", "line", "--n", "4", "--output", str(out_file)
    )
    assert code == 0
    grid, dist, probe = load_target(out_file)
    assert grid == TimeGrid((0.5, 0.6))
    assert probe == "ramp"
    assert np.array_equal(dist.flat, np.array(json.loads(out)))


def test_simulate_noisy_deterministic(capsys) -> None:
    argv = ["simulate", "--topology", "star", "--n", "4", "--nr", "200", "--seed", "9"]
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    noisy = json.loads(out1)
    clean_code, clean_out, _ = run_cli(capsys, "simulate", "--topology", "star", "--n", "4")
    assert noisy != json.loads(clean_out)


def test_simulate_rejects_multiple_sizes(capsys) -> None:
    code, _, err = run_cli(capsys, "simulate", "--topology", "star", "--n", "4,5")
    assert code == 1
    assert "single node count" in err


def test_reconstruct_from_topology(capsys) -> None:
    code, out, _ = run_cli(
        capsys, "reconstruct", "--topology", "star", "--n", "4", "--seed", "1"
    )
    assert code == 0
    result = json.loads(out)
    truth = build_topology(TopologySpec(TopologyKind.STAR), 4)
    assert result["chromosome"] == truth.to_bitstring()
    assert result["halted_by"] == "ZeroFitness"
    assert result["score"] == 0.0
    assert result["evaluations"] >= 1


def test_reconstruct_from_file_matches_library(capsys, tmp_path: Path) -> None:
    target_file = tmp_path / "target.json"
    run_cli(
        capsys, "simulate", "--topology", "circle", "--n", "5", "--output", str(target_file)
    )
    code, out, _ = run_cli(
        capsys, "reconstruct", "--target", str(target_file), "--seed", "7"
    )
    assert code == 0
    cli_result = json.loads(out)

    # a file written before targets recorded their probe reconstructs the same way
    obj = json.loads(target_file.read_text())
    del obj["probe"]
    target_file.write_text(json.dumps(obj))
    assert run_cli(capsys, "reconstruct", "--target", str(target_file), "--seed", "7")[1] == out

    grid, target, probe = load_target(target_file)
    assert probe is None
    result = run_ga(target, ProbeState.ramp(5), grid, GAConfig(seed=7))
    assert cli_result["chromosome"] == result.best_chromosome.to_bitstring()
    assert cli_result["score"] == result.best_score
    assert cli_result["generations"] == result.generations_used
    assert cli_result["evaluations"] == result.evaluations
    assert cli_result["halted_by"] == result.halted_by.value


def test_reconstruct_deterministic(capsys) -> None:
    argv = ["reconstruct", "--topology", "line", "--n", "4", "--seed", "3"]
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2


def test_reconstruct_target_conflicts(capsys, tmp_path: Path) -> None:
    target_file = tmp_path / "t.json"
    run_cli(capsys, "simulate", "--topology", "star", "--n", "3", "--output", str(target_file))
    code, _, err = run_cli(
        capsys, "reconstruct", "--target", str(target_file), "--topology", "star"
    )
    assert code == 1 and "not both" in err
    code, _, err = run_cli(
        capsys, "reconstruct", "--target", str(target_file), "--times", "0.5"
    )
    assert code == 1 and "conflicts" in err
    code, _, err = run_cli(
        capsys, "reconstruct", "--target", str(target_file), "--probe", "site:0"
    )
    assert code == 1 and "conflicts" in err and "ramp" in err
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"experiment": {"probe": "uniform"}}))
    code, _, err = run_cli(
        capsys, "reconstruct", "--target", str(target_file), "--config", str(config)
    )
    assert code == 1 and "conflicts" in err
    code, _, _ = run_cli(
        capsys, "reconstruct", "--target", str(target_file), "--probe", "ramp"
    )
    assert code == 0


def test_reconstruct_uses_the_probe_the_target_records(capsys, tmp_path: Path) -> None:
    target_file = tmp_path / "t.json"
    run_cli(
        capsys, "simulate", "--topology", "star", "--n", "5", "--probe", "site:0",
        "--output", str(target_file),
    )
    code, out, _ = run_cli(capsys, "reconstruct", "--target", str(target_file), "--seed", "3")
    assert code == 0
    result = json.loads(out)
    assert result["chromosome"] == build_topology(TopologySpec(TopologyKind.STAR), 5).to_bitstring()
    assert result["halted_by"] == "ZeroFitness"


def test_target_round_trip_under_output_dir(capsys, monkeypatch, tmp_path: Path) -> None:
    # a stale t.json in the working directory must not be read in place of
    # the one simulate wrote under the output directory
    cwd, out_dir = tmp_path / "cwd", tmp_path / "out"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)
    run_cli(capsys, "simulate", "--topology", "line", "--n", "5", "--output", "t.json")
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(out_dir))
    code, _, _ = run_cli(capsys, "simulate", "--topology", "star", "--n", "5", "--output", "t.json")
    assert code == 0 and (out_dir / "t.json").exists()
    code, out, _ = run_cli(capsys, "reconstruct", "--target", "t.json", "--seed", "3")
    assert code == 0
    result = json.loads(out)
    assert result["chromosome"] == build_topology(TopologySpec(TopologyKind.STAR), 5).to_bitstring()
    assert result["halted_by"] == "ZeroFitness"


def test_reconstruct_missing_target_file(capsys, tmp_path: Path) -> None:
    code, _, err = run_cli(capsys, "reconstruct", "--target", str(tmp_path / "no.json"))
    assert code == 2
    assert "error:" in err


def test_benchmark_writes_csv_and_summary(capsys, tmp_path: Path) -> None:
    out_file = tmp_path / "bench.csv"
    code, out, _ = run_cli(
        capsys,
        "benchmark", "--topology", "star", "--n", "4,5", "--runs", "2",
        "--output", str(out_file),
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("star n=4: success_rate=")
    assert lines[1].startswith("star n=5: success_rate=")
    csv_lines = out_file.read_text().splitlines()
    assert csv_lines[0] == "topology,n,run,seed,success,generations,evaluations,chromosome"
    assert len(csv_lines) == 5


def test_benchmark_repeat_is_byte_identical(capsys, tmp_path: Path) -> None:
    args = [
        "benchmark", "--topology", "line", "--n", "4", "--runs", "3",
        "--format", "json",
    ]
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run_cli(capsys, *args, "--output", str(a))[0] == 0
    assert run_cli(capsys, *args, "--output", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()
    report = report_from_json(a.read_text())
    assert report.entries[0].topology == "line"


def test_indistinguishable_networks_halt_at_zero_not_below(capsys, tmp_path: Path) -> None:
    # The uniform state is stationary on every 2-regular network, so
    # any other 5-cycle matches the target; its divergence used to round
    # to about -3e-15, below the one-sided zero test, and every run
    # spent its whole generation budget.
    out_file = tmp_path / "circle.json"
    code, _, _ = run_cli(
        capsys,
        "benchmark", "--topology", "circle", "--n", "5", "--times", "0.5,0.6",
        "--probe", "uniform", "--runs", "10", "--seed", "0",
        "--format", "json", "--output", str(out_file),
    )
    assert code == 0
    runs = json.loads(out_file.read_text())["results"][0]["runs"]
    assert len(runs) == 10
    assert all(r["score"] >= 0 for r in runs)
    assert all(r["halted_by"] == "ZeroFitness" for r in runs)
    assert not any(r["success"] for r in runs)


def test_benchmark_unwritable_output_exits_two(capsys) -> None:
    code, _, err = run_cli(
        capsys,
        "benchmark", "--topology", "star", "--n", "3", "--runs", "1",
        "--output", "/proc/version/nope/bench.csv",
    )
    assert code == 2
    assert "error:" in err


def test_sweep_small_run(capsys, tmp_path: Path) -> None:
    out_file = tmp_path / "sweep.csv"
    code, out, _ = run_cli(
        capsys,
        "sweep", "--topology", "star", "--n", "3", "--nr", "200",
        "--mc-runs", "2", "--inner-runs", "2", "--thresholds", "0.001,0.1",
        "--np", "8", "--ng", "2", "--output", str(out_file),
    )
    assert code == 0
    assert out.count("T=") == 2
    lines = out_file.read_text().splitlines()
    assert lines[0] == "threshold,N_r,tp,fp,tn,fn,total"
    for line, printed in zip(lines[1:], out.splitlines(), strict=True):
        cells = line.split(",")
        assert cells[1] == "200"
        tp, fp, tn, fn, total = map(int, cells[2:])
        assert tp + fp + tn + fn == total == 4
        assert printed == f"T={float(cells[0]):.6g}: tp={tp} fp={fp} tn={tn} fn={fn}"


def test_sweep_rejects_a_ga_threshold(capsys, tmp_path: Path) -> None:
    argv = ["sweep", "--topology", "star", "--n", "3", "--mc-runs", "1", "--inner-runs", "1"]
    # sweep has no --threshold flag, and no abbreviation turns it into --thresholds
    code, _, err = run_cli(capsys, *argv, "--threshold", "0.5")
    assert code == 1 and "unrecognized arguments: --threshold" in err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"ga": {"threshold": 0.5}}))
    code, _, err = run_cli(capsys, *argv, "--config", str(cfg))
    assert code == 1 and "GA threshold" in err


def test_sweep_help_lists_no_ga_threshold(capsys) -> None:
    code, out, _ = run_cli(capsys, "sweep", "--help")
    assert code == 0 and "--thresholds" in out
    assert re.search(r"--threshold\b", out) is None


@pytest.mark.parametrize(
    "argv, section",
    [
        (["simulate", "--topology", "star", "--n", "4", "--nr", "5"], "noise"),
        (["reconstruct", "--topology", "star", "--n", "4", "--ng", "2"], "ga"),
        (["benchmark", "--topology", "star", "--n", "4", "--runs", "1", "--ng", "2"], "ga"),
        (["sweep", "--topology", "star", "--n", "4", "--mc-runs", "1", "--inner-runs", "1", "--ng", "2"], "noise"),
    ],
    ids=["simulate", "reconstruct", "benchmark", "sweep"],
)
def test_a_negative_seed_exits_one_naming_it(capsys, tmp_path: Path, argv, section: str) -> None:
    code, _, err = run_cli(capsys, *argv, "--seed", "-1")
    assert (code, err.strip()) == (1, "error: seed must be >= 0, got -1")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({section: {"seed": -2}}))
    code, _, err = run_cli(capsys, *argv, "--config", str(cfg))
    assert (code, err.strip()) == (1, "error: seed must be >= 0, got -2")
    assert run_cli(capsys, *argv, "--seed", "0")[0] == 0


def test_sweep_seed_is_the_noise_seed(capsys, tmp_path: Path) -> None:
    out_file = tmp_path / "sweep.json"
    argv = [
        "sweep", "--topology", "star", "--n", "3", "--mc-runs", "2", "--inner-runs", "1",
        "--thresholds", "0.01,0.1", "--np", "8", "--ng", "2", "--seed", "7",
        "--format", "json", "--output", str(out_file),
    ]
    assert run_cli(capsys, *argv)[0] == 0
    report = out_file.read_bytes()
    config = json.loads(report)["config"]
    assert config["noise"]["seed"] == 7
    assert "seed" not in config["ga"] and "threshold" not in config["ga"]
    # a config file's ga.seed reaches no search
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"ga": {"seed": 5}}))
    assert run_cli(capsys, *argv, "--config", str(cfg))[0] == 0
    assert out_file.read_bytes() == report


@pytest.mark.parametrize(
    "command, cfg",
    [
        ("reconstruct", {"experiment": {"times": 0.5}}),
        ("reconstruct", {"ga": {"n_p": "200"}}),
        ("sweep", {"noise": {"thresholds": 0.01}}),
        ("reconstruct", {"ga": {"n_g": 2.5}}),
        ("simulate", {"experiment": {"times": [True, 2]}}),
        ("sweep", {"noise": {"thresholds": [True]}}),
        ("reconstruct", {"ga": 5}),
        ("simulate", {"experiment": [1]}),
        ("sweep", {"noise": "x"}),
    ],
)
def test_config_file_value_of_wrong_type_exits_one(capsys, tmp_path: Path, command: str, cfg: dict) -> None:
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(cfg))
    code, _, err = run_cli(capsys, command, "--topology", "star", "--n", "3", "--config", str(cfg_file))
    assert code == 1
    assert err.startswith("error:"), err
    # A section that is not an object is named in the error.
    for section, value in cfg.items():
        if not isinstance(value, dict):
            assert f"section {section!r}" in err, err


@pytest.mark.parametrize("times", ["nan", "0.5,nan", "0.5,inf"])
def test_simulate_rejects_non_finite_times(capsys, times: str) -> None:
    code, out, err = run_cli(capsys, "simulate", "--topology", "star", "--n", "3", "--times", times)
    assert code == 1 and out == "" and "finite" in err


def test_simulate_rejects_unparsable_times(capsys) -> None:
    code, out, err = run_cli(capsys, "simulate", "--topology", "star", "--n", "3", "--times", "0.5,x")
    assert code == 1 and out == "" and "cannot parse times" in err


@pytest.mark.parametrize("source", ["flag", "config"])
def test_times_parse_from_flag_and_config(tmp_path, capsys, source: str) -> None:
    argv = ["simulate", "--topology", "star", "--n", "3", "--output", str(tmp_path / "t.json")]
    if source == "flag":
        argv += ["--times", "0.5,0.6,1"]
    else:
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"experiment": {"times": "0.5,0.6,1"}}))
        argv += ["--config", str(config)]
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0
    assert load_target(tmp_path / "t.json")[0].times == (0.5, 0.6, 1.0)


def test_simulate_infinite_time_exits_at_once() -> None:
    # --times inf used to loop forever counting Chebyshev terms
    proc = subprocess.run(
        [sys.executable, "-m", "qwtopo.cli", "simulate", "--topology", "star", "--n", "3", "--times", "inf"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 1 and "finite" in proc.stderr


def test_simulate_time_past_the_cap_exits_at_once() -> None:
    # a * t past ~1420 used to overflow the Chebyshev term bound and hang
    proc = subprocess.run(
        [sys.executable, "-m", "qwtopo.cli", "simulate", "--topology", "star", "--n", "5", "--times", "400"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 1 and "at most 125" in proc.stderr


@pytest.mark.parametrize("command", ["simulate", "reconstruct", "benchmark", "sweep"])
@pytest.mark.parametrize("n", [[4.5], 4.5, [5, 4.5], [True]])
def test_config_file_node_count_must_be_whole(capsys, tmp_path: Path, command: str, n) -> None:
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"experiment": {"topology": "star", "n": n}}))
    code, out, err = run_cli(capsys, command, "--config", str(cfg_file))
    assert code == 1 and out == ""
    assert err.startswith("error:") and "whole number" in err


@pytest.mark.parametrize("n, expected", [([4, 5.0], (4, 5)), (5.0, (5,)), (6, (6,)), ("5,6", (5, 6))])
def test_node_counts_read_whole_numbers(n, expected) -> None:
    args = build_parser().parse_args(["benchmark"])
    assert cli._n_values_from(args, {"experiment": {"n": n}}) == expected


@pytest.mark.parametrize("edit", ["time Infinity", "slice NaN"])
def test_reconstruct_rejects_a_non_finite_target_file(capsys, tmp_path: Path, edit: str) -> None:
    target_file = tmp_path / "target.json"
    assert run_cli(capsys, "simulate", "--topology", "star", "--n", "3", "--output", str(target_file))[0] == 0
    obj = json.loads(target_file.read_text())
    if edit == "time Infinity":
        obj["times"][1] = math.inf
    else:
        obj["slices"][0][0] = math.nan
    target_file.write_text(json.dumps(obj))
    assert edit.split()[1] in target_file.read_text()
    code, out, err = run_cli(capsys, "reconstruct", "--target", str(target_file))
    assert code == 1 and out == "" and err.startswith("error:")


@pytest.mark.parametrize("edit", ["times [true, 2]", "slice entry a string"])
def test_reconstruct_rejects_a_target_file_holding_non_numbers(capsys, tmp_path: Path, edit: str) -> None:
    target_file = tmp_path / "target.json"
    assert run_cli(capsys, "simulate", "--topology", "star", "--n", "3", "--output", str(target_file))[0] == 0
    obj = json.loads(target_file.read_text())
    if edit.startswith("times"):
        obj["times"] = [True, 2]
    else:
        obj["slices"][0][0] = str(obj["slices"][0][0])
    target_file.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, "reconstruct", "--target", str(target_file))
    assert code == 1 and out == "" and "must be a number" in err


def test_config_file_supplies_defaults(capsys, tmp_path: Path) -> None:
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "experiment": {"topology": "star", "n": 4, "times": [0.5, 0.6]},
                "ga": {"seed": 11},
            }
        )
    )
    code, out, _ = run_cli(capsys, "reconstruct", "--config", str(cfg))
    assert code == 0
    via_flags = run_cli(
        capsys, "reconstruct", "--topology", "star", "--n", "4", "--seed", "11"
    )[1]
    assert out == via_flags


def test_cli_flag_overrides_config_file(capsys, tmp_path: Path) -> None:
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": {"topology": "star", "n": 4}}))
    code, out, _ = run_cli(capsys, "simulate", "--config", str(cfg), "--n", "3")
    assert code == 0
    assert len(json.loads(out)) == 6  # flag n=3 wins over file n=4


@pytest.mark.parametrize("command", ["reconstruct", "benchmark", "sweep"])
def test_ga_defaults_come_from_ga_config(command) -> None:
    args = build_parser().parse_args([command])
    assert _ga_from(args, {}) == GAConfig()


def test_noise_defaults_come_from_noise_config() -> None:
    assert _noise_from(build_parser().parse_args(["sweep"]), {}) == NoiseConfig()


def test_benchmark_runs_default_comes_from_experiment_spec(capsys, monkeypatch) -> None:
    specs = []
    monkeypatch.setattr(cli, "benchmark_noiseless", lambda spec: specs.append(spec) or BenchmarkReport({}, ()))
    assert run_cli(capsys, "benchmark", "--topology", "star", "--n", "4")[0] == 0
    assert specs[0].runs == ExperimentSpec(TopologySpec(TopologyKind.STAR), (4,)).runs


def test_noise_flags_and_config_file_set_their_fields() -> None:
    args = build_parser().parse_args(["sweep", "--nr", "50", "--mc-runs", "3", "--thresholds", "0.1,0.2"])
    expected = NoiseConfig(n_r=50, thresholds=(0.1, 0.2), mc_runs=3, inner_runs=4, seed=6)
    # the flag wins over the file's n_r; the file fills the unset fields
    assert _noise_from(args, {"noise": {"n_r": 70, "inner_runs": 4, "seed": 6}}) == expected


def test_ga_flags_and_config_file_set_their_fields() -> None:
    args = build_parser().parse_args(
        ["benchmark", "--np", "8", "--pe", "0.1", "--pc", "0.5", "--pm", "0.2", "--ng", "7",
         "--threshold", "0.01", "--seed", "9", "--metric", "kolmogorov"]
    )
    expected = GAConfig(
        n_p=8, p_e=0.1, k=3, p_c=0.5, p_m=0.2, n_g=7, threshold=0.01, seed=9, metric=Metric.KOLMOGOROV
    )
    # the flag wins over the file's p_e; the file's k fills the unset --k
    assert _ga_from(args, {"ga": {"k": 3, "p_e": 0.3}}) == expected


def test_config_file_errors(capsys, tmp_path: Path) -> None:
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, _, _ = run_cli(capsys, "simulate", "--config", str(bad), "--n", "3")
    assert code == 1
    code, _, _ = run_cli(
        capsys, "simulate", "--config", str(tmp_path / "missing.json"), "--n", "3"
    )
    assert code == 2


def test_installed_entry_point() -> None:
    proc = subprocess.run(
        [sys.executable, "-m", "qwtopo.cli", "simulate", "--topology", "star", "--n", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert len(json.loads(proc.stdout)) == 6


def test_cli_import_loads_no_scipy() -> None:
    # Start-up cost: the program itself runs on NumPy alone.
    code = "import sys, qwtopo.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_an_elitist_fraction_that_leaves_no_child_exits_one(capsys) -> None:
    argv = ["reconstruct", "--topology", "star", "--n", "5", "--np", "10", "--pe", "0.96", "--seed", "3"]
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert "p_e=0.96" in err and "n_p=10" in err
