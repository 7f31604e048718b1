"""Benchmark orchestration, report files, and target files."""
from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from qwtopo.ctqw import ProbeState, TimeGrid, concatenated_distribution
from qwtopo.errors import ConfigError
from qwtopo.ga import GAConfig
from qwtopo.graph import TopologyKind, TopologySpec, build_topology
from qwtopo.harness import (
    BENCHMARK_CSV_HEADER,
    OUTPUT_DIR_ENV,
    SWEEP_CSV_HEADER,
    BenchmarkReport,
    ExperimentSpec,
    ReportFormat,
    SweepReport,
    benchmark_noiseless,
    benchmark_noisy,
    emit_report,
    load_target,
    make_probe,
    report_from_json,
    report_to_text,
    resolve_output_path,
    run_seed,
    write_target,
)
from qwtopo.measurement import NoiseConfig, Outcome


def test_make_probe_names() -> None:
    n = 4
    assert make_probe("ramp", n) == ProbeState.ramp(n)
    assert make_probe("uniform", n) == ProbeState.uniform(n)
    assert make_probe("site:2", n) == ProbeState.localized(n, 2)
    with pytest.raises(ConfigError):
        make_probe("site:x", n)
    with pytest.raises(ConfigError):
        make_probe("gauss", n)


def test_run_seed_deterministic_and_distinct() -> None:
    a = run_seed(0, "star", 5, 0)
    assert a == run_seed(0, "star", 5, 0)
    others = {
        run_seed(0, "star", 5, 1),
        run_seed(0, "star", 6, 0),
        run_seed(0, "line", 5, 0),
        run_seed(1, "star", 5, 0),
    }
    assert a not in others
    assert len(others) == 4
    assert all(isinstance(s, int) and s >= 0 for s in others)


def test_experiment_spec_validation() -> None:
    star = TopologySpec(TopologyKind.STAR)
    with pytest.raises(ConfigError):
        ExperimentSpec(topology=star, n_values=())
    with pytest.raises(ConfigError):
        ExperimentSpec(topology=star, n_values=(1,))
    with pytest.raises(ConfigError):
        ExperimentSpec(topology=star, n_values=(4,), runs=0)
    for n in (4.5, True):
        with pytest.raises(ConfigError, match="whole number"):
            ExperimentSpec(topology=star, n_values=(n,))
    assert ExperimentSpec(topology=star, n_values=(5.0,)).n_values == (5,)


@pytest.mark.parametrize("runs", [1.5, 2.0, True, "3"])
def test_experiment_spec_runs_must_be_whole(runs) -> None:
    star = TopologySpec(TopologyKind.STAR)
    with pytest.raises(ConfigError, match="whole number"):
        ExperimentSpec(topology=star, n_values=(3,), runs=runs)
    spec = ExperimentSpec(topology=star, n_values=(3,), runs=np.int64(2))
    assert type(spec.runs) is int


def small_spec(runs: int = 3) -> ExperimentSpec:
    return ExperimentSpec(
        topology=TopologySpec(TopologyKind.STAR), n_values=(4,), runs=runs
    )


def test_benchmark_noiseless_small_star() -> None:
    spec = small_spec()
    report = benchmark_noiseless(spec)
    assert len(report.entries) == 1
    entry = report.entries[0]
    assert entry.topology == "star" and entry.n == 4
    assert entry.n_p == 2 * 6 * 6
    assert len(entry.records) == 3
    truth = build_topology(spec.topology, 4).to_bitstring()
    for r in entry.records:
        assert r.seed == run_seed(spec.ga.seed, "star", 4, r.run)
        assert r.success and r.chromosome == truth
    assert entry.success_rate == 1.0
    assert report.config["protocol"] == "noiseless"
    assert report.config["times"] == [0.5, 0.6]


def test_benchmark_entry_stats_without_successes() -> None:
    # n_g=0 is invalid, so force failure with a hopeless population cap
    spec = dataclasses.replace(
        small_spec(runs=2),
        n_values=(6,),
        ga=GAConfig(n_p=2, n_g=1, p_m=0.0, p_c=0.0),
    )
    report = benchmark_noiseless(spec)
    entry = report.entries[0]
    if entry.success_rate == 0.0:
        assert entry.generations_mean is None
        assert entry.generations_std is None


def small_sweep(noise: NoiseConfig, ga: GAConfig = GAConfig(n_p=8, n_g=2)) -> SweepReport:
    return benchmark_noisy(TopologySpec(TopologyKind.STAR), 4, TimeGrid((0.5, 0.6)), ga, noise)


def test_benchmark_noisy_small() -> None:
    noise = NoiseConfig(n_r=200, thresholds=(1e-2,), mc_runs=2, inner_runs=2, seed=1)
    report = small_sweep(noise, GAConfig(n_p=10, n_g=2))
    assert report.config["noise"]["n_r"] == 200
    # the sweep sets each search's seed and threshold, so the GA echo holds neither
    assert "seed" not in report.config["ga"] and "threshold" not in report.config["ga"]
    assert report.config["ga"]["n_p"] == 10
    assert set(report.tallies) == {1e-2}
    assert report.tallies[1e-2].total() == 4
    assert set(report.tallies[1e-2]) <= set(Outcome)
    assert report.config["protocol"] == "sweep"
    assert report.config["noise"]["mc_runs"] == 2


def test_benchmark_csv_layout(tmp_path: Path) -> None:
    report = benchmark_noiseless(small_spec(runs=2))
    out = emit_report(report, ReportFormat.CSV, tmp_path / "bench.csv")
    lines = out.read_text().splitlines()
    assert lines[0] == BENCHMARK_CSV_HEADER
    assert lines[0] == "topology,n,run,seed,success,generations,evaluations,chromosome"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "star" and first[1] == "4" and first[2] == "0"
    assert first[4] in {"true", "false"}
    assert set(first[7]) <= {"0", "1"} and len(first[7]) == 6


def test_benchmark_csv_empty_entries() -> None:
    report = BenchmarkReport(config={"protocol": "noiseless"}, entries=())
    assert report_to_text(report, ReportFormat.CSV) == BENCHMARK_CSV_HEADER + "\n"


def test_sweep_csv_layout(tmp_path: Path) -> None:
    noise = NoiseConfig(n_r=100, thresholds=(1e-3, 1e-1), mc_runs=1, inner_runs=2, seed=0)
    report = small_sweep(noise)
    out = emit_report(report, ReportFormat.CSV, tmp_path / "sweep.csv")
    lines = out.read_text().splitlines()
    assert lines[0] == SWEEP_CSV_HEADER
    assert lines[0] == "threshold,N_r,tp,fp,tn,fn,total"
    assert len(lines) == 3
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[1] == "100"
        tp, fp, tn, fn, total = map(int, cells[2:])
        assert tp + fp + tn + fn == total == 2


def test_benchmark_json_round_trip(tmp_path: Path) -> None:
    report = benchmark_noiseless(small_spec(runs=2))
    out = emit_report(report, ReportFormat.JSON, tmp_path / "bench.json")
    loaded = report_from_json(out.read_text())
    assert loaded == report


def test_sweep_json_round_trip(tmp_path: Path) -> None:
    noise = NoiseConfig(n_r=100, thresholds=(1e-2,), mc_runs=1, inner_runs=1, seed=2)
    report = small_sweep(noise)
    out = emit_report(report, ReportFormat.JSON, tmp_path / "sweep.json")
    loaded = report_from_json(out.read_text())
    assert isinstance(loaded, SweepReport)
    assert loaded.tallies == report.tallies
    assert loaded.config == report.config


def test_sweep_json_total_must_match_counts() -> None:
    noise = NoiseConfig(n_r=100, thresholds=(1e-2, 1e-1), mc_runs=1, inner_runs=2, seed=2)
    obj = json.loads(report_to_text(small_sweep(noise), ReportFormat.JSON))
    obj["results"][1]["total"] += 1
    with pytest.raises(ConfigError, match="total"):
        report_from_json(json.dumps(obj))


def test_sweep_json_repeated_threshold_is_rejected() -> None:
    golden = Path(__file__).resolve().parent / "golden" / "sweep_star_n5.json"
    obj = json.loads(golden.read_text())
    assert len(report_from_json(json.dumps(obj)).tallies) == len(obj["results"])
    obj["results"].append(obj["results"][0])
    with pytest.raises(ConfigError, match="more than one row"):
        report_from_json(json.dumps(obj))


def golden_sweep() -> dict:
    return json.loads((Path(__file__).resolve().parent / "golden" / "sweep_star_n5.json").read_text())


def test_sweep_json_row_shot_count_must_match_config() -> None:
    obj = golden_sweep()
    obj["results"][4]["N_r"] = 501
    with pytest.raises(ConfigError, match="N_r"):
        report_from_json(json.dumps(obj))


def test_sweep_json_changed_threshold_is_rejected() -> None:
    obj = golden_sweep()
    obj["results"][3]["threshold"] = 123.0
    with pytest.raises(ConfigError, match="thresholds"):
        report_from_json(json.dumps(obj))


def test_sweep_json_missing_threshold_row_is_rejected() -> None:
    obj = golden_sweep()
    del obj["results"][7]
    assert len(obj["results"]) == len(obj["config"]["noise"]["thresholds"]) - 1
    with pytest.raises(ConfigError, match="thresholds"):
        report_from_json(json.dumps(obj))


def test_sweep_json_is_empty_only_without_samples() -> None:
    obj = golden_sweep()
    obj["results"] = []
    with pytest.raises(ConfigError, match="thresholds"):
        report_from_json(json.dumps(obj))
    report = small_sweep(NoiseConfig(thresholds=(1e-2, 1e-1), mc_runs=0))
    text = report_to_text(report, ReportFormat.JSON)
    assert json.loads(text)["results"] == []
    assert report_from_json(text) == report


@pytest.mark.parametrize(
    "path",
    [
        ("config", "noise"),
        ("config", "noise", "n_r"),
        ("config", "noise", "thresholds"),
        ("config", "noise", "mc_runs"),
        ("results", 2, "N_r"),
    ],
    ids=lambda path: "/".join(map(str, path)),
)
def test_sweep_json_missing_field_is_rejected(path: tuple) -> None:
    obj = golden_sweep()
    holder = obj
    for key in path[:-1]:
        holder = holder[key]
    del holder[path[-1]]
    with pytest.raises(ConfigError, match=repr(path[-1])):
        report_from_json(json.dumps(obj))


def golden_benchmark() -> dict:
    return json.loads((Path(__file__).resolve().parent / "golden" / "benchmark_star_n5-7.json").read_text())


@pytest.mark.parametrize(
    "path",
    [("config",), ("results",), ("results", 1, "topology"), ("results", 1, "n"), ("results", 1, "n_p"), ("results", 1, "runs")],
    ids=lambda path: "/".join(map(str, path)),
)
def test_benchmark_json_missing_field_is_rejected(path: tuple) -> None:
    obj = golden_benchmark()
    holder = obj
    for key in path[:-1]:
        holder = holder[key]
    del holder[path[-1]]
    with pytest.raises(ConfigError, match=repr(path[-1])):
        report_from_json(json.dumps(obj))


def test_json_report_must_be_an_object() -> None:
    with pytest.raises(ConfigError, match="JSON object"):
        report_from_json(json.dumps([golden_benchmark()]))


@pytest.mark.parametrize(
    "report, path, value, match",
    [
        ("benchmark", ("config",), [1], "config is a JSON object"),
        ("sweep", ("config",), "sweep", "config is a JSON object"),
        ("benchmark", ("results",), 5, "results are a JSON list"),
        ("sweep", ("results",), {"threshold": 0.01}, "results are a JSON list"),
        ("sweep", ("results", 2), 7, "sweep row is a JSON object"),
        ("sweep", ("results", 2), ["tp", 1], "sweep row is a JSON object"),
        ("sweep", ("config", "noise"), 500, "noise is a JSON object"),
        ("benchmark", ("results", 1), "star", "benchmark entry is a JSON object"),
    ],
    ids=lambda v: "/".join(map(str, v)) if isinstance(v, tuple) else None,
)
def test_json_report_part_of_the_wrong_shape_is_rejected(report: str, path: tuple, value, match: str) -> None:
    obj = golden_sweep() if report == "sweep" else golden_benchmark()
    holder = obj
    for key in path[:-1]:
        holder = holder[key]
    holder[path[-1]] = value
    with pytest.raises(ConfigError, match=match):
        report_from_json(json.dumps(obj))


@pytest.mark.parametrize("edit", ["missing", "unknown"])
def test_benchmark_json_run_row_must_match_run_record(edit: str) -> None:
    report = benchmark_noiseless(small_spec(runs=2))
    obj = json.loads(report_to_text(report, ReportFormat.JSON))
    row = obj["results"][0]["runs"][1]
    if edit == "missing":
        del row["halted_by"]
    else:
        row["note"] = "extra"
    with pytest.raises(ConfigError, match="RunRecord"):
        report_from_json(json.dumps(obj))


def test_json_raster_matches_chromosomes(tmp_path: Path) -> None:
    report = benchmark_noiseless(small_spec(runs=2))
    obj = json.loads(report_to_text(report, ReportFormat.JSON))
    res = obj["results"][0]
    for row, run in zip(res["raster"], res["runs"]):
        assert "".join(str(b) for b in row) == run["chromosome"]


def test_emit_report_byte_stable(tmp_path: Path) -> None:
    spec = small_spec(runs=2)
    a = report_to_text(benchmark_noiseless(spec), ReportFormat.JSON)
    b = report_to_text(benchmark_noiseless(spec), ReportFormat.JSON)
    assert a == b


def test_emit_report_unwritable_path(tmp_path: Path) -> None:
    report = benchmark_noiseless(small_spec(runs=1))
    with pytest.raises(OSError):
        emit_report(report, ReportFormat.CSV, Path("/proc/version/nope/bench.csv"))


def test_resolve_output_path_env(monkeypatch, tmp_path: Path) -> None:
    monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)
    assert resolve_output_path("out.csv") == Path("out.csv")
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path))
    assert resolve_output_path("out.csv") == tmp_path / "out.csv"
    assert resolve_output_path("/abs/out.csv") == Path("/abs/out.csv")


def test_emit_report_respects_output_dir(monkeypatch, tmp_path: Path) -> None:
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path))
    report = benchmark_noiseless(small_spec(runs=1))
    out = emit_report(report, ReportFormat.CSV, "sub/bench.csv")
    assert out == tmp_path / "sub" / "bench.csv"
    assert out.exists()


def test_target_file_round_trip(tmp_path: Path) -> None:
    truth = build_topology(TopologySpec(TopologyKind.CIRCLE), 5)
    grid = TimeGrid((0.5, 0.6, 0.9))
    dist = concatenated_distribution(truth, ProbeState.ramp(5), grid)
    path = write_target(tmp_path / "target.json", dist, grid, "ramp")
    grid2, dist2, probe = load_target(path)
    assert grid2 == grid
    assert np.array_equal(dist2.flat, dist.flat)
    assert probe == "ramp"
    # files written before targets recorded their probe still load
    obj = json.loads(path.read_text())
    del obj["probe"]
    path.write_text(json.dumps(obj))
    grid3, dist3, probe = load_target(path)
    assert grid3 == grid and np.array_equal(dist3.flat, dist.flat)
    assert probe is None


def test_write_target_grid_mismatch(tmp_path: Path) -> None:
    truth = build_topology(TopologySpec(TopologyKind.STAR), 4)
    grid = TimeGrid((0.5, 0.6))
    dist = concatenated_distribution(truth, ProbeState.ramp(4), grid)
    with pytest.raises(ConfigError):
        write_target(tmp_path / "t.json", dist, TimeGrid((0.5,)), "ramp")


@pytest.mark.parametrize("n", [4.5, "4", True, 4.0])
def test_load_target_reads_n_as_a_whole_number(tmp_path: Path, n) -> None:
    truth = build_topology(TopologySpec(TopologyKind.STAR), 4)
    grid = TimeGrid((0.5, 0.6))
    dist = concatenated_distribution(truth, ProbeState.ramp(4), grid)
    path = write_target(tmp_path / "target.json", dist, grid, "ramp")
    obj = json.loads(path.read_text())
    obj["n"] = n
    path.write_text(json.dumps(obj))
    if n == 4.0:
        assert load_target(path)[1].n == 4
    else:
        with pytest.raises(ConfigError, match="whole number"):
            load_target(path)


def test_load_target_malformed(tmp_path: Path) -> None:
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    with pytest.raises(ConfigError):
        load_target(bad)
    bad.write_text(json.dumps({"n": 3, "times": [0.5]}))
    with pytest.raises(ConfigError):
        load_target(bad)
    bad.write_text(json.dumps({"n": 3, "times": [0.5], "slices": [[0.5, 0.5]]}))
    with pytest.raises(ConfigError):
        load_target(bad)
    bad.write_text(json.dumps({"n": 2, "times": [0.5], "slices": [[0.5, 0.5]], "probe": 0}))
    with pytest.raises(ConfigError):
        load_target(bad)
    for times, slices in (
        ([True, 2], [[0.5, 0.5], [0.5, 0.5]]),
        (["0.5", "0.6"], [[0.5, 0.5], [0.5, 0.5]]),
        ([0.5, 0.6], [["0.5", 0.5], [0.5, 0.5]]),
        ([0.5, 0.6], [[0.5, 0.5], [False, True]]),
    ):
        bad.write_text(json.dumps({"n": 2, "times": times, "slices": slices}))
        with pytest.raises(ConfigError, match="must be a number"):
            load_target(bad)
    with pytest.raises(OSError):
        load_target(tmp_path / "missing.json")
