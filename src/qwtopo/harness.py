"""Experiment orchestration and structured result output.

Reproduces the benchmark protocol: build a known network, simulate its
walk statistics, run the genetic search many times with derived seeds,
and report per-run outcomes as CSV or JSON.  The noisy variant sweeps
halt thresholds over Monte-Carlo noise samples.
"""
from __future__ import annotations

import enum
import json
import os
from collections import Counter
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .ctqw import ConcatenatedDistribution, ProbeState, TimeGrid, concatenated_distribution
from .errors import ConfigError, whole_count
from .ga import GAConfig, run_ga
from .graph import TopologySpec, build_topology
from .measurement import NoiseConfig, Outcome, monte_carlo_sweep
from .seeding import derive_seed, label_code

__all__ = [
    "OUTPUT_DIR_ENV",
    "ReportFormat",
    "ExperimentSpec",
    "RunRecord",
    "BenchmarkEntry",
    "BenchmarkReport",
    "SweepReport",
    "make_probe",
    "json_number",
    "node_count",
    "run_seed",
    "benchmark_noiseless",
    "benchmark_noisy",
    "emit_report",
    "report_from_json",
    "resolve_output_path",
    "write_target",
    "load_target",
]

# Relative output paths are resolved under this directory when it is set.
OUTPUT_DIR_ENV = "QWTOPO_OUTPUT_DIR"


class ReportFormat(enum.Enum):
    CSV = "csv"
    JSON = "json"


def make_probe(spec: str, n: int) -> ProbeState:
    """Probe state from a CLI name: ``ramp``, ``uniform``, or ``site:<k>``."""
    if spec == "ramp":
        return ProbeState.ramp(n)
    if spec == "uniform":
        return ProbeState.uniform(n)
    if spec.startswith("site:"):
        try:
            site = int(spec.split(":", 1)[1])
        except ValueError:
            raise ConfigError(f"cannot parse probe site in {spec!r}") from None
        return ProbeState.localized(n, site)
    raise ConfigError(f"unknown probe {spec!r}; expected ramp, uniform, or site:<k>")


def json_number(value, what: str) -> float:
    """A float from a JSON number (int or float); a bool, a string or anything else is an error."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    raise ConfigError(f"{what} must be a number, got {value!r}")


def node_count(value) -> int:
    """A whole node count from a JSON number: 5.0 is 5; 4.5, a string or a bool is an error."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    return whole_count(value, "node count")


def run_seed(master_seed: int, topology_label: str, n: int, run: int) -> int:
    """Per-run seed derived from (master seed, topology, n, run index).

    Stable under re-ordering and parallel execution: every run's seed
    depends only on its own coordinates.
    """
    return derive_seed(master_seed, label_code(topology_label), n, run)


@dataclass(frozen=True)
class ExperimentSpec:
    """One noiseless benchmark request: topology family, sizes, protocol knobs."""

    topology: TopologySpec
    n_values: tuple[int, ...]
    times: TimeGrid = field(default_factory=lambda: TimeGrid((0.5, 0.6)))
    runs: int = 100
    ga: GAConfig = field(default_factory=GAConfig)
    probe: str = "ramp"

    def __post_init__(self) -> None:
        n_values = tuple(node_count(n) for n in self.n_values)
        if not n_values:
            raise ConfigError("need at least one network size")
        if any(n < 2 for n in n_values):
            raise ConfigError(f"network sizes must be >= 2: {n_values}")
        object.__setattr__(self, "n_values", n_values)
        object.__setattr__(self, "runs", whole_count(self.runs, "runs"))
        if self.runs < 1:
            raise ConfigError(f"runs must be >= 1, got {self.runs}")


@dataclass(frozen=True)
class RunRecord:
    run: int
    seed: int
    success: bool
    generations: int
    evaluations: int
    chromosome: str
    score: float
    halted_by: str


@dataclass(frozen=True)
class BenchmarkEntry:
    topology: str
    n: int
    n_p: int
    records: tuple[RunRecord, ...]

    @property
    def success_rate(self) -> float:
        return sum(r.success for r in self.records) / len(self.records)

    @property
    def generations_mean(self) -> float | None:
        gens = [r.generations for r in self.records if r.success]
        return float(np.mean(gens)) if gens else None

    @property
    def generations_std(self) -> float | None:
        gens = [r.generations for r in self.records if r.success]
        return float(np.std(gens)) if gens else None


@dataclass(frozen=True)
class BenchmarkReport:
    config: dict
    entries: tuple[BenchmarkEntry, ...]


@dataclass(frozen=True)
class SweepReport:
    config: dict
    tallies: dict[float, Counter[Outcome]]


def _ga_echo(ga: GAConfig) -> dict:
    return {**asdict(ga), "metric": ga.metric.value}


def benchmark_noiseless(spec: ExperimentSpec) -> BenchmarkReport:
    """Run the search ``spec.runs`` times per network size, noiselessly.

    Run r of size n uses the derived seed run_seed(master, label, n, r)
    with the master seed taken from spec.ga.seed; success means the
    returned chromosome equals the true coupling string.
    """
    label = spec.topology.label()
    entries = []
    for n in spec.n_values:
        truth = build_topology(spec.topology, n)
        psi0 = make_probe(spec.probe, n)
        target = concatenated_distribution(truth, psi0, spec.times)
        n_p = spec.ga.resolved_n_p(truth.n_c)
        records = []
        for r in range(spec.runs):
            seed = run_seed(spec.ga.seed, label, n, r)
            result = run_ga(target, psi0, spec.times, replace(spec.ga, seed=seed))
            records.append(
                RunRecord(
                    run=r,
                    seed=seed,
                    success=result.best_chromosome == truth,
                    generations=result.generations_used,
                    evaluations=result.evaluations,
                    chromosome=result.best_chromosome.to_bitstring(),
                    score=result.best_score,
                    halted_by=result.halted_by.value,
                )
            )
        entries.append(BenchmarkEntry(topology=label, n=n, n_p=n_p, records=tuple(records)))
    config = {
        "protocol": "noiseless",
        "topology": label,
        "n_values": list(spec.n_values),
        "times": list(spec.times.times),
        "runs": spec.runs,
        "probe": spec.probe,
        "ga": _ga_echo(spec.ga),
    }
    return BenchmarkReport(config=config, entries=tuple(entries))


def benchmark_noisy(
    topology: TopologySpec,
    n: int,
    times: TimeGrid,
    ga: GAConfig,
    noise: NoiseConfig,
    probe: str = "ramp",
) -> SweepReport:
    """Threshold sweep over Monte-Carlo noise samples for one size.

    The echo of ``ga`` leaves out the seed and threshold the sweep sets.
    """
    tallies = monte_carlo_sweep(build_topology(topology, n), make_probe(probe, n), times, ga, noise)
    config = {
        "protocol": "sweep",
        "topology": topology.label(),
        "n_values": [n],
        "times": list(times.times),
        "probe": probe,
        "ga": {k: v for k, v in _ga_echo(ga).items() if k not in ("seed", "threshold")},
        "noise": {**asdict(noise), "thresholds": list(noise.thresholds)},
    }
    return SweepReport(config=config, tallies=tallies)


def resolve_output_path(path: str | Path) -> Path:
    """Resolve a relative output path under $QWTOPO_OUTPUT_DIR, if set."""
    path = Path(path)
    base = os.environ.get(OUTPUT_DIR_ENV)
    if base and not path.is_absolute():
        return Path(base) / path
    return path


BENCHMARK_CSV_HEADER = "topology,n,run,seed,success,generations,evaluations,chromosome"
SWEEP_CSV_HEADER = "threshold,N_r,tp,fp,tn,fn,total"


def _benchmark_csv(report: BenchmarkReport) -> str:
    lines = [BENCHMARK_CSV_HEADER]
    for entry in report.entries:
        for r in entry.records:
            success = "true" if r.success else "false"
            lines.append(
                f"{entry.topology},{entry.n},{r.run},{r.seed},{success},"
                f"{r.generations},{r.evaluations},{r.chromosome}"
            )
    return "\n".join(lines) + "\n"


def _sweep_rows(report: SweepReport) -> list[dict]:
    """One row per threshold, in SWEEP_CSV_HEADER's column order."""
    n_r = report.config["noise"]["n_r"]
    return [
        {"threshold": t, "N_r": n_r, **{o.value: tally[o] for o in Outcome}, "total": tally.total()}
        for t, tally in report.tallies.items()
    ]


def _sweep_csv(report: SweepReport) -> str:
    lines = [SWEEP_CSV_HEADER] + [",".join(map(str, row.values())) for row in _sweep_rows(report)]
    return "\n".join(lines) + "\n"


def _benchmark_json_obj(report: BenchmarkReport) -> dict:
    results = []
    for entry in report.entries:
        results.append(
            {
                "topology": entry.topology,
                "n": entry.n,
                "n_p": entry.n_p,
                "success_rate": entry.success_rate,
                "generations_mean": entry.generations_mean,
                "generations_std": entry.generations_std,
                "runs": [asdict(r) for r in entry.records],
                "raster": [[int(c) for c in r.chromosome] for r in entry.records],
            }
        )
    return {"config": report.config, "results": results}


def report_to_text(report: BenchmarkReport | SweepReport, fmt: ReportFormat) -> str:
    """Serialize a report; output is byte-stable for identical inputs."""
    if fmt is ReportFormat.CSV:
        if isinstance(report, BenchmarkReport):
            return _benchmark_csv(report)
        return _sweep_csv(report)
    if isinstance(report, BenchmarkReport):
        obj = _benchmark_json_obj(report)
    else:
        obj = {"config": report.config, "results": _sweep_rows(report)}
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def emit_report(
    report: BenchmarkReport | SweepReport, fmt: ReportFormat, path: str | Path
) -> Path:
    """Write the report to disk; returns the resolved path."""
    target = resolve_output_path(path)
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(report_to_text(report, fmt))
    except OSError as exc:
        raise OSError(f"cannot write report to {target}: {exc}") from exc
    return target


def report_from_json(text: str) -> BenchmarkReport | SweepReport:
    """Rebuild a report from its JSON serialization.

    Raises ConfigError for a sweep row whose total is not the sum of its
    counts, a threshold with more than one sweep row, or a run row whose
    keys are not RunRecord's fields.
    """
    obj = json.loads(text)
    config = obj["config"]
    if config.get("protocol") == "sweep":
        tallies = {}
        for row in obj["results"]:
            tally = Counter({o: row[o.value] for o in Outcome})
            if tally.total() != row["total"]:
                raise ConfigError(f"sweep row {row}: total does not equal the sum of its counts")
            if row["threshold"] in tallies:
                raise ConfigError(f"sweep has more than one row for threshold {row['threshold']!r}")
            tallies[row["threshold"]] = tally
        return SweepReport(config=config, tallies=tallies)
    entries = []
    for res in obj["results"]:
        try:
            records = tuple(RunRecord(**r) for r in res["runs"])
        except TypeError as exc:
            raise ConfigError(f"benchmark run row does not match RunRecord: {exc}") from None
        entries.append(
            BenchmarkEntry(topology=res["topology"], n=res["n"], n_p=res["n_p"], records=records)
        )
    return BenchmarkReport(config=config, entries=tuple(entries))


def write_target(
    path: str | Path, dist: ConcatenatedDistribution, grid: TimeGrid, probe: str
) -> Path:
    """Save a target distribution as JSON {n, times, probe, slices}, one row per time.

    ``probe`` is the label of the initial state the walk started from.
    """
    if len(grid) != dist.k:
        raise ConfigError(f"grid has {len(grid)} times but the distribution has {dist.k}")
    target = resolve_output_path(path)
    obj = {
        "n": dist.n,
        "times": list(grid.times),
        "probe": probe,
        "slices": dist.matrix.tolist(),
    }
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write target to {target}: {exc}") from exc
    return target


def load_target(path: str | Path) -> tuple[TimeGrid, ConcatenatedDistribution, str | None]:
    """Load a JSON target file written by :func:`write_target`.

    A relative path resolves under $QWTOPO_OUTPUT_DIR, as it does when written.

    Returns the grid, the distribution and the probe label, which is
    None for files written before targets recorded their probe.
    """
    path = resolve_output_path(path)
    try:
        obj = json.loads(path.read_text())
    except OSError as exc:
        raise OSError(f"cannot read target from {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"target file {path} is not valid JSON: {exc}") from None
    try:
        n = node_count(obj["n"])
        grid = TimeGrid(tuple(json_number(t, "a time") for t in obj["times"]))
        rows = obj["slices"]
        matrix = np.asarray([[json_number(p, "a slice entry") for p in row] for row in rows], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"target file {path} is malformed: {exc}") from None
    probe = obj.get("probe")
    if probe is not None and not isinstance(probe, str):
        raise ConfigError(f"target file {path}: probe must be a label, got {probe!r}")
    if matrix.ndim != 2 or matrix.shape != (len(grid), n):
        raise ConfigError(
            f"target file {path}: a {matrix.shape} array of probabilities does not match "
            f"{len(grid)} times and n={n}"
        )
    return grid, ConcatenatedDistribution(matrix), probe
