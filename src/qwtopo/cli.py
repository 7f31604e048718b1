"""Command-line interface.

Subcommands: ``simulate`` (emit a target distribution), ``reconstruct``
(run one search), ``benchmark`` (noiseless protocol), ``sweep`` (noise
protocol).  Exit codes: 0 success, 1 configuration or usage error, 2
runtime error.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .ctqw import TimeGrid, concatenated_distribution
from .errors import ConfigError
from .fitness import Metric
from .ga import GAConfig, run_ga
from .graph import build_topology, parse_topology_label
from .harness import (
    ExperimentSpec,
    ReportFormat,
    benchmark_noiseless,
    benchmark_noisy,
    emit_report,
    make_probe,
    write_target,
    load_target,
)
from .measurement import NoiseConfig, Outcome, sample_noisy_distribution

__all__ = ["cli_main"]


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors exit 1 instead of 2."""

    def exit(self, status: int = 0, message: str | None = None):
        if message:
            sys.stderr.write(message)
        raise SystemExit(1 if status != 0 else 0)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; flags override its values")
    parser.add_argument("--probe", help="probe state: ramp (default), uniform, or site:<k>")
    parser.add_argument("--times", help="comma-separated evolution times, default 0.5,0.6")


_GA_DEFAULT = GAConfig()
_NOISE_DEFAULT = NoiseConfig()


def _add_ga(parser: argparse.ArgumentParser) -> None:
    d = _GA_DEFAULT
    parser.add_argument("--np", type=int, help="population size (default 2*n_c^2)")
    parser.add_argument("--pe", type=float, help=f"elitist fraction, default {d.p_e}")
    parser.add_argument("--k", type=int, help=f"tournament size, default {d.k}")
    parser.add_argument("--pc", type=float, help=f"crossover probability, default {d.p_c}")
    parser.add_argument("--pm", type=float, help=f"per-gene mutation probability, default {d.p_m}")
    parser.add_argument("--ng", type=int, help=f"max generations, default {d.n_g}")
    parser.add_argument("--threshold", type=float, help="halt threshold T (off by default)")
    parser.add_argument("--seed", type=int, help=f"master RNG seed, default {d.seed}")
    parser.add_argument(
        "--metric", choices=["kld", "kolmogorov"], help=f"fitness metric, default {d.metric.value}"
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="qwtopo", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="emit the target distribution for a known topology")
    _add_common(p)
    p.add_argument("--topology", help="star, complete, line, circle, or edgelist:<path>")
    p.add_argument("--n", help="node count")
    p.add_argument("--nr", type=int, help="sample the noisy estimate with N_r shots per slice")
    p.add_argument("--seed", type=int, help=f"noise sampling seed, default {_NOISE_DEFAULT.seed}")
    p.add_argument("--output", help="also write a target JSON file here")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("reconstruct", help="run one search against a target distribution")
    _add_common(p)
    _add_ga(p)
    p.add_argument("--target", help="target JSON file from simulate")
    p.add_argument("--topology", help="generate the target from this topology instead")
    p.add_argument("--n", help="node count (required with --topology)")
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("benchmark", help="noiseless protocol: many seeded runs per size")
    _add_common(p)
    _add_ga(p)
    p.add_argument("--topology", help="topology family")
    p.add_argument("--n", help="node count or comma list, e.g. 5,6,7")
    p.add_argument("--runs", type=int, help=f"runs per size, default {ExperimentSpec.runs}")
    p.add_argument("--output", help="report file path")
    p.add_argument("--format", choices=["csv", "json"], help="report format, default csv")
    p.set_defaults(func=_cmd_benchmark)

    p = sub.add_parser("sweep", help="noise protocol: threshold sweep over MC samples")
    _add_common(p)
    _add_ga(p)
    p.add_argument("--topology", help="topology family")
    p.add_argument("--n", help="node count")
    d = _NOISE_DEFAULT
    p.add_argument("--nr", type=int, help=f"resources per time slice, default {d.n_r}")
    p.add_argument("--mc-runs", type=int, dest="mc_runs", help=f"Monte-Carlo samples, default {d.mc_runs}")
    p.add_argument(
        "--inner-runs", type=int, dest="inner_runs", help=f"searches per sample, default {d.inner_runs}"
    )
    p.add_argument("--thresholds", help="comma list; default 12 log-spaced over [4e-4, 0.2]")
    p.add_argument("--output", help="report file path")
    p.add_argument("--format", choices=["csv", "json"], help="report format, default csv")
    p.set_defaults(func=_cmd_sweep)

    return parser


def _load_config_file(path: str | None) -> dict:
    if not path:
        return {}
    try:
        obj = json.loads(Path(path).read_text())
    except OSError as exc:
        raise OSError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return obj


def _pick(cli_value, file_section: dict, key: str, default):
    if cli_value is not None:
        return cli_value
    if key in file_section:
        return file_section[key]
    return default


def _ga_from(args, cfg: dict) -> GAConfig:
    """Flag, then the config file's "ga" section, then GAConfig's default."""
    ga = cfg.get("ga", {})
    d = _GA_DEFAULT
    metric = _pick(getattr(args, "metric", None), ga, "metric", d.metric.value)
    try:
        metric = Metric(metric)
    except ValueError:
        raise ConfigError(f"unknown metric {metric!r}; expected kld or kolmogorov") from None
    return GAConfig(
        n_p=_pick(args.np, ga, "n_p", d.n_p),
        p_e=_pick(args.pe, ga, "p_e", d.p_e),
        k=_pick(args.k, ga, "k", d.k),
        p_c=_pick(args.pc, ga, "p_c", d.p_c),
        p_m=_pick(args.pm, ga, "p_m", d.p_m),
        n_g=_pick(args.ng, ga, "n_g", d.n_g),
        threshold=_pick(args.threshold, ga, "threshold", d.threshold),
        seed=_pick(args.seed, ga, "seed", d.seed),
        metric=metric,
    )


def _times_from(args, cfg: dict) -> TimeGrid:
    exp = cfg.get("experiment", {})
    times = _pick(args.times, exp, "times", "0.5,0.6")
    if isinstance(times, str):
        return TimeGrid.parse(times)
    return TimeGrid(tuple(float(t) for t in times))


def _probe_from(args, cfg: dict, recorded: str | None = None) -> str:
    """Flag, then config file, then the probe a target file records, then ramp."""
    probe = _pick(args.probe, cfg.get("experiment", {}), "probe", recorded or "ramp")
    if recorded is not None and probe != recorded:
        raise ConfigError(f"probe {probe} conflicts with --target, which records probe {recorded}")
    return probe


def _topology_from(args, cfg: dict):
    label = _pick(args.topology, cfg.get("experiment", {}), "topology", None)
    if label is None:
        raise ConfigError("a topology is required (--topology or config file)")
    return parse_topology_label(str(label))


def _n_values_from(args, cfg: dict) -> tuple[int, ...]:
    value = _pick(args.n, cfg.get("experiment", {}), "n", None)
    if value is None:
        raise ConfigError("a node count is required (--n or config file)")
    if isinstance(value, int):
        return (value,)
    if isinstance(value, (list, tuple)):
        return tuple(int(v) for v in value)
    try:
        return tuple(int(part) for part in str(value).split(","))
    except ValueError:
        raise ConfigError(f"cannot parse node counts from {value!r}") from None


def _cmd_simulate(args) -> int:
    cfg = _load_config_file(args.config)
    spec = _topology_from(args, cfg)
    values = _n_values_from(args, cfg)
    if len(values) != 1:
        raise ConfigError(f"simulate takes a single node count, got {values}")
    n = values[0]
    grid = _times_from(args, cfg)
    probe = _probe_from(args, cfg)
    truth = build_topology(spec, n)
    psi0 = make_probe(probe, n)
    dist = concatenated_distribution(truth, psi0, grid)
    nr = _pick(args.nr, cfg.get("noise", {}), "n_r", None)
    if nr is not None:
        seed = _pick(args.seed, cfg.get("noise", {}), "seed", _NOISE_DEFAULT.seed)
        dist = sample_noisy_distribution(dist, int(nr), np.random.default_rng(seed))
    print(json.dumps([float(p) for p in dist.flat]))
    if args.output:
        write_target(args.output, dist, grid, probe)
    return 0


def _cmd_reconstruct(args) -> int:
    cfg = _load_config_file(args.config)
    ga = _ga_from(args, cfg)
    target_path = _pick(args.target, cfg.get("experiment", {}), "target", None)
    if target_path and (args.topology or args.n):
        raise ConfigError("give either --target or --topology/--n, not both")
    if target_path:
        if args.times:
            raise ConfigError("--times conflicts with --target; the file fixes the times")
        grid, target, recorded = load_target(target_path)
        probe = _probe_from(args, cfg, recorded)
        n = target.n
    else:
        spec = _topology_from(args, cfg)
        values = _n_values_from(args, cfg)
        if len(values) != 1:
            raise ConfigError(f"reconstruct takes a single node count, got {values}")
        n = values[0]
        grid = _times_from(args, cfg)
        probe = _probe_from(args, cfg)
        target = concatenated_distribution(build_topology(spec, n), make_probe(probe, n), grid)
    psi0 = make_probe(probe, n)
    result = run_ga(target, psi0, grid, ga)
    print(
        json.dumps(
            {
                "chromosome": result.best_chromosome.to_bitstring(),
                "halted_by": result.halted_by.value,
                "score": result.best_score,
                "generations": result.generations_used,
                "evaluations": result.evaluations,
            },
            sort_keys=True,
        )
    )
    return 0


def _format_from(args, cfg: dict) -> ReportFormat:
    fmt = _pick(args.format, cfg.get("experiment", {}), "format", "csv")
    return ReportFormat(fmt)


def _cmd_benchmark(args) -> int:
    cfg = _load_config_file(args.config)
    spec = ExperimentSpec(
        topology=_topology_from(args, cfg),
        n_values=_n_values_from(args, cfg),
        times=_times_from(args, cfg),
        runs=_pick(args.runs, cfg.get("experiment", {}), "runs", ExperimentSpec.runs),
        ga=_ga_from(args, cfg),
        probe=_probe_from(args, cfg),
    )
    report = benchmark_noiseless(spec)
    for entry in report.entries:
        mean = "n/a" if entry.generations_mean is None else f"{entry.generations_mean:.2f}"
        print(
            f"{entry.topology} n={entry.n}: success_rate={entry.success_rate:.3f} "
            f"mean_generations={mean}"
        )
    output = _pick(args.output, cfg.get("experiment", {}), "output", None)
    if output:
        emit_report(report, _format_from(args, cfg), output)
    return 0


def _noise_from(args, cfg: dict) -> NoiseConfig:
    """Flag, then the config file's "noise" section, then NoiseConfig's default."""
    noise = cfg.get("noise", {})
    d = _NOISE_DEFAULT
    thresholds = _pick(args.thresholds, noise, "thresholds", None)
    if isinstance(thresholds, str):
        try:
            thresholds = tuple(float(part) for part in thresholds.split(","))
        except ValueError:
            raise ConfigError(f"cannot parse thresholds from {thresholds!r}") from None
    return NoiseConfig(
        n_r=_pick(args.nr, noise, "n_r", d.n_r),
        thresholds=tuple(thresholds or ()),
        mc_runs=_pick(args.mc_runs, noise, "mc_runs", d.mc_runs),
        inner_runs=_pick(args.inner_runs, noise, "inner_runs", d.inner_runs),
        seed=_pick(args.seed, noise, "seed", d.seed),
    )


def _cmd_sweep(args) -> int:
    cfg = _load_config_file(args.config)
    spec = ExperimentSpec(
        topology=_topology_from(args, cfg),
        n_values=_n_values_from(args, cfg),
        times=_times_from(args, cfg),
        runs=1,
        ga=_ga_from(args, cfg),
        noise=_noise_from(args, cfg),
        probe=_probe_from(args, cfg),
    )
    report = benchmark_noisy(spec)
    for threshold, tally in report.tallies.items():
        print(f"T={threshold:.6g}: " + " ".join(f"{o.value}={tally[o]}" for o in Outcome))
    output = _pick(args.output, cfg.get("experiment", {}), "output", None)
    if output:
        emit_report(report, _format_from(args, cfg), output)
    return 0


def cli_main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(cli_main())
