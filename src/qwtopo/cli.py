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
from numbers import Real
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
    json_number,
    make_probe,
    node_count,
    write_target,
    load_target,
)
from .measurement import NoiseConfig, Outcome, sample_noisy_distribution

__all__ = ["cli_main"]


class _Parser(argparse.ArgumentParser):
    """argparse variant: usage errors exit 1, not 2; no abbreviations (--threshold is not --thresholds)."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, allow_abbrev=False, **kwargs)

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


def _add_ga(parser: argparse.ArgumentParser, halt_and_seed: bool = True) -> None:
    d = _GA_DEFAULT
    parser.add_argument("--np", type=int, help="population size (default 2*n_c^2)")
    parser.add_argument("--pe", type=float, help=f"elitist fraction, default {d.p_e}")
    parser.add_argument("--k", type=int, help=f"tournament size, default {d.k}")
    parser.add_argument("--pc", type=float, help=f"crossover probability, default {d.p_c}")
    parser.add_argument("--pm", type=float, help=f"per-gene mutation probability, default {d.p_m}")
    parser.add_argument("--ng", type=int, help=f"max generations, default {d.n_g}")
    parser.add_argument(
        "--metric", choices=["kld", "kolmogorov"], help=f"fitness metric, default {d.metric.value}"
    )
    if halt_and_seed:
        parser.add_argument("--threshold", type=float, help="halt threshold T (off by default)")
        parser.add_argument("--seed", type=int, help=f"master RNG seed, default {d.seed}")


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
    _add_ga(p, halt_and_seed=False)
    p.add_argument("--topology", help="topology family")
    p.add_argument("--n", help="node count")
    d = _NOISE_DEFAULT
    p.add_argument("--seed", type=int, dest="noise_seed", help=f"noise and search seed, default {d.seed}")
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
    for section in ("experiment", "ga", "noise"):
        if not isinstance(obj.get(section, {}), dict):
            raise ConfigError(f"config file {path}: section {section!r} must be a JSON object")
    return obj


def _pick(cli_value, file_section: dict, key: str, default, kind: type | None = None):
    """Flag, else config file, else default; a file value must be a ``kind`` (no bool) or the default."""
    if cli_value is not None:
        return cli_value
    value = file_section.get(key, default)
    if kind is not None and value is not default and (isinstance(value, bool) or not isinstance(value, kind)):
        raise ConfigError(f"config file value {key}={value!r} has the wrong type")
    return value


def _floats(value, what: str) -> tuple[float, ...]:
    """Numbers from a comma-separated string, or from a JSON list of numbers."""
    if isinstance(value, list):
        return tuple(json_number(part, f"an entry of {what}") for part in value)
    if not isinstance(value, str):
        raise ConfigError(f"cannot parse {what} from {value!r}")
    try:
        return tuple(float(part) for part in value.split(","))
    except ValueError:
        raise ConfigError(f"cannot parse {what} from {value!r}") from None


def _ga_from(args, cfg: dict) -> GAConfig:
    """Flag, then the config file's "ga" section, then GAConfig's default."""
    ga = cfg.get("ga", {})
    d = _GA_DEFAULT
    metric = _pick(args.metric, ga, "metric", d.metric.value)
    try:
        metric = Metric(metric)
    except ValueError:
        raise ConfigError(f"unknown metric {metric!r}; expected kld or kolmogorov") from None
    return GAConfig(
        n_p=_pick(args.np, ga, "n_p", d.n_p, int),
        p_e=_pick(args.pe, ga, "p_e", d.p_e, Real),
        k=_pick(args.k, ga, "k", d.k, int),
        p_c=_pick(args.pc, ga, "p_c", d.p_c, Real),
        p_m=_pick(args.pm, ga, "p_m", d.p_m, Real),
        n_g=_pick(args.ng, ga, "n_g", d.n_g, int),
        # a sweep has neither flag; it rejects a threshold and ignores the seed
        threshold=_pick(getattr(args, "threshold", None), ga, "threshold", d.threshold, Real),
        seed=_pick(getattr(args, "seed", None), ga, "seed", d.seed, int),
        metric=metric,
    )


def _times_from(args, cfg: dict) -> TimeGrid:
    exp = cfg.get("experiment", {})
    return TimeGrid(_floats(_pick(args.times, exp, "times", "0.5,0.6"), "times"))


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
    parts = value.split(",") if isinstance(value, str) else value if isinstance(value, list) else [value]
    return tuple(_node_count(part) for part in parts)


def _node_count(part) -> int:
    """A node count from a flag's text, else from a JSON number as :func:`node_count` reads it."""
    if isinstance(part, str):
        try:
            part = int(part)
        except ValueError:
            pass
    return node_count(part)


def _single_n_from(args, cfg: dict) -> int:
    values = _n_values_from(args, cfg)
    if len(values) != 1:
        raise ConfigError(f"{args.command} takes a single node count, got {values}")
    return values[0]


def _cmd_simulate(args) -> int:
    cfg = _load_config_file(args.config)
    spec = _topology_from(args, cfg)
    n = _single_n_from(args, cfg)
    grid = _times_from(args, cfg)
    probe = _probe_from(args, cfg)
    dist = concatenated_distribution(build_topology(spec, n), make_probe(probe, n), grid)
    section = cfg.get("noise", {})
    nr = _pick(args.nr, section, "n_r", None, int)
    if nr is not None:
        noise = NoiseConfig(n_r=nr, seed=_pick(args.seed, section, "seed", _NOISE_DEFAULT.seed, int))
        dist = sample_noisy_distribution(dist, noise.n_r, np.random.default_rng(noise.seed))
    print(json.dumps(dist.flat.tolist()))
    if args.output:
        write_target(args.output, dist, grid, probe)
    return 0


def _cmd_reconstruct(args) -> int:
    cfg = _load_config_file(args.config)
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
        n = _single_n_from(args, cfg)
        grid = _times_from(args, cfg)
        probe = _probe_from(args, cfg)
        target = concatenated_distribution(build_topology(spec, n), make_probe(probe, n), grid)
    result = run_ga(target, make_probe(probe, n), grid, _ga_from(args, cfg))
    summary = {
        "chromosome": result.best_chromosome.to_bitstring(),
        "halted_by": result.halted_by.value,
        "score": result.best_score,
        "generations": result.generations_used,
        "evaluations": result.evaluations,
    }
    print(json.dumps(summary, sort_keys=True))
    return 0


def _write_report(args, cfg: dict, report) -> int:
    """Write the report to --output (or experiment.output), if given."""
    exp = cfg.get("experiment", {})
    output = _pick(args.output, exp, "output", None)
    if output:
        emit_report(report, ReportFormat(_pick(args.format, exp, "format", "csv")), output)
    return 0


def _cmd_benchmark(args) -> int:
    cfg = _load_config_file(args.config)
    spec = ExperimentSpec(
        topology=_topology_from(args, cfg),
        n_values=_n_values_from(args, cfg),
        times=_times_from(args, cfg),
        runs=_pick(args.runs, cfg.get("experiment", {}), "runs", ExperimentSpec.runs, int),
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
    return _write_report(args, cfg, report)


def _noise_from(args, cfg: dict) -> NoiseConfig:
    """Flag, then the config file's "noise" section, then NoiseConfig's default."""
    noise = cfg.get("noise", {})
    d = _NOISE_DEFAULT
    return NoiseConfig(
        n_r=_pick(args.nr, noise, "n_r", d.n_r, int),
        thresholds=_floats(_pick(args.thresholds, noise, "thresholds", []), "thresholds"),
        mc_runs=_pick(args.mc_runs, noise, "mc_runs", d.mc_runs, int),
        inner_runs=_pick(args.inner_runs, noise, "inner_runs", d.inner_runs, int),
        seed=_pick(args.noise_seed, noise, "seed", d.seed, int),
    )


def _cmd_sweep(args) -> int:
    cfg = _load_config_file(args.config)
    report = benchmark_noisy(
        _topology_from(args, cfg),
        _single_n_from(args, cfg),
        _times_from(args, cfg),
        _ga_from(args, cfg),
        _noise_from(args, cfg),
        _probe_from(args, cfg),
    )
    for threshold, tally in report.tallies.items():
        print(f"T={threshold:.6g}: " + " ".join(f"{o.value}={tally[o]}" for o in Outcome))
    return _write_report(args, cfg, report)


# The parser cli_main reuses, built on its first call rather than at import.
_parser: _Parser | None = None


def cli_main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code.

    The parser is built on the first call and reused by later calls in
    the process; each call parses into a fresh namespace, so no parsed
    value carries over from one call to the next.
    """
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
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
