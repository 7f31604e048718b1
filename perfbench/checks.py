"""Checks of qwtopo's reports against the oracle and the method's properties.

Each check takes the parsed JSON report of one ``cli_main`` call and the
request that produced it, and returns how many of the requested
reconstructions failed a check, plus how many returned the true network.
Nothing is compared against a stored copy of earlier output.
"""
from __future__ import annotations

from dataclasses import dataclass

import oracle

SCORE_TOL = 1e-9
DIST_TOL = 1e-12
THRESHOLD_RTOL = 1e-12
N_G = 100  # default generation budget
N_R = 500  # shots per time slice in the sweep


@dataclass(frozen=True)
class Request:
    """What one cli_main call was asked for, as the checks need it."""

    topology: str
    n_values: tuple[int, ...]
    times: tuple[float, ...]
    seed: int
    runs: int = 1  # benchmark: runs per size
    mc_runs: int = 0  # sweep: noise samples
    inner_runs: int = 0

    @property
    def expected(self) -> int:
        """Reconstructions the request asks for."""
        if self.mc_runs:
            return self.mc_runs * self.inner_runs * len(oracle.default_thresholds())
        return self.runs * len(self.n_values)


@dataclass(frozen=True)
class Outcome:
    failed: int
    recovered: int


class Truths:
    """Oracle truths and target distributions, computed once per size."""

    def __init__(self, topology: str, times: tuple[float, ...]) -> None:
        self.topology = topology
        self.times = list(times)
        self._cache: dict[int, tuple[str, object]] = {}

    def get(self, n: int):
        if n not in self._cache:
            a = oracle.adjacency(oracle.edges(self.topology, n), n)
            self._cache[n] = (oracle.chromosome(self.topology, n), oracle.distribution(a, self.times))
        return self._cache[n]


def _run_ok(row: dict, index: int, n: int, req: Request, truth: str, target) -> bool:
    if row["run"] != index or row["seed"] != oracle.run_seed(req.seed, req.topology, n, index):
        return False
    chrom, score = row["chromosome"], row["score"]
    model = oracle.distribution(oracle.adjacency_from_chromosome(chrom, n), req.times)
    if not score >= 0 or abs(oracle.kld(model, target) - score) > SCORE_TOL:
        return False
    if row["success"] != (chrom == truth):
        return False
    if row["success"] and row["halted_by"] != "ZeroFitness":
        return False
    gens = row["generations"]
    if not 0 <= gens <= N_G:
        return False
    scored = N_G if row["halted_by"] == "MaxGenerations" else gens + 1
    n_c = n * (n - 1) // 2
    return 1 <= row["evaluations"] <= 2 * n_c * n_c * scored


def check_benchmark(obj: dict, req: Request, truths: Truths) -> Outcome:
    """Per-run checks of a noiseless benchmark report."""
    config = obj.get("config", {})
    asked = {
        "protocol": "noiseless",
        "topology": req.topology,
        "n_values": list(req.n_values),
        "times": list(req.times),
        "runs": req.runs,
        "probe": "ramp",
    }
    if any(config.get(k) != v for k, v in asked.items()):
        return Outcome(req.expected, 0)
    results = obj.get("results", [])
    failed = recovered = 0
    for i, n in enumerate(req.n_values):
        entry = results[i] if i < len(results) else {}
        rows = entry.get("runs", []) if entry.get("n") == n else []
        if len(rows) > req.runs:
            rows = []
        truth, target = truths.get(n)
        for r in range(req.runs):
            try:
                ok = r < len(rows) and _run_ok(rows[r], r, n, req, truth, target)
            except (KeyError, TypeError, ValueError):
                ok = False
            if not ok:
                failed += 1
            elif rows[r]["success"]:
                recovered += 1
    return Outcome(failed, recovered)


def check_sweep(obj: dict, req: Request) -> Outcome:
    """Per-threshold checks of a sweep report.

    A threshold whose tally breaks conservation, or whose positives
    (tp + fp) fall below the previous threshold's, counts all of its
    runs as failed.
    """
    config = obj.get("config", {})
    noise = config.get("noise", {})
    asked = {"n_r": N_R, "mc_runs": req.mc_runs, "inner_runs": req.inner_runs, "seed": req.seed}
    thresholds = oracle.default_thresholds()
    per_threshold = req.mc_runs * req.inner_runs
    if (
        config.get("protocol") != "sweep"
        or config.get("topology") != req.topology
        or config.get("n_values") != list(req.n_values)
        or config.get("times") != list(req.times)
        or config.get("probe") != "ramp"
        or any(noise.get(k) != v for k, v in asked.items())
    ):
        return Outcome(req.expected, 0)
    rows = obj.get("results", [])
    failed = recovered = 0
    positives = 0
    for i, threshold in enumerate(thresholds):
        try:
            row = rows[i]
            counts = [row["tp"], row["fp"], row["tn"], row["fn"]]
            ok = (
                abs(row["threshold"] - threshold) <= THRESHOLD_RTOL * threshold
                and row["N_r"] == N_R
                and min(counts) >= 0
                and sum(counts) == row["total"] == per_threshold
                and row["tp"] + row["fp"] >= positives
            )
        except (IndexError, KeyError, TypeError):
            ok = False
        if ok:
            positives = row["tp"] + row["fp"]
            recovered += row["tp"] + row["fn"]
        else:
            failed += per_threshold
    if len(rows) > len(thresholds):
        return Outcome(req.expected, 0)
    return Outcome(failed, recovered)


def check_simulated(printed: list[float], truths: Truths, n: int) -> bool:
    """The truth's distribution as ``qwtopo simulate`` prints it."""
    _, target = truths.get(n)
    return len(printed) == len(target) and max(abs(p - t) for p, t in zip(printed, target)) <= DIST_TOL
