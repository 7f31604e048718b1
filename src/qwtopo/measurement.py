"""Finite-resource measurement noise and threshold-sweep classification.

Measured probabilities are simulated by Poisson-sampling each bin with
N_r expected shots per time, in one draw over the whole (K, n)
distribution, and renormalizing each time's counts.  A reconstruction
against a noisy target halts when its fitness drops below a threshold
T; sweeping T and classifying each run as TP/FP/TN/FN reproduces the
four-outcome analysis.
"""
from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from .ctqw import ConcatenatedDistribution, ProbeState, TimeGrid, concatenated_distribution
from .errors import ConfigError, seed_value, whole_count
from .ga import GAConfig, HaltReason, RunResult, SearchMemo, record_searches, run_ga
from .graph import CouplingString
from .seeding import derive_seed

__all__ = [
    "default_thresholds",
    "NoiseConfig",
    "Outcome",
    "sample_noisy_distribution",
    "classify_outcome",
    "monte_carlo_sweep",
]


# Population rows one lockstep group of a sweep may stack: 20 samples at
# n=5, 4 at n=7, one from n=9 on.  Measured at n=5 (80 samples, 2 vCPUs)
# on searches that bred all 100 generations, groups of 10, 20 and 40
# samples ran 1.13k, 1.28k and 1.42k runs/s against 0.55k alone, for a
# traced peak of 0.7, 1.4 and 2.4 MB; at n=7 groups of 2, 4 and 8 ran
# 164, 168 and 161 runs/s against 154 alone.  With n <= 6 searches
# settling within a few generations, the benchmark's n=5 noise sweep
# (groups of 10 samples) ran 8.4k-8.7k runs/s against 6.9k-7.1k alone.
LOCKSTEP_ROWS = 4096


def default_thresholds() -> tuple[float, ...]:
    """Twelve logarithmically spaced thresholds spanning [4e-4, 0.2]."""
    return tuple(float(t) for t in np.geomspace(4e-4, 0.2, 12))


@dataclass(frozen=True)
class NoiseConfig:
    """Noise model and sweep protocol parameters.

    ``n_r`` is the expected number of measurement shots per time slice;
    each Monte-Carlo run draws one noisy target and runs the search
    ``inner_runs`` times against it at every threshold.
    """

    n_r: int = 500
    thresholds: tuple[float, ...] = ()
    mc_runs: int = 100
    inner_runs: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_r", whole_count(self.n_r, "resource count"))
        object.__setattr__(self, "seed", seed_value(self.seed))
        if self.n_r < 1:
            raise ConfigError(f"resource count must be >= 1, got {self.n_r}")
        thresholds = tuple(float(t) for t in self.thresholds or default_thresholds())
        if not all(t > 0 for t in thresholds):
            raise ConfigError(f"thresholds must be > 0: {thresholds}")
        if any(b <= a for a, b in zip(thresholds, thresholds[1:])):
            raise ConfigError(f"thresholds must be strictly increasing: {thresholds}")
        object.__setattr__(self, "thresholds", thresholds)
        object.__setattr__(self, "mc_runs", whole_count(self.mc_runs, "mc_runs"))
        object.__setattr__(self, "inner_runs", whole_count(self.inner_runs, "inner_runs"))
        if self.mc_runs < 0:
            raise ConfigError(f"mc_runs must be >= 0, got {self.mc_runs}")
        if self.inner_runs < 1:
            raise ConfigError(f"inner_runs must be >= 1, got {self.inner_runs}")


class Outcome(enum.Enum):
    TP = "tp"
    FP = "fp"
    TN = "tn"
    FN = "fn"


def sample_noisy_distribution(
    truth: ConcatenatedDistribution, n_r: int, rng: np.random.Generator
) -> ConcatenatedDistribution:
    """Estimate the distribution from Poisson counts with N_r shots per time.

    Each bin draws count ~ Poisson(N_r * p) independently, in one call
    over the (K, n) array; each time's estimate is its counts over
    their sum.  A time whose counts are all zero falls back to uniform.
    """
    n_r = whole_count(n_r, "resource count")
    if n_r < 1:
        raise ConfigError(f"resource count must be >= 1, got {n_r}")
    counts = rng.poisson(n_r * truth.matrix)
    totals = counts.sum(axis=1, keepdims=True)
    return ConcatenatedDistribution(np.where(totals > 0, counts / np.maximum(totals, 1), 1.0 / truth.n))


def classify_outcome(result: RunResult, truth: CouplingString) -> Outcome:
    """Four-way outcome of one threshold-configured run.

    Halting below the threshold claims success (positive); hitting the
    generation cap claims failure (negative).  The claim is true or
    false according to whether the returned chromosome matches the real
    network.  A zero-fitness halt counts as a threshold halt, since a
    zero score is below any positive threshold.
    """
    matched = result.best_chromosome == truth
    if result.halted_by is HaltReason.MAX_GENERATIONS:
        return Outcome.FN if matched else Outcome.TN
    return Outcome.TP if matched else Outcome.FP


def monte_carlo_sweep(
    truth: CouplingString,
    psi0: ProbeState,
    grid: TimeGrid,
    ga: GAConfig,
    noise: NoiseConfig,
) -> dict[float, Counter[Outcome]]:
    """Outcome tallies per threshold over mc_runs noisy targets.

    Each Monte-Carlo run draws one noisy target (shared by all its
    thresholds and inner runs); each inner run re-seeds the search
    deterministically from (noise.seed, mc index, inner index), so a
    given inner run differs across thresholds only in when it halts.
    All searches against one target share one memo, so a genome is
    scored at most once per target (and, up to n = 6, propagated at most
    once per process, see ``ctqw.batch_site_distributions``).  Up to
    n = 6 the memo scores every genome before any search
    (``SearchMemo.fill``), and the first result read off it reports them
    all in ``evaluations``.  Consecutive samples are taken in groups of
    at most LOCKSTEP_ROWS population rows: for each inner index in turn,
    the group's searches are bred together to the lowest threshold, and
    every threshold's outcome is then read off the recorded
    trajectories.  A search whose best reaches its filled memo's lowest
    score settles there (see ``record_searches``): its outcome is fixed,
    and its records past that generation repeat the settling one.  Each
    search's seed is derived once and serves its breeding and all its
    read-offs, which go sample by sample, threshold by threshold, inner
    run by inner run.  The sweep sets every search's seed and threshold:
    the seed of ``ga`` is unused, a threshold rejected.
    """
    if ga.threshold is not None:
        raise ConfigError("a sweep sets the halt thresholds itself; drop the GA threshold")
    ideal = concatenated_distribution(truth, psi0, grid)
    tallies = {t: Counter() for t in noise.thresholds}
    n_p = ga.resolved_n_p(truth.n_c)
    group = max(1, LOCKSTEP_ROWS // n_p)
    for start in range(0, noise.mc_runs, group):
        samples = range(start, min(start + group, noise.mc_runs))
        targets = [
            sample_noisy_distribution(ideal, noise.n_r, np.random.default_rng(derive_seed(noise.seed, 0, mc)))
            for mc in samples
        ]
        memos = [SearchMemo(target, psi0, grid, ga.metric) for target in targets]
        # Filling pays at every table size, least at n = 6 with one search
        # per sample (1.13x-1.27x runs/s, BENCH_d57f74b-settle-n6.json).
        for memo in memos:
            memo.fill(group * n_p)
        # seeds[j][inner]: the seed of sample j's search ``inner``.
        seeds = [[derive_seed(noise.seed, 1, mc, inner) for inner in range(noise.inner_runs)] for mc in samples]
        for inner in range(noise.inner_runs):
            record_searches(memos, [replace(ga, threshold=noise.thresholds[0], seed=row[inner]) for row in seeds])
        for target, memo, row in zip(targets, memos, seeds):
            for threshold in noise.thresholds:
                for seed in row:
                    result = run_ga(target, psi0, grid, replace(ga, threshold=threshold, seed=seed), cache=memo)
                    tallies[threshold][classify_outcome(result, truth)] += 1
    return tallies if noise.mc_runs else {}
