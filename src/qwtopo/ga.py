"""Genetic search over coupling strings.

Each generation is scored against the target distribution, the best
individuals are cloned unchanged (elitism), and the remaining slots are
filled with children bred two at a time: tournament-select two parents,
single-point crossover with probability p_c, then per-gene bit-flip
mutation.  The search halts on a configured fitness threshold, on exact
zero fitness, or after n_g generations.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .ctqw import ConcatenatedDistribution, ProbeState, TimeGrid, batch_site_distributions
from .errors import ConfigError, ShapeError, seed_value, whole_count
from .fitness import Metric, batch_kld, batch_kolmogorov
from .graph import CouplingString

__all__ = [
    "ZERO_TOL",
    "HaltReason",
    "GAConfig",
    "RunResult",
    "SearchMemo",
    "run_ga",
]

# Scores below this count as exactly zero for the noiseless halt test.
ZERO_TOL = 1e-15
# Genome length up to which a memo scores into a table of every genome
# (n <= 6, 2**15 entries); longer genomes go into a dict.
TABLE_GENES = 15


class HaltReason(enum.Enum):
    ZERO_FITNESS = "ZeroFitness"
    THRESHOLD = "Threshold"
    MAX_GENERATIONS = "MaxGenerations"


@dataclass(frozen=True)
class GAConfig:
    """Hyperparameters of the search.

    ``n_p=None`` means the population defaults to 2 * n_c ** 2 for the
    genome length at hand.
    """

    n_p: int | None = None
    p_e: float = 0.02
    k: int = 6
    p_c: float = 0.85
    p_m: float = 0.05
    n_g: int = 100
    threshold: float | None = None
    seed: int = 0
    metric: Metric = Metric.KLD

    def __post_init__(self) -> None:
        if self.n_p is not None:
            object.__setattr__(self, "n_p", whole_count(self.n_p, "population size"))
        object.__setattr__(self, "k", whole_count(self.k, "tournament size"))
        object.__setattr__(self, "n_g", whole_count(self.n_g, "generation budget"))
        object.__setattr__(self, "seed", seed_value(self.seed))
        if self.n_p is not None and self.n_p < 2:
            raise ConfigError(f"population size must be >= 2, got {self.n_p}")
        if not 0 <= self.p_e < 1:
            raise ConfigError(f"elitist fraction must be in [0, 1), got {self.p_e}")
        if self.k < 1:
            raise ConfigError(f"tournament size must be >= 1, got {self.k}")
        if not 0 <= self.p_c <= 1:
            raise ConfigError(f"crossover probability must be in [0, 1], got {self.p_c}")
        if not 0 <= self.p_m <= 1:
            raise ConfigError(f"mutation probability must be in [0, 1], got {self.p_m}")
        if self.n_g < 1:
            raise ConfigError(f"generation budget must be >= 1, got {self.n_g}")
        if self.threshold is not None and not self.threshold >= 0:
            raise ConfigError(f"threshold must be >= 0, got {self.threshold}")
        if not isinstance(self.metric, Metric):
            raise ConfigError(f"metric must be a Metric, got {self.metric!r}")

    def resolved_n_p(self, n_c: int) -> int:
        return self.n_p if self.n_p is not None else 2 * n_c * n_c

    def elite_count(self, n_p: int) -> int:
        """round(p_e * n_p), bumped so the child count n_p - e is even.

        Children are produced in pairs, so the slots left after cloning
        the hall of fame must come in twos.  The bump goes up unless
        that would leave no child, then down.  Raises ConfigError when
        the rounding alone leaves no child to breed.
        """
        e = round(self.p_e * n_p)
        if (n_p - e) % 2:
            e = e + 1 if n_p - e > 1 else e - 1
        if n_p - e < 2:
            raise ConfigError(f"elitist fraction p_e={self.p_e} clones all n_p={n_p} genomes, leaving no child to breed")
        return e


@dataclass(frozen=True)
class RunResult:
    best_chromosome: CouplingString
    best_score: float
    generations_used: int
    halted_by: HaltReason
    evaluations: int


def _breed(
    bits: np.ndarray,
    scores: np.ndarray,
    n_children: int,
    cfg: GAConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """Produce n_children new genomes from the scored population.

    All pairs are bred in one vectorized pass; the generator is consumed
    in a fixed order (tournament draws, crossover gates, split points
    for the crossing pairs, mutation flips), which keeps runs
    reproducible for a given seed.  A crossing pair swaps the genes past
    its split point in place: XOR-ing both parents with
    swap = (first ^ second) & tail exchanges their tails.
    """
    n_p, n_c = bits.shape
    n_pairs = n_children // 2
    draws = rng.integers(0, n_p, size=(2 * n_pairs, cfg.k))
    winners = draws[np.arange(2 * n_pairs), np.argmin(scores[draws], axis=1)]
    parents = bits[winners].reshape(n_pairs, 2, n_c)
    gates = rng.random(n_pairs) < cfg.p_c
    n_cross = int(gates.sum())
    if n_cross and n_c >= 2:
        # A pair that does not cross keeps split n_c - 1: an empty tail.
        splits = np.full(n_pairs, n_c - 1)
        splits[gates] = rng.integers(0, n_c - 1, size=n_cross)
        tail = np.arange(n_c) > splits[:, None]
        first, second = parents[:, 0], parents[:, 1]
        swap = (first ^ second) & tail
        first ^= swap
        second ^= swap
    children = parents.reshape(2 * n_pairs, n_c)
    children ^= rng.random(size=children.shape) < cfg.p_m
    return children


def _evaluate(bits: np.ndarray, memo: SearchMemo) -> tuple[np.ndarray, int]:
    """Score every row against the memo's objective; returns (scores, new evals).

    Scores are never negative, so -1.0 marks a row the memo misses.  The
    distinct missed genomes are scored in one batch, in order of first
    appearance.  A table memo keys each row by its genome code, a dict
    memo by its bytes, taken for the whole population in one view.
    """
    n_c = bits.shape[1]
    if isinstance(memo.store, np.ndarray):
        codes = bits @ (1 << np.arange(n_c))
        scores = memo.store[codes]
        missed = np.flatnonzero(scores < 0)
        if not missed.size:
            return scores, 0
        missed_codes = codes[missed]
        _, first = np.unique(missed_codes, return_index=True)
        first.sort()
        memo.store[missed_codes[first]] = _divergences(bits[missed[first]], memo)
        scores[missed] = memo.store[missed_codes]
        return scores, len(first)
    cache = memo.store
    keys = np.ascontiguousarray(bits, dtype=np.uint8).view(f"V{n_c}").ravel().tolist()
    scores = np.array([cache.get(key, -1.0) for key in keys])
    missed = np.flatnonzero(scores < 0)
    if not missed.size:
        return scores, 0
    missed_keys = [keys[i] for i in missed.tolist()]
    new_keys = list(dict.fromkeys(missed_keys))
    fresh = np.frombuffer(b"".join(new_keys), dtype=np.uint8).reshape(len(new_keys), n_c)
    cache.update(zip(new_keys, _divergences(fresh, memo).tolist()))
    scores[missed] = [cache[key] for key in missed_keys]
    return scores, len(new_keys)


def _divergences(fresh: np.ndarray, memo: SearchMemo) -> np.ndarray:
    """Propagate the rows in one batch and score them against the memo's target."""
    models = batch_site_distributions(fresh, memo.n, memo.psi0.amplitudes, memo.grid.times)
    flat = models.reshape(len(fresh), -1)
    if memo.metric is Metric.KLD:
        return batch_kld(flat, memo.target_flat)
    return batch_kolmogorov(flat, memo.target_flat)


class _Record(NamedTuple):
    """One generation of a search, as the halt rule reads it."""

    current: float  # this generation's best score
    best_score: float  # best score seen up to and including it
    best_bits: np.ndarray  # the genome that scored best_score


class SearchMemo:
    """The memo of searches against one target, probe, times and metric.

    It checks the shapes once, here, and ``run_ga`` raises ConfigError
    for a run against another objective.  ``store`` holds the scores,
    filled as genomes are first met.  Up to TABLE_GENES genes (n <= 6) it
    is a float64 table of 2**n_c entries, 8 KB at n=5 and 256 KB at n=6,
    indexed by the genome code sum(bit_j * 2**j) and holding -1.0 for a
    genome not scored yet; for longer genomes it is a dict from genome
    bytes to score.  ``scored`` counts the genomes it holds.  ``runs``
    maps a config with its threshold dropped to the longest trajectory
    recorded for it, one record per generation.
    """

    def __init__(self, target: ConcatenatedDistribution, psi0: ProbeState, grid: TimeGrid, metric: Metric) -> None:
        n = target.n
        if psi0.n != n:
            raise ShapeError(f"probe has {psi0.n} amplitudes but the target has {n} sites")
        if len(grid) != target.k:
            raise ShapeError(f"grid has {len(grid)} times but the target has {target.k}")
        if n < 2:
            raise ConfigError(f"need at least 2 nodes to search, got n={n}")
        self.n, self.psi0, self.grid, self.metric = n, psi0, grid, metric
        self.target_flat = target.flat
        n_c = n * (n - 1) // 2
        self.store: np.ndarray | dict[bytes, float] = np.full(1 << n_c, -1.0) if n_c <= TABLE_GENES else {}
        self.runs: dict[GAConfig, list[_Record]] = {}

    @property
    def scored(self) -> int:
        """How many distinct genomes the memo holds a score for."""
        if isinstance(self.store, dict):
            return len(self.store)
        return int(np.count_nonzero(self.store >= 0))

    def serves(self, target: ConcatenatedDistribution, psi0: ProbeState, grid: TimeGrid, metric: Metric) -> bool:
        """Whether the objective is this memo's, comparing the target and probe by value."""
        return (
            metric is self.metric
            and grid.times == self.grid.times
            and np.array_equal(psi0.amplitudes, self.psi0.amplitudes)
            and np.array_equal(target.flat, self.target_flat)
        )


def run_ga(
    target: ConcatenatedDistribution,
    psi0: ProbeState,
    grid: TimeGrid,
    config: GAConfig,
    cache: SearchMemo | None = None,
) -> RunResult:
    """Search for the coupling string whose walk statistics match the target.

    Per generation: score everyone, halt if the generation's best beats
    the threshold (checked first) or is below ZERO_TOL (scores are never
    negative), otherwise clone the hall of fame and breed the rest.
    Returns the best individual ever seen; ``evaluations`` counts the
    distinct genomes scored that were not in the memo yet.

    ``cache`` is the memo, a fresh one by default; a memo made for
    another target, probe, times or metric raises ConfigError (target
    and probe are compared by value).  The threshold test draws no
    random numbers, so searches that differ only in threshold follow one
    trajectory, which the memo records.  A search whose outcome the
    records decide is read off them; any other runs from generation 0
    again, re-breeding the recorded prefix from memoised scores.
    """
    if cache is None:
        cache = SearchMemo(target, psi0, grid, config.metric)
    elif not cache.serves(target, psi0, grid, config.metric):
        raise ConfigError("the memo was made for another target, probe, times or metric")
    search = replace(config, threshold=None)
    if (result := _outcome(cache.runs.get(search, []), config, cache.n, 0)) is not None:
        return result
    n_c = cache.n * (cache.n - 1) // 2
    n_p = config.resolved_n_p(n_c)
    e = config.elite_count(n_p)
    rng = np.random.default_rng(config.seed)
    bits = rng.integers(0, 2, size=(n_p, n_c), dtype=np.uint8)
    records: list[_Record] = []
    best_score, best_bits, evaluations = np.inf, bits[0], 0
    for gen in range(config.n_g):
        if gen:
            elites = bits[np.argsort(scores, kind="stable")[:e]]
            bits = np.concatenate([elites, _breed(bits, scores, n_p - e, config, rng)], axis=0)
        scores, fresh = _evaluate(bits, cache)
        evaluations += fresh
        leader = int(np.argmin(scores))
        current = float(scores[leader])
        if current < best_score:
            best_score, best_bits = current, bits[leader].copy()
        records.append(_Record(current, best_score, best_bits))
        if _halt(records[-1], config.threshold) is not None:
            break
    cache.runs[search] = records
    return _outcome(records, config, cache.n, evaluations)


def _halt(record: _Record, threshold: float | None) -> HaltReason | None:
    """Why the search halts at this generation, the threshold tested first; None if it goes on."""
    if threshold is not None and record.current < threshold:
        return HaltReason.THRESHOLD
    if record.current < ZERO_TOL:
        return HaltReason.ZERO_FITNESS
    return None


def _outcome(records: list[_Record], config: GAConfig, n: int, evaluations: int) -> RunResult | None:
    """The result at the first generation ``_halt`` stops, else MaxGenerations at n_g records; else None."""
    for gen, record in enumerate(records):
        reason = _halt(record, config.threshold)
        if reason is not None:
            break
    else:
        if len(records) < config.n_g:
            return None
        gen, reason = config.n_g, HaltReason.MAX_GENERATIONS
    return RunResult(CouplingString(record.best_bits, n), record.best_score, gen, reason, evaluations)
