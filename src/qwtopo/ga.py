"""Genetic search over coupling strings.

Each generation is scored against the target distribution, the best
individuals are cloned unchanged (elitism), and the remaining slots are
filled with children bred two at a time: tournament-select two parents,
single-point crossover with probability p_c, then per-gene bit-flip
mutation.  The search halts on a configured fitness threshold, on exact
zero fitness, or after n_g generations.  Searches that differ only in
seed and threshold can be bred in lockstep (``record_searches``), each
with its own generator and memo; ``run_ga`` is the one-search case.
"""
from __future__ import annotations

import enum
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate, chain, repeat
from typing import NamedTuple

import numpy as np

from .ctqw import ConcatenatedDistribution, ProbeState, TimeGrid, batch_site_distributions
from .errors import ConfigError, ShapeError, seed_value, whole_count
from .fitness import Metric, batch_kld, batch_kolmogorov
from .graph import TABLE_GENES, CouplingString, genome_bits, genome_codes

__all__ = [
    "ZERO_TOL",
    "HaltReason",
    "GAConfig",
    "RunResult",
    "SearchMemo",
    "run_ga",
    "record_searches",
]

# Scores below this count as exactly zero for the noiseless halt test.
ZERO_TOL = 1e-15


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
    *rngs: np.random.Generator,
) -> np.ndarray:
    """Produce n_children new genomes per search from the scored populations.

    ``bits`` and ``scores`` stack the populations of one search per
    generator in equal blocks of rows, and the children come out stacked
    the same way.  Each search consumes its own generator in a fixed
    order (tournament draws, crossover gates, split points for the
    crossing pairs, mutation flips), so its children do not depend on
    the searches bred beside it and runs stay reproducible for a given
    seed.  Tournaments, crossovers and flips then run for all searches
    in one vectorized pass.  A crossing pair swaps the genes past its
    split point in place: XOR-ing both parents with
    swap = (first ^ second) & tail exchanges their tails.
    """
    n_runs, n_c = len(rngs), bits.shape[1]
    n_p = len(bits) // n_runs
    n_pairs = n_children // 2
    draws = []
    flips = np.empty((n_runs, 2 * n_pairs, n_c), dtype=bool)
    # A pair that does not cross keeps split n_c - 1: an empty tail.
    splits = np.full((n_runs, n_pairs), n_c - 1)
    for i, rng in enumerate(rngs):
        # A draw from [low, low + n_p) is low plus the draw from [0, n_p).
        draws.append(rng.integers(i * n_p, (i + 1) * n_p, size=(2 * n_pairs, cfg.k)))
        gates = rng.random(n_pairs) < cfg.p_c
        n_cross = int(np.count_nonzero(gates))
        if n_cross and n_c >= 2:
            splits[i, gates] = rng.integers(0, n_c - 1, size=n_cross)
        np.less(rng.random((2 * n_pairs, n_c)), cfg.p_m, out=flips[i])
    # One search's draws are used as they come, not copied.
    draws = np.concatenate(draws) if n_runs > 1 else draws[0]
    winners = draws[np.arange(len(draws)), np.argmin(scores[draws], axis=1)]
    parents = bits[winners].reshape(-1, 2, n_c)
    if (splits < n_c - 1).any():
        tail = np.arange(n_c) > splits.reshape(-1, 1)
        first, second = parents[:, 0], parents[:, 1]
        swap = (first ^ second) & tail
        first ^= swap
        second ^= swap
    children = parents.reshape(-1, n_c)
    children ^= flips.reshape(-1, n_c)
    return children


def _evaluate(bits: np.ndarray, *memos: SearchMemo) -> tuple[np.ndarray, int]:
    """Score every row against its memo's objective; returns (scores, new evals).

    ``bits`` stacks one equal block of rows per memo, and the memos are
    for one n, probe and times.  Scores are never negative, so -1.0 marks
    a row its memo misses.  The distinct missed genomes of every memo,
    memo by memo and each in order of first appearance, are scored
    together (see ``_divergences``).  A table memo keys each row by its
    genome code, a dict memo by its bytes, taken for all rows in one view.
    """
    n_c = bits.shape[1]
    block = len(bits) // len(memos)
    spans = [(memo, i * block, (i + 1) * block) for i, memo in enumerate(memos)]
    if isinstance(memos[0].store, np.ndarray):
        codes = genome_codes(bits)
        scores = np.concatenate([memo.store[codes[a:b]] for memo, a, b in spans])
        missed = np.flatnonzero(scores < 0)
        if not missed.size:
            return scores, 0
        # One key per (memo, genome): the memo's index above the code's n_c bits.
        keys = codes[missed] + (missed // block << n_c)
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        order = np.argsort(first, kind="stable")
        new = missed[first[order]]
        cuts = _cuts(new, block, len(memos))
        fresh = _divergences(bits[new], memos, cuts, block)
        for memo, lo, hi in zip(memos, cuts, cuts[1:]):
            memo.write(codes[new[lo:hi]], fresh[lo:hi])
        by_key = np.empty(len(new))
        by_key[order] = fresh
        scores[missed] = by_key[inverse]
        return scores, len(new)
    keys = np.ascontiguousarray(bits, dtype=np.uint8).view(f"V{n_c}").ravel().tolist()
    looked_up = (map(memo.store.get, keys[a:b], repeat(-1.0)) for memo, a, b in spans)
    scores = np.fromiter(chain.from_iterable(looked_up), dtype=float, count=len(keys))
    missed = np.flatnonzero(scores < 0)
    if not missed.size:
        return scores, 0
    bounds = _cuts(missed, block, len(memos))
    missed_keys = [[keys[i] for i in missed[lo:hi].tolist()] for lo, hi in zip(bounds, bounds[1:])]
    new_keys = [list(dict.fromkeys(part)) for part in missed_keys]
    cuts = list(accumulate(map(len, new_keys), initial=0))
    rows = np.frombuffer(b"".join(chain.from_iterable(new_keys)), dtype=np.uint8).reshape(cuts[-1], n_c)
    fresh = _divergences(rows, memos, cuts, block).tolist()
    for memo, new, lo, hi in zip(memos, new_keys, cuts, cuts[1:]):
        memo.store.update(zip(new, fresh[lo:hi]))
    filled = (map(memo.store.__getitem__, part) for memo, part in zip(memos, missed_keys))
    scores[missed] = np.fromiter(chain.from_iterable(filled), dtype=float, count=missed.size)
    return scores, len(rows)


def _cuts(rows: np.ndarray, block: int, n_blocks: int) -> list[int]:
    """Offsets that split ascending row positions by the block of ``block`` rows each falls in."""
    return list(accumulate(np.bincount(rows // block, minlength=n_blocks).tolist(), initial=0))


def _divergences(fresh: np.ndarray, memos: tuple[SearchMemo, ...], cuts: list[int], limit: int) -> np.ndarray:
    """Propagate the rows and score them, memo i scoring rows cuts[i]:cuts[i + 1] against its target.

    Each propagation call takes at most ``limit`` rows.  ``_evaluate``
    passes one search's population, so breeding searches together
    neither raises the propagation's memory peak nor splits across
    threads a batch that one search alone would not split;
    ``SearchMemo.fill`` passes its slice, so each slice is one call.
    """
    memo = memos[0]
    pieces = [
        batch_site_distributions(fresh[i : i + limit], memo.n, memo.psi0.amplitudes, memo.grid.times)
        for i in range(0, len(fresh), limit)
    ]
    flat = (pieces[0] if len(pieces) == 1 else np.concatenate(pieces)).reshape(len(fresh), -1)
    scores = np.empty(len(fresh))
    for memo, lo, hi in zip(memos, cuts, cuts[1:]):
        if lo < hi:
            divergence = batch_kld if memo.metric is Metric.KLD else batch_kolmogorov
            scores[lo:hi] = divergence(flat[lo:hi], memo.target.flat)
    return scores


class _Record(NamedTuple):
    """One generation of a search, as the halt rule reads it."""

    current: float  # this generation's best score
    best_score: float  # best score seen up to and including it
    best: CouplingString  # the genome that scored best_score, built when it first became best


def _search_key(config: GAConfig) -> tuple:
    """The config's fields other than the threshold, the seed last: what a trajectory depends on."""
    return (config.n_p, config.p_e, config.k, config.p_c, config.p_m, config.n_g, config.metric, config.seed)


class SearchMemo:
    """The memo of searches against one target, probe, times and metric.

    It checks the shapes once, here, and ``run_ga`` raises ConfigError
    for a run against another objective.  ``store`` holds the scores,
    filled as genomes are first met.  Up to TABLE_GENES genes (n <= 6) it
    is a float64 table of 2**n_c entries, 8 KB at n=5 and 256 KB at n=6,
    indexed by the genome code sum(bit_j * 2**j) and holding -1.0 for a
    genome not scored yet; for longer genomes it is a dict from genome
    bytes to score.  ``scored`` counts the genomes it holds.  Once a
    table holds every genome's score, whether ``fill`` scored them up
    front or searches met them all, ``floor`` is the lowest score; until
    then, and always for a dict, it is None.  No search can score below
    the floor, so ``record_searches`` stops breeding a search whose best
    reaches it.  ``runs`` maps a config's settings other than the
    threshold (``_search_key``) to the longest trajectory recorded for
    them, one record per generation, and ``unreported`` to the genomes
    its breeding newly scored that no result has reported yet.
    ``filled`` counts the genomes ``fill`` scored that no result has
    reported yet.
    """

    def __init__(self, target: ConcatenatedDistribution, psi0: ProbeState, grid: TimeGrid, metric: Metric) -> None:
        n = target.n
        if psi0.n != n:
            raise ShapeError(f"probe has {psi0.n} amplitudes but the target has {n} sites")
        if len(grid) != target.k:
            raise ShapeError(f"grid has {len(grid)} times but the target has {target.k}")
        if n < 2:
            raise ConfigError(f"need at least 2 nodes to search, got n={n}")
        self.n, self.target, self.psi0, self.grid, self.metric = n, target, psi0, grid, metric
        n_c = n * (n - 1) // 2
        self.store: np.ndarray | dict[bytes, float] = np.full(1 << n_c, -1.0) if n_c <= TABLE_GENES else {}
        self._unscored = 1 << n_c
        self.floor: float | None = None
        self.runs: dict[tuple, list[_Record]] = {}
        self.unreported: dict[tuple, int] = {}
        self.filled = 0

    @property
    def scored(self) -> int:
        """How many distinct genomes the memo holds a score for."""
        if isinstance(self.store, dict):
            return len(self.store)
        return self.store.size - self._unscored

    def write(self, codes: np.ndarray, scores: np.ndarray) -> None:
        """Store the scores of genomes new to a table; the last one missing sets the floor."""
        self.store[codes] = scores
        self._unscored -= len(codes)
        if self.floor is None and not self._unscored:
            self.floor = float(self.store.min())

    def fill(self, rows: int) -> None:
        """Score every genome a table does not hold yet, in slices of ``rows`` genomes, one propagation call each.

        The genomes go through ``_divergences`` in ascending code, their
        bits taken from the table of every genome (``graph.genome_bits``);
        ``filled`` counts them.  A slice of a lockstep generation's rows
        propagates in one call, so a cold fill's memory peak is that of
        propagating those rows at once, above breeding's one population
        per call.  A dict memo's genome space is too large to score up
        front, so it is left as it is.
        """
        if isinstance(self.store, dict) or not self._unscored:
            return
        codes = np.flatnonzero(self.store < 0)
        every = genome_bits(self.n * (self.n - 1) // 2)
        for lo in range(0, len(codes), rows):
            part = codes[lo : lo + rows]
            self.write(part, _divergences(every[part], (self,), [0, len(part)], rows))
        self.filled += len(codes)

    def serves(self, target: ConcatenatedDistribution, psi0: ProbeState, grid: TimeGrid, metric: Metric) -> bool:
        """Whether the objective is this memo's, comparing the target and probe by value.

        The target and probe the memo was made from are taken as they
        are, without comparing their arrays.
        """
        return (
            metric is self.metric
            and grid.times == self.grid.times
            and (psi0 is self.psi0 or np.array_equal(psi0.amplitudes, self.psi0.amplitudes))
            and (target is self.target or np.array_equal(target.flat, self.target.flat))
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
    Returns the best individual ever seen, the ``CouplingString`` its
    record holds, so results read off one record share it;
    ``evaluations`` counts the distinct genomes scored that were not in
    the memo yet.

    ``cache`` is the memo, a fresh one by default; a memo made for
    another target, probe, times or metric raises ConfigError (target
    and probe are compared by value unless they are the memo's own, see
    ``SearchMemo.serves``).  The threshold test draws no random numbers,
    so searches that differ only in threshold follow one trajectory,
    which the memo records.  A search whose outcome the records decide
    is read off them by bisection (``_outcome``), in time logarithmic in
    the generations recorded; any other runs from generation 0
    again, re-breeding the recorded prefix from memoised scores.  The
    first result read off a trajectory reports the genomes its breeding
    scored, and later ones report 0; the first result read off a memo
    also reports the genomes ``SearchMemo.fill`` scored.
    """
    if cache is None:
        cache = SearchMemo(target, psi0, grid, config.metric)
    elif not cache.serves(target, psi0, grid, config.metric):
        raise ConfigError("the memo was made for another target, probe, times or metric")
    search = _search_key(config)
    if (outcome := _outcome(cache.runs.get(search, []), config)) is None:
        record_searches([cache], [config])
        outcome = _outcome(cache.runs[search], config)
    gen, reason, record = outcome
    evaluations = cache.unreported.pop(search, 0) + cache.filled
    cache.filled = 0
    return RunResult(record.best, record.best_score, gen, reason, evaluations)


def record_searches(memos: list[SearchMemo], configs: list[GAConfig]) -> None:
    """Breed searches in lockstep, each against its own memo, and record each trajectory there.

    The configs differ at most in seed and threshold, and the memos are
    distinct and for one n, probe, times and metric.  Each search draws
    from its own generator in the order a search bred alone draws, and
    halts by its own threshold, so its records do not depend on the
    searches bred beside it.  Each generation scores all live searches'
    rows in one ``_evaluate`` call and breeds them in one ``_breed``
    pass.  A search that does not halt settles once its memo holds every
    genome's score and its best-so-far equals the memo's floor: no later
    generation scores below the floor, and a tie keeps the best genome,
    so its outcome under any threshold is fixed.  It leaves the live set,
    and its records are padded to n_g with copies of the settling record.
    Memo i ends up mapping configs[i]'s settings other than the threshold
    (``_search_key``) to the records and to the count of genomes this
    breeding scored.
    """
    config, first = configs[0], memos[0]
    keys = [_search_key(c) for c in configs]
    if any(key[:-1] != keys[0][:-1] for key in keys[1:]):
        raise ConfigError("searches bred together may differ only in seed and threshold")
    if len({id(memo) for memo in memos}) < len(memos) or not all(
        memo.metric is config.metric
        and memo.grid.times == first.grid.times
        and np.array_equal(memo.psi0.amplitudes, first.psi0.amplitudes)
        for memo in memos
    ):
        raise ConfigError("searches bred together need distinct memos for one probe, times and metric")
    n_c = first.n * (first.n - 1) // 2
    n_p = config.resolved_n_p(n_c)
    e = config.elite_count(n_p)
    rngs = [np.random.default_rng(c.seed) for c in configs]
    scored = [memo.scored for memo in memos]
    trajectories: list[list[_Record]] = [[] for _ in memos]
    live = list(range(len(memos)))
    bits = np.concatenate([rng.integers(0, 2, size=(n_p, n_c), dtype=np.uint8) for rng in rngs])
    for gen in range(config.n_g):
        offsets = np.arange(0, len(bits), n_p)[:, None]
        if gen:
            ranked = np.argsort(scores.reshape(-1, n_p), axis=1, kind="stable")[:, :e] + offsets
            children = _breed(bits, scores, n_p - e, config, *(rngs[i] for i in live))
            elites = bits[ranked.ravel()].reshape(len(live), e, n_c)
            bits = np.concatenate([elites, children.reshape(len(live), -1, n_c)], axis=1).reshape(-1, n_c)
        scores, _ = _evaluate(bits, *(memos[i] for i in live))
        leaders = np.argmin(scores.reshape(-1, n_p), axis=1) + offsets[:, 0]
        currents, leading = scores[leaders].tolist(), bits[leaders]
        going = []
        for j, i in enumerate(live):
            records, current = trajectories[i], currents[j]
            if records and records[-1].best_score <= current:
                record = _Record(current, records[-1].best_score, records[-1].best)
            else:
                record = _Record(current, current, CouplingString(leading[j], first.n))
            records.append(record)
            if _halt(record, configs[i].threshold) is not None:
                continue
            if record.best_score == memos[i].floor:
                records += [record] * (config.n_g - len(records))
            else:
                going.append(j)
        if len(going) < len(live):
            if not going:
                break
            live = [live[j] for j in going]
            bits = bits.reshape(-1, n_p, n_c)[going].reshape(-1, n_c)
            scores = scores.reshape(-1, n_p)[going].ravel()
    for memo, key, records, before in zip(memos, keys, trajectories, scored):
        memo.runs[key] = records
        memo.unreported[key] = memo.unreported.get(key, 0) + memo.scored - before


def _halt(record: _Record, threshold: float | None) -> HaltReason | None:
    """Why the search halts at this generation, the threshold tested first; None if it goes on."""
    if threshold is not None and record.current < threshold:
        return HaltReason.THRESHOLD
    if record.current < ZERO_TOL:
        return HaltReason.ZERO_FITNESS
    return None


def _outcome(records: list[_Record], config: GAConfig) -> tuple[int, HaltReason, _Record] | None:
    """Where and why the records halt: the first generation ``_halt`` stops, else MaxGenerations at n_g records; else None.

    ``_halt`` stops the first generation whose ``current`` is below
    b = max(threshold, ZERO_TOL), a threshold of None counting as 0.
    ``best_score`` is the running minimum of ``current``, so that is
    also the first generation whose ``best_score`` is below b, and
    ``best_score`` never rises: bisection finds it.  The key is a bool,
    not a negated score, so that the search makes no float objects
    (those raised the star-trend benchmark's peak RSS by ~5 MB).
    """
    bound = max(config.threshold or 0.0, ZERO_TOL)
    gen = bisect_left(records, True, key=lambda record: record.best_score < bound)
    if gen < len(records):
        return gen, _halt(records[gen], config.threshold), records[gen]
    if len(records) < config.n_g:
        return None
    return config.n_g, HaltReason.MAX_GENERATIONS, records[-1]
