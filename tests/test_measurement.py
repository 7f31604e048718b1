"""Shot noise, outcome classification, and threshold sweeps."""
from __future__ import annotations

import hashlib
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from qwtopo.ctqw import ConcatenatedDistribution, ProbeState, TimeGrid, concatenated_distribution
import qwtopo.ga as ga_module
from qwtopo import measurement
from qwtopo.errors import ConfigError
from qwtopo.ga import GAConfig, HaltReason, RunResult, run_ga
from qwtopo.graph import CouplingString, TopologyKind, TopologySpec, build_topology
from qwtopo.measurement import (
    NoiseConfig,
    Outcome,
    classify_outcome,
    default_thresholds,
    monte_carlo_sweep,
    sample_noisy_distribution,
)
from qwtopo.seeding import derive_seed


def test_default_thresholds_geometric() -> None:
    ts = default_thresholds()
    assert len(ts) == 12
    assert ts[0] == pytest.approx(4e-4)
    assert ts[-1] == pytest.approx(0.2)
    ratios = [b / a for a, b in zip(ts, ts[1:])]
    assert np.allclose(ratios, ratios[0])


def test_noise_config_validation() -> None:
    with pytest.raises(ConfigError):
        NoiseConfig(n_r=0)
    with pytest.raises(ConfigError):
        NoiseConfig(mc_runs=-1)
    with pytest.raises(ConfigError):
        NoiseConfig(inner_runs=0)
    with pytest.raises(ConfigError):
        NoiseConfig(thresholds=(0.1, 0.1))
    with pytest.raises(ConfigError):
        NoiseConfig(thresholds=(0.2, 0.1))
    with pytest.raises(ConfigError):
        NoiseConfig(thresholds=(0.0, 0.1))
    assert NoiseConfig().thresholds == default_thresholds()


@pytest.mark.parametrize(
    "kwargs", [{"mc_runs": 1.5}, {"mc_runs": True}, {"inner_runs": 2.5}, {"inner_runs": False}]
)
def test_noise_config_counts_must_be_whole(kwargs) -> None:
    with pytest.raises(ConfigError, match="whole number"):
        NoiseConfig(**kwargs)
    cfg = NoiseConfig(mc_runs=np.int64(3), inner_runs=np.int16(2))
    assert (type(cfg.mc_runs), type(cfg.inner_runs)) == (int, int)


@pytest.mark.parametrize(
    "kwargs", [{"seed": 2.5}, {"seed": True}, {"n_r": True}, {"n_r": 2.5}, {"n_r": 500.0}, {"n_r": "500"}]
)
def test_noise_config_seed_and_shots_must_be_whole(kwargs) -> None:
    with pytest.raises(ConfigError, match="whole number"):
        NoiseConfig(**kwargs)
    cfg = NoiseConfig(n_r=np.int64(50), seed=np.uint16(3))
    assert (cfg.n_r, cfg.seed) == (50, 3)
    assert (type(cfg.n_r), type(cfg.seed)) == (int, int)


def test_noise_config_seed_must_not_be_negative() -> None:
    with pytest.raises(ConfigError, match=r"seed must be >= 0, got -3"):
        NoiseConfig(seed=np.int8(-3))
    assert NoiseConfig(seed=0).seed == 0


def test_noise_config_rejects_nan_thresholds_but_not_inf() -> None:
    with pytest.raises(ConfigError):
        NoiseConfig(thresholds=(math.nan,))
    with pytest.raises(ConfigError):
        NoiseConfig(thresholds=(0.1, math.nan))
    assert NoiseConfig(thresholds=(0.1, math.inf)).thresholds == (0.1, math.inf)


def two_slice_target(n: int = 4) -> ConcatenatedDistribution:
    truth = build_topology(TopologySpec(TopologyKind.STAR), n)
    return concatenated_distribution(truth, ProbeState.ramp(n), TimeGrid((0.5, 0.6)))


def test_sample_noisy_slices_are_distributions() -> None:
    target = two_slice_target()
    noisy = sample_noisy_distribution(target, 500, np.random.default_rng(0))
    assert noisy.n == target.n and noisy.k == target.k
    for probs in noisy.matrix:
        assert np.all(probs >= 0)
        assert np.isclose(probs.sum(), 1.0, atol=1e-10)


def test_sample_noisy_deterministic() -> None:
    target = two_slice_target()
    a = sample_noisy_distribution(target, 500, np.random.default_rng(42))
    b = sample_noisy_distribution(target, 500, np.random.default_rng(42))
    assert np.array_equal(a.flat, b.flat)


def test_sample_noisy_concentrated_distribution() -> None:
    # all weight on one site stays there: counts land in a single bin
    target = ConcatenatedDistribution(np.array([[1.0, 0.0]]))
    noisy = sample_noisy_distribution(target, 50, np.random.default_rng(1))
    assert noisy.matrix[0, 0] == 1.0
    assert noisy.matrix[0, 1] == 0.0


def test_sample_noisy_zero_counts_fall_back_to_uniform() -> None:
    target = two_slice_target()
    # expected counts ~ p/1e9 per bin, so every draw is zero
    for seed in range(5):
        noisy = sample_noisy_distribution(target, 1, np.random.default_rng(seed))
        flats = [probs for probs in noisy.matrix if np.allclose(probs, 1.0 / target.n)]
        if flats:
            return
    pytest.fail("no all-zero slice observed at n_r=1 in 5 seeds")


def test_sample_noisy_falls_back_to_uniform_row_by_row() -> None:
    # a time with no shots turns uniform; a time with shots keeps its estimate
    rows = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    totals = [np.random.default_rng(seed).poisson(rows).sum(axis=1) for seed in range(100)]
    seed = next(seed for seed, (first, second) in enumerate(totals) if first == 0 < second)
    noisy = sample_noisy_distribution(ConcatenatedDistribution(rows), 1, np.random.default_rng(seed))
    assert noisy.matrix.tolist() == [[1 / 3] * 3, [0.0, 0.0, 1.0]]


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("n_r", [1, 500])
def test_sample_noisy_matches_a_draw_per_time(seed: int, n_r: int) -> None:
    """One Poisson call over the (K, n) array reads the stream as K row calls would."""
    target = concatenated_distribution(
        build_topology(TopologySpec(TopologyKind.STAR), 5), ProbeState.ramp(5), TimeGrid((0.5, 0.6, 1.0))
    )
    rng = np.random.default_rng(seed)
    expected = []
    for probs in target.matrix:
        counts = rng.poisson(n_r * probs)
        expected.append(counts / counts.sum() if counts.sum() else np.full(5, 1 / 5))
    noisy = sample_noisy_distribution(target, n_r, np.random.default_rng(seed))
    assert noisy.matrix.tobytes() == np.array(expected).tobytes()


def test_sample_noisy_converges_with_counts() -> None:
    target = two_slice_target()
    noisy = sample_noisy_distribution(target, 1_000_000, np.random.default_rng(3))
    assert np.max(np.abs(noisy.flat - target.flat)) < 0.005


def test_sample_noisy_rejects_bad_counts() -> None:
    target = two_slice_target()
    with pytest.raises(ConfigError):
        sample_noisy_distribution(target, 0, np.random.default_rng(0))


@pytest.mark.parametrize("n_r", [2.5, 500.0, True, "500"])
def test_sample_noisy_shot_count_must_be_whole(n_r) -> None:
    with pytest.raises(ConfigError, match="whole number"):
        sample_noisy_distribution(two_slice_target(), n_r, np.random.default_rng(0))


def make_result(chromosome: CouplingString, halted_by: HaltReason) -> RunResult:
    return RunResult(
        best_chromosome=chromosome,
        best_score=0.01,
        generations_used=3,
        halted_by=halted_by,
        evaluations=10,
    )


def test_classify_outcome_all_four_cells() -> None:
    truth = build_topology(TopologySpec(TopologyKind.STAR), 3)
    other = CouplingString(np.array([0, 1, 1]), 3)
    assert classify_outcome(make_result(truth, HaltReason.THRESHOLD), truth) is Outcome.TP
    assert classify_outcome(make_result(other, HaltReason.THRESHOLD), truth) is Outcome.FP
    assert classify_outcome(make_result(truth, HaltReason.MAX_GENERATIONS), truth) is Outcome.FN
    assert classify_outcome(make_result(other, HaltReason.MAX_GENERATIONS), truth) is Outcome.TN
    # an exact-zero halt is still a positive detection
    assert classify_outcome(make_result(truth, HaltReason.ZERO_FITNESS), truth) is Outcome.TP
    assert classify_outcome(make_result(other, HaltReason.ZERO_FITNESS), truth) is Outcome.FP


def test_outcome_tally_records_and_totals() -> None:
    tally = Counter()
    for o in (Outcome.TP, Outcome.TP, Outcome.FN):
        tally[o] += 1
    assert tally[Outcome.TP] == 2 and tally[Outcome.FN] == 1
    assert tally[Outcome.FP] == 0 and tally[Outcome.TN] == 0
    assert tally.total() == 3


def sweep_args(n: int = 3, kind: TopologyKind = TopologyKind.STAR):
    truth = build_topology(TopologySpec(kind), n)
    psi0 = ProbeState.ramp(n)
    grid = TimeGrid((0.5, 0.6))
    return truth, psi0, grid


def test_monte_carlo_sweep_conserves_counts() -> None:
    truth, psi0, grid = sweep_args()
    noise = NoiseConfig(n_r=200, thresholds=(1e-3, 1e-2, 1e-1), mc_runs=4, inner_runs=2, seed=7)
    ga = GAConfig(n_p=10, n_g=3, seed=0)
    tallies = monte_carlo_sweep(truth, psi0, grid, ga, noise)
    assert set(tallies) == {1e-3, 1e-2, 1e-1}
    for tally in tallies.values():
        assert set(tally) <= set(Outcome)
        parts = tally[Outcome.TP] + tally[Outcome.FP] + tally[Outcome.TN] + tally[Outcome.FN]
        assert parts == tally.total() == 8


def test_monte_carlo_sweep_zero_runs() -> None:
    truth, psi0, grid = sweep_args()
    noise = NoiseConfig(mc_runs=0, thresholds=(0.1,))
    assert monte_carlo_sweep(truth, psi0, grid, GAConfig(n_p=4), noise) == {}


def test_monte_carlo_sweep_rejects_a_ga_threshold() -> None:
    # the sweep sets every search's threshold, so a GA threshold would be ignored
    truth, psi0, grid = sweep_args()
    noise = NoiseConfig(mc_runs=1, inner_runs=1)
    with pytest.raises(ConfigError, match="GA threshold"):
        monte_carlo_sweep(truth, psi0, grid, GAConfig(threshold=0.5), noise)


def test_monte_carlo_sweep_deterministic() -> None:
    truth, psi0, grid = sweep_args()
    noise = NoiseConfig(n_r=200, thresholds=(1e-2,), mc_runs=3, inner_runs=2, seed=5)
    ga = GAConfig(n_p=10, n_g=3, seed=0)
    a = monte_carlo_sweep(truth, psi0, grid, ga, noise)
    b = monte_carlo_sweep(truth, psi0, grid, ga, noise)
    assert a == b


def test_monte_carlo_sweep_huge_threshold_always_halts() -> None:
    # a threshold above any possible divergence turns every run into a
    # detection, so negatives cannot occur
    truth, psi0, grid = sweep_args(4)
    noise = NoiseConfig(n_r=200, thresholds=(1e6,), mc_runs=5, inner_runs=2, seed=1)
    ga = GAConfig(n_p=8, n_g=2, seed=0)
    tally = monte_carlo_sweep(truth, psi0, grid, ga, noise)[1e6]
    assert tally[Outcome.FN] == tally[Outcome.TN] == 0
    assert tally[Outcome.TP] + tally[Outcome.FP] == tally.total() == 10


def test_monte_carlo_sweep_halting_monotone_in_threshold() -> None:
    # identical seeds per run: a run that halts under a strict threshold
    # must also halt under any looser one
    truth, psi0, grid = sweep_args(4)
    noise = NoiseConfig(
        n_r=500, thresholds=(1e-4, 1e-2, 1.0), mc_runs=6, inner_runs=3, seed=3
    )
    ga = GAConfig(n_p=20, n_g=4, seed=0)
    tallies = monte_carlo_sweep(truth, psi0, grid, ga, noise)
    positives = [
        tallies[t][Outcome.TP] + tallies[t][Outcome.FP] for t in sorted(tallies)
    ]
    assert positives == sorted(positives)


def test_monte_carlo_sweep_matches_independent_runs() -> None:
    # The sweep shares one score memo per noisy target; every run here
    # starts from an empty one, and the tallies must not differ.
    truth, psi0, grid = sweep_args(5)
    noise = NoiseConfig(n_r=500, thresholds=(2e-3, 1e-2, 5e-2), mc_runs=3, inner_runs=2, seed=4)
    ga = GAConfig(n_p=40, n_g=12, seed=0)
    ideal = concatenated_distribution(truth, psi0, grid)
    expected = {t: Counter() for t in noise.thresholds}
    for mc in range(noise.mc_runs):
        noise_rng = np.random.default_rng(derive_seed(noise.seed, 0, mc))
        target = sample_noisy_distribution(ideal, noise.n_r, noise_rng)
        for threshold in noise.thresholds:
            for inner in range(noise.inner_runs):
                cfg = replace(ga, threshold=threshold, seed=derive_seed(noise.seed, 1, mc, inner))
                expected[threshold][classify_outcome(run_ga(target, psi0, grid, cfg), truth)] += 1
    assert monte_carlo_sweep(truth, psi0, grid, ga, noise) == expected
    assert len({tuple(sorted(tally.items(), key=str)) for tally in expected.values()}) > 1


def test_monte_carlo_sweep_breeds_each_search_once(monkeypatch) -> None:
    # star n = 5 fills a table memo, whose searches settle at its floor.
    check_each_search_bred_once(monkeypatch, TopologyKind.STAR, 5)


def test_monte_carlo_sweep_breeds_each_dict_memo_search_once(monkeypatch) -> None:
    # line n = 7 keeps a dict memo, with no floor: its searches breed until
    # they halt, and the first result read off it reports all of them.
    check_each_search_bred_once(monkeypatch, TopologyKind.LINE, 7)


def check_each_search_bred_once(monkeypatch, kind: TopologyKind, n: int) -> None:
    # Thresholds are walked from the lowest, so each (sample, inner run)
    # search is bred once, beside the other samples' searches of its inner
    # index, and every threshold's outcome is read off the recorded
    # generations.
    memos, rows, propagated, results = [], [], [], []
    real_memo, real_evaluate = measurement.SearchMemo, ga_module._evaluate
    real_propagate, real_run_ga = ga_module.batch_site_distributions, measurement.run_ga
    monkeypatch.setattr(measurement, "SearchMemo", lambda *a: memos.append(real_memo(*a)) or memos[-1])
    monkeypatch.setattr(ga_module, "_evaluate", lambda bits, *m: rows.append(len(bits)) or real_evaluate(bits, *m))
    monkeypatch.setattr(
        ga_module, "batch_site_distributions", lambda b, *a: propagated.append(len(b)) or real_propagate(b, *a)
    )
    monkeypatch.setattr(
        measurement, "run_ga", lambda *a, **k: results.append((k["cache"], real_run_ga(*a, **k))) or results[-1][1]
    )
    truth, psi0, grid = sweep_args(n, kind)
    noise = NoiseConfig(n_r=500, thresholds=(2e-3, 1e-2, 5e-2), mc_runs=2, inner_runs=3, seed=4)
    ga = GAConfig(n_p=40, n_g=12)
    tallies = monte_carlo_sweep(truth, psi0, grid, ga, noise)
    assert len(memos) == noise.mc_runs
    assert sum(len(memo.runs) for memo in memos) == noise.mc_runs * noise.inner_runs
    # Every bred generation's population is scored once.  A search is bred
    # up to and including its settling record, the first whose best is the
    # memo's floor; the records after it repeat it.  A dict memo has no
    # floor, so nothing settles.
    bred = [bred_generations(records, memo.floor) for memo in memos for records in memo.runs.values()]
    assert sum(rows) == ga.n_p * sum(bred)
    if memos[0].floor is not None:
        assert sum(bred) < sum(len(records) for memo in memos for records in memo.runs.values())
    # Every genome is propagated once, and reported by one result: the
    # first read off its sample's memo, after all the sample's searches.
    assert len(results) == noise.mc_runs * noise.inner_runs * len(noise.thresholds)
    evaluations = [result.evaluations for _, result in results]
    assert sum(evaluations) == sum(propagated) == sum(memo.scored for memo in memos)
    for memo in memos:
        mine = [result.evaluations for cache, result in results if cache is memo]
        assert mine[0] == memo.scored > 0 and not any(mine[1:])
    assert len({tuple(sorted(tally.items(), key=str)) for tally in tallies.values()}) > 1


@pytest.mark.parametrize("lockstep_rows", [measurement.LOCKSTEP_ROWS, 80])
def test_monte_carlo_sweep_scores_each_sample_once_up_front(monkeypatch, lockstep_rows: int) -> None:
    # Up to n = 6 each sample's memo scores the whole genome space before
    # any search, and the results read off it report exactly those rows.
    fills, propagated, scored, results = [], [], [], []
    real_fill, real_run_ga = ga_module.SearchMemo.fill, measurement.run_ga
    real_propagate, real_kld = ga_module.batch_site_distributions, ga_module.batch_kld

    def fill(memo, rows):
        before = len(propagated), len(scored)
        real_fill(memo, rows)
        fills.append((memo, propagated[before[0] :], scored[before[1] :], rows))

    monkeypatch.setattr(measurement, "LOCKSTEP_ROWS", lockstep_rows)
    monkeypatch.setattr(ga_module.SearchMemo, "fill", fill)
    monkeypatch.setattr(
        ga_module, "batch_site_distributions", lambda b, *a: propagated.append(len(b)) or real_propagate(b, *a)
    )
    monkeypatch.setattr(ga_module, "batch_kld", lambda m, t: scored.append(len(m)) or real_kld(m, t))
    monkeypatch.setattr(
        measurement, "run_ga", lambda *a, **k: results.append((k["cache"], real_run_ga(*a, **k))) or results[-1][1]
    )
    truth, psi0, grid = sweep_args(5)
    noise = NoiseConfig(n_r=500, thresholds=(2e-3, 1e-2, 5e-2), mc_runs=3, inner_runs=2, seed=4)
    ga = GAConfig(n_p=40, n_g=12)
    monte_carlo_sweep(truth, psi0, grid, ga, noise)
    assert len(fills) == noise.mc_runs
    for memo, propagate_calls, score_calls, rows in fills:
        evaluations = [result.evaluations for cache, result in results if cache is memo]
        assert len(evaluations) == noise.inner_runs * len(noise.thresholds)
        assert sum(evaluations) == evaluations[0] == memo.scored == 2**truth.n_c
        assert sum(propagate_calls) == sum(score_calls) == 2**truth.n_c
        # A slice holds the rows breeding a lockstep group would pass, and
        # each slice is propagated in one call.
        assert rows == lockstep_rows // ga.n_p * ga.n_p
        assert propagate_calls == [min(rows, 2**truth.n_c - lo) for lo in range(0, 2**truth.n_c, rows)]
        assert max(score_calls) == min(rows, 2**truth.n_c)
    # Breeding found every genome scored: nothing was propagated after the fills.
    assert sum(propagated) == sum(scored) == noise.mc_runs * 2**truth.n_c


def test_monte_carlo_sweep_reads_results_off_without_rebuilding(monkeypatch) -> None:
    # A read-off builds one GAConfig, the sweep's own per-threshold config,
    # and no genome: its result holds the CouplingString of the record it
    # reads, shared by every result read off that record.
    truth, psi0, grid = sweep_args(5)
    noise = NoiseConfig(n_r=500, thresholds=(2e-3, 1e-2, 5e-2), mc_runs=2, inner_runs=2, seed=4)
    ga = GAConfig(n_p=40, n_g=12)
    built, results = [], []
    real_post_init, real_run_ga = GAConfig.__post_init__, measurement.run_ga
    monkeypatch.setattr(GAConfig, "__post_init__", lambda self: built.append(1) or real_post_init(self))

    def run_ga(target, psi0, grid, config, cache):
        results.append((config, cache, real_run_ga(target, psi0, grid, config, cache=cache)))
        return results[-1][2]

    monkeypatch.setattr(measurement, "run_ga", run_ga)
    monte_carlo_sweep(truth, psi0, grid, ga, noise)
    searches = noise.mc_runs * noise.inner_runs
    assert len(results) == searches * len(noise.thresholds)
    assert len(built) == len(results) + searches
    for config, memo, result in results:
        _, _, record = ga_module._outcome(memo.runs[ga_module._search_key(config)], config)
        assert result.best_chromosome is record.best
    assert len({id(result.best_chromosome) for *_, result in results}) < len(results)


def bred_generations(records: list, floor: float) -> int:
    """The generations bred for a trajectory: up to its settling record, or all of them."""
    return next((gen + 1 for gen, record in enumerate(records) if record.best_score == floor), len(records))


def test_monte_carlo_sweep_groups_leave_every_search_unchanged(monkeypatch) -> None:
    # Samples are bred in lockstep groups of at most LOCKSTEP_ROWS rows;
    # how they are grouped changes no search's result.
    truth, psi0, grid = sweep_args(5)
    noise = NoiseConfig(n_r=500, thresholds=(2e-3, 1e-2, 5e-2), mc_runs=5, inner_runs=2, seed=4)
    ga = GAConfig(n_p=20, n_g=12)
    real_run_ga, real_record = measurement.run_ga, measurement.record_searches

    def sweep(rows: int):
        monkeypatch.setattr(measurement, "LOCKSTEP_ROWS", rows)
        results, groups = [], []
        monkeypatch.setattr(measurement, "run_ga", lambda *a, **k: results.append(real_run_ga(*a, **k)) or results[-1])
        monkeypatch.setattr(measurement, "record_searches", lambda m, c: groups.append(len(m)) or real_record(m, c))
        tallies = monte_carlo_sweep(truth, psi0, grid, ga, noise)
        return tallies, [outcome_and_count(r) for r in results], groups

    default, split, alone = sweep(measurement.LOCKSTEP_ROWS), sweep(2 * ga.n_p), sweep(1)
    assert default[2] == [5, 5] and split[2] == [2, 2, 2, 2, 1, 1] and alone[2] == [1] * 10
    assert default[:2] == split[:2] == alone[:2]
    assert sum(evaluations for *_, evaluations in default[1]) > 0


def outcome_and_count(result: RunResult) -> tuple:
    return (
        result.best_chromosome.to_bitstring(),
        repr(result.best_score),
        result.generations_used,
        result.halted_by,
        result.evaluations,
    )


# SHA-256 of the per-search outcomes below, all fields but ``evaluations``;
# a sweep report holds only tallies, so a change to any search that leaves
# the counts equal would pass the golden sweep files unseen.
SWEEP_SEARCHES_SHA256 = "921a0aa0f5c6fe71738bd4662d9b7be41edb7df3fdb447cdac7ab92481232bdc"


def test_monte_carlo_sweep_searches_are_pinned(monkeypatch) -> None:
    calls, evaluations = [], []
    real_run_ga = measurement.run_ga

    def recording_run_ga(target, psi0, grid, config, **kwargs):
        result = real_run_ga(target, psi0, grid, config, **kwargs)
        calls.append(
            (
                config.threshold,
                config.seed,
                result.best_chromosome.to_bitstring(),
                repr(result.best_score),
                result.generations_used,
                result.halted_by.value,
            )
        )
        evaluations.append(result.evaluations)
        return result

    monkeypatch.setattr(measurement, "run_ga", recording_run_ga)
    truth, psi0, grid = sweep_args(5)
    monte_carlo_sweep(truth, psi0, grid, GAConfig(), NoiseConfig(mc_runs=3, inner_runs=2))
    assert len(calls) == 3 * 2 * len(default_thresholds())
    assert hashlib.sha256(repr(calls).encode()).hexdigest() == SWEEP_SEARCHES_SHA256
    # Each sample's memo scores all 2**10 genomes up front, and the first
    # result read off it reports them.
    assert evaluations == ([2**10] + [0] * (2 * len(default_thresholds()) - 1)) * 3
