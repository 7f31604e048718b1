"""Genetic operators and the search loop."""
from __future__ import annotations

import hashlib
import math
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qwtopo import ga
from qwtopo.ctqw import ProbeState, TimeGrid, batch_site_distributions, concatenated_distribution
from qwtopo.errors import ConfigError, ShapeError
from qwtopo.fitness import Metric, batch_kld, batch_kolmogorov
from qwtopo.ga import GAConfig, HaltReason, SearchMemo, _breed, _evaluate, record_searches, run_ga
from qwtopo.graph import CouplingString, TopologyKind, TopologySpec, build_topology
from qwtopo.measurement import sample_noisy_distribution


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_p": 1},
        {"p_e": 1.0},
        {"p_e": -0.1},
        {"k": 0},
        {"p_c": 1.5},
        {"p_m": -0.5},
        {"n_g": 0},
        {"threshold": -1.0},
        {"metric": "kld"},
    ],
)
def test_ga_config_rejects_bad_values(kwargs) -> None:
    with pytest.raises(ConfigError):
        GAConfig(**kwargs)


@pytest.mark.parametrize(
    "kwargs", [{"n_p": 10.5}, {"n_p": True}, {"k": 2.0}, {"k": "6"}, {"n_g": 2.5}, {"n_g": True}]
)
def test_ga_config_counts_must_be_whole(kwargs) -> None:
    with pytest.raises(ConfigError, match="whole number"):
        GAConfig(**kwargs)


def test_ga_config_reads_numpy_integer_counts_as_int() -> None:
    cfg = GAConfig(n_p=np.int64(64), k=np.int32(3), n_g=np.uint8(7), seed=np.int64(5))
    assert (cfg.n_p, cfg.k, cfg.n_g, cfg.seed) == (64, 3, 7, 5)
    assert all(type(v) is int for v in (cfg.n_p, cfg.k, cfg.n_g, cfg.seed))


@pytest.mark.parametrize("seed", [1.5, 2.0, True, "3"])
def test_ga_config_seed_must_be_whole(seed) -> None:
    with pytest.raises(ConfigError, match="seed must be a whole number"):
        GAConfig(seed=seed)


def test_ga_config_seed_must_not_be_negative() -> None:
    # NumPy refuses a negative seed only when the search starts, without naming it.
    with pytest.raises(ConfigError, match=r"seed must be >= 0, got -1"):
        GAConfig(seed=-1)
    assert GAConfig(seed=np.int64(0)).seed == 0


def test_ga_config_rejects_a_nan_threshold_but_not_inf() -> None:
    with pytest.raises(ConfigError):
        GAConfig(threshold=math.nan)
    assert GAConfig(threshold=math.inf).threshold == math.inf


def test_ga_config_population_default_rule() -> None:
    cfg = GAConfig()
    assert cfg.resolved_n_p(10) == 200
    assert cfg.resolved_n_p(45) == 4050
    assert GAConfig(n_p=64).resolved_n_p(45) == 64


def test_elite_count_parity() -> None:
    cfg = GAConfig()
    assert cfg.elite_count(200) == 4
    # round(0.02 * 4050) = 81 leaves an odd child count, so bump to 82
    assert cfg.elite_count(4050) == 82
    assert GAConfig(p_e=0.5).elite_count(10) == 6
    assert GAConfig(p_e=0.0).elite_count(5) == 1
    assert GAConfig(p_e=0.0).elite_count(6) == 0


@pytest.mark.parametrize("p_e, n_p", [(0.94, 10), (0.5, 2), (0.5, 3)])
def test_elite_count_bumps_down_rather_than_leave_no_child(p_e: float, n_p: int) -> None:
    # round(p_e * n_p) leaves one child; bumping up would leave none.
    assert n_p - round(p_e * n_p) == 1
    assert GAConfig(p_e=p_e).elite_count(n_p) == n_p - 2


@pytest.mark.parametrize("p_e, n_p", [(0.96, 10), (0.9, 2), (0.998, 200)])
def test_elite_count_refuses_a_fraction_that_leaves_no_child(p_e: float, n_p: int) -> None:
    with pytest.raises(ConfigError, match=f"p_e={p_e} .* n_p={n_p} "):
        GAConfig(p_e=p_e).elite_count(n_p)


def breed(bits, scores, n_children: int, seed: int, **cfg) -> np.ndarray:
    bits = np.asarray(bits, dtype=np.uint8)
    rng = np.random.default_rng(seed)
    return _breed(bits, np.asarray(scores, dtype=float), n_children, GAConfig(**cfg), rng)


def distinct_genomes(n_p: int, n_c: int) -> np.ndarray:
    """Row i holds the n_c low bits of i."""
    return ((np.arange(n_p)[:, None] >> np.arange(n_c)) & 1).astype(np.uint8)


def test_tournament_tie_goes_to_earliest_draw() -> None:
    bits, k, pairs = distinct_genomes(16, 6), 5, 50
    draws = np.random.default_rng(11).integers(0, 16, size=(pairs, 2, k))
    children = breed(bits, np.ones(16), 2 * pairs, 11, k=k, p_c=0.0, p_m=0.0)
    assert np.array_equal(children.reshape(pairs, 2, 6), bits[draws[..., 0]])


def test_tournament_k1_returns_single_draw() -> None:
    bits = distinct_genomes(16, 6)
    scores = np.random.default_rng(5).permutation(16).astype(float)
    draws = np.random.default_rng(7).integers(0, 16, size=(50, 2, 1))
    children = breed(bits, scores, 100, 7, k=1, p_c=0.0, p_m=0.0)
    assert np.array_equal(children.reshape(50, 2, 6), bits[draws[..., 0]])


def test_tournament_selects_minimum_score() -> None:
    bits = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    # k large enough that every individual is drawn with near certainty
    children = breed(bits, [3.0, 1.0, 2.0], 40, 3, k=64, p_c=0.0, p_m=0.0)
    assert np.array_equal(children, np.tile(bits[1], (40, 1)))


def test_tournament_pressure_grows_with_k() -> None:
    n_p, n_children = 20, 20_000
    bits = distinct_genomes(n_p, 6)
    scores = np.random.default_rng(5).permutation(n_p).astype(float)
    rates = []
    for k in (1, 2, 6):
        children = breed(bits, scores, n_children, 6, k=k, p_c=0.0, p_m=0.0)
        rate = np.all(children == bits[np.argmin(scores)], axis=1).mean()
        # a child copies the best genome iff the best is among its k draws
        expected = 1 - (1 - 1 / n_p) ** k
        assert abs(rate - expected) < 3 * np.sqrt(expected * (1 - expected) / n_children)
        rates.append(rate)
    assert rates == sorted(rates)


def test_crossover_probability_zero_copies_parents() -> None:
    bits = distinct_genomes(16, 6)
    scores = np.random.default_rng(5).permutation(16).astype(float)
    for k in (1, 6):
        draws = np.random.default_rng(3).integers(0, 16, size=(50, 2, k))
        winners = [[min(d, key=lambda i: scores[i]) for d in pair] for pair in draws]
        children = breed(bits, scores, 100, 3, k=k, p_c=0.0, p_m=0.0)
        assert np.array_equal(children.reshape(50, 2, 6), bits[np.array(winners)])


def test_crossover_splits_cover_definition() -> None:
    n_c = 6
    bits = np.array([[1] * n_c, [0] * n_c])
    children = breed(bits, [0.0, 0.0], 400, 0, k=1, p_c=1.0, p_m=0.0)
    seen = set()
    for c1, c2 in zip(children[0::2], children[1::2]):
        if np.array_equal(c1, c2):
            continue  # both parents drew the same genome
        # child 1 = parent 1 genes [0..y] + parent 2 genes [y+1..], child 2 the converse
        y = int(np.argmax(c1 != c1[0])) - 1
        assert 0 <= y <= n_c - 2
        assert np.array_equal(c1, np.r_[np.full(y + 1, c1[0]), np.full(n_c - 1 - y, 1 - c1[0])])
        assert np.array_equal(c2, 1 - c1)
        seen.add(y)
    assert seen == set(range(n_c - 1))


def test_crossover_example_split() -> None:
    bits = np.array([[1] * 6, [0] * 6])
    children = breed(bits, [0.0, 0.0], 400, 0, k=1, p_c=1.0, p_m=0.0)
    found = False
    for c1, c2 in zip(children[0::2], children[1::2]):
        if c1[0] == 1 and c1.sum() == 2:
            # parent 1 = 111111, parent 2 = 000000, split point y = 1
            assert "".join(map(str, c1)) == "110000"
            assert "".join(map(str, c2)) == "001111"
            found = True
    assert found, "split point y=1 never drawn in 200 pairs"


def test_crossover_identical_parents() -> None:
    genome = np.array([1, 0, 1, 0, 1, 0])
    children = breed(np.tile(genome, (4, 1)), np.arange(4.0), 40, 0, p_c=1.0, p_m=0.0)
    assert np.array_equal(children, np.tile(genome, (40, 1)))


def test_crossover_length_one_genome_passes_through() -> None:
    bits = np.array([[1], [0]])
    draws = np.random.default_rng(0).integers(0, 2, size=(10, 2, 1))
    children = breed(bits, [0.0, 0.0], 20, 0, k=1, p_c=1.0, p_m=0.0)
    assert np.array_equal(children.reshape(10, 2, 1), bits[draws[..., 0]])


def test_mutate_probability_zero_and_one() -> None:
    bits, scores = distinct_genomes(8, 6), np.arange(8.0)
    kept = breed(bits, scores, 20, 1, p_m=0.0)
    assert np.array_equal(breed(bits, scores, 20, 1, p_m=1.0), 1 - kept)


def test_mutate_mean_flip_count() -> None:
    p_m = 0.05
    children = breed(np.zeros((4, 45)), np.arange(4.0), 2000, 2, p_m=p_m)
    sigma = np.sqrt(p_m * (1 - p_m) / children.size)
    assert abs(children.mean() - p_m) < 3 * sigma


def test_selection_only_breeding_introduces_no_new_genomes() -> None:
    rng = np.random.default_rng(9)
    bits = rng.integers(0, 2, size=(12, 6), dtype=np.uint8)
    children = breed(bits, rng.random(12), 40, 9, k=3, p_c=0.0, p_m=0.0)
    assert {c.tobytes() for c in children} <= {b.tobytes() for b in bits}


# _breed's output for a fixed input: the SHA-256 of the children's bytes
# and the generator's next draw.  They were recorded from an earlier
# vectorization of _breed (tournament winners gathered with
# take_along_axis, each child built by boolean-mask gathers); matching
# them shows the generator is consumed in the same order and the same
# children come out.
BREED_PINS = [
    (10, 200, 196, {}, "863c4cd73b9132548f770bf3493d346c9fca9a958c4b5a502453d1ae4e2474ca",
     "0x1.f0c801443058ep-1"),
    (66, 120, 100, {"k": 3, "p_c": 0.5, "p_m": 0.1},
     "c59e03cb3b0f9890c60f428b8037a5dd9449b6e00321ae08b2b5d31bb6d4706f", "0x1.2c1a9205f079ap-1"),
]


@pytest.mark.parametrize("n_c, n_p, n_children, cfg, digest, next_draw", BREED_PINS)
def test_breed_random_stream_is_pinned(n_c, n_p, n_children, cfg, digest, next_draw) -> None:
    source = np.random.default_rng(2024)
    bits = source.integers(0, 2, size=(n_p, n_c), dtype=np.uint8)
    scores = source.integers(0, 50, size=n_p) / 7.0  # many ties
    rng = np.random.default_rng(99)
    children = _breed(bits, scores, n_children, GAConfig(**cfg), rng)
    assert children.dtype == np.uint8 and children.shape == (n_children, n_c)
    assert hashlib.sha256(children.tobytes()).hexdigest() == digest
    assert rng.random().hex() == next_draw


# The n=10 search's shape under the default config: 45 couplings, a
# population of 2 * 45**2 and 82 elites.
BREED_PIN_STAR_10 = (45, 4050, 4050 - 82, {}, "57babc30e4e8014c348a4051aac4ec53a0b4b10d63049a0302d98a2c4fc76867",
                     "0x1.80c3439284472p-2")


def test_breed_random_stream_is_pinned_at_star_10_shape() -> None:
    assert GAConfig().elite_count(4050) == 82
    test_breed_random_stream_is_pinned(*BREED_PIN_STAR_10)


def star_problem(n: int):
    truth = build_topology(TopologySpec(TopologyKind.STAR), n)
    psi0 = ProbeState.ramp(n)
    grid = TimeGrid((0.5, 0.6))
    target = concatenated_distribution(truth, psi0, grid)
    return truth, psi0, grid, target


def test_run_ga_zero_halt_when_truth_in_initial_population() -> None:
    truth, psi0, grid, target = star_problem(3)
    # initial populations of 18 over a space of 8 almost surely contain
    # the truth; scan a few seeds for one that does
    for seed in range(10):
        result = run_ga(target, psi0, grid, GAConfig(seed=seed))
        if result.generations_used == 0:
            assert result.halted_by is HaltReason.ZERO_FITNESS
            assert result.best_chromosome == truth
            assert result.best_score == 0.0
            return
    pytest.fail("no generation-0 halt in 10 seeds")


def test_run_ga_deterministic() -> None:
    _, psi0, grid, target = star_problem(4)
    cfg = GAConfig(seed=123)
    a = run_ga(target, psi0, grid, cfg)
    b = run_ga(target, psi0, grid, cfg)
    assert a == b


def test_run_ga_reports_consistent_best_score() -> None:
    truth, psi0, grid, target = star_problem(4)
    result = run_ga(target, psi0, grid, GAConfig(seed=5))
    model = concatenated_distribution(result.best_chromosome, psi0, grid)
    recomputed = batch_kld(model.flat[None, :], target.flat)[0]
    assert recomputed == result.best_score


def test_run_ga_evaluation_budget() -> None:
    _, psi0, grid, target = star_problem(4)
    for seed in range(5):
        cfg = GAConfig(seed=seed)
        result = run_ga(target, psi0, grid, cfg)
        n_p = cfg.resolved_n_p(6)
        assert 1 <= result.evaluations <= n_p * (result.generations_used + 1)


def test_run_ga_shared_memo_changes_only_the_evaluation_count() -> None:
    # A noisy target keeps the search off zero, so it runs several generations.
    _, psi0, grid, ideal = star_problem(5)
    target = sample_noisy_distribution(ideal, 300, np.random.default_rng(9))
    cache = SearchMemo(target, psi0, grid, Metric.KLD)
    runs = [GAConfig(seed=seed, n_g=6, n_p=30) for seed in (1, 2, 1)]
    shared = [run_ga(target, psi0, grid, cfg, cache=cache) for cfg in runs]
    alone = [run_ga(target, psi0, grid, cfg) for cfg in runs]
    for a, b in zip(shared, alone):
        assert (a.best_chromosome, a.best_score, a.generations_used, a.halted_by) == (
            b.best_chromosome, b.best_score, b.generations_used, b.halted_by
        )
    assert shared[0].evaluations == alone[0].evaluations
    assert shared[1].evaluations < alone[1].evaluations
    assert shared[2].evaluations == 0
    assert cache.scored == shared[0].evaluations + shared[1].evaluations


def noisy_star5():
    _, psi0, grid, ideal = star_problem(5)
    return sample_noisy_distribution(ideal, 500, np.random.default_rng(4)), psi0, grid


def outcome(result):
    return (result.best_chromosome, result.best_score, result.generations_used, result.halted_by)


@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
def test_threshold_searches_replay_one_trajectory(monkeypatch, order: str) -> None:
    # A small population climbs for a few generations, so thresholds halt
    # it at several depths; the lowest sits under the noisy optimum.
    target, psi0, grid = noisy_star5()
    config = GAConfig(seed=0, n_p=16, n_g=60)
    thresholds = np.geomspace(0.005, 1.0, 12).tolist()
    if order == "descending":
        thresholds.reverse()
    elif order == "shuffled":
        np.random.default_rng(7).shuffle(thresholds)
    alone = {t: run_ga(target, psi0, grid, replace(config, threshold=t)) for t in thresholds}
    halts = {r.halted_by for r in alone.values()}
    assert {HaltReason.THRESHOLD, HaltReason.MAX_GENERATIONS} <= halts
    assert len({r.generations_used for r in alone.values()}) > 4

    calls, rows = [], []
    real_evaluate, real_propagate = ga._evaluate, ga.batch_site_distributions
    monkeypatch.setattr(ga, "_evaluate", lambda *a: calls.append(1) or real_evaluate(*a))
    monkeypatch.setattr(ga, "batch_site_distributions", lambda b, *a: rows.append(len(b)) or real_propagate(b, *a))
    memo = SearchMemo(target, psi0, grid, config.metric)
    shared = {t: run_ga(target, psi0, grid, replace(config, threshold=t), cache=memo) for t in thresholds}
    for t in thresholds:
        assert outcome(shared[t]) == outcome(alone[t])
    # Each genome is propagated once, whatever order the thresholds come in.
    assert sum(r.evaluations for r in shared.values()) == sum(rows) == memo.scored
    # One record list.  Ascending thresholds, the sweep's order, breed and
    # score each generation once; another order re-breeds recorded prefixes.
    [records] = memo.runs.values()
    assert len(records) == config.n_g
    if order == "ascending":
        assert len(calls) == config.n_g


def noisy_searches(n: int, count: int, metric: Metric):
    """Targets and fresh memos for ``count`` noisy star-n samples."""
    _, psi0, grid, ideal = star_problem(n)
    targets = [sample_noisy_distribution(ideal, 200, np.random.default_rng(s)) for s in range(count)]
    return targets, [SearchMemo(target, psi0, grid, metric) for target in targets], psi0, grid


def recorded(memo: SearchMemo):
    """The one search a memo recorded, with its records, the genomes it scored, and its scores."""
    [(search, records)] = memo.runs.items()
    trace = [(r.current, r.best_score, r.best.bits.tobytes()) for r in records]
    store = memo.store.tolist() if isinstance(memo.store, np.ndarray) else memo.store
    return search, trace, memo.scored, store


# (n, n_p, n_g): n=2 has one gene and draws no split point; n=2, 3 and 5
# score into a table memo, n=7 into a dict.
LOCKSTEP_SHAPES = [(2, 8, 10), (3, 8, 12), (5, 20, 15), (7, 12, 6)]


@pytest.mark.parametrize("n, n_p, n_g", LOCKSTEP_SHAPES)
@pytest.mark.parametrize("metric", list(Metric))
@pytest.mark.parametrize("p_c", [0.0, 1.0])
def test_searches_bred_together_match_searches_bred_alone(n, n_p, n_g, metric, p_c) -> None:
    count = 4
    configs = [GAConfig(n_p=n_p, n_g=n_g, p_c=p_c, metric=metric, seed=seed) for seed in range(count)]
    # Search 1 halts at once, search 2 where its own run first beats its
    # score at n_g // 2, and searches 0 and 3 run all n_g generations.
    _, memos, _, _ = noisy_searches(n, count, metric)
    record_searches([memos[2]], [configs[2]])
    halfway = memos[2].runs[ga._search_key(configs[2])][n_g // 2].current
    configs[1] = replace(configs[1], threshold=1e9)
    configs[2] = replace(configs[2], threshold=float(np.nextafter(halfway, np.inf)))

    targets, together, psi0, grid = noisy_searches(n, count, metric)
    record_searches(together, configs)
    lengths = set()
    for i, config in enumerate(configs):
        alone = noisy_searches(n, count, metric)[1][i]
        record_searches([alone], [config])
        assert recorded(together[i]) == recorded(alone)
        lengths.add(len(alone.runs[ga._search_key(config)]))
        read_off = run_ga(targets[i], psi0, grid, config, cache=together[i])
        fresh = run_ga(targets[i], psi0, grid, config)
        assert outcome(read_off) + (read_off.evaluations,) == outcome(fresh) + (fresh.evaluations,)
    assert 1 in lengths and n_g in lengths and len(lengths) > 1


def test_searches_bred_together_need_matching_configs_and_distinct_memos() -> None:
    _, memos, _, _ = noisy_searches(3, 2, Metric.KLD)
    with pytest.raises(ConfigError, match="differ only in seed and threshold"):
        record_searches(memos, [GAConfig(n_p=8, n_g=2), GAConfig(n_p=10, n_g=2)])
    with pytest.raises(ConfigError, match="distinct memos"):
        record_searches([memos[0], memos[0]], [GAConfig(n_p=8, n_g=2, seed=s) for s in range(2)])
    with pytest.raises(ConfigError, match="distinct memos"):
        record_searches(memos, [GAConfig(n_p=8, n_g=2, metric=Metric.KOLMOGOROV, seed=s) for s in range(2)])
    _, [other], _, _ = noisy_searches(4, 1, Metric.KLD)
    with pytest.raises(ConfigError, match="distinct memos"):
        record_searches([memos[0], other], [GAConfig(n_p=8, n_g=2, seed=s) for s in range(2)])
    assert memos[0].runs == memos[1].runs == other.runs == {}


def test_a_search_key_holds_every_setting_but_the_threshold() -> None:
    # The records of searches that differ only in threshold are shared under
    # this key, and lockstep breeding compares it without its last field.
    config = GAConfig(n_p=8, p_e=0.1, k=3, p_c=0.5, p_m=0.2, n_g=7, threshold=0.3, seed=9, metric=Metric.KOLMOGOROV)
    key = ga._search_key(config)
    others = [getattr(config, f.name) for f in fields(GAConfig) if f.name != "threshold"]
    assert sorted(map(repr, key)) == sorted(map(repr, others)) and key[-1] == config.seed
    assert ga._search_key(replace(config, threshold=None)) == key != ga._search_key(replace(config, seed=10))


def test_searches_that_differ_beyond_the_threshold_keep_their_own_records() -> None:
    target, psi0, grid = noisy_star5()
    base = GAConfig(seed=3, n_g=20)
    variants = [base, replace(base, seed=4), replace(base, n_g=15), replace(base, p_m=0.1)]
    memo = SearchMemo(target, psi0, grid, base.metric)
    for cfg in variants:
        assert outcome(run_ga(target, psi0, grid, cfg, cache=memo)) == outcome(run_ga(target, psi0, grid, cfg))
    # Another metric is another objective: the memo refuses it.
    with pytest.raises(ConfigError):
        run_ga(target, psi0, grid, replace(base, metric=Metric.KOLMOGOROV), cache=memo)
    run_ga(target, psi0, grid, replace(base, threshold=1e-3), cache=memo)
    record_lists = list(memo.runs.values())
    assert len(record_lists) == len({id(records) for records in record_lists}) == 4


@pytest.mark.parametrize("other", ["target", "psi0", "grid", "config"], ids=["target", "probe", "times", "metric"])
def test_a_memo_serves_only_its_own_objective(other: str) -> None:
    target, psi0, grid = noisy_star5()
    objective = {"target": target, "psi0": psi0, "grid": grid, "config": GAConfig(seed=3, n_g=20)}
    memo = SearchMemo(target, psi0, grid, Metric.KLD)
    run_ga(**objective, cache=memo)
    another = {
        "target": sample_noisy_distribution(star_problem(5)[3], 500, np.random.default_rng(5)),
        "psi0": ProbeState.uniform(5),
        "grid": TimeGrid((0.5, 0.7)),
        "config": replace(objective["config"], metric=Metric.KOLMOGOROV),
    }
    store, lengths = memo.store.copy(), {key: len(records) for key, records in memo.runs.items()}
    with pytest.raises(ConfigError, match="another target, probe, times or metric"):
        run_ga(**{**objective, other: another[other]}, cache=memo)
    assert np.array_equal(memo.store, store)
    assert lengths == {key: len(records) for key, records in memo.runs.items()}


def test_a_memo_serves_its_objective_rebuilt_with_equal_values() -> None:
    target, psi0, grid = noisy_star5()
    config = GAConfig(seed=3, n_g=20)
    memo = SearchMemo(target, psi0, grid, config.metric)
    first = run_ga(target, psi0, grid, config, cache=memo)
    again, _, _ = noisy_star5()
    replay = run_ga(again, ProbeState.ramp(5), TimeGrid((0.5, 0.6)), config, cache=memo)
    assert again is not target
    assert outcome(replay) == outcome(first) and replay.evaluations == 0


def test_a_dropped_memo_is_freed_at_once() -> None:
    # The memo holds its scores and records and nothing refers back to it, so
    # a memo no caller keeps is freed without waiting for a full collection.
    target, psi0, grid = noisy_star5()
    memo = SearchMemo(target, psi0, grid, Metric.KLD)
    run_ga(target, psi0, grid, GAConfig(seed=3, n_g=20), cache=memo)
    dropped = weakref.ref(memo)
    del memo
    assert dropped() is None


def test_run_ga_threshold_checked_before_zero() -> None:
    truth, psi0, grid, target = star_problem(3)
    for seed in range(10):
        plain = run_ga(target, psi0, grid, GAConfig(seed=seed))
        if plain.halted_by is HaltReason.ZERO_FITNESS:
            gated = run_ga(target, psi0, grid, GAConfig(seed=seed, threshold=1e-9))
            assert gated.halted_by is HaltReason.THRESHOLD
            assert gated.generations_used == plain.generations_used
            assert gated.best_chromosome == plain.best_chromosome
            return
    pytest.fail("no zero halt in 10 seeds")


def test_run_ga_huge_threshold_halts_immediately() -> None:
    _, psi0, grid, target = star_problem(4)
    result = run_ga(target, psi0, grid, GAConfig(seed=2, threshold=1e6))
    assert result.halted_by is HaltReason.THRESHOLD
    assert result.generations_used == 0


def test_run_ga_max_generations() -> None:
    _, psi0, grid, target = star_problem(5)
    result = run_ga(target, psi0, grid, GAConfig(seed=0, n_g=1, n_p=8))
    if result.halted_by is HaltReason.MAX_GENERATIONS:
        assert result.generations_used == 1
    else:
        # tiny population converged immediately; force the cap instead
        result = run_ga(target, psi0, grid, GAConfig(seed=0, n_g=1, n_p=2))
        assert result.generations_used <= 1


def test_run_ga_best_score_non_increasing_in_budget() -> None:
    _, psi0, grid, target = star_problem(5)
    for seed in (1, 2):
        best = [
            run_ga(target, psi0, grid, GAConfig(seed=seed, n_g=n_g, n_p=30)).best_score
            for n_g in range(1, 7)
        ]
        assert all(b2 <= b1 for b1, b2 in zip(best, best[1:]))


def test_run_ga_kolmogorov_metric() -> None:
    truth, psi0, grid, target = star_problem(4)
    result = run_ga(target, psi0, grid, GAConfig(seed=3, metric=Metric.KOLMOGOROV))
    assert result.best_chromosome == truth


def test_run_ga_rejects_mismatches() -> None:
    _, psi0, grid, target = star_problem(4)
    with pytest.raises(ShapeError):
        run_ga(target, ProbeState.ramp(5), grid, GAConfig(seed=0))
    with pytest.raises(ShapeError):
        run_ga(target, psi0, TimeGrid((0.5,)), GAConfig(seed=0))


def test_run_ga_rejects_single_node_target() -> None:
    from qwtopo.ctqw import ConcatenatedDistribution

    target = ConcatenatedDistribution(np.array([[1.0]]))
    with pytest.raises(ConfigError):
        run_ga(target, ProbeState.ramp(1), TimeGrid((0.5,)), GAConfig(seed=0))


def test_run_ga_minimal_population() -> None:
    _, psi0, grid, target = star_problem(3)
    result = run_ga(target, psi0, grid, GAConfig(seed=4, n_p=2, n_g=50))
    assert result.evaluations <= 2 * (result.generations_used + 1)


def star_memo(n: int, metric: Metric = Metric.KLD) -> SearchMemo:
    _, psi0, grid, target = star_problem(n)
    return SearchMemo(target, psi0, grid, metric)


def record_propagation(monkeypatch) -> list[np.ndarray]:
    """Rows of every batch _evaluate sends to propagation."""
    calls = []
    propagate = ga.batch_site_distributions

    def recording(bits_matrix, *args):
        calls.append(np.array(bits_matrix))
        return propagate(bits_matrix, *args)

    monkeypatch.setattr(ga, "batch_site_distributions", recording)
    return calls


def test_memo_store_is_a_table_up_to_n6_and_a_dict_above() -> None:
    table = star_memo(6).store
    assert isinstance(table, np.ndarray) and table.shape == (1 << 15,) and np.all(table == -1.0)
    assert star_memo(7).store == {}
    assert star_memo(6).scored == star_memo(7).scored == 0
    # Only a table is scored up front; n=7's 2**21 genomes are left to the searches.
    dict_memo = star_memo(7)
    dict_memo.fill(10)
    assert dict_memo.store == {} and dict_memo.floor is None and dict_memo.scored == 0


# n=2 and n=4 have genomes shorter than a byte (n_c = 1 and 6); n=6 and
# n=7 sit either side of the edge between the table and the dict store;
# n=5 is the noise sweep's size.
STORE_SIZES = [2, 4, 5, 6, 7]


@pytest.mark.parametrize("n", STORE_SIZES)
def test_evaluate_propagates_each_distinct_genome_once(monkeypatch, n: int) -> None:
    genomes = distinct_genomes(2, 1) if n == 2 else distinct_genomes(4, n * (n - 1) // 2)
    order = [1, 0, 1, 1, 0] if n == 2 else [2, 0, 2, 3, 0, 0, 1, 3]
    bits = genomes[order]
    calls = record_propagation(monkeypatch)
    memo = star_memo(n)
    scores = _evaluate(bits, memo)
    assert memo.scored == len(genomes)
    assert len(calls) == 1
    # in order of first appearance
    assert np.array_equal(calls[0], genomes[list(dict.fromkeys(order))])
    for genome in range(len(genomes)):
        rows = np.flatnonzero(np.all(bits == genomes[genome], axis=1))
        assert len(set(scores[rows].tolist())) == 1


@pytest.mark.parametrize("n", STORE_SIZES)
def test_evaluate_serves_repeats_from_the_memo(monkeypatch, n: int) -> None:
    if n == 2:
        bits = np.ones((5, 1), dtype=np.uint8)  # the one other genome stays new
    else:
        bits = np.random.default_rng(8).integers(0, 2, size=(50, n * (n - 1) // 2), dtype=np.uint8)
        bits[10:20] = bits[:10]  # repeats inside the population
    memo = star_memo(n)
    first = _evaluate(bits, memo)
    scored = memo.scored
    assert scored == len(np.unique(bits, axis=0))
    calls = record_propagation(monkeypatch)
    again = _evaluate(bits[::-1], memo)
    assert memo.scored - scored == 0 and calls == []
    assert np.array_equal(again, first[::-1])
    # a population mixing memo hits with one new genome propagates only that genome
    new = 1 - bits[0]
    assert new.tobytes() not in {row.tobytes() for row in bits}
    scores = _evaluate(np.vstack([bits[:3], new, bits[3:6]]), memo)
    assert memo.scored - scored == 1
    assert len(calls) == 1 and np.array_equal(calls[0], new[None, :])
    assert np.array_equal(np.delete(scores, 3), first[:6])


@pytest.mark.parametrize("n", STORE_SIZES)
@pytest.mark.parametrize("metric, divergence", [(Metric.KLD, batch_kld), (Metric.KOLMOGOROV, batch_kolmogorov)])
def test_evaluate_scores_equal_direct_divergence(metric, divergence, n: int) -> None:
    _, psi0, grid, target = star_problem(n)
    bits = np.random.default_rng(4).integers(0, 2, size=(60, n * (n - 1) // 2), dtype=np.uint8)
    scores = _evaluate(bits, star_memo(n, metric))
    models = batch_site_distributions(bits, n, psi0.amplitudes, grid.times)
    assert np.array_equal(scores, divergence(models.reshape(len(bits), -1), target.flat))


def test_evaluate_keys_every_gene_at_n12(monkeypatch) -> None:
    n = 12
    star = build_topology(TopologySpec(TopologyKind.STAR), n).bits[None, :]
    other = star.copy()
    other[0, 65] ^= 1  # the last gene: n_c = 66
    bits = np.concatenate([star, other, star, other])
    calls = record_propagation(monkeypatch)
    memo = star_memo(n)
    scores = _evaluate(bits, memo)
    assert memo.scored == 2
    assert np.array_equal(calls[0], np.concatenate([star, other]))
    assert scores[0] == scores[2] == 0.0
    assert scores[1] == scores[3] > 0.0


class UnsettledMemo(SearchMemo):
    """A memo that never learns its floor, so its searches breed every generation, as before settling."""

    floor = property(lambda self: None, lambda self, value: None)


def noisy_problem(n: int, metric: Metric):
    """A shot-noise star-n target, a memo filled with every genome's score, and a lazy unsettled memo."""
    _, psi0, grid, ideal = star_problem(n)
    target = sample_noisy_distribution(ideal, 500, np.random.default_rng(n))
    filled, lazy = SearchMemo(target, psi0, grid, metric), UnsettledMemo(target, psi0, grid, metric)
    return target, psi0, grid, filled, lazy


def trace(records) -> list:
    return [(r.current, r.best_score, r.best.bits.tobytes()) for r in records]


# (n, n_p): populations small enough that most searches climb for a few
# generations before they reach the floor.
SETTLE_SHAPES = [(3, 2), (4, 10), (5, 24), (6, 120)]


@pytest.mark.parametrize("n, n_p", SETTLE_SHAPES)
@pytest.mark.parametrize("metric", list(Metric))
@pytest.mark.parametrize("bred", [0.5, 1.0], ids=["below-floor", "at-floor"])
def test_a_settled_search_reads_as_the_search_bred_to_the_end(n, n_p, metric, bred) -> None:
    target, psi0, grid, filled, lazy = noisy_problem(n, metric)
    config = GAConfig(n_p=n_p, n_g=30, metric=metric, seed=n)
    filled.fill(3 * n_p)
    floor = filled.floor
    assert floor == filled.store.min() > ga.ZERO_TOL and filled.scored == 2 ** (n * (n - 1) // 2)
    # The bred threshold is at or below the floor, so neither search halts.
    record_searches([filled], [replace(config, threshold=bred * floor)])
    record_searches([lazy], [replace(config, threshold=bred * floor)])
    [settled], [full] = filled.runs.values(), lazy.runs.values()
    settle = next(gen for gen, record in enumerate(settled) if record.best_score == floor)
    assert len(settled) == len(full) == config.n_g
    assert trace(settled[: settle + 1]) == trace(full[: settle + 1])
    assert all(record is settled[settle] for record in settled[settle:])
    assert {r.best_score for r in full[settle:]} == {floor} and min(r.current for r in full) == floor
    below = [bred * floor / 2, float(np.nextafter(bred * floor, 0))]
    near = [float(np.nextafter(floor, 0)), floor, float(np.nextafter(floor, np.inf))]
    for threshold in below + near + [2 * floor, 10 * floor, 1e9]:
        cfg = replace(config, threshold=threshold)
        (gen, reason, record), (gen_full, reason_full, record_full) = ga._outcome(settled, cfg), ga._outcome(full, cfg)
        assert (gen, reason, record.best_score, record.best.bits.tobytes()) == (
            gen_full, reason_full, record_full.best_score, record_full.best.bits.tobytes()
        )
        if reason is not HaltReason.MAX_GENERATIONS:
            assert gen <= settle and record is settled[gen] and record.current == record_full.current
        read_off = run_ga(target, psi0, grid, cfg, cache=filled)
        assert outcome(read_off) == outcome(run_ga(target, psi0, grid, cfg, cache=lazy))
        assert (read_off.halted_by is HaltReason.MAX_GENERATIONS) == (threshold <= floor)


def test_a_search_its_threshold_halts_is_never_padded() -> None:
    target, psi0, grid, filled, _ = noisy_problem(5, Metric.KLD)
    filled.fill(240)
    config = GAConfig(n_p=24, n_g=30, seed=5, threshold=float(np.nextafter(filled.floor, np.inf)))
    result = run_ga(target, psi0, grid, config, cache=filled)
    [records] = filled.runs.values()
    assert result.halted_by is HaltReason.THRESHOLD and result.best_score == filled.floor
    assert len(records) == result.generations_used + 1 < config.n_g
    # A noiseless target's floor is zero: its search halts there, unpadded.
    _, psi0, grid, ideal = star_problem(5)
    memo = SearchMemo(ideal, psi0, grid, Metric.KLD)
    memo.fill(240)
    result = run_ga(ideal, psi0, grid, GAConfig(n_p=24, n_g=30, seed=5), cache=memo)
    [records] = memo.runs.values()
    assert memo.floor == 0.0 and result.halted_by is HaltReason.ZERO_FITNESS
    assert len(records) == result.generations_used + 1 < 30
    assert result.evaluations == 2**10


def test_a_tie_keeps_the_best_genome_found_first() -> None:
    # Settling relies on it: a search whose best equals the floor keeps that genome.
    # Every genome scores the same, and with no floor the search breeds all
    # n_g generations, each tying the best.
    *_, memo = noisy_problem(4, Metric.KLD)
    memo.store[:] = 0.5
    record_searches([memo], [GAConfig(n_p=8, n_g=10, seed=2)])
    [records] = memo.runs.values()
    assert len(records) == 10 and {r.current for r in records} == {0.5}
    assert all(r.best is records[0].best for r in records)


def scanned_outcome(records, config: GAConfig):
    """The read-off as a scan of every record in turn, the reference for ``ga._outcome``."""
    for gen, record in enumerate(records):
        reason = ga._halt(record, config.threshold)
        if reason is not None:
            return gen, reason, record
    if len(records) < config.n_g:
        return None
    return config.n_g, HaltReason.MAX_GENERATIONS, records[-1]


def running_records(currents: list[float]) -> list:
    """Records as ``record_searches`` makes them: the best so far keeps the genome that first scored it."""
    records = []
    for gen, current in enumerate(currents):
        if records and records[-1].best_score <= current:
            records.append(ga._Record(current, records[-1].best_score, records[-1].best))
        else:
            records.append(ga._Record(current, current, CouplingString(np.array([gen & 1]), 2)))
    return records


# Scores around the halt bounds, drawn often enough to tie: exact zeros,
# values below, at and just above ZERO_TOL, and noisy-target-sized ones.
EDGE_SCORES = [0.0, 1e-16, 5e-16, float(np.nextafter(ga.ZERO_TOL, 0)), ga.ZERO_TOL, 2e-15, 1e-3, 0.05, 0.2]
SCORES = st.one_of(st.sampled_from(EDGE_SCORES), st.floats(min_value=0.0, max_value=1.0))


@settings(max_examples=300, deadline=None)
@given(currents=st.lists(SCORES, max_size=25), unbred=st.integers(0, 3))
def test_outcome_reads_off_what_a_scan_of_every_record_reads(currents: list[float], unbred: int) -> None:
    records = running_records(currents)
    # unbred > 0: a partial trajectory, which decides only the thresholds it halts.
    config = GAConfig(n_g=max(1, len(records) + unbred))
    thresholds = {None, 0.0, 1e-16}
    for current in currents:
        thresholds |= {current, float(np.nextafter(current, 0)), float(np.nextafter(current, np.inf))}
    for threshold in thresholds:
        cfg = replace(config, threshold=threshold)
        read_off, scanned = ga._outcome(records, cfg), scanned_outcome(records, cfg)
        if scanned is None:
            assert read_off is None and len(records) < cfg.n_g
        else:
            (gen, reason, record), (scanned_gen, scanned_reason, scanned_record) = read_off, scanned
            assert (gen, reason) == (scanned_gen, scanned_reason) and record is scanned_record, threshold
