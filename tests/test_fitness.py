"""Divergence metrics, applied to rows of concatenated distributions."""
from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings, strategies as st
from scipy.special import rel_entr

from qwtopo.ctqw import ConcatenatedDistribution, ProbeState, TimeGrid, concatenated_distribution
from qwtopo.fitness import TARGET_CLAMP, Metric, batch_kld, batch_kolmogorov
from qwtopo.graph import CouplingString, TopologyKind, TopologySpec, build_topology


def dist(*rows) -> ConcatenatedDistribution:
    return ConcatenatedDistribution.from_matrix(np.array(rows, dtype=float))


def kld_of(model: ConcatenatedDistribution, target: ConcatenatedDistribution) -> float:
    """The search's KLD, on one model row."""
    return float(batch_kld(model.flat[None, :], target.flat)[0])


def kolmogorov_of(model: ConcatenatedDistribution, target: ConcatenatedDistribution) -> float:
    """The search's Kolmogorov distance, on one model row."""
    return float(batch_kolmogorov(model.flat[None, :], target.flat)[0])


def random_dist(rng: np.random.Generator, n: int, k: int) -> ConcatenatedDistribution:
    rows = rng.random((k, n)) + 1e-3
    return ConcatenatedDistribution.from_matrix(rows / rows.sum(axis=1, keepdims=True))


def test_kld_identical_is_zero() -> None:
    a = dist([0.3, 0.7], [0.5, 0.5])
    assert kld_of(a, a) == 0.0


def test_kld_hand_value_two_bins() -> None:
    value = kld_of(dist([0.5, 0.5]), dist([0.25, 0.75]))
    exact = 0.5 * math.log(2) + 0.5 * math.log(2 / 3)
    assert abs(value - exact) < 1e-12
    assert abs(value - 0.14384) < 1e-5


def test_kld_clamp_convention() -> None:
    value = kld_of(dist([1.0, 0.0]), dist([0.0, 1.0]))
    assert abs(value - math.log(1 / TARGET_CLAMP)) < 1e-9
    assert abs(value - 27.631) < 1e-3


def test_kld_model_zero_contributes_nothing() -> None:
    value = kld_of(dist([0.0, 1.0]), dist([0.5, 0.5]))
    assert abs(value - math.log(2)) < 1e-12


def test_kld_concatenation_adds_per_slice_terms() -> None:
    a = dist([0.5, 0.5], [0.1, 0.9])
    b = dist([0.25, 0.75], [0.3, 0.7])
    parts = kld_of(dist([0.5, 0.5]), dist([0.25, 0.75])) + kld_of(dist([0.1, 0.9]), dist([0.3, 0.7]))
    assert abs(kld_of(a, b) - parts) < 1e-12


def test_kld_is_asymmetric() -> None:
    a = dist([0.5, 0.5])
    b = dist([0.25, 0.75])
    assert abs(kld_of(a, b) - kld_of(b, a)) > 1e-3


@settings(deadline=None, max_examples=200)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_kld_non_negative_and_zero_iff_equal(seed: int) -> None:
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 8))
    k = int(rng.integers(1, 4))
    a = random_dist(rng, n, k)
    b = random_dist(rng, n, k)
    forward = kld_of(a, b)
    assert forward >= 0.0
    assert kld_of(a, a) == 0.0
    if not np.array_equal(a.flat, b.flat):
        assert forward > 0.0


def test_batch_kld_clamps_negative_sums_and_keeps_positive_ones() -> None:
    rng = np.random.default_rng(3)
    target = rng.random(8) + 1e-3
    target /= target.sum()
    models = rng.random((50, 8)) + 1e-3
    models /= models.sum(axis=1, keepdims=True)
    # a sub-normalized row sums below zero; it must not rank above a match
    models[0] = 0.9 * target
    raw = (models * np.log(models / target[None, :])).sum(axis=1)
    scores = batch_kld(models, target)
    assert raw[0] < 0.0 and scores[0] == 0.0
    assert (raw[1:] > 0).all()
    assert np.array_equal(scores[1:].view(np.uint64), raw[1:].view(np.uint64))
    # SciPy's rel_entr, as an outside reference, agrees to rounding.
    reference = rel_entr(models, target[None, :]).sum(axis=1)
    assert np.allclose(scores[1:], reference[1:], rtol=1e-13, atol=0.0)


def test_batch_kld_matches_rel_entr_with_empty_bins() -> None:
    # Model zeros contribute 0 (0 ln 0 = 0); target zeros are clamped.
    rng = np.random.default_rng(4)
    models = rng.random((40, 12))
    models[rng.random(models.shape) < 0.2] = 0.0
    models /= models.sum(axis=1, keepdims=True)
    target = rng.random(12)
    target[[2, 7]] = 0.0
    target /= target.sum()
    reference = rel_entr(models, np.maximum(target, TARGET_CLAMP)[None, :]).sum(axis=1)
    scores = batch_kld(models, target)
    assert np.isfinite(scores).all()
    assert np.allclose(scores, np.maximum(reference, 0.0), rtol=1e-13, atol=0.0)


def test_kolmogorov_examples() -> None:
    assert kolmogorov_of(dist([0.3, 0.7]), dist([0.3, 0.7])) == 0.0
    assert abs(kolmogorov_of(dist([1.0, 0.0]), dist([0.0, 1.0])) - 1.0) < 1e-12
    assert abs(kolmogorov_of(dist([0.5, 0.5]), dist([0.25, 0.75])) - 0.25) < 1e-12


@settings(deadline=None, max_examples=100)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_kolmogorov_symmetric_triangle(seed: int) -> None:
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 8))
    a, b, c = (random_dist(rng, n, 2) for _ in range(3))
    assert abs(kolmogorov_of(a, b) - kolmogorov_of(b, a)) < 1e-12
    assert kolmogorov_of(a, c) <= kolmogorov_of(a, b) + kolmogorov_of(b, c) + 1e-12


def test_fitness_zero_for_true_string_all_families() -> None:
    grid = TimeGrid((0.5, 0.6))
    for kind in TopologyKind:
        if kind is TopologyKind.EDGE_LIST:
            continue
        for n in range(3, 8):
            truth = build_topology(TopologySpec(kind), n)
            psi0 = ProbeState.ramp(n)
            target = concatenated_distribution(truth, psi0, grid)
            model = concatenated_distribution(truth, psi0, grid)
            assert kld_of(model, target) == 0.0
            assert kolmogorov_of(model, target) == 0.0


def test_fitness_two_node_example() -> None:
    grid = TimeGrid((0.5,))
    psi0 = ProbeState.localized(2)
    truth = CouplingString(np.array([1]), 2)
    target = concatenated_distribution(truth, psi0, grid)
    value = kld_of(concatenated_distribution(CouplingString(np.array([0]), 2), psi0, grid), target)
    exact = math.log(1 / math.cos(0.5) ** 2)
    assert abs(value - exact) < 1e-10
    # the 0.26114 reference comes from the four-decimal rounded target
    # (-ln 0.7702); the closed form gives 0.26117
    assert abs(value - 0.26114) < 5e-5


def test_fitness_kolmogorov_metric_selectable() -> None:
    grid = TimeGrid((0.5,))
    psi0 = ProbeState.localized(2)
    truth = CouplingString(np.array([1]), 2)
    target = concatenated_distribution(truth, psi0, grid)
    value = kolmogorov_of(concatenated_distribution(CouplingString(np.array([0]), 2), psi0, grid), target)
    assert abs(value - math.sin(0.5) ** 2) < 1e-10


def test_metric_cli_names() -> None:
    assert Metric("kld") is Metric.KLD
    assert Metric("kolmogorov") is Metric.KOLMOGOROV
