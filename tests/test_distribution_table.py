"""The per-process table of site distributions in front of the kernel (n <= 6)."""
from __future__ import annotations

import math

import numpy as np
import pytest

from qwtopo import ctqw
from qwtopo.ctqw import ProbeState, batch_site_distributions
from qwtopo.errors import ShapeError, TopologyError
from qwtopo.graph import genome_codes


@pytest.fixture(autouse=True)
def empty_table() -> None:
    ctqw._distribution_table.cache_clear()


def probe(name: str, n: int) -> np.ndarray:
    if name == "ramp":
        return ProbeState.ramp(n).amplitudes
    if name == "uniform":
        return ProbeState.uniform(n).amplitudes
    amps = np.array([1, 1j]) @ np.random.default_rng(n).normal(size=(2, n))
    return ProbeState(amps / np.linalg.norm(amps)).amplitudes


def every_genome(n: int) -> np.ndarray:
    """All 2**n_c genomes, row i holding the genome with code i."""
    n_c = n * (n - 1) // 2
    return (np.arange(1 << n_c)[:, None] >> np.arange(n_c) & 1).astype(np.uint8)


def kernel(bits: np.ndarray, n: int, amps: np.ndarray, times: tuple[float, ...]) -> np.ndarray:
    """The rows as the kernel computes them, with no table, as uint64 bits."""
    return ctqw._kernel(bits, n, amps, times).view(np.uint64)


def record_hamiltonian_stack(monkeypatch) -> list[np.ndarray]:
    calls: list[np.ndarray] = []
    build = ctqw.hamiltonian_stack

    def recording(bits_matrix: np.ndarray, n: int) -> np.ndarray:
        calls.append(np.array(bits_matrix))
        return build(bits_matrix, n)

    monkeypatch.setattr(ctqw, "hamiltonian_stack", recording)
    return calls


def test_genome_codes_index_every_genome() -> None:
    assert np.array_equal(genome_codes(every_genome(4)), np.arange(64))


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("name", ["ramp", "complex"])
@pytest.mark.parametrize("times", [(0.5, 0.6), (0.5, 0.6, 1.0)])
def test_warm_rows_equal_cold_rows_bitwise(n: int, name: str, times: tuple[float, ...]) -> None:
    rng = np.random.default_rng(300 + n)
    amps = probe(name, n)
    n_c = n * (n - 1) // 2
    bits = rng.integers(0, 2, size=(37, n_c), dtype=np.uint8)
    padded = np.concatenate([rng.integers(0, 2, size=(5, n_c), dtype=np.uint8), bits])
    order = rng.permutation(len(bits))

    def batch(rows: np.ndarray) -> np.ndarray:
        return batch_site_distributions(rows, n, amps, times).view(np.uint64)

    cold = batch(bits)
    assert np.array_equal(cold, kernel(bits, n, amps, times))
    assert np.array_equal(batch(bits), cold)
    assert np.array_equal(batch(bits[order]), cold[order])
    assert np.array_equal(batch(padded), kernel(padded, n, amps, times))
    assert np.array_equal(batch(padded)[5:], cold)


def test_table_keys_never_share_rows() -> None:
    ramp = probe("ramp", 5)
    batch_site_distributions(every_genome(5), 5, ramp, (0.5, 0.6))
    rng = np.random.default_rng(31)
    for n, amps, times in [
        (5, probe("uniform", 5), (0.5, 0.6)),
        (5, ramp, (0.5, 0.7)),
        (5, ramp, (0.5, 0.6, 1.0)),
        (4, probe("ramp", 4), (0.5, 0.6)),
        (6, probe("ramp", 6), (0.5, 0.6)),
    ]:
        bits = rng.integers(0, 2, size=(40, n * (n - 1) // 2), dtype=np.uint8)
        warm = batch_site_distributions(bits, n, amps, times).view(np.uint64)
        assert np.array_equal(warm, kernel(bits, n, amps, times))


def test_only_new_genomes_reach_the_kernel(monkeypatch) -> None:
    genomes = every_genome(5)
    amps = probe("ramp", 5)
    calls = record_hamiltonian_stack(monkeypatch)
    first = batch_site_distributions(genomes[[9, 3, 9, 5, 3]], 5, amps, (0.5, 0.6))
    assert len(calls) == 1
    assert np.array_equal(calls[0], genomes[[9, 3, 5]])

    again = batch_site_distributions(genomes[[5, 9, 3, 3]], 5, amps, (0.5, 0.6))
    assert len(calls) == 1
    assert np.array_equal(again, first[[3, 0, 1, 1]])

    batch_site_distributions(genomes[[3, 40, 17, 40, 5, 17]], 5, amps, (0.5, 0.6))
    assert len(calls) == 2
    assert np.array_equal(calls[1], genomes[[40, 17]])


def test_genomes_past_the_table_always_reach_the_kernel(monkeypatch) -> None:
    bits = np.random.default_rng(32).integers(0, 2, size=(6, 21), dtype=np.uint8)
    calls = record_hamiltonian_stack(monkeypatch)
    for _ in range(2):
        batch_site_distributions(bits, 7, probe("ramp", 7), (0.5, 0.6))
    assert [len(rows) for rows in calls] == [6, 6]


def test_writing_to_a_result_leaves_later_results_unchanged() -> None:
    bits = every_genome(4)[::3]
    amps = probe("ramp", 4)
    result = batch_site_distributions(bits, 4, amps, (0.5, 0.6))
    expected = result.copy()
    result[:] = np.nan
    assert np.array_equal(batch_site_distributions(bits, 4, amps, (0.5, 0.6)), expected)


@pytest.mark.parametrize(
    ("bits", "times", "error"),
    [
        (np.ones((1, 10), dtype=np.uint8), (0.5, 125.5), ShapeError),
        (np.ones((1, 10), dtype=np.uint8), (0.5, math.inf), ShapeError),
        (np.ones((1, 10), dtype=np.uint8), (math.nan,), ShapeError),
        (np.ones((1, 9), dtype=np.uint8), (0.5, 0.6), TopologyError),
        (np.ones((1, 11), dtype=np.uint8), (0.5, 0.6), TopologyError),
        (np.ones(10, dtype=np.uint8), (0.5, 0.6), TopologyError),
        (np.array([[2] + [0] * 9], dtype=np.uint8), (0.5, 0.6), TopologyError),
        (np.array([[255] + [0] * 9], dtype=np.uint8), (0.5, 0.6), TopologyError),
    ],
)
def test_a_warm_table_still_refuses_bad_input(bits: np.ndarray, times: tuple[float, ...], error: type) -> None:
    # Every n=5 genome is tabled at times 0.5 and 0.6; a 2 would read as
    # genome code 2 and a 9-gene row as a code below 2**9.
    amps = probe("ramp", 5)
    batch_site_distributions(every_genome(5), 5, amps, (0.5, 0.6))
    with pytest.raises(error):
        batch_site_distributions(bits, 5, amps, times)


@pytest.mark.parametrize("value", [2, 255])
def test_a_warm_n3_table_refuses_couplings_other_than_0_and_1(value: int) -> None:
    amps = probe("ramp", 3)
    batch_site_distributions(every_genome(3), 3, amps, (0.5, 5.0))
    with pytest.raises(TopologyError, match="0 or 1"):
        batch_site_distributions(np.array([[1, value, 1]], dtype=np.uint8), 3, amps, (0.5, 5.0))
