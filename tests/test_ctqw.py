"""Propagator and site-distribution behavior."""
from __future__ import annotations

import math
import multiprocessing
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qwtopo import ctqw
from qwtopo.ctqw import (
    ConcatenatedDistribution,
    ProbeState,
    TimeGrid,
    batch_site_distributions,
    concatenated_distribution,
    spectral_propagator,
)
from qwtopo.errors import ShapeError, TopologyError
from qwtopo.graph import CouplingString, TopologyKind, TopologySpec, build_topology, to_hamiltonian


@pytest.fixture(autouse=True)
def cold_table(monkeypatch) -> None:
    """Give every call an empty distribution table, so each test here reaches the kernel.

    The table in front of it is tested in test_distribution_table.py.
    """
    monkeypatch.setattr(ctqw, "_distribution_table", ctqw._distribution_table.__wrapped__)


def random_coupling(n: int, rng: np.random.Generator) -> CouplingString:
    return CouplingString(rng.integers(0, 2, size=n * (n - 1) // 2, dtype=np.uint8), n)


def taylor_propagator(h: np.ndarray, t: float, terms: int = 30) -> np.ndarray:
    """Independent oracle: truncated series sum (-iHt)^m / m!."""
    n = h.shape[0]
    result = np.zeros((n, n), dtype=complex)
    term = np.eye(n, dtype=complex)
    for m in range(terms + 1):
        result += term
        term = term @ (-1j * t * h) / (m + 1)
    return result


def test_probe_state_requires_normalization() -> None:
    with pytest.raises(ValueError):
        ProbeState(np.array([1.0, 1.0]))


@pytest.mark.parametrize("amplitudes", [[np.nan, 1.0], [1.0, np.nan], [complex(0, np.nan), 1.0], [np.inf, 0.0]])
def test_probe_state_rejects_non_finite_amplitudes(amplitudes) -> None:
    # abs(nan - 1) > tol is False, so a NaN passes a bare normalization test.
    with pytest.raises(ValueError, match="finite"):
        ProbeState(np.array(amplitudes))


def test_probe_state_copies_and_leaves_the_caller_array_writable() -> None:
    amps = np.array([1 + 0j, 0j])
    probe = ProbeState(amps)
    assert amps.flags.writeable
    assert not probe.amplitudes.flags.writeable
    amps[0] = 0j
    assert probe.amplitudes[0] == 1


def test_probe_state_rejects_bad_shape() -> None:
    with pytest.raises(ShapeError):
        ProbeState(np.ones((2, 2)) / 2)


def test_probe_constructors() -> None:
    ramp = ProbeState.ramp(4)
    expected = np.array([1, 2, 3, 4]) / math.sqrt(30)
    assert np.allclose(ramp.amplitudes, expected)
    assert (ramp.amplitudes > 0).all()

    uniform = ProbeState.uniform(4)
    assert np.allclose(uniform.amplitudes, 0.5)

    localized = ProbeState.localized(3, site=1)
    assert np.allclose(localized.amplitudes, [0, 1, 0])
    with pytest.raises(ShapeError):
        ProbeState.localized(3, site=3)


def test_time_grid_validation() -> None:
    with pytest.raises(ShapeError):
        TimeGrid(())
    with pytest.raises(ShapeError):
        TimeGrid((-0.1, 0.5))
    with pytest.raises(ShapeError):
        TimeGrid((0.5, 0.5))
    with pytest.raises(ShapeError):
        TimeGrid((0.6, 0.5))
    assert TimeGrid((0.0, 0.5)).times == (0.0, 0.5)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_time_grid_rejects_non_finite_times(bad: float) -> None:
    with pytest.raises(ShapeError, match="finite"):
        TimeGrid((0.5, bad))


def test_batch_propagation_caps_the_scaled_time() -> None:
    # a = n - 1 = 4, so the cap a * t <= 500 admits t = 125 and no more.
    bits = np.ones((1, 10), dtype=np.uint8)
    amps = ProbeState.ramp(5).amplitudes
    at_cap = batch_site_distributions(bits, 5, amps, (0.5, 125.0))
    h = to_hamiltonian(CouplingString(bits[0], 5))
    expected = np.abs(spectral_propagator(h, 125.0) @ amps) ** 2
    assert np.allclose(at_cap[0, 1], expected, atol=1e-12)
    with pytest.raises(ShapeError, match="at most 125"):
        batch_site_distributions(bits, 5, amps, (0.5, 125.5))


@pytest.mark.parametrize("times", [(0.5, math.inf), (math.nan,)])
def test_batch_propagation_rejects_non_finite_times(times: tuple[float, ...]) -> None:
    # The batch path takes a raw tuple, not a TimeGrid; an infinite a*t
    # would never end the Chebyshev term count.
    with pytest.raises(ShapeError, match="finite"):
        batch_site_distributions(np.ones((1, 3), dtype=np.uint8), 3, ProbeState.ramp(3).amplitudes, times)


@pytest.mark.parametrize("n", [3, 7])
@pytest.mark.parametrize("value", [2, 255])
def test_batch_propagation_refuses_couplings_other_than_0_and_1(n: int, value: int) -> None:
    # A coupling of 2 pushes the spectrum past a = n - 1, which the
    # expansion assumes: on complete n=3 at t=5 the "probabilities"
    # summed to 2.3e10.  The table would also read it as another genome.
    bits = np.ones((2, n * (n - 1) // 2), dtype=np.uint8)
    bits[1, 0] = value
    with pytest.raises(TopologyError, match="0 or 1"):
        batch_site_distributions(bits, n, ProbeState.ramp(n).amplitudes, (0.5, 5.0))


@pytest.mark.parametrize("probs", [[math.nan, 0.5], [0.5, 0.5, math.nan], [math.inf, 0.0], [math.inf, -math.inf]])
def test_site_distribution_rejects_non_finite(probs: list[float]) -> None:
    with pytest.raises(ValueError):
        ConcatenatedDistribution(np.array([probs]))
    # in a later row too
    with pytest.raises(ValueError):
        ConcatenatedDistribution(np.array([[1.0] + [0.0] * (len(probs) - 1), probs]))


def test_site_distribution_validation() -> None:
    with pytest.raises(ValueError):
        ConcatenatedDistribution(np.array([[0.5, 0.6]]))
    with pytest.raises(ValueError):
        ConcatenatedDistribution(np.array([[-0.1, 1.1]]))
    with pytest.raises(ValueError, match="time 1"):
        ConcatenatedDistribution(np.array([[0.5, 0.5], [0.5, 0.6]]))
    with pytest.raises(ValueError):
        ConcatenatedDistribution(np.array([[0.5, 0.5], [-0.1, 1.1]]))


def test_propagator_zero_hamiltonian_is_identity() -> None:
    for n in (1, 2, 5):
        u = spectral_propagator(np.zeros((n, n)), 0.7)
        assert np.allclose(u, np.eye(n), atol=1e-12)


def test_propagator_zero_time_is_identity() -> None:
    h = to_hamiltonian(build_topology(TopologySpec(TopologyKind.CIRCLE), 5))
    assert np.allclose(spectral_propagator(h, 0.0), np.eye(5), atol=1e-12)


def test_propagator_two_node_closed_form() -> None:
    # e^{-i sigma_x t} = cos t * I - i sin t * sigma_x
    h = np.array([[0.0, 1.0], [1.0, 0.0]])
    t = math.pi / 2
    u = spectral_propagator(h, t)
    assert np.allclose(np.abs(u), [[0, 1], [1, 0]], atol=1e-10)
    expected = math.cos(t) * np.eye(2) - 1j * math.sin(t) * h
    assert np.allclose(u, expected, atol=1e-10)


def test_propagator_rejects_bad_input() -> None:
    with pytest.raises(ShapeError):
        spectral_propagator(np.zeros((2, 3)), 0.5)
    with pytest.raises(ShapeError):
        spectral_propagator(np.array([[0.0, 1.0], [0.5, 0.0]]), 0.5)


def test_propagator_unitary_random() -> None:
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(2, 11))
        h = to_hamiltonian(random_coupling(n, rng))
        t = float(rng.uniform(0, 3))
        u = spectral_propagator(h, t)
        assert np.max(np.abs(u @ u.conj().T - np.eye(n))) < 1e-10


def test_propagator_composition() -> None:
    rng = np.random.default_rng(12)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        h = to_hamiltonian(random_coupling(n, rng))
        t1, t2 = rng.uniform(0, 2, size=2)
        u12 = spectral_propagator(h, t1 + t2)
        assert np.max(np.abs(u12 - spectral_propagator(h, t1) @ spectral_propagator(h, t2))) < 1e-9


def test_propagator_matches_taylor_series() -> None:
    rng = np.random.default_rng(13)
    for _ in range(50):
        n = int(rng.integers(2, 5))
        h = to_hamiltonian(random_coupling(n, rng))
        t = float(rng.uniform(0, 1))
        u = spectral_propagator(h, t)
        assert np.max(np.abs(u - taylor_propagator(h, t))) < 1e-9


def spectral_probs(cs: CouplingString, psi0: ProbeState, t: float) -> np.ndarray:
    """Reference site distribution at time t from one eigendecomposition."""
    return np.abs(spectral_propagator(to_hamiltonian(cs), t) @ psi0.amplitudes) ** 2


def test_site_distribution_at_time_zero() -> None:
    rng = np.random.default_rng(14)
    cs = random_coupling(5, rng)
    psi0 = ProbeState.ramp(5)
    dist = concatenated_distribution(cs, psi0, TimeGrid((0.0,)))
    assert np.allclose(dist.flat, np.abs(psi0.amplitudes) ** 2, atol=1e-12)


def test_site_distribution_two_node_closed_form() -> None:
    cs = CouplingString(np.array([1]), 2)
    psi0 = ProbeState.localized(2)
    times = (0.1, 0.5, 0.6, 1.0, math.pi / 2)
    dist = concatenated_distribution(cs, psi0, TimeGrid(times))
    for t, probs in zip(times, dist.matrix):
        assert abs(probs[0] - math.cos(t) ** 2) < 1e-10
        assert abs(probs[1] - math.sin(t) ** 2) < 1e-10


def test_site_distribution_uniform_probe_is_stationary_on_complete() -> None:
    cs = build_topology(TopologySpec(TopologyKind.COMPLETE), 5)
    psi0 = ProbeState.uniform(5)
    dist = concatenated_distribution(cs, psi0, TimeGrid((0.3, 0.9, 2.0)))
    assert np.allclose(dist.flat, 0.2, atol=1e-10)


def test_site_distribution_rejects_mismatched_probe() -> None:
    cs = CouplingString(np.array([1]), 2)
    with pytest.raises(ShapeError):
        concatenated_distribution(cs, ProbeState.ramp(3), TimeGrid((0.5,)))


def test_site_distribution_single_node() -> None:
    cs = CouplingString(np.zeros(0, dtype=np.uint8), 1)
    dist = concatenated_distribution(cs, ProbeState.ramp(1), TimeGrid((0.8,)))
    assert np.allclose(dist.flat, [1.0], atol=1e-12)


def test_concatenated_single_slice_matches_site_distribution() -> None:
    rng = np.random.default_rng(15)
    cs = random_coupling(6, rng)
    psi0 = ProbeState.ramp(6)
    combined = concatenated_distribution(cs, psi0, TimeGrid((0.7,)))
    assert combined.k == 1
    assert np.allclose(combined.matrix[0], spectral_probs(cs, psi0, 0.7), atol=1e-12)


def test_concatenated_two_node_example() -> None:
    cs = CouplingString(np.array([1]), 2)
    psi0 = ProbeState.localized(2)
    dist = concatenated_distribution(cs, psi0, TimeGrid((0.5, 0.6)))
    expected = [
        math.cos(0.5) ** 2,
        math.sin(0.5) ** 2,
        math.cos(0.6) ** 2,
        math.sin(0.6) ** 2,
    ]
    assert np.allclose(dist.flat, expected, atol=1e-10)
    # four-decimal reference values; the closed form above is authoritative
    assert np.allclose(dist.flat, [0.7702, 0.2298, 0.6812, 0.3188], atol=5e-5)


def test_concatenated_empty_graph_repeats_initial_state() -> None:
    cs = CouplingString(np.zeros(10, dtype=np.uint8), 5)
    psi0 = ProbeState.ramp(5)
    dist = concatenated_distribution(cs, psi0, TimeGrid((0.5, 0.6, 1.0)))
    expected = np.abs(psi0.amplitudes) ** 2
    for probs in dist.matrix:
        assert np.allclose(probs, expected, atol=1e-12)


def test_concatenated_matrix_round_trip() -> None:
    rng = np.random.default_rng(16)
    cs = random_coupling(4, rng)
    dist = concatenated_distribution(cs, ProbeState.ramp(4), TimeGrid((0.5, 0.6)))
    rebuilt = ConcatenatedDistribution(dist.flat.reshape(dist.k, dist.n))
    assert np.array_equal(rebuilt.flat, dist.flat)
    assert rebuilt.n == 4 and rebuilt.k == 2
    assert dist.matrix.shape == (2, 4)
    assert np.array_equal(dist.flat, dist.matrix.ravel())


def test_concatenated_validation() -> None:
    with pytest.raises(ShapeError):
        ConcatenatedDistribution(())
    with pytest.raises(ShapeError):
        ConcatenatedDistribution(np.zeros((0, 3)))
    with pytest.raises(ShapeError):
        ConcatenatedDistribution(np.zeros((2, 0)))
    with pytest.raises(ShapeError):
        ConcatenatedDistribution([[0.5, 0.5], [0.2, 0.3, 0.5]])
    with pytest.raises(ShapeError):
        ConcatenatedDistribution(np.zeros(4))
    with pytest.raises(ShapeError):
        ConcatenatedDistribution(np.full((1, 2, 2), 0.5))


def test_concatenated_owns_a_read_only_copy() -> None:
    rows = np.array([[0.5, 0.5], [0.25, 0.75]])
    dist = ConcatenatedDistribution(rows)
    assert rows.flags.writeable
    rows[0, 0] = 0.0
    assert dist.matrix[0, 0] == 0.5
    for view in (dist.matrix, dist.flat):
        assert not view.flags.writeable
        with pytest.raises(ValueError):
            view[0] = 1.0
    assert np.shares_memory(dist.flat, dist.matrix)


def test_every_distribution_normalized() -> None:
    rng = np.random.default_rng(17)
    for _ in range(100):
        n = int(rng.integers(2, 11))
        cs = random_coupling(n, rng)
        amps = rng.normal(size=n) + 1j * rng.normal(size=n)
        psi0 = ProbeState(amps / np.linalg.norm(amps))
        t = float(rng.uniform(0, 3))
        dist = concatenated_distribution(cs, psi0, TimeGrid((t,)))
        assert abs(dist.flat.sum() - 1) < 1e-10


@settings(deadline=None, max_examples=30)
@given(
    st.integers(min_value=2, max_value=7),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_relabeling_covariance(n: int, seed: int) -> None:
    rng = np.random.default_rng(seed)
    cs = random_coupling(n, rng)
    perm = rng.permutation(n)
    psi0 = ProbeState.ramp(n)

    relabeled_bits = np.zeros_like(cs.bits)
    for x in range(n):
        for y in range(x + 1, n):
            px, py = sorted((perm[x], perm[y]))
            relabeled_bits[
                px * n - px * (px + 1) // 2 + py - px - 1
            ] = cs.bits[x * n - x * (x + 1) // 2 + y - x - 1]
    relabeled = CouplingString(relabeled_bits, n)
    moved = np.zeros(n, dtype=complex)
    moved[perm] = psi0.amplitudes
    psi_moved = ProbeState(moved)

    grid = TimeGrid((0.8,))
    base = concatenated_distribution(cs, psi0, grid).flat
    mapped = concatenated_distribution(relabeled, psi_moved, grid).flat
    assert np.allclose(mapped[perm], base, atol=1e-10)


def test_batch_matches_scalar_pipeline() -> None:
    rng = np.random.default_rng(18)
    bits = rng.integers(0, 2, size=(6, 10), dtype=np.uint8)
    psi0 = ProbeState.ramp(5)
    times = (0.5, 0.6)
    batch = batch_site_distributions(bits, 5, psi0.amplitudes, times)
    for row, slab in zip(bits, batch):
        direct = concatenated_distribution(CouplingString(row, 5), psi0, TimeGrid(times))
        assert np.array_equal(slab.reshape(-1), direct.flat)


def ramp_batch(bits: np.ndarray, n: int, times: tuple[float, ...] = (0.5, 0.6)) -> np.ndarray:
    return batch_site_distributions(bits, n, ProbeState.ramp(n).amplitudes, times)


def force_split(monkeypatch, workers: int, min_rows: int) -> None:
    """Split batches of 2 * min_rows rows and more over `workers` threads, on any host."""
    monkeypatch.setattr(ctqw, "_pool", None)
    monkeypatch.setattr(ctqw, "_split_workers", lambda: workers)
    monkeypatch.setattr(ctqw, "_SPLIT_MIN_ROWS", min_rows)


@pytest.mark.parametrize("n", range(5, 11))
def test_rows_are_bitwise_independent_of_their_batch(n: int, monkeypatch) -> None:
    # The zero-fitness halt needs the truth to score exactly 0 wherever
    # it lands in a generation, so a row's distribution may depend on
    # nothing but its genome.
    rng = np.random.default_rng(100 + n)
    n_c = n * (n - 1) // 2
    bits = rng.integers(0, 2, size=(37, n_c), dtype=np.uint8)
    alone = np.stack([ramp_batch(row[None, :], n)[0] for row in bits]).view(np.uint64)

    order = rng.permutation(len(bits))
    padded = np.concatenate([rng.integers(0, 2, size=(5, n_c), dtype=np.uint8), bits])
    assert np.array_equal(ramp_batch(bits, n).view(np.uint64), alone)
    assert np.array_equal(ramp_batch(bits[order], n).view(np.uint64), alone[order])
    assert np.array_equal(ramp_batch(padded, n)[5:].view(np.uint64), alone)
    assert np.array_equal(ramp_batch(bits[:2], n).view(np.uint64), alone[:2])

    for workers, min_rows in ((1, 1), (3, 4), (3, 7)):
        force_split(monkeypatch, workers, min_rows)
        assert np.array_equal(ramp_batch(bits, n).view(np.uint64), alone)
        assert np.array_equal(ramp_batch(padded, n)[5:].view(np.uint64), alone)
    assert ctqw._pool is not None


def random_complex_probe(n: int, rng: np.random.Generator) -> ProbeState:
    amps = rng.normal(size=n) + 1j * rng.normal(size=n)
    return ProbeState(amps / np.linalg.norm(amps))


@pytest.mark.parametrize("n", [2, 5, 8, 12])
@pytest.mark.parametrize("probe", ["ramp", "complex"])
def test_rows_are_bitwise_independent_of_their_batch_at_three_times(n: int, probe: str, monkeypatch) -> None:
    # The same guarantee at times 0.5, 0.6, 1 (more expansion terms),
    # and for a complex probe, whose real and imaginary parts run side
    # by side through the recurrence.
    rng = np.random.default_rng(200 + n)
    amps = (ProbeState.ramp(n) if probe == "ramp" else random_complex_probe(n, rng)).amplitudes
    times = (0.5, 0.6, 1.0)
    n_c = n * (n - 1) // 2
    bits = rng.integers(0, 2, size=(37, n_c), dtype=np.uint8)

    def batch(rows: np.ndarray) -> np.ndarray:
        return batch_site_distributions(rows, n, amps, times).view(np.uint64)

    alone = np.stack([batch(row[None, :])[0] for row in bits])
    order = rng.permutation(len(bits))
    padded = np.concatenate([rng.integers(0, 2, size=(5, n_c), dtype=np.uint8), bits])
    assert np.array_equal(batch(bits), alone)
    assert np.array_equal(batch(bits[order]), alone[order])
    assert np.array_equal(batch(padded)[5:], alone)
    for workers, min_rows in ((1, 1), (3, 7)):
        force_split(monkeypatch, workers, min_rows)
        assert np.array_equal(batch(padded)[5:], alone)


def test_batch_matches_spectral_propagator_on_random_graphs() -> None:
    # The Chebyshev expansion against one eigendecomposition per graph
    # and time.  Measured max |dp| over this set: 1.5e-14, at n=12 and
    # t=10 (a * t = 110, 184 terms); at most 4.8e-15 for t <= 3.
    rng = np.random.default_rng(23)
    times = (0.0, 0.5, 0.6, 1.0, 3.0, 10.0)
    worst = 0.0
    for n in range(2, 13):
        bits = rng.integers(0, 2, size=(6, n * (n - 1) // 2), dtype=np.uint8)
        probes = [
            ProbeState.ramp(n),
            ProbeState.uniform(n),
            ProbeState.localized(n, int(rng.integers(n))),
            random_complex_probe(n, rng),
        ]
        for psi0 in probes:
            batch = batch_site_distributions(bits, n, psi0.amplitudes, times)
            for row, slab in zip(bits, batch):
                h = to_hamiltonian(CouplingString(row, n))
                oracle = [np.abs(spectral_propagator(h, t) @ psi0.amplitudes) ** 2 for t in times]
                worst = max(worst, float(np.abs(slab - oracle).max()))
    assert worst < 1e-13


def test_batch_two_node_closed_form() -> None:
    # One edge, walker on site 0: p_0 = cos^2 t and p_1 = sin^2 t.
    times = (0.0, 0.5, 0.6, 1.0, math.pi / 2, 3.0, 10.0)
    edge = np.array([[1]], dtype=np.uint8)
    batch = batch_site_distributions(edge, 2, ProbeState.localized(2, 0).amplitudes, times)
    expected = np.array([[math.cos(t) ** 2, math.sin(t) ** 2] for t in times])
    assert np.allclose(batch[0], expected, rtol=0.0, atol=1e-14)
    assert np.array_equal(batch[0, 0], [1.0, 0.0])


def test_split_path_matches_serial_on_a_generation_sized_batch(monkeypatch) -> None:
    rng = np.random.default_rng(19)
    bits = rng.integers(0, 2, size=(4050, 45), dtype=np.uint8)
    monkeypatch.setattr(ctqw, "_split_workers", lambda: 0)
    serial = ramp_batch(bits, 10, (0.5, 0.6, 1.0))
    force_split(monkeypatch, 1, ctqw._SPLIT_MIN_ROWS)
    split = ramp_batch(bits, 10, (0.5, 0.6, 1.0))
    assert np.array_equal(split.view(np.uint64), serial.view(np.uint64))


def _send_batch(conn, bits: np.ndarray) -> None:
    conn.send(ramp_batch(bits, 8).tobytes())
    conn.close()


def test_split_survives_fork(monkeypatch) -> None:
    # A pool inherited across fork has no live threads in the child; a
    # split there must start its own pool instead of waiting forever.
    rows = 2 * ctqw._SPLIT_MIN_ROWS
    bits = np.random.default_rng(20).integers(0, 2, size=(rows, 28), dtype=np.uint8)
    force_split(monkeypatch, 1, ctqw._SPLIT_MIN_ROWS)
    parent = ramp_batch(bits, 8)
    assert ctqw._pool is not None

    context = multiprocessing.get_context("fork")
    receiver, sender = context.Pipe(duplex=False)
    child = context.Process(target=_send_batch, args=(sender, bits))
    child.start()
    sender.close()
    try:
        assert receiver.poll(60), "split batch in a forked child did not finish within 60 s"
        assert receiver.recv() == parent.tobytes()
    finally:
        child.join(5)
        if child.is_alive():
            child.kill()
            child.join()
    assert child.exitcode == 0


def record_hamiltonian_stack(monkeypatch) -> list[tuple[threading.Thread, np.ndarray]]:
    calls: list[tuple[threading.Thread, np.ndarray]] = []
    build = ctqw.hamiltonian_stack

    def recording(bits_matrix: np.ndarray, n: int) -> np.ndarray:
        calls.append((threading.current_thread(), np.array(bits_matrix)))
        return build(bits_matrix, n)

    monkeypatch.setattr(ctqw, "hamiltonian_stack", recording)
    return calls


def test_split_builds_hamiltonians_once_on_the_calling_thread(monkeypatch) -> None:
    # The benchmark's tracer wraps hamiltonian_stack and keeps a single
    # span stack, so worker threads must not call it.
    rows = 2 * ctqw._SPLIT_MIN_ROWS
    bits = np.random.default_rng(21).integers(0, 2, size=(rows, 28), dtype=np.uint8)
    force_split(monkeypatch, 3, ctqw._SPLIT_MIN_ROWS)
    calls = record_hamiltonian_stack(monkeypatch)
    ramp_batch(bits, 8)
    assert ctqw._pool is not None
    assert len(calls) == 1
    thread, rows = calls[0]
    assert thread is threading.current_thread()
    assert np.array_equal(rows, bits)


def test_small_batches_start_no_thread(monkeypatch) -> None:
    monkeypatch.setattr(ctqw, "_pool", None)
    monkeypatch.setattr(ctqw, "_split_workers", lambda: 3)
    # Pools dropped by earlier tests may still be winding down, so
    # compare the threads themselves rather than their count.
    before = set(threading.enumerate())
    rng = np.random.default_rng(22)
    for rows in (1, 7, 2 * ctqw._SPLIT_MIN_ROWS - 1):
        ramp_batch(rng.integers(0, 2, size=(rows, 10), dtype=np.uint8), 5)
    cs = build_topology(TopologySpec(TopologyKind.STAR), 10)
    concatenated_distribution(cs, ProbeState.ramp(10), TimeGrid((0.5, 0.6)))
    assert set(threading.enumerate()) <= before
    assert ctqw._pool is None
