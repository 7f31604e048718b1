"""Continuous-time quantum walk propagation and site statistics.

The walker evolves under U(t) = exp(-iHt) with H the adjacency
Hamiltonian of a coupling string (unit couplings, zero on-site
energies).  H is real symmetric, so the propagator is computed from one
eigendecomposition H = V diag(lambda) V^T and reused for every
evolution time.

A large batch is cut into contiguous chunks that the calling thread and
a pool of worker threads, one fewer than the CPUs the process may use,
decompose at the same time; numpy's batched ``eigh`` releases the GIL.
Each matrix goes through the same LAPACK call whatever its batch, so the
result is bitwise the serial one.
"""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .graph import CouplingString, hamiltonian_stack, to_hamiltonian

__all__ = [
    "ProbeState",
    "TimeGrid",
    "SiteDistribution",
    "ConcatenatedDistribution",
    "spectral_propagator",
    "site_distribution",
    "concatenated_distribution",
    "batch_site_distributions",
]

_NORM_TOL = 1e-12

# Fewest rows a chunk of a split batch may hold.  Measured on 2 cores:
# halving a batch across two threads breaks even at about 192 rows for
# n=5 and 64-96 rows for n=6..10, so smaller batches stay serial.
_SPLIT_MIN_ROWS = 128

_pool: ThreadPoolExecutor | None = None


def _split_workers() -> int:
    """Worker threads for a split: the usable CPUs minus the caller."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return cpus - 1


def _worker_pool() -> ThreadPoolExecutor:
    global _pool
    if _pool is None:
        _pool = ThreadPoolExecutor(_split_workers(), thread_name_prefix="qwtopo-propagate")
    return _pool


def _forget_pool() -> None:
    """Drop the pool in a forked child, whose copy has no live threads."""
    global _pool
    _pool = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


@dataclass(eq=False)
class ProbeState:
    """Initial walker state: complex amplitudes over the n sites."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.ndim != 1 or amps.size < 1:
            raise ShapeError(f"amplitudes must be a nonempty vector, got shape {amps.shape}")
        norm = float(np.sum(np.abs(amps) ** 2))
        if abs(norm - 1.0) > _NORM_TOL:
            raise ValueError(f"amplitudes are not normalized: sum |a|^2 = {norm!r}")
        amps.setflags(write=False)
        self.amplitudes = amps

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProbeState):
            return NotImplemented
        return self.amplitudes.tobytes() == other.amplitudes.tobytes()

    def __hash__(self) -> int:
        return hash(self.amplitudes.tobytes())

    @property
    def n(self) -> int:
        return self.amplitudes.size

    @classmethod
    def ramp(cls, n: int) -> ProbeState:
        """Default probe: real amplitudes proportional to (1, 2, ..., n).

        It has support on every site and is generically not an
        adjacency eigenvector, unlike the uniform superposition, which
        is stationary on every regular network.
        """
        amps = np.arange(1, n + 1, dtype=float)
        return cls(amps / np.linalg.norm(amps))

    @classmethod
    def uniform(cls, n: int) -> ProbeState:
        return cls(np.full(n, 1.0 / np.sqrt(n)))

    @classmethod
    def localized(cls, n: int, site: int = 0) -> ProbeState:
        if not 0 <= site < n:
            raise ShapeError(f"site {site} out of range for n={n}")
        amps = np.zeros(n)
        amps[site] = 1.0
        return cls(amps)


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing, non-negative evolution times."""

    times: tuple[float, ...]

    def __post_init__(self) -> None:
        times = tuple(float(t) for t in self.times)
        if not times:
            raise ShapeError("time grid needs at least one time")
        if any(t < 0 for t in times):
            raise ShapeError(f"times must be >= 0: {times}")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ShapeError(f"times must be strictly increasing: {times}")
        object.__setattr__(self, "times", times)

    def __len__(self) -> int:
        return len(self.times)

    @classmethod
    def parse(cls, text: str) -> TimeGrid:
        """Parse a comma-separated list such as ``\"0.5,0.6,1\"``."""
        try:
            return cls(tuple(float(part) for part in text.split(",")))
        except ValueError:
            raise ShapeError(f"cannot parse time grid {text!r}") from None


@dataclass(eq=False)
class SiteDistribution:
    """Occupation probabilities over the n sites at one time."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        probs = np.asarray(self.probs, dtype=float)
        if probs.ndim != 1 or probs.size < 1:
            raise ShapeError(f"probabilities must be a nonempty vector, got shape {probs.shape}")
        if (probs < 0).any():
            raise ValueError(f"negative probability in {probs}")
        total = float(probs.sum())
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        probs.setflags(write=False)
        self.probs = probs

    @property
    def n(self) -> int:
        return self.probs.size


@dataclass(eq=False)
class ConcatenatedDistribution:
    """Site distributions at K times, joined into one length K*n array.

    Each slice is individually normalized; the flattened array sums
    to K.
    """

    slices: tuple[SiteDistribution, ...]

    def __post_init__(self) -> None:
        slices = tuple(self.slices)
        if not slices:
            raise ShapeError("need at least one time slice")
        n = slices[0].n
        if any(s.n != n for s in slices):
            raise ShapeError("all slices must have the same length")
        self.slices = slices

    @property
    def n(self) -> int:
        return self.slices[0].n

    @property
    def k(self) -> int:
        return len(self.slices)

    @property
    def flat(self) -> np.ndarray:
        """Concatenated length K*n view, slice by slice."""
        return np.concatenate([s.probs for s in self.slices])

    def as_matrix(self) -> np.ndarray:
        """Slices stacked as a (K, n) array."""
        return np.stack([s.probs for s in self.slices])

    @classmethod
    def from_matrix(cls, matrix: np.ndarray) -> ConcatenatedDistribution:
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2:
            raise ShapeError(f"expected a (K, n) matrix, got shape {matrix.shape}")
        return cls(tuple(SiteDistribution(row) for row in matrix))


def spectral_propagator(h: np.ndarray, t: float) -> np.ndarray:
    """Unitary exp(-iHt) for real symmetric H, via eigendecomposition."""
    h = np.asarray(h, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ShapeError(f"Hamiltonian must be square, got shape {h.shape}")
    if not np.array_equal(h, h.T):
        raise ShapeError("Hamiltonian must be symmetric")
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * t)) @ v.T


def site_distribution(coupling: CouplingString, psi0: ProbeState, t: float) -> SiteDistribution:
    """Occupation probabilities |<x| exp(-iHt) |psi0>|^2."""
    if psi0.n != coupling.n:
        raise ShapeError(f"probe has {psi0.n} amplitudes but the network has {coupling.n} nodes")
    amps = spectral_propagator(to_hamiltonian(coupling), t) @ psi0.amplitudes
    return SiteDistribution(np.abs(amps) ** 2)


def concatenated_distribution(
    coupling: CouplingString, psi0: ProbeState, grid: TimeGrid
) -> ConcatenatedDistribution:
    """Site distributions at every grid time, in grid order.

    Shares the float path of :func:`batch_site_distributions`, so a
    candidate identical to the string that produced a target scores
    exactly zero divergence against it.
    """
    if psi0.n != coupling.n:
        raise ShapeError(f"probe has {psi0.n} amplitudes but the network has {coupling.n} nodes")
    matrix = batch_site_distributions(coupling.bits[None, :], coupling.n, psi0.amplitudes, grid.times)[0]
    return ConcatenatedDistribution.from_matrix(matrix)


def batch_site_distributions(
    bits_matrix: np.ndarray, n: int, amplitudes: np.ndarray, times: tuple[float, ...]
) -> np.ndarray:
    """Site distributions for m coupling strings at K times, as (m, K, n).

    One batched eigendecomposition serves all strings and all times;
    this is the hot path of the fitness evaluation.  The Hamiltonians
    are built here on the calling thread; a batch of at least
    2 * _SPLIT_MIN_ROWS rows is then propagated in chunks across the
    process's CPUs, the first chunk on the calling thread.
    """
    h = hamiltonian_stack(bits_matrix, n)
    n_chunks = len(h) // _SPLIT_MIN_ROWS
    if n_chunks >= 2:
        n_chunks = min(n_chunks, _split_workers() + 1)
    if n_chunks < 2:
        return _propagate(h, amplitudes, times)
    first, *rest = np.array_split(h, n_chunks)
    pending = [_worker_pool().submit(_propagate, chunk, amplitudes, times) for chunk in rest]
    return np.concatenate([_propagate(first, amplitudes, times)] + [f.result() for f in pending])


def _propagate(h: np.ndarray, amplitudes: np.ndarray, times: tuple[float, ...]) -> np.ndarray:
    """Site distributions for an (m, n, n) Hamiltonian stack, as (m, K, n)."""
    w, v = np.linalg.eigh(h)
    coeff = np.einsum("mij,i->mj", v, amplitudes)
    phases = np.exp(-1j * w[:, None, :] * np.asarray(times)[None, :, None])
    amps = np.einsum("mij,mkj->mki", v, phases * coeff[:, None, :])
    return np.abs(amps) ** 2
