"""Continuous-time quantum walk propagation and site statistics.

The site statistics of a walk observed at K times are one (K, n) array
of probabilities, row j over the n sites at the j-th time: a
:class:`ConcatenatedDistribution` holds a read-only copy of it, and
the batch path returns one such array per coupling string.

The walker evolves under U(t) = exp(-iHt) with H the adjacency
Hamiltonian of a coupling string (unit couplings, zero on-site
energies).  The batch path expands exp(-iHt) psi in Chebyshev
polynomials (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967 (1984)):

    exp(-iHt) psi = sum_k (2 - delta_k0) (-i)^k J_k(a t) T_k(H/a) psi,

where a = n - 1 bounds the spectrum of any n-node adjacency matrix, so
H/a has its eigenvalues in [-1, 1]; the bound holds for 0/1 couplings
only, and the batch path refuses any other.  The vectors T_k(H/a) psi
come from the three-term recurrence v_{k+1} = 2 (H/a) v_k - v_{k-1}
and are shared by every evolution time; only the Bessel weights
J_k(a t) differ.  The terms run until (x/2)^k / k! < 1e-18 with k > x for the
largest x = a t, which bounds every dropped J_k(x).  Each vector is
folded into the amplitudes as soon as it is made, in a fixed k order,
with per-row operations only, so a row's result depends on its genome
alone and not on its batch.  The adjacency matrices arrive as a uint8
stack, gathered from the genome bits, and each propagated chunk scales
its own to 2H/a in one float pass.  That scaled stack is C-contiguous:
einsum's reduction order follows its operands' memory layout, and
another layout can move a row's last bits with its batch.  The
recurrence is real: a real probe runs one, a complex probe runs its
real and imaginary parts side by side.
:func:`spectral_propagator` (one eigendecomposition) stays as the
reference the tests hold the expansion to.

Up to n = 6 (TABLE_GENES = 15 genes) each network is propagated once
per process: a table per (n, probe, times), indexed by genome code,
keeps every row the expansion has made, and a batch sends only the
distinct genomes the table misses through it.  Since a row's result
does not depend on its batch, a row served from the table is bitwise
the one the expansion would make now.

A large batch of misses is cut into contiguous chunks that the calling
thread and a pool of worker threads, one fewer than the CPUs the
process may use, propagate at the same time; numpy releases the GIL
inside each array operation.  Rows never interact, so the result is
bitwise the serial one.
"""
from __future__ import annotations

import functools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, TopologyError
from .graph import TABLE_GENES, CouplingString, check_couplings, genome_codes, hamiltonian_stack

__all__ = [
    "ProbeState",
    "TimeGrid",
    "ConcatenatedDistribution",
    "spectral_propagator",
    "concatenated_distribution",
    "batch_site_distributions",
]

_NORM_TOL = 1e-12

# Fewest rows a chunk of a split batch may hold.  Measured on 2 cores
# (median of 40 calls, times 0.5 and 0.6, serial / halved across two
# threads): n=5 2.55 / 2.73 ms at 1024 rows and 5.13 / 3.83 ms at 2048;
# n=7 3.30 / 3.19 ms at 1024; n=10 2.94 / 3.21 ms at 512, 5.38 / 4.28 ms
# at 1024 and 30.1 / 18.1 ms at 4050.  Each of the 20-30 recurrence
# steps is a few array operations, and a split pays for the threads taking
# turns between them, so batches under 1024 rows stay serial.
_SPLIT_MIN_ROWS = 512

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
        amps = np.array(self.amplitudes, dtype=np.complex128)
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
    """Strictly increasing, finite, non-negative evolution times."""

    times: tuple[float, ...]

    def __post_init__(self) -> None:
        times = tuple(float(t) for t in self.times)
        if not times:
            raise ShapeError("time grid needs at least one time")
        if not all(0 <= t < np.inf for t in times):
            raise ShapeError(f"times must be finite and >= 0: {times}")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ShapeError(f"times must be strictly increasing: {times}")
        object.__setattr__(self, "times", times)

    def __len__(self) -> int:
        return len(self.times)


@dataclass(frozen=True, eq=False)
class ConcatenatedDistribution:
    """Site distributions at K times, as one read-only (K, n) array.

    Row j holds the occupation probabilities over the n sites at the
    j-th time and sums to 1.  The array is a copy of the input.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        try:
            matrix = np.array(self.matrix, dtype=float)
        except ValueError as exc:
            raise ShapeError(f"expected a (K, n) matrix: {exc}") from None
        if matrix.ndim != 2 or matrix.size < 1:
            raise ShapeError(f"expected a nonempty (K, n) matrix, got shape {matrix.shape}")
        if not (np.isfinite(matrix) & (matrix >= 0)).all():
            raise ValueError(f"negative or non-finite probability in {matrix}")
        totals = matrix.sum(axis=1)
        off = np.flatnonzero(np.abs(totals - 1.0) > 1e-10)
        if off.size:
            raise ValueError(f"probabilities at time {off[0]} sum to {float(totals[off[0]])!r}, not 1")
        matrix.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)

    @property
    def n(self) -> int:
        return self.matrix.shape[1]

    @property
    def k(self) -> int:
        return self.matrix.shape[0]

    @property
    def flat(self) -> np.ndarray:
        """The K*n probabilities time by time, as a read-only view."""
        return self.matrix.ravel()


def spectral_propagator(h: np.ndarray, t: float) -> np.ndarray:
    """Unitary exp(-iHt) for real symmetric H, via eigendecomposition.

    The reference the tests hold the batch path to; no package code calls it.
    """
    h = np.asarray(h, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ShapeError(f"Hamiltonian must be square, got shape {h.shape}")
    if not np.array_equal(h, h.T):
        raise ShapeError("Hamiltonian must be symmetric")
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * t)) @ v.T


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
    return ConcatenatedDistribution(matrix)


def batch_site_distributions(
    bits_matrix: np.ndarray, n: int, amplitudes: np.ndarray, times: tuple[float, ...]
) -> np.ndarray:
    """Site distributions for m coupling strings at K times, as a fresh (m, K, n) array.

    This is the hot path of the fitness evaluation.  The rows, which
    must be 0/1 couplings of an n-node network, and the times are
    checked first.  Up to TABLE_GENES genes (n <= 6) a row is served
    from the process's table for (n, probe, times), and only distinct
    genomes the table misses, in order of first appearance, go to
    :func:`_kernel`; longer genomes all go there.
    """
    bits_matrix = np.asarray(bits_matrix)
    n_c = n * (n - 1) // 2
    if bits_matrix.ndim != 2 or bits_matrix.shape[1] != n_c:
        raise TopologyError(f"expected {n_c} couplings for n={n}, got shape {bits_matrix.shape}")
    check_couplings(bits_matrix)
    bits_matrix = bits_matrix.astype(np.uint8, copy=False)
    _chebyshev_weights(n, times)  # refuses bad times before any lookup
    if n_c > TABLE_GENES:
        return _kernel(bits_matrix, n, amplitudes, times)
    table, filled = _distribution_table(n, np.asarray(amplitudes, dtype=np.complex128).tobytes(), times)
    codes = genome_codes(bits_matrix)
    missed = np.flatnonzero(~filled[codes])
    if missed.size:
        _, first = np.unique(codes[missed], return_index=True)
        # Sorted as _evaluate sorts: np.sort would page in another sort
        # kernel, ~0.25 MB of peak RSS.
        new = missed[first[np.argsort(first, kind="stable")]]
        table[codes[new]] = _kernel(bits_matrix[new], n, amplitudes, times)
        filled[codes[new]] = True
    return table[codes]


@functools.lru_cache(maxsize=16)
def _distribution_table(n: int, probe: bytes, times: tuple[float, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Rows for every n-node genome at the times, indexed by genome code, and which are filled.

    The rows are allocated empty, so memory is taken only as they are
    written: at most 80 KB at n = 5 and 3.1 MB at n = 6 for two times.
    """
    size = 1 << n * (n - 1) // 2
    return np.empty((size, len(times), n)), np.zeros(size, dtype=bool)


def _kernel(bits_matrix: np.ndarray, n: int, amplitudes: np.ndarray, times: tuple[float, ...]) -> np.ndarray:
    """Propagate every row: the Chebyshev recurrence, split across CPUs for a large batch.

    The adjacency stack is gathered here as bytes, on the calling
    thread; a batch of at least 2 * _SPLIT_MIN_ROWS rows is then
    propagated in chunks across the process's CPUs, the first chunk on
    the calling thread, and each chunk scales its own matrices to a
    C-contiguous float stack.
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
    """Site distributions for an (m, n, n) uint8 adjacency stack, as (m, K, n)."""
    m, n, _ = h.shape
    scale, weights = _chebyshev_weights(n, times)
    # Columns of the recurrence: the probe's real part and, for a complex
    # probe, its imaginary part.
    parts = [amplitudes.real, amplitudes.imag] if amplitudes.imag.any() else [amplitudes.real]
    psi = np.stack(parts, axis=-1)[None]
    # einsum's reduction order follows its operands' memory layout, so h2
    # must be C-contiguous for a row's result not to depend on its batch.
    h2 = np.multiply(h, 2.0 / scale, order="C")
    # Three vectors in turn, v_{k-1}, v_k and the next, and one scratch
    # term, all reused across steps.
    prev = np.repeat(psi, m, axis=0)
    cur = np.einsum("mij,mjc->mic", h2, prev)
    cur *= 0.5
    nxt = np.empty_like(cur)
    # (K, m, n, c) sums of the even and of the odd terms: (-i)^k is real
    # for even k and imaginary for odd k.
    even = weights[0] * prev
    odd = np.zeros_like(even)
    term = np.empty_like(even)
    for k in range(1, len(weights)):
        acc = odd if k % 2 else even
        np.multiply(weights[k], cur, out=term)
        acc += term
        if k + 1 < len(weights):
            np.einsum("mij,mjc->mic", h2, cur, out=nxt)
            nxt -= prev
            prev, cur, nxt = cur, nxt, prev
    if len(parts) == 1:
        re, im = even[..., 0], odd[..., 0]
    else:
        re = even[..., 0] - odd[..., 1]
        im = even[..., 1] + odd[..., 0]
    return np.ascontiguousarray((re * re + im * im).transpose(1, 0, 2))


# Bound on the largest Bessel weight the expansion drops.
_TAIL = 1e-18

# Largest scaled time a * t accepted.  At the cap the expansion takes 716
# terms and _chebyshev_weights ~40 ms and ~25 MB at peak per time
# (tracemalloc, 2 vCPUs, Python 3.11, NumPy 2.4); both grow as (a t)^2,
# to ~0.1 s and ~95 MB per time at a t = 1000, and past a t ~ 1420 the
# term bound overflows to inf.
_MAX_SCALED_TIME = 500.0


def _term_count(x: float) -> int:
    """Fewest terms k > x with (x/2)^k / k! < _TAIL.

    J_j(x) <= (x/2)^j / j! for x >= 0, and past j > x each bound is under
    half the one before, so every dropped weight is below _TAIL.
    """
    k, bound = 0, 1.0
    while k <= x or bound >= _TAIL:
        k += 1
        bound *= x / (2 * k)
    return k


@functools.lru_cache(maxsize=64)
def _chebyshev_weights(n: int, times: tuple[float, ...]) -> tuple[float, np.ndarray]:
    """Spectral scale a and read-only real weights of shape (terms, K, 1, 1, 1).

    Term k's weight at time t is (2 - delta_k0) J_k(a t) times the real
    factor of (-i)^k: (-1)^(k/2) for even k, -(-1)^((k-1)/2) for odd k,
    whose amplitude share is imaginary.  J_k(x) is the trapezoid rule
    for (1/2pi) * integral over [0, 2pi) of cos(k theta - x sin theta),
    exact up to aliased terms J_(N-k) and J_(N+k), with N = 2 * terms
    points, all below the dropped-term bound.  Weights at x = 0 are set
    exactly (J_k(0) = delta_k0), so time 0 returns the probe itself.
    """
    scale = float(max(n - 1, 1))
    x = scale * np.asarray(times)
    if not np.isfinite(x).all():
        raise ShapeError(f"times must be finite: {times}")
    if x.max() > _MAX_SCALED_TIME:
        raise ShapeError(f"times must be at most {_MAX_SCALED_TIME / scale:g} at n={n}: {times}")
    terms = _term_count(float(x.max()))
    points = 2 * terms
    k = np.arange(terms)
    theta = 2 * np.pi / points * np.arange(points)
    # k theta reduced modulo 2 pi in integers, so large k add no rounding.
    k_theta = 2 * np.pi / points * (np.outer(k, np.arange(points)) % points)
    bessel = np.cos(k_theta[:, None, :] - x[:, None] * np.sin(theta)).mean(axis=2)
    bessel[:, x == 0] = (k == 0)[:, None]
    sign = np.where(k % 2 == 0, 1.0, -1.0) * np.where(k % 4 < 2, 1.0, -1.0)
    weights = np.where(k > 0, 2.0, 1.0)[:, None] * sign[:, None] * bessel
    weights = weights[:, :, None, None, None]
    weights.setflags(write=False)
    return scale, weights
