"""Reference computations made apart from the qwtopo package.

Everything here is rebuilt from the definitions: the edge lists of the
named topologies, the genome order (upper-triangle pairs (x, y), x < y,
in lexicographic order), the ramp probe, propagation by a dense matrix
exponential, and the KL divergence with a floor on the target.  Nothing
is imported from qwtopo, so a fault in the program cannot hide in its
own reference.
"""
from __future__ import annotations

import zlib

import numpy as np
from scipy.linalg import expm

# Floor on target entries, as the divergence is specified.
TARGET_FLOOR = 1e-12


def edges(topology: str, n: int) -> list[tuple[int, int]]:
    """Edge list of a named topology on nodes 0..n-1 (star hub is node 0)."""
    if topology == "star":
        return [(0, y) for y in range(1, n)]
    if topology == "complete":
        return [(x, y) for x in range(n) for y in range(x + 1, n)]
    if topology == "line":
        return [(i, i + 1) for i in range(n - 1)]
    if topology == "circle":
        return [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    raise ValueError(f"no edge list for topology {topology!r}")


def adjacency(edge_list: list[tuple[int, int]], n: int) -> np.ndarray:
    a = np.zeros((n, n))
    for x, y in edge_list:
        a[x, y] = a[y, x] = 1.0
    return a


def chromosome(topology: str, n: int) -> str:
    """Genome of the named topology as a 0/1 string in pair order."""
    a = adjacency(edges(topology, n), n)
    return "".join("1" if a[x, y] else "0" for x in range(n) for y in range(x + 1, n))


def adjacency_from_chromosome(bits: str, n: int) -> np.ndarray:
    pairs = [(x, y) for x in range(n) for y in range(x + 1, n)]
    if len(bits) != len(pairs) or set(bits) - {"0", "1"}:
        raise ValueError(f"{bits!r} is not a genome for n={n}")
    return adjacency([p for p, b in zip(pairs, bits) if b == "1"], n)


def ramp(n: int) -> np.ndarray:
    amps = np.arange(1, n + 1, dtype=float)
    return amps / np.sqrt(np.sum(amps**2))


def distribution(a: np.ndarray, times: list[float]) -> np.ndarray:
    """Site probabilities at each time, ramp probe, concatenated (K*n,)."""
    psi0 = ramp(len(a)).astype(complex)
    return np.concatenate([np.abs(expm(-1j * a * t) @ psi0) ** 2 for t in times])


def kld(model: np.ndarray, target: np.ndarray) -> float:
    """sum_x m_x ln(m_x / max(t_x, floor)), with 0 ln 0 = 0."""
    t = np.maximum(target, TARGET_FLOOR)
    m = model[model > 0]
    return float(np.sum(m * np.log(m / t[model > 0])))


def run_seed(master: int, topology: str, n: int, run: int) -> int:
    """Per-run seed as the harness documents it: SeedSequence over
    (master, crc32(label), n, run), first 64-bit word."""
    parts = [master, zlib.crc32(topology.encode()), n, run]
    return int(np.random.SeedSequence(parts).generate_state(1, np.uint64)[0])


def default_thresholds() -> list[float]:
    """Twelve log-spaced halt thresholds over [4e-4, 0.2]."""
    lo, hi = np.log(4e-4), np.log(0.2)
    return [float(np.exp(lo + (hi - lo) * i / 11)) for i in range(12)]
