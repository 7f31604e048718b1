"""Network topologies encoded as binary coupling strings.

A network on ``n`` nodes is a symmetric {0,1} adjacency matrix with zero
diagonal.  Its n_c = n(n-1)/2 upper-triangular entries, read in
lexicographic order of the node pairs (x, y) with x < y and 0-indexed
nodes, form the coupling string used as the genome throughout the
package.
"""
from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import TopologyError, whole_count

__all__ = [
    "CouplingString",
    "TopologyKind",
    "TopologySpec",
    "coupling_index",
    "build_topology",
    "to_hamiltonian",
    "hamiltonian_stack",
    "load_edge_list",
    "parse_topology_label",
]


# Genome length up to which tables of every genome are kept, indexed by
# genome code (n <= 6, 2**15 genomes).
TABLE_GENES = 15


def genome_codes(bits_matrix: np.ndarray) -> np.ndarray:
    """Each row's genome code sum(bit_j * 2**j), its index in a table of every genome."""
    return bits_matrix @ (1 << np.arange(bits_matrix.shape[1]))


@functools.lru_cache(maxsize=TABLE_GENES + 1)
def genome_bits(n_c: int) -> np.ndarray:
    """Read-only (2**n_c, n_c) uint8 bits of every genome, row c the genome of code c.

    Kept per genome length: 10 KB at n=5, 480 KB at n=6.
    """
    bits = (np.arange(1 << n_c)[:, None] >> np.arange(n_c) & 1).astype(np.uint8)
    bits.setflags(write=False)
    return bits


def check_couplings(bits: np.ndarray) -> None:
    """Raise TopologyError unless every coupling is 0 or 1."""
    # A bool or unsigned array holds nothing below 0, so its maximum decides.
    if not (bits.max(initial=0) <= 1 if bits.dtype.kind in "bu" else ((bits == 0) | (bits == 1)).all()):
        raise TopologyError("couplings must be 0 or 1")


def coupling_index(x: int, y: int, n: int) -> int:
    """Genome position of edge (x, y) for an n-node network.

    Edges are ordered lexicographically over pairs (x, y) with x < y:
    (0,1), (0,2), ..., (0,n-1), (1,2), ..., (n-2,n-1).
    """
    if not (0 <= x < y < n):
        raise TopologyError(f"invalid edge ({x}, {y}) for n={n}")
    return x * n - x * (x + 1) // 2 + y - x - 1


@functools.lru_cache(maxsize=64)
def _gather_index(n: int) -> np.ndarray:
    """For each entry of a flat n x n matrix, 1 + its genome position, or 0 off the couplings.

    It indexes the columns of a bit matrix led by a zero column.
    """
    rows, cols = np.triu_indices(n, k=1)
    index = np.zeros((n, n), dtype=np.intp)
    index[rows, cols] = index[cols, rows] = np.arange(1, rows.size + 1)
    index = index.ravel()
    index.setflags(write=False)
    return index


@dataclass(frozen=True, eq=False)
class CouplingString:
    """Binary genome of length n(n-1)/2 plus the node count it encodes.

    Instances are frozen and ``bits`` is stored as a read-only uint8
    array, so instances hash consistently, can key caches and can be
    shared, as search results read off one record share its genome.
    """

    bits: np.ndarray
    n: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", whole_count(self.n, "node count"))
        if self.n < 1:
            raise TopologyError(f"node count must be >= 1, got {self.n}")
        bits = np.asarray(self.bits)
        n_c = self.n * (self.n - 1) // 2
        if bits.shape != (n_c,):
            raise TopologyError(
                f"expected {n_c} couplings for n={self.n}, got shape {bits.shape}"
            )
        check_couplings(bits)
        bits = bits.astype(np.uint8, copy=True)
        bits.setflags(write=False)
        object.__setattr__(self, "bits", bits)

    @property
    def n_c(self) -> int:
        return self.bits.size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CouplingString):
            return NotImplemented
        return self.n == other.n and self.bits.tobytes() == other.bits.tobytes()

    def __hash__(self) -> int:
        return hash((self.n, self.bits.tobytes()))

    def to_bitstring(self) -> str:
        """Genome as a compact 0/1 text string, e.g. ``\"111000\"``."""
        return "".join("1" if b else "0" for b in self.bits)

    @classmethod
    def from_bitstring(cls, text: str, n: int) -> CouplingString:
        if set(text) - {"0", "1"}:
            raise TopologyError(f"bit string may contain only 0/1: {text!r}")
        return cls(np.frombuffer(text.encode(), dtype=np.uint8) - ord("0"), n)


class TopologyKind(enum.Enum):
    STAR = "star"
    COMPLETE = "complete"
    LINE = "line"
    CIRCLE = "circle"
    EDGE_LIST = "edgelist"


@dataclass(frozen=True)
class TopologySpec:
    """A named topology family, or an explicit edge list."""

    kind: TopologyKind
    edges: tuple[tuple[int, int], ...] = field(default=())

    def __post_init__(self) -> None:
        if self.kind is TopologyKind.EDGE_LIST:
            seen = set()
            for x, y in self.edges:
                if not (0 <= x < y):
                    raise TopologyError(f"edge ({x}, {y}) must satisfy 0 <= x < y")
                if (x, y) in seen:
                    raise TopologyError(f"duplicate edge ({x}, {y})")
                seen.add((x, y))
        elif self.edges:
            raise TopologyError(f"edges are only valid with kind=edgelist, not {self.kind.value}")

    def label(self) -> str:
        return self.kind.value


def build_topology(spec: TopologySpec, n: int) -> CouplingString:
    """Coupling string of the given family on n nodes.

    Star uses node 0 as the hub; line connects (i, i+1); circle closes
    the line with edge (0, n-1).
    """
    if n < 2:
        raise TopologyError(f"topologies need n >= 2, got n={n}")
    n_c = n * (n - 1) // 2
    bits = np.zeros(n_c, dtype=np.uint8)
    kind = spec.kind
    if kind is TopologyKind.STAR:
        edges = [(0, y) for y in range(1, n)]
    elif kind is TopologyKind.COMPLETE:
        bits[:] = 1
        edges = []
    elif kind is TopologyKind.LINE:
        edges = [(i, i + 1) for i in range(n - 1)]
    elif kind is TopologyKind.CIRCLE:
        edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    elif kind is TopologyKind.EDGE_LIST:
        edges = list(spec.edges)
    else:  # pragma: no cover - enum is closed
        raise TopologyError(f"unknown topology kind {kind!r}")
    for x, y in edges:
        if y >= n:
            raise TopologyError(f"edge ({x}, {y}) references node >= n={n}")
        bits[coupling_index(x, y, n)] = 1
    return CouplingString(bits, n)


def to_hamiltonian(coupling: CouplingString) -> np.ndarray:
    """Symmetric n x n float adjacency Hamiltonian with zero diagonal.

    The reference the tests hold the batch path to; no package code calls it.
    """
    return hamiltonian_stack(coupling.bits[None, :], coupling.n)[0].astype(float)


def hamiltonian_stack(bits_matrix: np.ndarray, n: int) -> np.ndarray:
    """C-contiguous (m, n, n) uint8 adjacency matrices of the rows of an (m, n_c) bit matrix.

    The bits go behind a zero column, and one gather through a cached
    index reads every matrix entry from there.
    """
    bits_matrix = np.asarray(bits_matrix)
    m, n_c = bits_matrix.shape
    if n_c != n * (n - 1) // 2:
        raise TopologyError(f"expected {n * (n - 1) // 2} couplings for n={n}, got {n_c}")
    padded = np.zeros((m, n_c + 1), dtype=np.uint8)
    padded[:, 1:] = bits_matrix
    return padded.take(_gather_index(n), axis=1).reshape(m, n, n)


def load_edge_list(path: str | Path) -> tuple[tuple[int, int], ...]:
    """Parse an edge-list text file: one ``x y`` pair per line.

    Blank lines are skipped and ``#`` starts a comment (full line or
    trailing).  Pairs are normalized to x < y; self-loops and duplicates
    are rejected.
    """
    edges: list[tuple[int, int]] = []
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise TopologyError(f"{path}:{lineno}: expected 'x y', got {raw!r}")
        try:
            x, y = int(parts[0]), int(parts[1])
        except ValueError:
            raise TopologyError(f"{path}:{lineno}: non-integer node index in {raw!r}") from None
        if x == y:
            raise TopologyError(f"{path}:{lineno}: self-loop ({x}, {y}) not allowed")
        if min(x, y) < 0:
            raise TopologyError(f"{path}:{lineno}: negative node index in ({x}, {y})")
        edges.append((min(x, y), max(x, y)))
    return tuple(edges)


def parse_topology_label(label: str) -> TopologySpec:
    """Build a TopologySpec from a CLI name.

    Accepted values: ``star``, ``complete``, ``line``, ``circle``,
    ``edgelist:<path>``.
    """
    if label.startswith("edgelist:"):
        path = label.split(":", 1)[1]
        if not path:
            raise TopologyError("edgelist: requires a file path, e.g. edgelist:net.txt")
        return TopologySpec(TopologyKind.EDGE_LIST, load_edge_list(path))
    try:
        kind = TopologyKind(label)
    except ValueError:
        names = ", ".join(k.value for k in TopologyKind if k is not TopologyKind.EDGE_LIST)
        raise TopologyError(f"unknown topology {label!r}; expected {names} or edgelist:<path>") from None
    if kind is TopologyKind.EDGE_LIST:
        raise TopologyError("edgelist requires a path: edgelist:<path>")
    return TopologySpec(kind)
