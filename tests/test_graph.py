"""Coupling-string encoding and topology construction."""
from __future__ import annotations

from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qwtopo.errors import ConfigError, TopologyError
from qwtopo.graph import (
    CouplingString,
    TopologyKind,
    TopologySpec,
    build_topology,
    check_couplings,
    coupling_index,
    genome_bits,
    genome_codes,
    hamiltonian_stack,
    load_edge_list,
    parse_topology_label,
    to_hamiltonian,
)


def test_coupling_index_first_edge() -> None:
    assert coupling_index(0, 1, 5) == 0


def test_coupling_index_last_edge() -> None:
    assert coupling_index(3, 4, 5) == 9


def test_coupling_index_interior_edge() -> None:
    # independent oracle: enumerate all pairs x < y in lexicographic order
    pairs = [(x, y) for x in range(5) for y in range(x + 1, 5)]
    assert pairs.index((1, 3)) == 5
    assert coupling_index(1, 3, 5) == 5


@given(st.integers(min_value=2, max_value=12))
def test_coupling_index_is_bijective(n: int) -> None:
    indices = [coupling_index(x, y, n) for x in range(n) for y in range(x + 1, n)]
    assert sorted(indices) == list(range(n * (n - 1) // 2))


@pytest.mark.parametrize("x,y", [(1, 1), (2, 1), (0, 5), (-1, 2)])
def test_coupling_index_rejects_bad_edges(x: int, y: int) -> None:
    with pytest.raises(TopologyError):
        coupling_index(x, y, 5)


def test_coupling_string_validates_length() -> None:
    with pytest.raises(TopologyError):
        CouplingString(np.array([1, 0]), 3)


@pytest.mark.parametrize("n", [2.5, 2.0, True, "2"])
def test_coupling_string_node_count_must_be_whole(n) -> None:
    with pytest.raises(ConfigError, match="node count must be a whole number"):
        CouplingString(np.array([1]), n)


def test_coupling_string_reads_numpy_node_count_as_int() -> None:
    assert type(CouplingString(np.array([1]), np.int64(2)).n) is int


def test_coupling_string_validates_binary() -> None:
    with pytest.raises(TopologyError):
        CouplingString(np.array([0, 2, 0]), 3)


@pytest.mark.parametrize("bad", [2, -1, 0.5, np.nan])
def test_coupling_string_rejects_every_value_but_0_and_1(bad) -> None:
    with pytest.raises(TopologyError, match="couplings must be 0 or 1"):
        CouplingString(np.array([1.0, bad, 0.0]), 3)


@pytest.mark.parametrize("dtype, bad", [(np.uint8, 2), (np.uint8, 255), (np.uint16, 256), (np.bool_, None)])
def test_unsigned_couplings_are_checked_by_their_maximum(dtype, bad) -> None:
    # Bool and unsigned bits take a one-reduction check; it accepts 0 and 1
    # (and an empty genome) and refuses anything above 1.
    check_couplings(np.zeros(0, dtype=dtype))
    check_couplings(np.array([[0, 1], [1, 1]], dtype=dtype))
    if bad is not None:
        with pytest.raises(TopologyError, match="couplings must be 0 or 1"):
            check_couplings(np.array([[0, 1], [bad, 0]], dtype=dtype))


def test_coupling_string_accepts_bool_and_float_bits() -> None:
    expected = CouplingString(np.array([1, 0, 1], dtype=np.uint8), 3)
    assert CouplingString(np.array([True, False, True]), 3) == expected
    assert CouplingString(np.array([1.0, 0.0, 1.0]), 3) == expected
    assert CouplingString(np.array([True, False, True]), 3).bits.dtype == np.uint8


def test_coupling_string_equality_and_hash() -> None:
    a = CouplingString(np.array([1, 0, 1]), 3)
    b = CouplingString(np.array([1, 0, 1]), 3)
    c = CouplingString(np.array([1, 1, 1]), 3)
    assert a == b and hash(a) == hash(b)
    assert a != c
    assert a != "101"
    # Genomes that differ only in their last bit.
    d = CouplingString(np.array([1, 1, 0, 0, 1, 0]), 4)
    e = CouplingString(np.array([1, 1, 0, 0, 1, 1]), 4)
    assert d != e and d == CouplingString.from_bitstring("110010", 4)
    # Bool input is stored as the same uint8 bits as int input.
    f = CouplingString(np.array([True, False, True]), 3)
    assert f == a and hash(f) == hash(a)


def test_coupling_string_bits_are_read_only() -> None:
    a = CouplingString(np.array([1, 0, 1]), 3)
    with pytest.raises(ValueError):
        a.bits[0] = 0


def test_coupling_string_is_frozen() -> None:
    a = CouplingString(np.array([1, 0, 1]), 3)
    with pytest.raises(FrozenInstanceError):
        a.bits = np.array([0, 0, 0], dtype=np.uint8)
    with pytest.raises(FrozenInstanceError):
        a.n = 4
    assert a.to_bitstring() == "101" and a.n == 3


@pytest.mark.parametrize("n_c", [1, 3, 10])
def test_genome_bits_holds_every_genome_at_its_code(n_c: int) -> None:
    bits = genome_bits(n_c)
    assert bits.shape == (1 << n_c, n_c) and bits.dtype == np.uint8 and not bits.flags.writeable
    assert np.array_equal(genome_codes(bits), np.arange(1 << n_c))
    assert genome_bits(n_c) is bits


def test_bitstring_round_trip() -> None:
    a = CouplingString(np.array([1, 1, 0, 0, 1, 0]), 4)
    assert a.to_bitstring() == "110010"
    assert CouplingString.from_bitstring("110010", 4) == a
    with pytest.raises(TopologyError):
        CouplingString.from_bitstring("11x010", 4)


def test_star_4_encoding() -> None:
    assert build_topology(TopologySpec(TopologyKind.STAR), 4).to_bitstring() == "111000"


def test_complete_4_encoding() -> None:
    assert build_topology(TopologySpec(TopologyKind.COMPLETE), 4).to_bitstring() == "111111"


def test_circle_4_encoding() -> None:
    # independent oracle: place edges (0,1),(1,2),(2,3),(0,3) by hand
    bits = np.zeros(6, dtype=int)
    for x, y in [(0, 1), (1, 2), (2, 3), (0, 3)]:
        bits[coupling_index(x, y, 4)] = 1
    assert list(bits) == [1, 0, 1, 1, 0, 1]
    assert build_topology(TopologySpec(TopologyKind.CIRCLE), 4).to_bitstring() == "101101"


@pytest.mark.parametrize(
    "kind,count",
    [
        (TopologyKind.STAR, lambda n: n - 1),
        (TopologyKind.LINE, lambda n: n - 1),
        (TopologyKind.CIRCLE, lambda n: n),
        (TopologyKind.COMPLETE, lambda n: n * (n - 1) // 2),
    ],
)
@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_edge_counts_per_family(kind: TopologyKind, count, n: int) -> None:
    if kind is TopologyKind.CIRCLE and n == 2:
        # the closing edge (0, n-1) coincides with the line edge
        return
    assert int(build_topology(TopologySpec(kind), n).bits.sum()) == count(n)


def test_build_topology_rejects_small_n() -> None:
    with pytest.raises(TopologyError):
        build_topology(TopologySpec(TopologyKind.STAR), 1)


def test_edge_list_spec_validation() -> None:
    with pytest.raises(TopologyError):
        TopologySpec(TopologyKind.EDGE_LIST, ((1, 1),))
    with pytest.raises(TopologyError):
        TopologySpec(TopologyKind.EDGE_LIST, ((2, 1),))
    with pytest.raises(TopologyError):
        TopologySpec(TopologyKind.EDGE_LIST, ((0, 1), (0, 1)))
    with pytest.raises(TopologyError):
        TopologySpec(TopologyKind.STAR, ((0, 1),))


def test_edge_list_node_out_of_range() -> None:
    spec = TopologySpec(TopologyKind.EDGE_LIST, ((0, 4),))
    with pytest.raises(TopologyError):
        build_topology(spec, 4)


def test_edge_list_build() -> None:
    spec = TopologySpec(TopologyKind.EDGE_LIST, ((0, 1), (2, 3)))
    assert build_topology(spec, 4).to_bitstring() == "100001"


def test_to_hamiltonian_single_edge() -> None:
    h = to_hamiltonian(CouplingString(np.array([1]), 2))
    assert np.array_equal(h, [[0, 1], [1, 0]])


def test_to_hamiltonian_empty_graph() -> None:
    h = to_hamiltonian(CouplingString(np.zeros(3, dtype=int), 3))
    assert np.array_equal(h, np.zeros((3, 3)))


def test_to_hamiltonian_star_block_structure() -> None:
    h = to_hamiltonian(build_topology(TopologySpec(TopologyKind.STAR), 4))
    assert np.array_equal(h[0], [0, 1, 1, 1])
    assert np.array_equal(h[1:, 1:], np.zeros((3, 3)))


@given(st.integers(min_value=2, max_value=10), st.integers(min_value=0, max_value=2**32 - 1))
def test_hamiltonian_round_trip(n: int, seed: int) -> None:
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=n * (n - 1) // 2, dtype=np.uint8)
    cs = CouplingString(bits, n)
    h = to_hamiltonian(cs)
    assert np.array_equal(h, h.T)
    assert np.array_equal(np.diag(h), np.zeros(n))
    back = [int(h[x, y]) for x in range(n) for y in range(x + 1, n)]
    assert np.array_equal(back, bits)


def test_hamiltonian_stack_matches_single() -> None:
    rng = np.random.default_rng(5)
    bits = rng.integers(0, 2, size=(7, 10), dtype=np.uint8)
    stack = hamiltonian_stack(bits, 5)
    for row, h in zip(bits, stack):
        assert np.array_equal(h, to_hamiltonian(CouplingString(row, 5)))


@pytest.mark.parametrize("n", range(2, 13))
def test_hamiltonian_stack_matches_triu_reference(n: int) -> None:
    rng = np.random.default_rng(n)
    bits = rng.integers(0, 2, size=(6, n * (n - 1) // 2), dtype=np.uint8)
    reference = np.zeros((6, n, n))
    rows, cols = np.triu_indices(n, k=1)
    reference[:, rows, cols] = bits
    reference[:, cols, rows] = bits
    stack = hamiltonian_stack(bits, n)
    assert stack.flags.c_contiguous
    assert np.array_equal(stack, reference)


def test_hamiltonian_stack_rejects_wrong_width() -> None:
    with pytest.raises(TopologyError):
        hamiltonian_stack(np.zeros((3, 9), dtype=np.uint8), 5)


def test_load_edge_list(tmp_path) -> None:
    path = tmp_path / "net.txt"
    path.write_text("# comment line\n0 1\n2 1  # trailing comment\n\n3 0\n")
    assert load_edge_list(path) == ((0, 1), (1, 2), (0, 3))


@pytest.mark.parametrize(
    "content",
    ["0\n", "0 1 2\n", "a b\n", "1 1\n", "-1 2\n"],
)
def test_load_edge_list_rejects_malformed(tmp_path, content: str) -> None:
    path = tmp_path / "bad.txt"
    path.write_text(content)
    with pytest.raises(TopologyError):
        load_edge_list(path)


def test_parse_topology_label_names() -> None:
    for name in ("star", "complete", "line", "circle"):
        assert parse_topology_label(name).kind.value == name


def test_parse_topology_label_edgelist(tmp_path) -> None:
    path = tmp_path / "net.txt"
    path.write_text("0 1\n1 2\n")
    spec = parse_topology_label(f"edgelist:{path}")
    assert spec.kind is TopologyKind.EDGE_LIST
    assert spec.edges == ((0, 1), (1, 2))


def test_parse_topology_label_rejects_unknown() -> None:
    with pytest.raises(TopologyError):
        parse_topology_label("triangle")
    with pytest.raises(TopologyError):
        parse_topology_label("edgelist:")
    with pytest.raises(TopologyError):
        parse_topology_label("edgelist")


def test_shipped_example_edge_list() -> None:
    from pathlib import Path

    edges = load_edge_list(Path(__file__).resolve().parent.parent / "data" / "irregular_n8.txt")
    cs = build_topology(TopologySpec(TopologyKind.EDGE_LIST, edges), 8)
    assert cs.n_c == 28
    assert int(cs.bits.sum()) == len(edges)
