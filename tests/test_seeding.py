"""Seed derivation."""
from __future__ import annotations

import numpy as np
import pytest

from qwtopo.seeding import derive_seed

EDGES = [0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**63, 2**64 - 1, 2**64, 2**96 + 5]


@pytest.mark.parametrize(
    "parts",
    [(), (0,), (0, 0), (5, 1, 3, 0), (2**64, 0), (np.int64(7), 1), *((edge, 1, edge) for edge in EDGES)],
)
def test_derive_seed_is_the_seed_sequence_of_its_parts(parts) -> None:
    # The parts go to SeedSequence as 32-bit words; the seed must be the one
    # the list of parts itself gives.
    reference = int(np.random.SeedSequence(list(parts)).generate_state(1, np.uint64)[0])
    assert derive_seed(*parts) == reference


def test_derive_seed_rejects_a_negative_part() -> None:
    with pytest.raises(ValueError, match="-3"):
        derive_seed(1, -3)
