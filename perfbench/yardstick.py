"""Fixed units of work timed next to the program, to scale its timings.

The speed this host gives a process moves by up to 2x over minutes, and
a run lasts less than a minute, so two sets of runs of the same code can
disagree by more than any useful bound.  A yardstick unit is a fixed
piece of work built like the program's own: a short genetic search over
star genomes (bytes-keyed memo, batched Hamiltonians, one ``eigh`` per
generation, the ramp probe, KLD with a floored target, tournament
breeding), or a fresh interpreter that imports the packages qwtopo
imports.  It is written here, apart from the program, and never changes,
so a change to qwtopo cannot move it.  Units are timed between the
program's rounds, and each timing is reported at the speed the host had
when the reference units below were measured.
"""
from __future__ import annotations

import os
import subprocess
import sys
import time

import numpy as np

import oracle

TIMES = (0.5, 0.6)
# Median seconds of one unit on the machine described in README.md, per
# qwtopo command, and of the set-up yardstick: a timing is reported as
# if the host ran its units at these speeds.
REFERENCE_S = {"benchmark": 0.235, "sweep": 0.22, "setup": 0.40}
# Imports of a fresh interpreter for the set-up yardstick: the third-party
# modules `import qwtopo.cli` loads, without qwtopo.
SETUP_IMPORTS = "import argparse, json, numpy, scipy.linalg, scipy.special"


def search(n: int, target: np.ndarray, seed: int, generations: int) -> float:
    """Run a genetic search for exactly ``generations`` generations and
    return the best score seen; the work is fixed by the arguments."""
    rng = np.random.default_rng(seed)
    n_c = n * (n - 1) // 2
    population = 2 * n_c * n_c
    elite = round(0.02 * population)
    elite += (population - elite) % 2
    pairs = (population - elite) // 2
    rows, cols = np.triu_indices(n, 1)
    psi0 = oracle.ramp(n)
    times = np.asarray(TIMES)
    floored = np.maximum(target, oracle.TARGET_FLOOR)
    memo: dict[bytes, float] = {}
    bits = rng.integers(0, 2, size=(population, n_c), dtype=np.uint8)
    best = np.inf
    for _ in range(generations):
        scores = np.empty(population)
        pending: dict[bytes, list[int]] = {}
        for i in range(population):
            key = bits[i].tobytes()
            hit = memo.get(key)
            if hit is None:
                pending.setdefault(key, []).append(i)
            else:
                scores[i] = hit
        if pending:
            keys = list(pending)
            fresh = np.frombuffer(b"".join(keys), dtype=np.uint8).reshape(len(keys), n_c)
            h = np.zeros((len(keys), n, n))
            h[:, rows, cols] = fresh
            h[:, cols, rows] = fresh
            w, v = np.linalg.eigh(h)
            coeff = np.einsum("mij,i->mj", v, psi0)
            phases = np.exp(-1j * w[:, None, :] * times[None, :, None])
            model = (np.abs(np.einsum("mij,mkj->mki", v, phases * coeff[:, None, :])) ** 2).reshape(len(keys), -1)
            safe = np.where(model > 0, model, 1.0)
            values = np.sum(np.where(model > 0, model * np.log(safe / floored), 0.0), axis=1)
            for key, value in zip(keys, values):
                memo[key] = float(value)
                for i in pending[key]:
                    scores[i] = value
        best = min(best, float(scores.min()))
        order = np.argsort(scores, kind="stable")[:elite]
        draws = rng.integers(0, population, size=(pairs, 2, 6))
        winners = np.take_along_axis(draws, np.argmin(scores[draws], axis=-1)[..., None], axis=-1)[..., 0]
        a, b = bits[winners[:, 0]], bits[winners[:, 1]]
        splits = rng.integers(0, n_c - 1, size=pairs)
        cross = (rng.random(pairs) < 0.85)[:, None] & (np.arange(n_c)[None, :] > splits[:, None])
        children = np.concatenate([np.where(cross, b, a), np.where(cross, a, b)])
        children ^= (rng.random(children.shape) < 0.05).astype(np.uint8)
        bits = np.concatenate([bits[order], children])
    return best


class Yardstick:
    """The unit for one qwtopo command.  ``benchmark`` (star-trend):
    two generations of a fresh search at each size 5..10, large batches
    with few memo hits.  ``sweep`` (noise-sweep): twelve 100-generation
    searches at n=5 against a noisy target, small batches with mostly
    memo hits."""

    def __init__(self, command: str) -> None:
        self.reference_s = REFERENCE_S[command]
        self.seconds: list[float] = []
        if command == "benchmark":
            self.plan = [(n, self._truth(n), 1000 + n, 2) for n in range(5, 11)]
        else:
            truth = self._truth(5)
            noisy = np.random.default_rng(5).multinomial(500, truth[:5]) / 500
            noisy = np.concatenate([noisy, np.random.default_rng(6).multinomial(500, truth[5:]) / 500])
            self.plan = [(5, noisy, 2000 + s, 100) for s in range(12)]

    @staticmethod
    def _truth(n: int) -> np.ndarray:
        return oracle.distribution(oracle.adjacency(oracle.edges("star", n), n), list(TIMES))

    def unit(self) -> None:
        start = time.perf_counter()
        for n, target, seed, generations in self.plan:
            search(n, target, seed, generations)
        self.seconds.append(time.perf_counter() - start)

    def factor(self) -> float:
        """How much slower than at reference the host ran the units."""
        return float(np.mean(self.seconds)) / self.reference_s


def fresh_interpreter(code: str, checkout: str) -> float:
    """Wall time of a fresh interpreter that runs ``code`` with the
    sources under ``src`` of ``checkout`` importable."""
    path = os.pathsep.join(filter(None, [os.path.join(checkout, "src"), os.environ.get("PYTHONPATH")]))
    start = time.perf_counter()
    # No timeout: with one, subprocess polls the child in steps of up to
    # 50 ms, which quantizes the timing.
    subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path), cwd=checkout, check=True)
    return time.perf_counter() - start
