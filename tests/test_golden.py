"""Golden reports: fixed-seed outputs pinned across code versions.

Each file under ``tests/golden/`` is the report, or for ``simulate``
the target file, of the command listed next to its name.  The test
regenerates every file in-process through ``cli_main`` and compares
bytes, so any change to what the program
outputs shows up here, not only a change between two runs of the same
code.  A change that alters outputs on purpose regenerates the files
with

    PYTHONPATH=src python tests/test_golden.py

and says why in CHANGES.md.
"""
from __future__ import annotations

import json
from pathlib import Path

import pytest

from qwtopo.cli import cli_main

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

_STAR = ("benchmark", "--topology", "star", "--n", "5,6,7", "--runs", "3", "--seed", "1")
_LINE = (
    "benchmark", "--topology", "line", "--n", "4", "--probe", "site:0",
    "--metric", "kolmogorov", "--times", "0.5,0.6,1",
)
_SWEEP = ("sweep", "--topology", "star", "--n", "5", "--mc-runs", "3")
# The sweep's one seed: noise samples and, through them, every search.
_SWEEP_SEED = (*_SWEEP, "--seed", "3")
# Target files: the exact distribution, and a noisy estimate of it.
_SIMULATE = ("simulate", "--topology", "star", "--n", "5", "--times", "0.5,0.6,1")
_SIMULATE_NOISY = (*_SIMULATE, "--nr", "500", "--seed", "3")

# File name -> command; the suffix picks a report's format.
GOLDEN = {
    "benchmark_star_n5-7.csv": _STAR,
    "benchmark_star_n5-7.json": _STAR,
    "benchmark_line_n4_site0_kolmogorov.csv": _LINE,
    "benchmark_line_n4_site0_kolmogorov.json": _LINE,
    "sweep_star_n5.csv": _SWEEP,
    "sweep_star_n5.json": _SWEEP,
    "sweep_star_n5_seed3.csv": _SWEEP_SEED,
    "sweep_star_n5_seed3.json": _SWEEP_SEED,
    "simulate_star_n5.json": _SIMULATE,
    "simulate_star_n5_nr500_seed3.json": _SIMULATE_NOISY,
}


def write_golden(name: str, directory: Path) -> Path:
    path = directory / name
    command = GOLDEN[name]
    # simulate writes one format, a target file, and takes no --format.
    fmt = () if command[0] == "simulate" else ("--format", path.suffix[1:])
    code = cli_main([*command, *fmt, "--output", str(path)])
    if code != 0:
        raise RuntimeError(f"{name}: cli_main exited {code}")
    return path


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_report_is_byte_identical(name, tmp_path, monkeypatch, capsys) -> None:
    monkeypatch.delenv("QWTOPO_OUTPUT_DIR", raising=False)
    produced = write_golden(name, tmp_path).read_bytes()
    assert produced == (GOLDEN_DIR / name).read_bytes(), f"{name} drifted from its golden file"
    if GOLDEN[name][0] == "simulate":
        # stdout holds the same numbers, time by time, as one JSON list
        rows = json.loads(produced)["slices"]
        assert capsys.readouterr().out == json.dumps([p for row in rows for p in row]) + "\n"


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for golden_name in GOLDEN:
        print(write_golden(golden_name, GOLDEN_DIR))
