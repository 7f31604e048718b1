"""Run workloads over several seeds and summarise each metric's spread.

Run from the root of a source checkout, e.g.

    python3 perfbench/spread.py --workloads star-trend noise-sweep --seeds 0-9

Each run is a separate ``perfbench/run.py`` process.  For every metric it
prints the median, the first and third quartiles (``statistics.quantiles``
with n=4) and the quartile distance as a share of the median.  The raw
result lines are appended to ``perfbench/out/spread.jsonl``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]


def seeds_from(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(name: str, results: list[dict]) -> None:
    failed = {r["failed"] / r["attempted"] for r in results}
    print(f"{name}: {len(results)} runs, correct {all(r['correct'] for r in results)}, failed share {sorted(failed)}")
    for metric in results[0]["metrics"]:
        values = [r["metrics"][metric]["value"] for r in results]
        if any(v is None for v in values):
            print(f"  {metric:32s} absent")
            continue
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        share = (q3 - q1) / med if med else 0.0
        unit = results[0]["metrics"][metric]["unit"]
        print(f"  {metric:32s} median {med:.6g} {unit}  q1 {q1:.6g}  q3 {q3:.6g}  spread {share:.2%}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", default="0-9", help="inclusive range, e.g. 0-9")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    log = HERE / "out" / "spread.jsonl"
    log.parent.mkdir(exist_ok=True)
    for name in args.workloads:
        results = []
        for seed in seeds_from(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed)]
            cmd += ["--seconds", str(SECONDS), "--trace", str(args.trace)]
            start = time.perf_counter()
            proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=900)
            took = time.perf_counter() - start
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            lines = proc.stdout.strip().splitlines()
            print(f"  {lines[0]} [{took:.1f} s]", flush=True)
            result = json.loads(lines[-1])
            results.append(result)
            with log.open("a") as fh:
                fh.write(json.dumps({"workload": name, "seed": seed, "trace": args.trace, "wall_s": took, "summary": lines[0], **result}) + "\n")
        summarise(name, results)
    return 0


if __name__ == "__main__":
    sys.exit(main())
