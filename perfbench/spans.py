"""Spans around the calls into each qwtopo layer, for the traced run.

Each wrapped name is replaced where its caller looks it up (a module
global), so the program itself is unchanged.  A span records its name,
start, end, parent and the counts taken from the call's arguments or
result.  Spans stay in memory; :func:`layer_metrics` derives self times
and counts from them, and :meth:`Tracer.dump` writes them out.
"""
from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    counts: dict = field(default_factory=dict)


def _rows(args, result):
    return {"rows": len(args[0])}


def _run_ga(args, result):
    target, config = args[0], args[3]
    n_c = target.n * (target.n - 1) // 2
    budget = result.halted_by.value == "MaxGenerations"
    generations = config.n_g if budget else result.generations_used + 1
    return {
        "generations": generations,
        "budget_runs": int(budget),
        "genomes_scored": generations * config.resolved_n_p(n_c),
        "genomes_fresh": result.evaluations,
    }


def _emit(args, result):
    return {"bytes": Path(result).stat().st_size}


# (module, attribute the caller looks up, span name, counts taken from the call)
WRAPPED = [
    ("qwtopo.ctqw", "hamiltonian_stack", "graph.hamiltonian_stack", _rows),
    ("qwtopo.ga", "batch_site_distributions", "ctqw.propagate", _rows),
    ("qwtopo.ga", "batch_kld", "fitness.divergence", _rows),
    ("qwtopo.ga", "batch_kolmogorov", "fitness.divergence", _rows),
    ("qwtopo.harness", "run_ga", "ga", _run_ga),
    ("qwtopo.measurement", "run_ga", "ga.measurement", _run_ga),
    ("qwtopo.harness", "monte_carlo_sweep", "measurement", None),
    ("qwtopo.measurement", "sample_noisy_distribution", "measurement.sample", None),
    ("qwtopo.cli", "emit_report", "harness.emit", _emit),
]


class Tracer:
    """Records nested spans while installed; restores every name on exit."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        self._open(name)
        try:
            yield
        finally:
            self._close()

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def _close(self) -> None:
        self.spans[self._stack.pop()].end = time.perf_counter()

    def _wrap(self, fn, name: str, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if counter is not None:
                try:
                    span.counts = counter(args, result)
                except (AttributeError, IndexError, TypeError, OSError):
                    span.counts = {}
            return result

        return traced

    def __enter__(self) -> Tracer:
        for module_name, attr, name, counter in WRAPPED:
            try:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._restore.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, counter))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, **s.counts}
            for s in self.spans
        ]
        path.write_text(json.dumps({"absent": self.absent, "spans": rows}) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


# Per-layer metrics: name -> unit.  The self-time entries partition the
# traced wall time of the cli_main calls.
LAYER_UNITS = {
    "graph.hamiltonian_stack.rows": "matrices",
    "graph.hamiltonian_stack.s": "s",
    "ctqw.propagate.calls": "calls",
    "ctqw.propagate.rows": "genomes",
    "ctqw.propagate.self_s": "s",
    "ctqw.propagate.us_per_row": "us",
    "fitness.divergence.rows": "genomes",
    "fitness.divergence.s": "s",
    "ga.self_s": "s",
    "ga.us_per_generation": "us",
    "ga.generations": "count",
    "ga.budget_runs": "count",
    "ga.genomes_scored": "genomes",
    "ga.genomes_fresh": "genomes",
    "ga.memo_hit_ratio": "ratio",
    "measurement.run_ga.calls": "calls",
    "measurement.sample.s": "s",
    "measurement.self_s": "s",
    "harness.self_s": "s",
    "harness.emit.s": "s",
    "harness.emit.bytes": "bytes",
    "harness.read.s": "s",
    "trace.wall_s": "s",
}

SELF_TIME_METRICS = (
    "graph.hamiltonian_stack.s",
    "ctqw.propagate.self_s",
    "fitness.divergence.s",
    "ga.self_s",
    "measurement.sample.s",
    "measurement.self_s",
    "harness.self_s",
    "harness.emit.s",
)

# Which wrapped names each metric needs; a metric whose names are all
# absent in the program under test is reported as absent.
_NEEDS = {
    "graph.": ["qwtopo.ctqw.hamiltonian_stack"],
    "ctqw.": ["qwtopo.ga.batch_site_distributions"],
    "fitness.": ["qwtopo.ga.batch_kld", "qwtopo.ga.batch_kolmogorov"],
    "ga.": ["qwtopo.harness.run_ga", "qwtopo.measurement.run_ga"],
    "measurement.run_ga": ["qwtopo.measurement.run_ga"],
    "measurement.sample": ["qwtopo.measurement.sample_noisy_distribution"],
    "measurement.self": ["qwtopo.harness.monte_carlo_sweep"],
    "harness.emit": ["qwtopo.cli.emit_report"],
}


def layer_metrics(tracer: Tracer) -> dict[str, float | None]:
    """Per-layer totals over every span; None marks an absent layer."""
    spans = tracer.spans
    own = self_times(spans)
    dur: dict[str, float] = {}
    slf: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, float] = {}
    for s, o in zip(spans, own):
        name = "ga" if s.name == "ga.measurement" else s.name
        dur[name] = dur.get(name, 0.0) + (s.end - s.start)
        slf[name] = slf.get(name, 0.0) + o
        calls[s.name] = calls.get(s.name, 0) + 1
        for key, value in s.counts.items():
            counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + value

    def ratio(num: float, den: float, scale: float = 1.0) -> float:
        return num / den * scale if den else 0.0

    prop_rows = counts.get("ctqw.propagate.rows", 0)
    gens = counts.get("ga.generations", 0)
    scored = counts.get("ga.genomes_scored", 0)
    fresh = counts.get("ga.genomes_fresh", 0)
    out = {
        "graph.hamiltonian_stack.rows": counts.get("graph.hamiltonian_stack.rows", 0),
        "graph.hamiltonian_stack.s": slf.get("graph.hamiltonian_stack", 0.0),
        "ctqw.propagate.calls": calls.get("ctqw.propagate", 0),
        "ctqw.propagate.rows": prop_rows,
        "ctqw.propagate.self_s": slf.get("ctqw.propagate", 0.0),
        "ctqw.propagate.us_per_row": ratio(slf.get("ctqw.propagate", 0.0), prop_rows, 1e6),
        "fitness.divergence.rows": counts.get("fitness.divergence.rows", 0),
        "fitness.divergence.s": slf.get("fitness.divergence", 0.0),
        "ga.self_s": slf.get("ga", 0.0),
        "ga.us_per_generation": ratio(dur.get("ga", 0.0), gens, 1e6),
        "ga.generations": gens,
        "ga.budget_runs": counts.get("ga.budget_runs", 0),
        "ga.genomes_scored": scored,
        "ga.genomes_fresh": fresh,
        "ga.memo_hit_ratio": ratio(scored - fresh, scored),
        "measurement.run_ga.calls": calls.get("ga.measurement", 0),
        "measurement.sample.s": slf.get("measurement.sample", 0.0),
        "measurement.self_s": slf.get("measurement", 0.0),
        "harness.self_s": slf.get("harness", 0.0),
        "harness.emit.s": slf.get("harness.emit", 0.0),
        "harness.emit.bytes": counts.get("harness.emit.bytes", 0),
        "harness.read.s": dur.get("harness.read", 0.0),
        "trace.wall_s": dur.get("harness", 0.0),
    }
    for prefix, needs in _NEEDS.items():
        if all(name in tracer.absent for name in needs):
            for key in out:
                if key.startswith(prefix):
                    out[key] = None
    return out
