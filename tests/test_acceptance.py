"""End-to-end acceptance suite.

Each test asserts one numbered criterion and prints a single
``ACCEPTANCE NN PASS/FAIL`` line with the measured quantities; the
lines are replayed in the terminal summary.  The reconstruction
benchmarks reuse module-scoped run data, so the full module takes a
few minutes.
"""
from __future__ import annotations

import math
import time
from pathlib import Path

import numpy as np
import pytest

from qwtopo.cli import cli_main
from qwtopo.ctqw import (
    ConcatenatedDistribution,
    ProbeState,
    TimeGrid,
    concatenated_distribution,
    spectral_propagator,
)
from qwtopo.fitness import batch_kld
from qwtopo.ga import GAConfig
from qwtopo.graph import CouplingString, TopologyKind, TopologySpec, build_topology, to_hamiltonian
from qwtopo.harness import ExperimentSpec, benchmark_noiseless
from qwtopo.measurement import NoiseConfig, Outcome, monte_carlo_sweep

pytestmark = pytest.mark.slow

TIMES_2 = TimeGrid((0.5, 0.6))
TIMES_3 = TimeGrid((0.5, 0.6, 1.0))

# Criterion 6: complete n = 10 reference success-rate bands for two and
# three evolution times, and the initial state the criterion runs with.
BAND_TWO_TIMES = (0.16, 0.46)
BAND_THREE_TIMES = (0.58, 0.88)
COMPLETE10_PROBE = "ramp"


def taylor_propagator(h: np.ndarray, t: float, terms: int = 30) -> np.ndarray:
    u = np.eye(len(h), dtype=complex)
    term = np.eye(len(h), dtype=complex)
    for k in range(1, terms):
        term = term @ (-1j * t * h) / k
        u = u + term
    return u


def random_coupling(rng: np.random.Generator, n: int) -> CouplingString:
    return CouplingString(rng.integers(0, 2, n * (n - 1) // 2, dtype=np.uint8), n)


def random_probe(rng: np.random.Generator, n: int) -> ProbeState:
    amps = rng.normal(size=n) + 1j * rng.normal(size=n)
    return ProbeState(amps / np.linalg.norm(amps))


def kld_of(model: ConcatenatedDistribution, target: ConcatenatedDistribution) -> float:
    """The search's score, batch_kld, on one model row."""
    return float(batch_kld(model.flat[None, :], target.flat)[0])


@pytest.fixture(scope="module")
def star_trend_report():
    """Star family, n = 5..10, 100 derived-seed runs per size."""
    spec = ExperimentSpec(
        topology=TopologySpec(TopologyKind.STAR), n_values=(5, 6, 7, 8, 9, 10)
    )
    return benchmark_noiseless(spec)


@pytest.fixture(scope="module")
def small_topology_reports():
    """Line, circle, and complete families at n = 5, 100 runs each."""
    reports = {}
    for kind in (TopologyKind.LINE, TopologyKind.CIRCLE, TopologyKind.COMPLETE):
        spec = ExperimentSpec(topology=TopologySpec(kind), n_values=(5,))
        reports[kind.value] = benchmark_noiseless(spec)
    return reports


@pytest.fixture(scope="module")
def complete10_reports():
    """Complete n = 10 with two and with three evolution times, 100 runs.

    The probe is named rather than left to the default, so criterion 6
    keeps measuring the ramp state if the default ever changes.
    """
    reports = {}
    for key, times in (("two", TIMES_2), ("three", TIMES_3)):
        spec = ExperimentSpec(
            topology=TopologySpec(TopologyKind.COMPLETE),
            n_values=(10,),
            times=times,
            probe=COMPLETE10_PROBE,
        )
        reports[key] = benchmark_noiseless(spec)
    return reports


@pytest.fixture(scope="module")
def noise_sweep_tallies():
    """Star n = 5 threshold sweep: N_r = 500, 100 MC x 10 inner runs."""
    truth = build_topology(TopologySpec(TopologyKind.STAR), 5)
    noise = NoiseConfig(n_r=500, mc_runs=100, inner_runs=10, seed=0)
    ga = GAConfig(n_g=5)
    return monte_carlo_sweep(truth, ProbeState.ramp(5), TIMES_2, ga, noise)


def test_criterion_01_two_node_closed_form(acceptance_log) -> None:
    start = time.perf_counter()
    coupling = CouplingString(np.array([1], dtype=np.uint8), 2)
    psi0 = ProbeState.localized(2, 0)
    times = (0.1, 0.5, 0.6, 1.0, math.pi / 2)
    dist = concatenated_distribution(coupling, psi0, TimeGrid(times))
    worst = 0.0
    for t, s in zip(times, dist.slices):
        expected = np.array([math.cos(t) ** 2, math.sin(t) ** 2])
        worst = max(worst, float(np.max(np.abs(s.probs - expected))))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 1.0
    acceptance_log(
        1, ok, f"two-node (cos^2 t, sin^2 t): max |dp| = {worst:.2e} over 5 times, {elapsed:.2f}s"
    )
    assert ok


def test_criterion_02_unitarity_and_normalization(acceptance_log) -> None:
    start = time.perf_counter()
    rng = np.random.default_rng(20)
    worst_unitary = 0.0
    worst_norm = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 11))
        coupling = random_coupling(rng, n)
        psi0 = random_probe(rng, n)
        t = float(rng.uniform(0.0, 2.0 * math.pi))
        u = spectral_propagator(to_hamiltonian(coupling), t)
        gram_error = float(np.max(np.abs(u @ u.conj().T - np.eye(n))))
        total = float(concatenated_distribution(coupling, psi0, TimeGrid((t,))).flat.sum())
        worst_unitary = max(worst_unitary, gram_error)
        worst_norm = max(worst_norm, abs(total - 1.0))
    elapsed = time.perf_counter() - start
    ok = worst_unitary < 1e-10 and worst_norm < 1e-10 and elapsed < 5.0
    acceptance_log(
        2,
        ok,
        f"200 random instances: max ||UU+ - I|| = {worst_unitary:.2e}, "
        f"max |sum p - 1| = {worst_norm:.2e}, {elapsed:.2f}s",
    )
    assert ok


def test_criterion_03_taylor_equivalence(acceptance_log) -> None:
    start = time.perf_counter()
    rng = np.random.default_rng(30)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 5))
        h = to_hamiltonian(random_coupling(rng, n))
        t = float(rng.uniform(0.0, 1.0))
        diff = spectral_propagator(h, t) - taylor_propagator(h, t)
        worst = max(worst, float(np.max(np.abs(diff))))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and elapsed < 5.0
    acceptance_log(
        3, ok, f"spectral vs 30-term series on 50 graphs: max |dU| = {worst:.2e}, {elapsed:.2f}s"
    )
    assert ok


def test_criterion_04_divergence_properties(acceptance_log) -> None:
    start = time.perf_counter()
    rng = np.random.default_rng(40)
    nonneg_ok = True
    zero_iff_ok = True
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, 4))
        raw = rng.random((2, k, n)) + 1e-3
        raw /= raw.sum(axis=2, keepdims=True)
        a = ConcatenatedDistribution.from_matrix(raw[0])
        b = ConcatenatedDistribution.from_matrix(raw[1])
        value = kld_of(a, b)
        nonneg_ok &= value >= 0.0
        zero_iff_ok &= (value == 0.0) == np.array_equal(raw[0], raw[1])
        zero_iff_ok &= kld_of(a, a) == 0.0

    half = kld_of(
        ConcatenatedDistribution.from_matrix(np.array([[0.5, 0.5]])),
        ConcatenatedDistribution.from_matrix(np.array([[0.25, 0.75]])),
    )
    half_expected = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)

    grid = TimeGrid((0.5,))
    psi0 = ProbeState.localized(2, 0)
    truth_dist = concatenated_distribution(CouplingString(np.array([1]), 2), psi0, grid)
    empty_dist = concatenated_distribution(CouplingString(np.array([0]), 2), psi0, grid)
    single = kld_of(empty_dist, truth_dist)
    single_expected = -math.log(math.cos(0.5) ** 2)

    elapsed = time.perf_counter() - start
    # the first quoted constant is exact to 5 decimals; the second is
    # quoted from rounded intermediates, so the closed form is the
    # authority and the constant is held to its own precision
    constants_ok = (
        abs(half - half_expected) < 1e-12
        and round(half, 5) == 0.14384
        and abs(single - single_expected) < 1e-10
        and abs(single - 0.26114) < 5e-5
    )
    ok = nonneg_ok and zero_iff_ok and constants_ok and elapsed < 2.0
    acceptance_log(
        4,
        ok,
        f"1000 pairs nonneg/zero-iff-equal; hand values {half:.5f} (ref 0.14384), "
        f"{single:.5f} (ref 0.26114, closed form {single_expected:.5f}), {elapsed:.2f}s",
    )
    assert ok


def test_criterion_05_small_network_reconstruction(
    acceptance_log, star_trend_report, small_topology_reports
) -> None:
    rates = {}
    star_entry = next(e for e in star_trend_report.entries if e.n == 5)
    rates["star"] = star_entry.success_rate
    for name, report in small_topology_reports.items():
        rates[name] = report.entries[0].success_rate
    ok = all(rate >= 0.90 for rate in rates.values())
    detail = ", ".join(f"{name} {rate:.2f}" for name, rate in rates.items())
    acceptance_log(5, ok, f"n=5 success rates over 100 runs: {detail} (bound 0.90)")
    assert ok


def test_criterion_06_complete10_time_slices(acceptance_log, complete10_reports) -> None:
    probes = {key: report.config["probe"] for key, report in complete10_reports.items()}
    assert probes == {"two": COMPLETE10_PROBE, "three": COMPLETE10_PROBE}
    rate2 = complete10_reports["two"].entries[0].success_rate
    rate3 = complete10_reports["three"].entries[0].success_rate
    lo2, hi2 = BAND_TWO_TIMES
    lo3, hi3 = BAND_THREE_TIMES
    # The reference bands belong to a less informative initial state that
    # the paper's abstract does not name.  The ramp probe is documented to
    # land above them, so only each band's lower edge is a promise here,
    # together with the paper's claim that a third time slice helps.
    checks = {
        "two-time floor": rate2 >= lo2,
        "three-time floor": rate3 >= lo3,
        "third time helps": rate3 > rate2,
    }
    ok = all(checks.values())
    verdicts = ", ".join(f"{name} {'ok' if held else 'FAIL'}" for name, held in checks.items())
    acceptance_log(
        6,
        ok,
        f"complete n=10, 100-run variant, probe {COMPLETE10_PROBE}: "
        f"two times {rate2:.2f} (floor {lo2:.2f}, reference band [{lo2:.2f}, {hi2:.2f}]), "
        f"three times {rate3:.2f} (floor {lo3:.2f}, reference band [{lo3:.2f}, {hi3:.2f}]); "
        f"{verdicts}",
    )
    assert ok, verdicts


def test_criterion_07_evaluation_budget(
    acceptance_log, star_trend_report, small_topology_reports, complete10_reports
) -> None:
    reports = [star_trend_report, *small_topology_reports.values(), *complete10_reports.values()]
    checked = 0
    worst_margin = 0.0
    ok = True
    n10_max = 0
    for report in reports:
        n_g = report.config["ga"]["n_g"]
        for entry in report.entries:
            n_c = entry.n * (entry.n - 1) // 2
            bound = 2 * n_c * n_c * (n_g + 1)
            for record in entry.records:
                checked += 1
                ok &= record.evaluations <= bound
                worst_margin = max(worst_margin, record.evaluations / bound)
                if entry.n == 10:
                    n10_max = max(n10_max, record.evaluations)
    ok &= n10_max < 4.2e5
    acceptance_log(
        7,
        ok,
        f"{checked} runs within 2 nc^2 (ng+1); worst usage {worst_margin:.1%}, "
        f"max evaluations at n=10: {n10_max} < 420000",
    )
    assert ok


def test_criterion_08_star_generations_trend(acceptance_log, star_trend_report) -> None:
    means = []
    for entry in star_trend_report.entries:
        assert entry.generations_mean is not None, f"no successes at n={entry.n}"
        means.append(entry.generations_mean)
    inversions = sum(b < a for a, b in zip(means, means[1:]))
    ok = inversions <= 1
    detail = ", ".join(f"{m:.2f}" for m in means)
    acceptance_log(
        8, ok, f"star mean generations n=5..10: {detail}; inversions {inversions} (allowed 1)"
    )
    assert ok


def test_criterion_09_noise_sweep_shape(acceptance_log, noise_sweep_tallies) -> None:
    thresholds = sorted(noise_sweep_tallies)
    assert len(thresholds) == 12
    assert thresholds[0] == pytest.approx(4e-4) and thresholds[-1] == pytest.approx(0.2)

    conservation_ok = True
    for tally in noise_sweep_tallies.values():
        parts = tally[Outcome.TP] + tally[Outcome.FP] + tally[Outcome.TN] + tally[Outcome.FN]
        conservation_ok &= parts == tally.total() == 1000

    smallest = noise_sweep_tallies[thresholds[0]]
    negatives = smallest[Outcome.FN] + smallest[Outcome.TN]
    neg_ok = negatives >= 0.9 * smallest.total()
    fn_ok = smallest[Outcome.FN] >= max(
        smallest[Outcome.TP], smallest[Outcome.FP], smallest[Outcome.TN]
    )

    tp = [noise_sweep_tallies[t][Outcome.TP] for t in thresholds]
    interior_ok = max(tp[1:-1]) > max(tp[0], tp[-1])

    ok = conservation_ok and neg_ok and fn_ok and interior_ok
    acceptance_log(
        9,
        ok,
        f"smallest T: FN+TN {negatives}/1000 (FN {smallest[Outcome.FN]}); "
        f"TP endpoints {tp[0]}/{tp[-1]}, interior max {max(tp[1:-1])}; conservation exact",
    )
    assert ok


def test_criterion_10_byte_identical_outputs(acceptance_log, tmp_path: Path, capsys) -> None:
    bench_args = ["benchmark", "--topology", "star", "--n", "4", "--runs", "5"]
    sweep_args = [
        "sweep", "--topology", "star", "--n", "3", "--nr", "200",
        "--mc-runs", "2", "--inner-runs", "2", "--thresholds", "0.001,0.1",
        "--np", "10", "--ng", "3",
    ]
    pairs = []
    for fmt in ("csv", "json"):
        a, b = tmp_path / f"bench_a.{fmt}", tmp_path / f"bench_b.{fmt}"
        assert cli_main([*bench_args, "--format", fmt, "--output", str(a)]) == 0
        assert cli_main([*bench_args, "--format", fmt, "--output", str(b)]) == 0
        pairs.append((f"benchmark {fmt}", a.read_bytes() == b.read_bytes()))
    a, b = tmp_path / "sweep_a.csv", tmp_path / "sweep_b.csv"
    assert cli_main([*sweep_args, "--output", str(a)]) == 0
    assert cli_main([*sweep_args, "--output", str(b)]) == 0
    pairs.append(("sweep csv", a.read_bytes() == b.read_bytes()))

    capsys.readouterr()
    assert cli_main(["simulate", "--topology", "circle", "--n", "5"]) == 0
    out1 = capsys.readouterr().out
    assert cli_main(["simulate", "--topology", "circle", "--n", "5"]) == 0
    out2 = capsys.readouterr().out
    pairs.append(("simulate stdout", out1 == out2))

    ok = all(same for _, same in pairs)
    failed = [name for name, same in pairs if not same]
    acceptance_log(
        10,
        ok,
        "byte-identical repeats: benchmark csv+json, sweep csv, simulate stdout"
        + (f"; mismatches: {failed}" if failed else ""),
    )
    assert ok
