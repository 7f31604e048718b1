"""Network topology reconstruction from quantum-walk site statistics.

The package simulates continuous-time quantum walks on small networks,
and recovers a network's adjacency matrix from its multi-time site
probability distributions with a genetic search, noiselessly or under
finite-resource measurement noise.
"""
from .ctqw import (
    ConcatenatedDistribution,
    ProbeState,
    TimeGrid,
    concatenated_distribution,
    spectral_propagator,
)
from .errors import ConfigError, ShapeError, TopologyError
from .fitness import Metric
from .ga import GAConfig, HaltReason, RunResult, run_ga
from .graph import (
    CouplingString,
    TopologyKind,
    TopologySpec,
    build_topology,
    coupling_index,
    load_edge_list,
    parse_topology_label,
    to_hamiltonian,
)
from .harness import (
    BenchmarkReport,
    ExperimentSpec,
    ReportFormat,
    SweepReport,
    benchmark_noiseless,
    benchmark_noisy,
    emit_report,
    load_target,
    make_probe,
    write_target,
)
from .measurement import (
    NoiseConfig,
    Outcome,
    classify_outcome,
    monte_carlo_sweep,
    sample_noisy_distribution,
)

__version__ = "0.1.0"

__all__ = [
    "ConcatenatedDistribution",
    "ProbeState",
    "TimeGrid",
    "concatenated_distribution",
    "spectral_propagator",
    "ConfigError",
    "ShapeError",
    "TopologyError",
    "Metric",
    "GAConfig",
    "HaltReason",
    "RunResult",
    "run_ga",
    "CouplingString",
    "TopologyKind",
    "TopologySpec",
    "build_topology",
    "coupling_index",
    "load_edge_list",
    "parse_topology_label",
    "to_hamiltonian",
    "BenchmarkReport",
    "ExperimentSpec",
    "ReportFormat",
    "SweepReport",
    "benchmark_noiseless",
    "benchmark_noisy",
    "emit_report",
    "load_target",
    "make_probe",
    "write_target",
    "NoiseConfig",
    "Outcome",
    "classify_outcome",
    "monte_carlo_sweep",
    "sample_noisy_distribution",
    "__version__",
]
