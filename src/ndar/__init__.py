"""Noise-directed adaptive remapping for Ising/MaxCut optimization.

The package couples an exact desk-scale noisy circuit sampler (QAOA and random
circuits under delay-induced amplitude damping) with an iterative gauge-remapping
loop that steers the noise attractor toward good solutions, plus a classical
bit-suppression variant, a simulated-annealing baseline, and an experiment
harness with deterministic CSV output.
"""

from .annealing import SaConfig, sa_solve
from .circuits import (DEFAULT_QUBIT_CAP, Circuit, DampingSpec, Gate, QaoaCircuit, QaoaParams,
                       build_random_circuit)
from .engine import (KIND_CLASSICAL_BERNOULLI, KIND_QAOA, KIND_RANDOM_CIRCUIT,
                     IterationRecord, NdarConfig, NdarResult, SamplerSpec, derive_seed, run_ndar)
from .errors import ConfigError, ResourceLimitError
from .harness import (AggregateRow, ExperimentConfig, aggregate, params_search, report,
                      run_experiment)
from .ising import (BRUTE_FORCE_CAP, NODE_CAP, IsingModel, MaxCutInstance, as_bits,
                    brute_force_best, edge_density, energies, energy, gen_unweighted,
                    gen_weighted_dense, maxcut_to_ising, read_instance, write_instance)
from .simulator import apply_decay, born_tree, grid_scan, qaoa_state, sample, simulate

__version__ = "0.1.0"

__all__ = [
    "AggregateRow", "BRUTE_FORCE_CAP", "Circuit", "ConfigError", "DampingSpec",
    "DEFAULT_QUBIT_CAP", "ExperimentConfig", "Gate", "IsingModel", "IterationRecord",
    "KIND_CLASSICAL_BERNOULLI", "KIND_QAOA", "KIND_RANDOM_CIRCUIT", "MaxCutInstance",
    "NODE_CAP", "NdarConfig", "NdarResult", "QaoaCircuit", "QaoaParams", "ResourceLimitError",
    "SaConfig", "SamplerSpec", "aggregate", "apply_decay", "as_bits", "born_tree",
    "brute_force_best", "build_random_circuit", "derive_seed", "edge_density", "energies",
    "energy", "gen_unweighted", "gen_weighted_dense", "grid_scan", "maxcut_to_ising",
    "params_search", "qaoa_state", "read_instance", "report", "run_experiment", "run_ndar",
    "sa_solve", "sample", "simulate", "write_instance",
]
