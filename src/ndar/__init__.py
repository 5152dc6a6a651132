"""Noise-directed adaptive remapping for Ising/MaxCut optimization.

The package couples an exact desk-scale noisy circuit sampler (QAOA and random
circuits under delay-induced amplitude damping) with an iterative gauge-remapping
loop that steers the noise attractor toward good solutions, plus a classical
bit-suppression variant, a simulated-annealing baseline, and an experiment
harness with deterministic CSV output.
"""

from .annealing import SaConfig, sa_solve
from .circuits import (DEFAULT_QUBIT_CAP, Circuit, DampingSpec, Gate, QaoaCircuit,
                       QaoaParams, build_qaoa_circuit, build_random_circuit, damping_gamma)
from .engine import (KIND_CLASSICAL_BERNOULLI, KIND_QAOA, KIND_RANDOM_CIRCUIT,
                     IterationRecord, NdarConfig, NdarResult, SamplerSpec,
                     classical_bernoulli_sample, derive_seed, run_ndar)
from .errors import ConfigError, ResourceLimitError
from .harness import (AggregateRow, ExperimentConfig, aggregate, params_search, report,
                      run_experiment)
from .ising import (BRUTE_FORCE_CAP, NODE_CAP, IsingModel, MaxCutInstance, all_bitstrings,
                    apply_mask, as_bits, bits_to_str, brute_force_best, cut_value, edge_density,
                    energies, energy, gauge_transform, gen_unweighted, gen_weighted_dense,
                    hamming_weight, maxcut_to_ising, read_instance, write_instance)
from .simulator import (DENSITY_MATRIX_CAP, apply_decay, density_matrix_reference, grid_scan,
                        optimize_params, qaoa_expectation, qaoa_state, sample, simulate)

__version__ = "0.1.0"

__all__ = [
    "AggregateRow", "BRUTE_FORCE_CAP", "Circuit", "ConfigError", "DampingSpec",
    "DEFAULT_QUBIT_CAP", "DENSITY_MATRIX_CAP", "ExperimentConfig", "Gate",
    "IsingModel", "IterationRecord", "KIND_CLASSICAL_BERNOULLI", "KIND_QAOA",
    "KIND_RANDOM_CIRCUIT", "MaxCutInstance", "NODE_CAP", "NdarConfig", "NdarResult",
    "QaoaCircuit", "QaoaParams", "ResourceLimitError", "SaConfig", "SamplerSpec",
    "aggregate", "all_bitstrings", "apply_decay", "apply_mask", "as_bits",
    "bits_to_str", "brute_force_best", "build_qaoa_circuit", "build_random_circuit",
    "classical_bernoulli_sample", "cut_value", "damping_gamma", "density_matrix_reference",
    "derive_seed", "edge_density", "energies", "energy", "gauge_transform", "gen_unweighted",
    "gen_weighted_dense", "grid_scan", "hamming_weight", "maxcut_to_ising", "optimize_params",
    "params_search", "qaoa_expectation", "qaoa_state", "read_instance", "report", "run_experiment",
    "run_ndar", "sa_solve", "sample", "simulate", "write_instance",
]
