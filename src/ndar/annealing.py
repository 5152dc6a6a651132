"""Single-flip Metropolis simulated annealing, the classical reference solver."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ising import IsingModel, energy, lex_first


@dataclass(frozen=True)
class SaConfig:
    """Annealing schedule: independent restarts, sweeps per restart, geometric beta ramp.

    The defaults solve dense instances of a few hundred spins to apparent
    optimality, which is what a reference denominator needs.
    """

    num_reads: int = 100
    sweeps_per_read: int = 1000
    beta_min: float = 0.01
    beta_max: float = 10.0
    seed: int = 0

    def __post_init__(self):
        if self.num_reads < 1 or self.sweeps_per_read < 1:
            raise ValueError("num_reads and sweeps_per_read must be >= 1")
        if not (0.0 < self.beta_min <= self.beta_max):
            raise ValueError(f"need 0 < beta_min <= beta_max, got {self.beta_min}, {self.beta_max}")


def sa_solve(model: IsingModel, config: SaConfig = SaConfig()) -> tuple[np.ndarray, float]:
    """Best (bitstring, energy) across all reads; ties go to ising.lex_first.

    Each read starts from random spins and performs sweeps of single-spin
    Metropolis updates at geometrically increasing beta. Reads are evolved in
    lockstep (vectorized over the read axis) with a shared per-sweep visit
    order; acceptance randomness stays independent per read. beta acts on the
    energy without the constant offset, which cancels from every difference.
    """
    n = model.n
    rng = np.random.default_rng(config.seed)
    reads = config.num_reads
    jm = model.coupling_matrix
    h = model._fields

    spins = (1.0 - 2.0 * rng.integers(0, 2, size=(reads, n))).astype(np.float64)
    local = spins @ jm + h  # local[r, i] = h_i + sum_j J_ij s_j
    e = spins @ h + 0.5 * np.einsum("ij,ij->i", spins, spins @ jm)

    best_e = e.copy()
    best_spins = spins.copy()
    betas = np.geomspace(config.beta_min, config.beta_max, config.sweeps_per_read)
    for beta in betas:
        for i in rng.permutation(n):
            de = -2.0 * spins[:, i] * local[:, i]
            accept = de <= 0.0
            uphill = ~accept
            if np.any(uphill):
                accept[uphill] = rng.random(int(uphill.sum())) < np.exp(-beta * de[uphill])
            acc = np.flatnonzero(accept)
            if acc.size:
                spins[acc, i] *= -1.0
                e[acc] += de[acc]
                local[acc, :] += (2.0 * spins[acc, i])[:, None] * jm[i, :][None, :]
        improved = e < best_e
        if np.any(improved):
            best_e[improved] = e[improved]
            best_spins[improved] = spins[improved]

    # bit i of a read is 1 where its spin i is -1
    k = lex_first(np.flatnonzero(best_e == best_e.min()), lambda c, i: best_spins[c, i] < 0, n)
    winner = ((1.0 - best_spins[k]) / 2.0).astype(np.uint8)
    return winner, energy(model, winner)
