"""Single-flip Metropolis simulated annealing in colored sweeps: the classical reference solver."""

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


def color_classes(jm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Greedy proper coloring of the coupling graph, in index order: (order, bounds).

    Spin i takes the smallest color that no coupled spin j < i holds, so no nonzero
    coupling joins two spins of one class. `order` lists the spins class by class, each
    class in index order, and class c is order[bounds[c]:bounds[c + 1]]. A complete
    graph gives one class per spin and the identity order.
    """
    n = jm.shape[0]
    coupled = jm != 0.0
    colors = np.zeros(n, dtype=np.int64)
    for i in range(1, n):
        taken = np.zeros(i + 1, dtype=bool)
        taken[colors[:i][coupled[i, :i]]] = True
        colors[i] = np.argmin(taken)  # the first free color
    order = np.argsort(colors, kind="stable")
    bounds = np.concatenate(([0], np.cumsum(np.bincount(colors))))
    return order, bounds


def sa_solve(model: IsingModel, config: SaConfig = SaConfig()) -> tuple[np.ndarray, float]:
    """Best (bitstring, energy) across all reads; ties go to ising.lex_first.

    Each read starts from random spins and performs sweeps of single-spin
    Metropolis updates at geometrically increasing beta. Sweeps are colored: the
    spins are split once into classes that share no coupling (`color_classes`),
    and each sweep visits the classes in random order. Flipping uncoupled spins
    together changes the energy by the sum of their single-flip changes, so one
    vectorized step proposes every spin of a class for every read at once. Every
    sweep still proposes each spin once per read, and acceptance randomness stays
    independent per read and spin. On a complete graph every class is one spin.
    beta acts on the energy without the constant offset, which cancels from every
    difference.
    """
    n = model.n
    rng = np.random.default_rng(config.seed)
    reads = config.num_reads
    # relabel so that every class is a contiguous column slice: steps work on views
    order, bounds = color_classes(model.coupling_matrix)
    jm = model.coupling_matrix[np.ix_(order, order)]
    h = model._fields[order]

    spins = (1.0 - 2.0 * rng.integers(0, 2, size=(reads, n)))[:, order]
    local = spins @ jm + h  # local[r, i] = h_i + sum_j J_ij s_j
    e = spins @ h + 0.5 * np.einsum("ij,ij->i", spins, spins @ jm)

    best_e = e.copy()
    best_spins = spins.copy()
    classes = [(spins[:, a:b], local[:, a:b], jm[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]
    betas = np.geomspace(config.beta_min, config.beta_max, config.sweeps_per_read)
    for beta in betas:
        for c in rng.permutation(len(classes)):
            s, loc, jc = classes[c]
            de = -2.0 * s * loc
            accept = de <= 0.0
            uphill = ~accept
            if uphill.any():
                # one draw per uphill proposal, in row-major (read, spin) order
                accept[uphill] = rng.random(np.count_nonzero(uphill)) < np.exp(-beta * de[uphill])
            rows = np.flatnonzero(accept.any(axis=1))
            if rows.size:
                flip = -2.0 * s * accept  # new spin minus old spin
                s += flip
                e += (de * accept).sum(axis=1)
                # np.dot, not @: numpy's matmul takes about 3x as long on the (rows x 1) @
                # (1 x n) product of a one-spin class
                local[rows] += np.dot(flip[rows], jc)
        improved = e < best_e
        if np.any(improved):
            best_e[improved] = e[improved]
            best_spins[improved] = spins[improved]

    best_spins = best_spins[:, np.argsort(order)]  # back to the model's labels
    # bit i of a read is 1 where its spin i is -1
    k = lex_first(np.flatnonzero(best_e == best_e.min()), lambda c, i: best_spins[c, i] < 0, n)
    winner = ((1.0 - best_spins[k]) / 2.0).astype(np.uint8)
    return winner, energy(model, winner)
