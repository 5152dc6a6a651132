"""Single-flip Metropolis simulated annealing in colored sweeps: the classical reference solver.

The spins and local fields are float32 where every sum the annealer forms is exact there
(`IsingModel._float32_terms`) and float64 otherwise; the acceptance thresholds are float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimitError
from .ising import IsingModel, energy, lex_first

# spins per block of delayed local-field updates
_BLOCK = 32

# largest annealing effort accepted. The working arrays peak (tracemalloc) at about 30
# bytes per read and spin with float32 state, about 250 MB at the budget, and at about 45
# (380 MB) on the float64 path; the schedule holds 8 bytes a sweep
SA_SPIN_BUDGET = 1 << 23
SA_SWEEPS_CAP = 1 << 20


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
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def check_effort(reads: int, sweeps: int, n: int) -> None:
    """Refuse more than SA_SPIN_BUDGET read-spins or SA_SWEEPS_CAP sweeps before allocating."""
    if reads * n > SA_SPIN_BUDGET:
        raise ResourceLimitError(f"annealing {reads} reads of {n} spins exceeds the budget of "
                                 f"{SA_SPIN_BUDGET} read-spins")
    if sweeps > SA_SWEEPS_CAP:
        raise ResourceLimitError(f"{sweeps} sweeps per read exceeds the cap {SA_SWEEPS_CAP}")


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
    Metropolis updates at geometrically increasing beta. A sweep draws a random
    order of the color classes (`color_classes`: no coupling joins two spins of one
    class) and one uniform u per read and spin, then proposes every spin once per
    read, class by class. A flip is accepted when its energy change is at most
    -ln(1 - u) / beta, which accepts every downhill move; beta acts on the energy
    without the constant offset, which cancels from every difference. Flipping
    uncoupled spins together changes the energy by the sum of their single-flip
    changes, so one vectorized step proposes a whole class for all reads.

    Local fields are updated late (Isakov et al., arXiv:1401.1084): the classes are
    walked in blocks of about _BLOCK spins, a class sees the fields of its block's start
    plus the block's earlier flips, and one matrix product per block brings every field
    up to date. Each read's energy is computed once per sweep, from its spins and
    fields, and summed in float64.

    Spins, fields, couplings and block updates are float32 when the model meets the
    rule of `IsingModel._float32_terms`, and float64 otherwise. Under that rule every
    value formed is an integer multiple of one unit u no larger than
    sum |h_i| + 2 sum_{i<j} |J_ij| <= 2^24 u: each partial sum of the initial fields,
    of a block update, of an in-block correction, and of the sweep energies. So each is
    exact in both dtypes, and the chain is the one a per-spin loop on the same draws
    would run. The thresholds stay float64: `s * local >= threshold` compares an exact
    float32 value, widened exactly to float64, with the float64 threshold, so each
    acceptance is decided as on the float64 path.
    """
    n = model.n
    reads = config.num_reads
    check_effort(reads, config.sweeps_per_read, n)
    rng = np.random.default_rng(config.seed)
    order, bounds = color_classes(model.coupling_matrix)
    sizes = np.diff(bounds)
    h, jm = model._float32_terms or (model._fields, model.coupling_matrix)
    jm2 = -2 * jm  # field change per unit of the flipped spin's old value

    # spins and fields are (n, reads), so one spin's values for all reads are contiguous
    spins = np.ascontiguousarray(1 - 2 * rng.integers(0, 2, size=(reads, n)).T, dtype=h.dtype)
    local = jm @ spins + h[:, None]  # local[i, r] = h_i + sum_j J_ij s_j

    def sweep_energies():
        return 0.5 * (h @ spins + (spins * local).sum(axis=0, dtype=np.float64))

    best_e = sweep_energies()
    best_spins = spins.copy()
    for beta in np.geomspace(config.beta_min, config.beta_max, config.sweeps_per_read).tolist():
        perm = rng.permutation(sizes.size)
        thresholds = rng.random((reads, n))
        np.negative(thresholds, out=thresholds)
        np.log1p(thresholds, out=thresholds)
        thresholds /= 2.0 * beta  # a flip is accepted when s * local >= its threshold

        # the spins in visiting order, class after class
        run = sizes[perm]
        ends = np.cumsum(run)
        starts = ends - run
        visit = order[np.repeat(bounds[perm] - starts, run) + np.arange(n)]
        # a block is the classes that start within one stretch of _BLOCK visiting positions
        q = starts // _BLOCK
        heads = [0] + (np.flatnonzero(q[1:] != q[:-1]) + 1).tolist()
        edges = [0] + ends.tolist()
        for first, stop in zip(heads, heads[1:] + [sizes.size]):
            b0, b1 = edges[first], edges[stop]
            idx = visit[b0:b1]
            rows = jm2[idx]
            jb = rows[:, idx]
            sb, lb, tb = spins[idx], local[idx], thresholds.T[idx]
            flips = np.empty_like(sb)  # the old spin where a flip was accepted, else 0
            for c in range(first, stop):
                p0, p1 = edges[c] - b0, edges[c + 1] - b0
                s, loc = sb[p0:p1], lb[p0:p1]
                if p0:  # the fields as the block's earlier flips left them
                    loc = loc + jb[p0:p1, :p0] @ flips[:p0]
                np.multiply(s, s * loc >= tb[p0:p1], out=flips[p0:p1])
            spins[idx] = sb - 2 * flips
            local += rows.T @ flips

        e = sweep_energies()
        improved = e < best_e
        if improved.any():
            best_e[improved] = e[improved]
            best_spins[:, improved] = spins[:, improved]

    # bit i of a read is 1 where its spin i is -1
    k = lex_first(np.flatnonzero(best_e == best_e.min()), lambda c, i: best_spins[i, c] < 0, n)
    winner = ((1 - best_spins[:, k]) / 2).astype(np.uint8)
    return winner, energy(model, winner)
