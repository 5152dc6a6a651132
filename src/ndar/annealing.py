"""Single-flip Metropolis simulated annealing in colored sweeps: the classical reference solver.

The spins and local fields take the dtype of `IsingModel.terms`: float32 where every sum
the annealer forms is exact there, float64 otherwise. A model whose every sweep is one block
of delayed field updates (every model of at most _BLOCK spins) is annealed in color order,
where each color class is a contiguous slice of every array; a larger one gathers each
block's rows in the sweep's visiting order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimitError
from .ising import IsingModel, energy, lex_first

# spins per block of delayed local-field updates
_BLOCK = 32

# largest annealing effort accepted. The working arrays peak (tracemalloc) at about 30
# bytes per read and spin with float32 state (24 measured at n = 300 in blocks, 27 at
# n = 18 in one block), and at up to 32, 270 MB at the budget, in one block of few large
# color classes, whose buffers are sized to the largest class (31.3 at n = 40 and 31.7 at
# n = 300 with no edges, one class); at about 45 (380 MB) on the float64 path (44 at
# n = 18); the schedule holds 8 bytes a sweep
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
    up to date. When every sweep is one block, whatever the order of its classes (the
    last class starts within the first _BLOCK spins: always when n <= _BLOCK), the
    spins, fields and couplings are kept in color order, where each class is a
    contiguous slice, and a class's fields are `(-2J)[a:b] @ flips + local[a:b]`, with
    `flips` the sweep's flips so far (zero for spins not flipped yet). Larger models
    gather each block's rows. Each read's doubled energy is computed once per sweep,
    from its spins and fields.

    Spins, fields, couplings and block updates take the dtype of `IsingModel.terms`:
    float32 when the model meets its rule, float64 otherwise. Under that rule every
    value formed is an integer multiple of one unit u no larger than
    sum |h_i| + 2 sum_{i<j} |J_ij| <= 2^24 u: each partial sum of the initial fields,
    of a block update or a color-order field change, of an in-block correction, and of
    h @ s and s @ local, whose sum, the doubled energy, is twice such a value. So each is
    exact in both dtypes, and the chain is the one a per-spin loop on the same draws
    would run. The thresholds are drawn in float64. The blocked path widens the exact
    float32 `s * local` to float64 to compare; in color order each threshold becomes
    the least float32 at or above it (`_ceil_float32`), which decides the comparison
    with a float32 `s * local` as the float64 threshold would.
    """
    n = model.n
    reads = config.num_reads
    check_effort(reads, config.sweeps_per_read, n)
    rng = np.random.default_rng(config.seed)
    h, jm = model.terms
    order, bounds = color_classes(jm)
    sizes = np.diff(bounds)
    # whatever the order of the classes, the last one starts within the first _BLOCK spins
    one_block = n - sizes.min() < _BLOCK
    if one_block:  # color order: class c is rows bounds[c]:bounds[c + 1] of every array
        h, jm = h[order], jm[np.ix_(order, order)]
    jm2 = -2 * jm  # field change per unit of the flipped spin's old value

    # spins and fields are (n, reads), so one spin's values for all reads are contiguous
    spins = 1 - 2 * rng.integers(0, 2, size=(reads, n)).T
    spins = np.ascontiguousarray(spins[order] if one_block else spins, dtype=h.dtype)
    local = jm @ spins + h[:, None]  # local[i, r] = h_i + sum_j J_ij s_j

    def doubled_energies():
        return h @ spins + (spins * local).sum(axis=0)

    best_e = doubled_energies()
    best_spins = spins.astype(np.int8)
    if one_block:  # each class's rows of every array the sweep reads or writes
        flips = np.empty_like(spins)  # the old spin where a flip was accepted, else 0
        fields = np.empty((sizes.max(), reads), dtype=h.dtype)
        accept = np.empty(fields.shape, dtype=bool)
        edges = bounds.tolist()
        steps = [(a, b, jm2[a:b], local[a:b], spins[a:b], flips[a:b], fields[:b - a],
                  accept[:b - a]) for a, b in zip(edges, edges[1:])]
    for beta in np.geomspace(config.beta_min, config.beta_max, config.sweeps_per_read).tolist():
        perm = rng.permutation(sizes.size)
        thresholds = rng.random((reads, n))
        np.negative(thresholds, out=thresholds)
        np.log1p(thresholds, out=thresholds)
        thresholds /= 2.0 * beta  # a flip is accepted when s * local >= its threshold
        if one_block:
            if h.dtype == np.float32:
                thresholds = _ceil_float32(thresholds)
            thresholds = thresholds.T[order]
            _one_block_sweep(spins, local, jm2, thresholds, perm, steps, flips)
        else:
            _blocked_sweep(spins, local, jm2, thresholds, perm, order, bounds)

        e = doubled_energies()
        improved = e < best_e
        if improved.any():
            best_e[improved] = e[improved]
            best_spins[:, improved] = spins[:, improved]

    if one_block:
        best_spins[order] = best_spins.copy()  # back to index order
    # bit i of a read is 1 where its spin i is -1
    k = lex_first(np.flatnonzero(best_e == best_e.min()), lambda c, i: best_spins[i, c] < 0, n)
    winner = (best_spins[:, k] < 0).astype(np.uint8)
    return winner, energy(model, winner)


def _ceil_float32(t: np.ndarray) -> np.ndarray:
    """The least float32 at or above each float64 t <= 0, so g >= t == g >= it for float32 g.

    The cast rounds to nearest. Where that fell below t, one step of the bit pattern
    toward zero is the next float32 up; it also takes the -inf of a t below -FLT_MAX
    to -FLT_MAX.
    """
    with np.errstate(over="ignore"):
        g = t.astype(np.float32)
    bits = g.view(np.uint32)
    bits -= g < t
    return g


def _one_block_sweep(spins, local, jm2, thresholds, perm, steps, flips):
    """One sweep of color-ordered arrays in one block; steps[c] holds class c's rows.

    Class c's fields are its fields at the sweep's start plus the change the sweep's
    earlier flips made, `(-2J)[a:b] @ flips`; the thresholds' buffer then takes the
    change to every field.
    """
    flips.fill(0)
    for c in perm.tolist():
        a, b, rows, start, s, flipped, loc, acc = steps[c]
        np.matmul(rows, flips, out=loc)
        loc += start
        loc *= s
        np.greater_equal(loc, thresholds[a:b], out=acc)
        np.copyto(flipped, s, where=acc)
    spins -= flips  # twice: spins - 2 * flips without a temporary
    spins -= flips
    local += np.matmul(jm2, flips, out=thresholds)


def _blocked_sweep(spins, local, jm2, thresholds, perm, order, bounds):
    """One sweep in blocks of about _BLOCK spins, gathering each block's rows."""
    n = spins.shape[0]
    sizes = np.diff(bounds)
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
