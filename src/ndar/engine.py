"""The noise-directed adaptive remapping loop and its classical variant.

Each iteration draws shots in the current gauge frame, picks the lowest-energy
sample, and remaps the frame so that sample becomes the all-zeros attractor of
the next round. Under amplitude damping the sampler drifts toward the attractor,
so the remapping steers noise toward ever better solutions. The frame is one
cumulative bit mask m, and frame bits x score as energy(model0, x ^ m).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuits import DampingSpec, QaoaCircuit, QaoaParams, build_random_circuit, check_depth
from .errors import ResourceLimitError
from .ising import IsingModel, block_rows, energies, energy, lex_first
from .simulator import apply_decay, born_tree, sample, simulate

KIND_QAOA = "qaoa"
KIND_RANDOM_CIRCUIT = "random-circuit"
KIND_CLASSICAL_BERNOULLI = "classical-bernoulli"
SAMPLER_KINDS = (KIND_QAOA, KIND_RANDOM_CIRCUIT, KIND_CLASSICAL_BERNOULLI)

# most shots per iteration accepted. Beside its chunk, an iteration keeps 8 bytes per shot
# in its energy vector and np.unique about 8 more, so the cap costs about 250 MiB; a run's
# two energy histograms, iteration 0's and the last's, take 16 bytes per distinct energy
SHOTS_CAP = 1 << 24

# stream tags for per-purpose child seeds
_STREAM_SAMPLE = 0
_STREAM_DECAY = 1
_STREAM_CIRCUIT = 2


def derive_seed(master_seed: int, *path: int) -> int:
    """Deterministic child seed for a (master, path...) tuple; paths give independent streams."""
    ss = np.random.SeedSequence([int(master_seed), *(int(p) for p in path)])
    return int(ss.generate_state(1, np.uint64)[0])


def check_q_and_depth(q: float | None, depth: int) -> None:
    """Refuse q outside [0, 1] (None passes) and a depth that check_depth refuses."""
    if q is not None and not (0.0 <= q <= 1.0):
        raise ValueError(f"q must lie in [0, 1], got {q}")
    check_depth(depth)


@dataclass(frozen=True)
class SamplerSpec:
    """Sampling strategy for one NDAR run.

    kind selects among 'qaoa' (needs params), 'random-circuit' (uses depth, and
    fresh_circuit to redraw the circuit each iteration instead of reusing one),
    and 'classical-bernoulli' (needs q). Circuit samplers pass their measurement
    outcomes through the damping channel at `damping.gamma_damp`; the classical sampler
    is that channel at strength q applied to the all-ones string, so each bit is 0 with
    probability q. q and depth are checked for every kind.
    """

    kind: str
    params: QaoaParams | None = None
    depth: int = 2
    q: float | None = None
    damping: DampingSpec = DampingSpec(0.0, 180.0)
    fresh_circuit: bool = False

    def __post_init__(self):
        if self.kind not in SAMPLER_KINDS:
            raise ValueError(f"unknown sampler kind {self.kind!r}; expected one of {SAMPLER_KINDS}")
        if self.kind == KIND_QAOA and self.params is None:
            raise ValueError("qaoa sampler requires params")
        if self.kind == KIND_CLASSICAL_BERNOULLI and self.q is None:
            raise ValueError("classical sampler needs q in [0, 1], got None")
        check_q_and_depth(self.q, self.depth)


@dataclass(frozen=True)
class NdarConfig:
    """Loop controls: shots per iteration, iteration count, seeding, early stop."""

    shots: int
    max_iters: int
    master_seed: int = 0
    patience: int | None = None

    def __post_init__(self):
        if self.shots < 1:
            raise ValueError("shots must be >= 1")
        if self.shots > SHOTS_CAP:  # refused before allocating
            raise ResourceLimitError(f"{self.shots} shots per iteration exceeds the cap "
                                     f"{SHOTS_CAP}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.patience is not None and self.patience < 1:
            raise ValueError("patience must be >= 1 when set")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {self.master_seed}")


@dataclass(frozen=True)
class IterationRecord:
    """Outcome of one iteration, expressed in the frame that was sampled.

    best_bits is the winning sample in the sampled frame; cumulative_mask is the
    XOR of all accepted bitstrings up to and including this iteration, which is
    also best_bits written in the original frame, and best_energy is exactly
    energy(model0, cumulative_mask). attractor_energy is the energy of the sampled
    frame's all-zeros string, i.e. energy(model0, previous cumulative mask).
    """

    iter_index: int
    best_bits: np.ndarray
    best_energy: float
    best_cut: float
    cumulative_mask: np.ndarray
    attractor_energy: float


@dataclass(frozen=True)
class NdarResult:
    """Full trace, the overall best in the original frame, and the sample distributions
    (iter_index, (energies, counts), weight counts 0..n) of iteration 0 and, if later, the last."""

    trace: tuple[IterationRecord, ...]
    best_bits_original_frame: np.ndarray
    best_energy_overall: float
    final_mask: np.ndarray
    distributions: tuple[tuple[int, tuple[np.ndarray, np.ndarray], np.ndarray], ...]


def _select_best(X: np.ndarray, E: np.ndarray) -> int:
    """Index of the minimum-energy row; ties prefer lower Hamming weight, then lex_first."""
    cand = np.flatnonzero(E == E.min())
    if cand.size > 1:
        weights = X[cand].sum(axis=1)
        cand = cand[weights == weights.min()]
    return lex_first(cand, lambda c, i: X[c, i], X.shape[1])


def qaoa_tree(model0: IsingModel, sampler: SamplerSpec) -> list[np.ndarray]:
    """The born_tree of the sampler's QAOA state for model0, in the original frame."""
    return born_tree(simulate(QaoaCircuit(model0, sampler.params)))


def run_ndar(model0: IsingModel, sampler: SamplerSpec, config: NdarConfig, *,
             tree: list[np.ndarray] | None = None) -> NdarResult:
    """Run the adaptive remapping loop and return the per-iteration trace.

    Per iteration: take source rows in the current frame (QAOA reads its model0
    |amplitude|^2 in the frame; the random circuit is drawn once per run unless
    fresh_circuit is set; the classical sampler's rows are all ones), pass them through
    the damping channel, score the shots as energies(model0, X ^ mask), pick the best
    sample, record it, then XOR it into the mask so it becomes the next all-zeros
    attractor. Stops early only when `patience` consecutive iterations fail to improve
    the overall best.

    `tree` is QAOA's `qaoa_tree`; a caller that runs one sampler on one model many
    times passes it to every run, and when it is None the run builds it. Other samplers
    ignore it.

    The loop's state is the mask, the records, the index `best` of the first record
    with the lowest energy, iteration 0's distribution, and the tree. QAOA draws every
    frame from its one tree, passing the mask to sample as an integer, so no frame
    costs 2^n work. A random circuit builds its tree in its state's buffer when its
    circuit is drawn, once the previous tree is dropped, and draws in frame 0. The
    attractor energy, stall count (j - best) and overall best come from the records.

    An iteration runs in chunks of block_rows(n) shots, one block of energies each, so
    no (shots, n) matrix is built and a chunk's arrays fit in L2. Each chunk's rows are
    decayed (circuits at gamma_damp with the iteration's decay generator, the classical
    sampler at q with its sample generator; strength 0 skips the draw), scored into its
    energy vector and Hamming-weight counts, and reduced to its _select_best winner; the
    rule runs once more over the chunk winners. The draws fill row-major and the chunks
    hold an even number of rows, so every result is the one a whole-batch draw would
    give. Only iteration 0's and the last's energies become histograms.
    """
    n = model0.n
    mask = np.zeros(n, dtype=np.uint8)
    records: list[IterationRecord] = []
    best = 0
    frame = 0
    if sampler.kind == KIND_QAOA and tree is None:
        tree = qaoa_tree(model0, sampler)
    chunk = block_rows(n)
    classical = sampler.kind == KIND_CLASSICAL_BERNOULLI
    # the classical sampler's source rows: a read-only view that allocates nothing
    ones = np.broadcast_to(np.uint8(1), (chunk, n)) if classical else None
    strength = sampler.q if classical else sampler.damping.gamma_damp
    for j in range(config.max_iters):
        rng = np.random.default_rng(derive_seed(config.master_seed, _STREAM_SAMPLE, j))
        decay_rng = rng if classical else np.random.default_rng(
            derive_seed(config.master_seed, _STREAM_DECAY, j))
        if sampler.kind == KIND_QAOA:
            frame = int(mask.astype(np.int64) @ (1 << np.arange(n, dtype=np.int64)))
        elif sampler.kind == KIND_RANDOM_CIRCUIT and (j == 0 or sampler.fresh_circuit):
            seed = derive_seed(config.master_seed, _STREAM_CIRCUIT, j)
            tree = None  # dropped before the next state exists
            tree = born_tree(simulate(build_random_circuit(n, sampler.depth, seed)))
        E = np.empty(config.shots)
        weight_counts = np.zeros(n + 1, dtype=np.int64)
        winners, winner_energies = [], []
        for start in range(0, config.shots, chunk):
            rows = min(chunk, config.shots - start)
            X = sample(tree, rows, rng, frame) if ones is None else ones[:rows]
            if strength > 0.0:
                X = apply_decay(X, strength, decay_rng)
            Ec = E[start:start + rows]
            Ec[:] = energies(model0, X ^ mask)
            k = _select_best(X, Ec)
            winners.append(X[k].copy())
            winner_energies.append(Ec[k])
            weight_counts += np.bincount(X.sum(axis=1, dtype=np.uint16), minlength=n + 1)
        W = np.array(winners)
        y_best = W[_select_best(W, np.array(winner_energies))].copy()
        new_mask = y_best ^ mask
        # recompute through the scalar path so the stored value matches energy() exactly
        e_best = energy(model0, new_mask)
        records.append(IterationRecord(
            iter_index=j,
            best_bits=y_best,
            best_energy=e_best,
            best_cut=-e_best,
            cumulative_mask=new_mask,
            # the sampled frame's all-zeros string is the previous iteration's best
            attractor_energy=records[-1].best_energy if records else energy(model0, mask),
        ))
        if j == 0:
            distributions = [(0, np.unique(E, return_counts=True), weight_counts)]
        if e_best < records[best].best_energy:
            best = j
        mask = new_mask
        if config.patience is not None and j - best >= config.patience:
            break
    if j > 0:
        distributions.append((j, np.unique(E, return_counts=True), weight_counts))
    return NdarResult(
        trace=tuple(records),
        best_bits_original_frame=records[best].cumulative_mask,
        best_energy_overall=float(records[best].best_energy),
        final_mask=mask,
        distributions=tuple(distributions),
    )
