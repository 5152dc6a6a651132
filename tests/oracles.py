"""Second implementations the package is tested against; no code in `ndar` calls them.

Each one computes, by a different route, something the package computes once:

* `gauge_transform` builds the remapped model explicitly, where the NDAR loop keeps
  `model0` and one bit mask; `apply_mask` is the XOR of a mask into a bitstring.
* `build_qaoa_circuit` spells QAOA out gate by gate for `simulate`, where
  `qaoa_state` runs from the model's cost diagonal.
* `simulate_gate_by_gate` applies a `Circuit` one gate at a time over the whole state,
  where `simulate` multiplies the one-qubit gates of each qubit together and applies
  them in Kronecker blocks.
* `rotate_ping_pong` applies the Kronecker blocks of `_rotate` as whole-state matrix
  products into a second state-sized buffer, where `_rotate` works in place through a
  fixed scratch, a block of the state at a time.
* `qaoa_state_ping_pong` is `qaoa_state` with whole-state temporaries: the shifted cost
  diagonal, a phase buffer, and `rotate_ping_pong` as the mixer.
* `cut_value` sums the crossing edge weights, where the package scores with
  `energy`/`energies` (energy == -cut for MaxCut-derived models).
* `classical_bernoulli_sample` sets each bit to 0 where `bernoulli(q)` draws True, where
  `run_ndar` decays an all-ones view with `apply_decay` at strength q.
* `density_matrix_reference` applies the amplitude-damping Kraus channel to the
  density matrix, where the samplers apply classical bit decay (`apply_decay`).
* `all_bitstrings`, `bits_to_str` and `hamming_weight` enumerate, render and count bits.
* `cost_diagonal` joins the `cost_blocks` stream into one 2^n array, which no code in
  `ndar` holds.
* `optimize_params` returns only the best angles of `grid_scan`.
* `qaoa_expectation` is the statevector mean energy at any depth p, where `grid_scan`
  reads the closed form of p = 1.
* `born_table` builds the cumulative table `Generator.choice` builds, `sample_table` looks
  a draw's uniforms up in it, and `xor_gather` moves probabilities into gauge frame m as
  out[k] = probs[k ^ m], where `sample` descends one `born_tree` with the frame mask.
* `write_instance_from_tuples` writes the instance file from the sorted edge tuples,
  formatting every weight, where `write_instance` orders the edge arrays with
  `np.lexsort` and formats each distinct weight once.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from ndar.circuits import Circuit, Gate, QaoaParams, check_qubits
from ndar.errors import ResourceLimitError
from ndar.ising import (IsingModel, MaxCutInstance, _check_enumerable, _index_bits, as_bits,
                        cost_blocks)
from ndar.simulator import (_MIXER_BLOCK, _one_qubit_matrix, bernoulli, grid_scan, qaoa_state,
                           simulate)

DENSITY_MATRIX_CAP = 6


def bits_to_str(x) -> str:
    """Render a bitstring as a compact '0101...' string, bit 0 first."""
    return "".join("1" if b else "0" for b in as_bits(x))


def all_bitstrings(n: int) -> np.ndarray:
    """All 2^n bitstrings as a (2^n, n) uint8 matrix; row k holds the bits of index k.

    Index convention is little-endian: bit i of row k equals (k >> i) & 1.
    """
    _check_enumerable(n)
    return _index_bits(np.arange(1 << n, dtype=np.int64), n)


def cost_diagonal(model: IsingModel) -> np.ndarray:
    """The energies of all 2^n bitstrings in one array: the cost_blocks stream, each block
    copied out of the buffer the next one overwrites."""
    return np.concatenate([block.copy() for block in cost_blocks(model)])


def born_table(probs: np.ndarray) -> np.ndarray:
    """Generator.choice's table of unnormalised probabilities: cdf = (probs / probs.sum())
    cumulated, then divided by its last entry."""
    probs = np.asarray(probs).reshape(-1)
    cdf = np.cumsum(probs / probs.sum())
    return cdf / cdf[-1]


def sample_table(table: np.ndarray, shots: int, seed) -> np.ndarray:
    """The rows of the indices at which `shots` uniforms of `seed` fall in a born_table,
    looked up as Generator.choice looks them up."""
    u = np.random.default_rng(seed).random(shots)
    return _index_bits(table.searchsorted(u, side="right"), table.size.bit_length() - 1)


def classical_bernoulli_sample(n: int, q: float, shots: int, seed) -> np.ndarray:
    """Shots x n bits, bit k (row-major) 0 where `bernoulli(q)` draws True and 1 otherwise.

    `seed` is an int or a Generator, which the draw advances.
    """
    bits = bernoulli(np.random.default_rng(seed), q, (shots, n))
    return (~bits).view(np.uint8)


def xor_gather(probs: np.ndarray, m: int) -> np.ndarray:
    """The probabilities in gauge frame m: out[k] = probs[k ^ m]."""
    return probs[np.arange(probs.size) ^ m]


def gauge_transform(model: IsingModel, y) -> IsingModel:
    """Remap the model by the bit-flip mask y: h_i -> (-1)^{y_i} h_i, J_ij -> (-1)^{y_i + y_j} J_ij.

    The offset is untouched and the energy spectrum is preserved; only sign flips
    occur, so the transform is exact in floating point.
    """
    yb = as_bits(y, model.n)
    sign = 1.0 - 2.0 * yb.astype(np.float64)
    ci, cj, cw = model.couplings.arrays
    new_w = cw * sign[ci] * sign[cj]
    return IsingModel(model.n, model.h * sign, np.column_stack((ci, cj, new_w)), model.offset)


def apply_mask(y, x) -> np.ndarray:
    """XOR a bit-flip mask into a bitstring (or compose two masks); applying y twice is a no-op."""
    yb = as_bits(y)
    xb = as_bits(x, yb.size)
    return np.bitwise_xor(yb, xb)


def hamming_weight(x) -> int:
    """Number of 1-bits."""
    return int(as_bits(x).sum())


def cut_value(g: MaxCutInstance, x) -> float:
    """Total weight of edges crossing the partition encoded by bitstring x."""
    xb = as_bits(x, g.n)
    ei, ej, ew = g.edges.arrays
    if not ew.size:
        return 0.0
    crossing = xb[ei] != xb[ej]
    return float(ew @ crossing.astype(np.float64))


def build_qaoa_circuit(model: IsingModel, params: QaoaParams) -> Circuit:
    """QAOA circuit for the model: Hadamard wall, then p alternating cost/mixer layers.

    The cost layer applies exp(+i gamma E(x)) as diagonal phases, which with
    RZ(t) = exp(-i t Z / 2) means RZ(-2 gamma h_i) for exp(i gamma h_i s_i); this
    orientation makes the single-spin expectation equal -sin(2 beta) sin(2 gamma).
    Each coupling's exp(i gamma J_ij s_i s_j) is CX(i, j) RZ_j(-2 gamma J_ij) CX(i, j):
    the CX puts s_i s_j on qubit j, whose RZ then takes the phase, and undoes it.
    The mixer applies RX(2 beta) on every qubit.
    """
    check_qubits(model.n)
    gates = [Gate("H", (q,)) for q in range(model.n)]
    for gamma, beta in zip(params.gammas, params.betas):
        for q, hq in enumerate(model.h):
            if hq != 0.0:
                gates.append(Gate("RZ", (q,), -2.0 * gamma * hq))
        for i, j, w in model.couplings:
            gates += [Gate("CX", (i, j)), Gate("RZ", (j,), -2.0 * gamma * w), Gate("CX", (i, j))]
        for q in range(model.n):
            gates.append(Gate("RX", (q,), 2.0 * beta))
    return Circuit(model.n, tuple(gates))


def _diag_phases(kind: str, theta: float | None) -> np.ndarray:
    if kind == "Z":
        return np.array([1.0, -1.0], dtype=np.complex128)
    if kind == "S":
        return np.array([1.0, 1j], dtype=np.complex128)
    if kind == "T":
        return np.array([1.0, np.exp(1j * math.pi / 4.0)], dtype=np.complex128)
    if kind == "RZ":
        return np.array([np.exp(-0.5j * theta), np.exp(0.5j * theta)], dtype=np.complex128)
    raise ValueError(f"not a diagonal one-qubit gate: {kind}")


def simulate_gate_by_gate(circuit: Circuit) -> np.ndarray:
    """The 2^n statevector of the circuit on |0...0>, one pass over a (2,) * n state per gate:
    a tensordot for H, X, Y, RX and RY, a broadcast phase for Z, S, T and RZ, and slice
    updates for CX and CZ."""
    n = circuit.n
    check_qubits(n)
    psi = np.zeros((2,) * n, dtype=np.complex128)
    psi.flat[0] = 1.0
    for gate in circuit.gates:
        kind = gate.kind
        if kind in ("H", "X", "Y", "RX", "RY"):
            ax = n - 1 - gate.targets[0]
            u = _one_qubit_matrix(kind, gate.theta)
            psi = np.moveaxis(np.tensordot(u, psi, axes=([1], [ax])), 0, ax)
        elif kind in ("Z", "S", "T", "RZ"):
            ax = n - 1 - gate.targets[0]
            ph = _diag_phases(kind, gate.theta)
            shape = [1] * n
            shape[ax] = 2
            psi = psi * ph.reshape(shape)
        elif kind == "CX":
            ax_c, ax_t = (n - 1 - t for t in gate.targets)
            sl = [slice(None)] * n
            sl[ax_c] = 1
            sub = psi[tuple(sl)]
            # fixing the control axis drops it, shifting later axes down by one
            psi[tuple(sl)] = np.flip(sub, axis=ax_t - (1 if ax_c < ax_t else 0))
        elif kind == "CZ":
            ax_a, ax_b = (n - 1 - t for t in gate.targets)
            sl = [slice(None)] * n
            sl[ax_a] = 1
            sl[ax_b] = 1
            psi[tuple(sl)] = -psi[tuple(sl)]
        else:
            raise ValueError(f"unhandled gate kind {kind}")
    return psi.reshape(-1)


def rotate_ping_pong(psi: np.ndarray, mats: list) -> np.ndarray:
    """mats[q] applied to qubit q for every q (None leaves it alone), as a new state: the
    k qubits from q on take one matrix product with the Kronecker product of their
    matrices on a whole (-1, 2^k, 2^q) view, written into the other of two buffers."""
    psi, buf = psi.copy(), np.empty_like(psi)
    for q in range(0, len(mats), _MIXER_BLOCK):
        block = mats[q:q + _MIXER_BLOCK]
        if all(u is None for u in block):
            continue
        k = len(block)
        m = functools.reduce(np.kron, [np.eye(2) if u is None else u for u in reversed(block)])
        if q == 0:
            np.matmul(psi.reshape(-1, 1 << k), m.T, out=buf.reshape(-1, 1 << k))
        else:
            np.matmul(m, psi.reshape(-1, 1 << k, 1 << q), out=buf.reshape(-1, 1 << k, 1 << q))
        psi, buf = buf, psi
    return psi


def qaoa_state_ping_pong(model: IsingModel, params: QaoaParams) -> np.ndarray:
    """QAOA statevector with whole-state temporaries: each layer multiplies by
    exp(i gamma (E - offset)) built in a state-sized buffer, then rotate_ping_pong
    applies RX(2 beta) to every qubit."""
    n = model.n
    shifted = cost_diagonal(model) - model.offset
    psi = np.full(1 << n, 2.0 ** (-0.5 * n), dtype=np.complex128)
    buf = np.empty_like(psi)
    for gamma, beta in zip(params.gammas, params.betas):
        np.multiply(shifted, 1j * gamma, out=buf)
        np.exp(buf, out=buf)
        psi *= buf
        c, s = math.cos(beta), -1j * math.sin(beta)
        psi = rotate_ping_pong(psi, [np.array([[c, s], [s, c]])] * n)
    return psi


def density_matrix_reference(circuit: Circuit, gamma: float) -> np.ndarray:
    """Outcome distribution after per-qubit amplitude damping, via the density matrix.

    Kraus operators K0 = diag(1, sqrt(1-gamma)) and K1 = sqrt(gamma) |0><1| are
    applied to every qubit before a computational-basis measurement. Exact but
    O(4^n); intended as a small-n oracle for the classical bit-decay fast path.
    """
    if circuit.n > DENSITY_MATRIX_CAP:
        raise ResourceLimitError(
            f"density matrix reference capped at n <= {DENSITY_MATRIX_CAP}, got {circuit.n}")
    if not (0.0 <= gamma <= 1.0):
        raise ValueError(f"gamma must lie in [0, 1], got {gamma}")
    n = circuit.n
    psi = simulate(circuit)
    rho = np.outer(psi, psi.conj())
    k0 = np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - gamma)]], dtype=np.complex128)
    k1 = np.array([[0.0, math.sqrt(gamma)], [0.0, 0.0]], dtype=np.complex128)
    for q in range(n):
        a = _embed_one_qubit(k0, q, n)
        b = _embed_one_qubit(k1, q, n)
        rho = a @ rho @ a.conj().T + b @ rho @ b.conj().T
    return np.real(np.diag(rho)).copy()


def _embed_one_qubit(u: np.ndarray, q: int, n: int) -> np.ndarray:
    # little-endian: qubit 0 is the rightmost kron factor
    left = np.eye(1 << (n - 1 - q), dtype=np.complex128)
    right = np.eye(1 << q, dtype=np.complex128)
    return np.kron(left, np.kron(u, right))


def optimize_params(model: IsingModel,
                    gamma_range: tuple[float, float] = (-math.pi / 2.0, math.pi / 2.0),
                    beta_range: tuple[float, float] = (-math.pi / 4.0, math.pi / 4.0),
                    steps: int = 20) -> QaoaParams:
    """Best single-layer angles of grid_scan over the same grid."""
    return grid_scan(model, gamma_range, beta_range, steps)[0]


def qaoa_expectation(model: IsingModel, params: QaoaParams) -> float:
    """Exact mean energy of the QAOA output distribution (offset included)."""
    psi = qaoa_state(model, params)
    return float((psi.real ** 2 + psi.imag ** 2) @ cost_diagonal(model))


def write_instance_from_tuples(g: MaxCutInstance, path) -> None:
    """Write a graph as text: one 'n m' header line, then 'i j w' per edge, sorted by (i, j).

    A weight is printed with 12 significant digits when that reads back exactly (so
    integer weights print as '1'), otherwise as its shortest exact repr.
    """
    lines = [f"{g.n} {len(g.edges)}"]
    for i, j, w in sorted(g.edges):
        text = f"{w:.12g}"
        lines.append(f"{i} {j} {text if float(text) == w else repr(w)}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
