"""Exact statevector simulation, Born sampling, the amplitude-damping channel as bit decay,
and the single-layer QAOA grid search, which reads a closed form and builds no state.

Born sampling is split in two: born_tree builds the pairwise sums of |amplitude|^2 once
per state, in the state's own buffer, and sample descends them in any gauge frame m,
where outcome k has the probability of k ^ m, so one tree serves every draw of every frame.

Statevector indexing is little-endian: the amplitude at flat index x describes
the bitstring whose bit i (qubit i) equals (x >> i) & 1.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .circuits import Circuit, Gate, QaoaCircuit, QaoaParams, check_qubits
from .errors import ResourceLimitError
from .ising import IsingModel, cost_blocks

_SQ2 = 1.0 / math.sqrt(2.0)
_WORD = 1 << 32

# points per grid_scan axis; refused before allocating, as a 256 x 256 grid is 65,536 rows
GRID_STEPS_CAP = 256

# largest grid bound: beyond 2^52 floats lie 1 or more apart, so no angle is resolved there
ANGLE_BOUND = 2.0 ** 52

# floats per (edges, n) temporary of the closed form, 0.5 MB; on dense n = 300, blocks of
# 2^20 floats ran 1.6x slower
_EDGE_CHUNK = 1 << 16

# qubits per block of _rotate: one (2^5 x 2^5) matrix product replaces five per-qubit
# passes over the state
_MIXER_BLOCK = 5

# complex entries of the one scratch buffer (256 KiB) through which the statevector
# kernels work in place, a block at a time; at least 2^_MIXER_BLOCK
_SCRATCH = 1 << 14


def _one_qubit_matrix(kind: str, theta: float | None) -> np.ndarray:
    c, s = (1.0, 0.0) if theta is None else (math.cos(theta / 2.0), math.sin(theta / 2.0))
    rows = {
        "H": [[_SQ2, _SQ2], [_SQ2, -_SQ2]],
        "X": [[0, 1], [1, 0]],
        "Y": [[0, -1j], [1j, 0]],
        "Z": [[1, 0], [0, -1]],
        "S": [[1, 0], [0, 1j]],
        "T": [[1, 0], [0, np.exp(1j * math.pi / 4.0)]],
        "RX": [[c, -1j * s], [-1j * s, c]],
        "RY": [[c, -s], [s, c]],
        "RZ": [[complex(c, -s), 0], [0, complex(c, s)]],
    }
    return np.array(rows[kind], dtype=np.complex128)


def _blocks(shape: tuple, size: int):
    """Index tuples whose blocks cover an array of `shape`, each at most `size` entries:
    the trailing axes that fit whole, a run of indices along the axis before them, and
    one index on each earlier axis."""
    axis, inner = len(shape), 1
    while axis and inner * shape[axis - 1] <= size:
        axis -= 1
        inner *= shape[axis]
    if axis == 0:
        yield ()
        return
    step = size // inner
    for outer in np.ndindex(*shape[:axis - 1]):
        for start in range(0, shape[axis - 1], step):
            yield outer + (slice(start, start + step),)


def _rotate(psi: np.ndarray, mats: list, scratch: np.ndarray) -> None:
    """Apply mats[q] to qubit q for every q, in place, where None leaves the qubit alone.

    Qubits go _MIXER_BLOCK at a time: the k qubits from q on take one matrix product with
    the Kronecker product of their matrices on a (-1, 2^k, 2^q) view of the state (rows
    times its transpose at q = 0). The block's top qubit is its most significant bit, so
    the product takes the matrices in reversed order. A block of only None is skipped.
    The view goes through `scratch` in blocks of whole 2^k axes, which are rows at q = 0,
    runs of the leading axis, or runs of columns where one (2^k, 2^q) slab exceeds it.
    """
    for q in range(0, len(mats), _MIXER_BLOCK):
        block = mats[q:q + _MIXER_BLOCK]
        if all(u is None for u in block):
            continue
        k = len(block)
        m = functools.reduce(np.kron, [np.eye(2) if u is None else u for u in reversed(block)])
        view = psi.reshape(-1, 1 << k, 1 << q)
        for idx in _blocks(view[:, 0].shape, scratch.size >> k):
            idx = idx[:1] + (slice(None),) + idx[1:]
            src = view[idx]
            out = scratch[:src.size].reshape(src.shape)
            if q == 0:
                np.matmul(src[..., 0], m.T, out=out[..., 0])
            else:
                np.matmul(m, src, out=out)
            view[idx] = out


def _two_qubit(psi: np.ndarray, gate: Gate, scratch: np.ndarray) -> None:
    """Apply a CX or CZ gate to the state in place.

    Each acts on the quarter-state slices fixed by the bits of its two qubits: a CX swaps
    the two whose control bit is 1, and a CZ negates the one whose bits are both 1.
    A slice goes through half of `scratch` a block at a time, because numpy would buffer
    an operation on it, or copy one slice into another through a temporary as they may
    overlap.
    """
    a, _ = gate.targets
    lo, hi = sorted(gate.targets)
    v = psi.reshape(-1, 2, 1 << (hi - lo - 1), 2, 1 << lo)

    def quarter(i, j):  # where gate.targets[0] has bit i and gate.targets[1] bit j
        return v[:, i, :, j] if a == hi else v[:, j, :, i]

    half = scratch.size // 2
    for idx in _blocks(v[:, 0, :, 0].shape, half):
        if gate.kind == "CX":
            x, y = quarter(1, 0)[idx], quarter(1, 1)[idx]
            tx, ty = _copy_into(scratch, x), _copy_into(scratch[half:], y)
            x[...] = ty
            y[...] = tx
        else:
            z = quarter(1, 1)[idx]
            t = _copy_into(scratch, z)
            t *= -1.0
            z[...] = t


def _copy_into(buf: np.ndarray, z: np.ndarray) -> np.ndarray:
    """A copy of z in the front of buf, with z's shape."""
    t = buf[:z.size].reshape(z.shape)
    t[...] = z
    return t


def simulate(circuit: Circuit | QaoaCircuit) -> np.ndarray:
    """Apply the circuit to |0...0> and return the 2^n statevector (complex128).

    A QaoaCircuit runs from its model's cost diagonal (qaoa_state). A Circuit keeps one
    pending 2 x 2 matrix per qubit, into which each one-qubit gate is multiplied. A
    two-qubit gate on a qubit with a pending matrix first applies all pending matrices in
    one _rotate pass; CX and CZ then act in place (_two_qubit). A last _rotate
    applies what is still pending. Beyond the state, only the _SCRATCH buffer is held,
    and for a QaoaCircuit the cost stream's blocks.
    """
    if isinstance(circuit, QaoaCircuit):
        return qaoa_state(circuit.model, circuit.params)
    n = circuit.n
    check_qubits(n)
    psi = np.zeros(1 << n, dtype=np.complex128)
    psi[0] = 1.0
    scratch = np.empty(min(_SCRATCH, psi.size), dtype=np.complex128)
    pending = [None] * n
    for gate in circuit.gates:
        kind = gate.kind
        if len(gate.targets) == 1:
            t = gate.targets[0]
            u = _one_qubit_matrix(kind, gate.theta)
            pending[t] = u if pending[t] is None else u @ pending[t]
            continue
        if any(pending[t] is not None for t in gate.targets):
            _rotate(psi, pending, scratch)
            pending = [None] * n
        _two_qubit(psi, gate, scratch)
    _rotate(psi, pending, scratch)
    return psi


def born_tree(state: np.ndarray) -> list[np.ndarray]:
    """The levels of pairwise sums of unnormalised probabilities, from which sample draws.

    Level 0 holds |amplitude|^2 and level b holds 2^(n-b) sums, each built as
    a[0::2] + a[1::2] from the level a below, so entry f of level b sums the level-0
    entries in [f 2^b, (f + 1) 2^b) and level n holds the total. A complex `state`, as
    simulate returns it, becomes its tree: level 0, made a _SCRATCH block at a time,
    fills the front half of its float buffer and levels 1..n the back half. A real
    `state` holds the probabilities: it is level 0, and levels 1..n fill one new buffer.
    Raises ValueError unless there are 2^n >= 2 entries with a finite positive total:
    for |amplitude|^2 >= 0 that catches any NaN or inf and the all-zero state.
    """
    a = np.asarray(state).reshape(-1)
    if a.size < 2 or a.size & (a.size - 1):
        raise ValueError(f"{a.size} probabilities are not a power of two >= 2")
    if np.iscomplexobj(a):
        buf = np.ascontiguousarray(a, dtype=np.complex128).view(np.float64)
        scratch = np.empty(min(_SCRATCH, a.size))
        for start in range(0, a.size, scratch.size):  # amplitudes are read before overwritten
            np.abs(a[start:start + scratch.size], out=scratch)
            scratch *= scratch
            buf[start:start + scratch.size] = scratch
        a, rest = buf[:a.size], buf[a.size:]
    else:
        rest = np.empty(a.size - 1, dtype=a.dtype)
    levels = [a]
    while a.size > 1:
        a, rest = np.add(a[0::2], a[1::2], out=rest[:a.size // 2]), rest[a.size // 2:]
        levels.append(a)
    if not (math.isfinite(a[0]) and a[0] > 0.0):
        raise ValueError(f"probabilities must have a finite positive total, got {a[0]}")
    return levels


def sample(tree: list[np.ndarray], shots: int, seed, mask: int = 0) -> np.ndarray:
    """Draw `shots` bitstrings from a born_tree in the gauge frame `mask`, returned as a
    (shots, n) uint8 matrix: row bits k come with probability tree[0][k ^ mask] / total.

    Bit i of each row corresponds to qubit i. `seed` is an int or a Generator, which the
    draw advances by `shots` uniforms; rows are drawn in order, so consecutive draws on
    one Generator equal one whole draw. Each uniform u becomes t = u * total, which
    descends from the root: on level b - 1 the row takes bit b - 1 = 1, and t less the
    left child's sum, when t is at least that sum and the right child's sum is positive,
    so no outcome of probability 0 is drawn. The row is the one Generator.choice draws
    on the same uniform unless u lies within rounding of a cumulative boundary, where
    the two add in different orders: a chance below about 2^n 2^-52 per draw.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    n = len(tree) - 1
    t = np.random.default_rng(seed).random(shots)
    t *= tree[n][0]
    rows = np.empty((shots, n), dtype=np.uint8)
    node = np.zeros(shots, dtype=np.intp)  # tree node f ^ (mask >> b) of frame node f
    for b in range(n, 0, -1):
        below = tree[b - 1]
        node <<= 1
        node ^= (mask >> (b - 1)) & 1  # the left child, (2f) ^ (mask >> (b - 1))
        left = below[node]
        right = below[node ^ 1] > 0.0
        right &= t >= left
        np.subtract(t, left, out=t, where=right)
        node ^= right
        rows[:, b - 1] = right
    return rows


def bernoulli(rng: np.random.Generator, p: float, shape) -> np.ndarray:
    """Booleans of the given shape, each True with probability round(p * 2^32) / 2^32.

    Entry k (row-major) is True when 32-bit word k is below round(p * 2^32). The words
    are rng.bit_generator.random_raw outputs split in two, low half first; an odd count
    leaves the last high half unused. So p = 0 and p = 1 are exact, any other p is off by
    at most 2^-33, and consecutive draws of an even number of entries equal one whole draw.
    """
    count = math.prod(shape)
    raw = rng.bit_generator.random_raw((count + 1) // 2).astype("<u8", copy=False)
    words = raw.view("<u4")[:count].reshape(shape)
    threshold = round(p * _WORD)
    if threshold == _WORD:
        return np.ones(shape, dtype=bool)
    return words < np.uint32(threshold)


def apply_decay(samples: np.ndarray, gamma: float, seed) -> np.ndarray:
    """Flip each 1-bit to 0 independently with probability gamma; 0-bits never change.

    The flips are `bernoulli(gamma)` draws, one per entry of `samples` in row-major
    order. `seed` is an int or a Generator, which the draw advances. The result is
    written into the draw's own buffer, so `samples` may be a read-only view.
    """
    if not (0.0 <= gamma <= 1.0):
        raise ValueError(f"gamma must lie in [0, 1], got {gamma}")
    X = np.asarray(samples, dtype=np.uint8)
    keep = bernoulli(np.random.default_rng(seed), gamma, X.shape)
    np.logical_not(keep, out=keep)
    out = keep.view(np.uint8)
    out &= X
    return out


def _cost_phase(psi: np.ndarray, model: IsingModel, gamma: float, scratch: np.ndarray) -> None:
    """Multiply psi by exp(i gamma (E(x) - offset)), in place, from one pass of cost_blocks
    in pieces of at most scratch.size entries. Each piece's real part is written through
    the scratch's real view, as a float-to-complex output would take a cast buffer."""
    a = 0
    for block in cost_blocks(model):
        for b in range(0, block.size, scratch.size):
            piece = block[b:b + scratch.size]
            t = scratch[:piece.size]
            np.subtract(piece, model.offset, out=t.real)
            t.imag = 0.0
            t *= 1j * gamma
            np.exp(t, out=t)
            psi[a:a + t.size] *= t
            a += t.size


def qaoa_state(model: IsingModel, params: QaoaParams) -> np.ndarray:
    """QAOA statevector from the model's cost diagonal, starting from the uniform superposition.

    Each layer multiplies by exp(i gamma (E(x) - offset)), the product over fields of
    exp(i gamma h_i s_i) and over couplings of exp(i gamma J_ij s_i s_j), with spin
    s_i = 1 - 2 x_i (_cost_phase, so no 2^n energy array exists). It then rotates every
    qubit by RX(2 beta) = cos(beta) I - i sin(beta) X in one _rotate pass.
    The rotation is built from beta itself, not from _one_qubit_matrix("RX", 2 beta),
    because 2 beta overflows for |beta| > 8.9e307, which QaoaParams accepts.
    """
    n = model.n
    check_qubits(n)
    psi = np.full(1 << n, 2.0 ** (-0.5 * n), dtype=np.complex128)
    scratch = np.empty(min(_SCRATCH, psi.size), dtype=np.complex128)
    for gamma, beta in zip(params.gammas, params.betas):
        _cost_phase(psi, model, gamma, scratch)
        c, s = math.cos(beta), -1j * math.sin(beta)
        rx = np.array([[c, s], [s, c]])
        _rotate(psi, [rx] * n, scratch)
    return psi


def _p1_coefficients(model: IsingModel, gamma: float) -> tuple[float, float, float]:
    """(A, B, D) of the single-layer expectation offset + sin 2b A + sin 4b B - sin^2 2b D.

    The closed form of Ozaeta, van Dam and McMahon (arXiv:2012.03421), with g = -gamma
    because qaoa_state's phase exp(+i gamma (E - offset)) is theirs with gamma -> -gamma.
    With c_uw = cos 2g J_uw and s_uw = sin 2g J_uw, summing over edges (u, v):

      A = sum_u h_u sin(2g h_u) prod_{w != u} c_uw
      B = sum J_uv / 2 sin(2g J_uv) [cos(2g h_u) prod_{w != u,v} c_uw + (u <-> v)]
      D = sum J_uv / 2 [cos 2g(h_u + h_v) prod_{w != u,v} (c_uw c_vw - s_uw s_vw)
                        - cos 2g(h_u - h_v) prod_{w != u,v} (c_uw c_vw + s_uw s_vw)]

    The products over w != u, v take rows of c with the u and v entries set to 1, so c_uv,
    6e-17 at g = pi/2 and J = 1/2, is never divided out. Edges go in blocks of
    _EDGE_CHUNK // n, so each temporary holds about _EDGE_CHUNK floats.
    """
    g, h = -gamma, model.h
    ci, cj, cw = model.couplings.arrays
    angle = 2.0 * g * model.coupling_matrix
    c, s = np.cos(angle), np.sin(angle)
    a = float(h @ (np.sin(2.0 * g * h) * c.prod(axis=1)))
    b = d = 0.0
    block = max(1, _EDGE_CHUNK // model.n)
    for start in range(0, cw.size, block):
        u, v, J = ci[start:start + block], cj[start:start + block], cw[start:start + block]
        r = np.arange(u.size)
        cu, cv = c[u], c[v]
        cu[r, v] = 1.0  # c_uu = cos 0 = 1 already
        cv[r, u] = 1.0
        hu, hv = h[u], h[v]
        b += float((0.5 * J * np.sin(2.0 * g * J)) @ (np.cos(2.0 * g * hu) * cu.prod(axis=1)
                                                      + np.cos(2.0 * g * hv) * cv.prod(axis=1)))
        cu *= cv
        del cv  # so at most three blocks are live at once
        # s_uu = s_vv = 0, so the u and v entries of ss are 0 and of cu -+ ss stay 1
        ss = s[u]
        ss *= s[v]
        plus = cu - ss
        cu += ss
        d += float((0.5 * J) @ (np.cos(2.0 * g * (hu + hv)) * plus.prod(axis=1)
                                - np.cos(2.0 * g * (hu - hv)) * cu.prod(axis=1)))
    return a, b, d


def check_grid(steps: int, gamma_range: tuple[float, float],
               beta_range: tuple[float, float]) -> None:
    """Refuse an empty grid or a bound beyond +-ANGLE_BOUND (ValueError) and more than
    GRID_STEPS_CAP steps (ResourceLimitError), before anything is allocated."""
    if steps < 1:
        raise ValueError("empty parameter grid: steps must be >= 1")
    if not all(abs(v) <= ANGLE_BOUND for v in (*gamma_range, *beta_range)):
        raise ValueError(f"grid bounds must lie in [-2^52, 2^52], got {gamma_range}, {beta_range}")
    if steps > GRID_STEPS_CAP:
        raise ResourceLimitError(f"parameter grid capped at {GRID_STEPS_CAP} steps per axis, "
                                 f"got {steps}")


def grid_scan(model: IsingModel,
              gamma_range: tuple[float, float] = (-math.pi / 2.0, math.pi / 2.0),
              beta_range: tuple[float, float] = (-math.pi / 4.0, math.pi / 4.0),
              steps: int = 20) -> tuple[QaoaParams, float, list]:
    """Single-layer grid scan of the QAOA expectation over steps x steps points.

    Grid points are inclusive linspaces over the two ranges, scanned gamma-major.
    Returns (best params, best value, landscape rows of (gamma, beta, value)).
    Each value is the closed form of _p1_coefficients, which equals the statevector mean
    energy up to rounding but builds no 2^n state, so any n the node cap admits is scanned;
    one evaluation per gamma serves the whole row over beta. Every gamma = 0 or
    beta = 0 point gives exactly the offset (the uniform distribution's mean), so
    symmetric grids hold exact ties: the best point is the first in scan order within
    1e-12 * max(1, |min|) of the minimum, a choice rounding noise cannot flip.
    The grid must pass check_grid, and a landscape with a value that is not finite
    (gamma times a weight near the float maximum overflows) is refused with ValueError.
    """
    check_grid(steps, gamma_range, beta_range)
    gammas = np.linspace(gamma_range[0], gamma_range[1], steps)
    betas = np.linspace(beta_range[0], beta_range[1], steps)
    s2, s4 = np.sin(2.0 * betas), np.sin(4.0 * betas)
    values = np.empty((steps, steps))
    with np.errstate(over="ignore", invalid="ignore"):  # refused below instead
        for k, g in enumerate(gammas):
            a, b, d = _p1_coefficients(model, float(g))
            values[k] = model.offset + s2 * a + s4 * b - s2 * s2 * d
    if not np.isfinite(values).all():
        raise ValueError(f"landscape not finite over gamma in {gamma_range}, beta in {beta_range}")
    rows = [(float(g), float(beta), float(v))
            for g, row in zip(gammas, values) for beta, v in zip(betas, row)]
    values = values.ravel()
    lowest = values.min()
    k = int(np.argmax(values <= lowest + 1e-12 * max(1.0, abs(lowest))))
    return QaoaParams((rows[k][0],), (rows[k][1],)), rows[k][2], rows
