"""Gate-level circuit description, QAOA parameters, damping, and the random-circuit builder."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimitError
from .ising import IsingModel

DEFAULT_QUBIT_CAP = 22

# most layers a random circuit may have. The gate list is built whole before it is
# simulated: 1024 layers on 22 qubits made 19,155 gates, 4.7 MiB (tracemalloc), in 1.1 s
DEPTH_CAP = 1 << 10

ONE_QUBIT_GATES = ("H", "X", "Y", "Z", "S", "T", "RX", "RY", "RZ")
TWO_QUBIT_GATES = ("CX", "CZ")
ROTATION_GATES = frozenset({"RX", "RY", "RZ"})
# every gate kind, in the order build_random_circuit draws from them
GATE_KINDS = ONE_QUBIT_GATES + TWO_QUBIT_GATES


@dataclass(frozen=True)
class Gate:
    """One gate application: kind, target qubit indices, optional rotation angle.

    Angle conventions: RX(t) = exp(-i t X / 2), RY(t) = exp(-i t Y / 2),
    RZ(t) = exp(-i t Z / 2). CX takes (control, target); CZ is symmetric.
    """

    kind: str
    targets: tuple[int, ...]
    theta: float | None = None

    def __post_init__(self):
        kind = str(self.kind).upper()
        if kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        targets = tuple(int(t) for t in self.targets)
        arity = 1 if kind in ONE_QUBIT_GATES else 2
        if len(targets) != arity:
            raise ValueError(f"{kind} takes {arity} target(s), got {targets}")
        if len(set(targets)) != len(targets):
            raise ValueError(f"{kind} targets must be distinct, got {targets}")
        if any(t < 0 for t in targets):
            raise ValueError(f"negative qubit index in {targets}")
        if kind in ROTATION_GATES:
            if self.theta is None or not math.isfinite(float(self.theta)):
                raise ValueError(f"{kind} requires a finite angle")
            object.__setattr__(self, "theta", float(self.theta))
        elif self.theta is not None:
            raise ValueError(f"{kind} takes no angle")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "targets", targets)


@dataclass(frozen=True)
class Circuit:
    """Ordered gate sequence on n qubits."""

    n: int
    gates: tuple[Gate, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("circuit needs n >= 1")
        gates = tuple(self.gates)
        for g in gates:
            if max(g.targets) >= self.n:
                raise ValueError(f"gate {g.kind}{g.targets} targets a qubit outside [0, {self.n})")
        object.__setattr__(self, "gates", gates)


@dataclass(frozen=True)
class QaoaParams:
    """Per-layer angles (gamma_l, beta_l); the layer count p is the shared length."""

    gammas: tuple[float, ...]
    betas: tuple[float, ...]

    def __post_init__(self):
        gs = tuple(float(g) for g in self.gammas)
        bs = tuple(float(b) for b in self.betas)
        if len(gs) != len(bs) or not gs:
            raise ValueError("gammas and betas must have equal nonzero length")
        if not all(map(math.isfinite, gs + bs)):
            raise ValueError("angles must be finite")
        object.__setattr__(self, "gammas", gs)
        object.__setattr__(self, "betas", bs)

    @property
    def p(self) -> int:
        return len(self.gammas)


@dataclass(frozen=True)
class QaoaCircuit:
    """A QAOA circuit on the model, kept as its inputs: a Hadamard wall, then per layer the
    cost phase exp(+i gamma E(x)) and RX(2 beta) on every qubit.

    simulate runs it from the model's cost diagonal, so no gate list is built.
    """

    model: IsingModel
    params: QaoaParams


@dataclass(frozen=True)
class DampingSpec:
    """Amplitude damping induced by a delay of t_delay before measurement.

    Both times are in microseconds; the decay probability follows the T1
    relaxation law gamma = 1 - exp(-t_delay / t1).
    """

    t_delay: float
    t1: float

    def __post_init__(self):
        td, t1 = float(self.t_delay), float(self.t1)
        if not (math.isfinite(td) and td >= 0.0):
            raise ValueError(f"t_delay must be finite and >= 0, got {self.t_delay}")
        if not (math.isfinite(t1) and t1 > 0.0):
            raise ValueError(f"t1 must be finite and > 0, got {self.t1}")
        object.__setattr__(self, "t_delay", td)
        object.__setattr__(self, "t1", t1)

    @property
    def gamma_damp(self) -> float:
        """Decay probability of a 1-bit during the delay: 1 - exp(-t_delay / t1), in [0, 1]."""
        return 1.0 - math.exp(-self.t_delay / self.t1)


def check_qubits(n: int) -> None:
    """Refuse a statevector of more than DEFAULT_QUBIT_CAP qubits before allocating it."""
    if n > DEFAULT_QUBIT_CAP:
        raise ResourceLimitError(f"a statevector of {n} qubits exceeds the cap {DEFAULT_QUBIT_CAP}")


def check_depth(depth: int) -> None:
    """Refuse random circuits of no layers or deeper than DEPTH_CAP before building a gate."""
    if depth < 1:
        raise ValueError(f"random circuit depth must be >= 1, got {depth}")
    if depth > DEPTH_CAP:
        raise ResourceLimitError(f"random circuit depth {depth} exceeds the cap {DEPTH_CAP}")


def build_random_circuit(n: int, depth: int, seed: int) -> Circuit:
    """Random circuit of `depth` layers; every qubit receives a gate in each layer.

    A layer visits qubits in random order and assigns each a uniform draw from
    GATE_KINDS; a two-qubit gate consumes the next unassigned qubit as its
    partner, and when no partner remains the qubit draws again from
    ONE_QUBIT_GATES. Rotation angles are uniform in [0, 2 pi). Deterministic
    given seed.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    check_depth(depth)
    rng = np.random.default_rng(seed)
    gates = []
    for _ in range(depth):
        pending = list(rng.permutation(n))
        while pending:
            q = int(pending.pop(0))
            kind = GATE_KINDS[rng.integers(len(GATE_KINDS))]
            if kind in TWO_QUBIT_GATES and not pending:
                kind = ONE_QUBIT_GATES[rng.integers(len(ONE_QUBIT_GATES))]
            if kind in TWO_QUBIT_GATES:
                partner = int(pending.pop(0))
                targets = (q, partner)
            else:
                targets = (q,)
            theta = float(rng.uniform(0.0, 2.0 * math.pi)) if kind in ROTATION_GATES else None
            gates.append(Gate(kind, targets, theta))
    return Circuit(n, tuple(gates))
