"""Circuit construction rules: gate validation, QAOA layers, random circuits."""

import math

import numpy as np
import pytest

from ndar import (Circuit, DampingSpec, Gate, IsingModel, QaoaParams, ResourceLimitError,
                  build_random_circuit)
from ndar.circuits import DEPTH_CAP, GATE_KINDS, ONE_QUBIT_GATES, TWO_QUBIT_GATES
from oracles import build_qaoa_circuit


def test_gate_normalizes_and_validates():
    g = Gate("h", (0,))
    assert g.kind == "H" and g.theta is None
    g = Gate("rx", [2], 1.25)
    assert g.targets == (2,) and g.theta == 1.25
    with pytest.raises(ValueError):
        Gate("Q", (0,))
    with pytest.raises(ValueError):
        Gate("H", (0, 1))
    with pytest.raises(ValueError):
        Gate("CX", (0,))
    with pytest.raises(ValueError):
        Gate("CX", (1, 1))
    with pytest.raises(ValueError):
        Gate("RZ", (0,))  # missing angle
    with pytest.raises(ValueError):
        Gate("RZ", (0,), math.nan)
    with pytest.raises(ValueError):
        Gate("X", (0,), 0.5)  # angle on a fixed gate
    with pytest.raises(ValueError):
        Gate("H", (-1,))


def test_circuit_checks_target_range():
    Circuit(2, (Gate("CX", (0, 1)),))
    with pytest.raises(ValueError):
        Circuit(2, (Gate("CX", (0, 2)),))
    with pytest.raises(ValueError):
        Circuit(0, ())


def test_qaoa_params_shape_rules():
    p = QaoaParams((0.1, 0.2), (0.3, 0.4))
    assert p.p == 2
    # angles outside the first period are legal as-is
    assert QaoaParams((-0.152,), (2.041,)).betas == (2.041,)
    with pytest.raises(ValueError):
        QaoaParams((0.1,), (0.3, 0.4))
    with pytest.raises(ValueError):
        QaoaParams((), ())
    with pytest.raises(ValueError):
        QaoaParams((math.inf,), (0.0,))


def test_damping_gamma_values():
    assert DampingSpec(0.0, 180.0).gamma_damp == 0.0
    assert DampingSpec(100.0, 180.0).gamma_damp == pytest.approx(
        1.0 - math.exp(-100.0 / 180.0), abs=1e-15)
    assert DampingSpec(50.0, 180.0).gamma_damp == pytest.approx(0.242535, abs=1e-6)
    assert DampingSpec(100.0, 180.0).gamma_damp == pytest.approx(0.426247, abs=1e-6)
    assert DampingSpec(1e9, 1.0).gamma_damp == 1.0
    assert DampingSpec(1e308, 5e-324).gamma_damp == 1.0  # t_delay / t1 overflows to inf
    with pytest.raises(ValueError):
        DampingSpec(-1.0, 180.0)
    with pytest.raises(ValueError):
        DampingSpec(10.0, 0.0)


def test_qaoa_gate_sequence_single_coupler():
    model = IsingModel(2, (0.0, 0.0), ((0, 1, 1.0),))
    circuit = build_qaoa_circuit(model, QaoaParams((0.4,), (0.3,)))
    kinds = [(g.kind, g.targets, g.theta) for g in circuit.gates]
    assert kinds == [
        ("H", (0,), None),
        ("H", (1,), None),
        ("CX", (0, 1), None),
        ("RZ", (1,), pytest.approx(-0.8, abs=1e-15)),
        ("CX", (0, 1), None),
        ("RX", (0,), pytest.approx(0.6, abs=1e-15)),
        ("RX", (1,), pytest.approx(0.6, abs=1e-15)),
    ]


def test_qaoa_field_terms_and_zero_skip():
    model = IsingModel(2, (0.5, 0.0), ())
    circuit = build_qaoa_circuit(model, QaoaParams((0.7,), (0.1,)))
    rz = [g for g in circuit.gates if g.kind == "RZ"]
    assert len(rz) == 1
    assert rz[0].targets == (0,)
    assert rz[0].theta == pytest.approx(-2.0 * 0.7 * 0.5, abs=1e-15)


def test_qaoa_layer_count_scales_with_p():
    model = IsingModel(3, (1.0, 0.0, -1.0), ((0, 1, 1.0), (1, 2, -2.0)))
    c1 = build_qaoa_circuit(model, QaoaParams((0.1,), (0.2,)))
    c3 = build_qaoa_circuit(model, QaoaParams((0.1,) * 3, (0.2,) * 3))
    per_layer = len(c1.gates) - model.n  # subtract the Hadamard wall
    assert len(c3.gates) == model.n + 3 * per_layer


def test_qaoa_respects_qubit_cap():
    model = IsingModel(23, (0.0,) * 23, ())
    with pytest.raises(ResourceLimitError):
        build_qaoa_circuit(model, QaoaParams((0.1,), (0.2,)))


def test_gate_kinds_keep_the_random_draw_order():
    # build_random_circuit indexes GATE_KINDS with its draws, so this order is its stream
    assert GATE_KINDS == ("H", "X", "Y", "Z", "S", "T", "RX", "RY", "RZ", "CX", "CZ")
    with pytest.raises(ValueError, match="unknown gate kind"):
        Gate("RZZ", (0, 1), 0.1)


def test_random_circuit_touches_every_qubit_each_layer():
    for n, depth, seed in ((1, 3, 0), (2, 2, 1), (5, 4, 2), (9, 3, 3)):
        circuit = build_random_circuit(n, depth, seed)
        counts = np.zeros(n, dtype=int)
        for g in circuit.gates:
            assert g.kind in GATE_KINDS
            if g.kind in TWO_QUBIT_GATES:
                assert len(set(g.targets)) == 2
            if g.theta is not None:
                assert 0.0 <= g.theta < 2.0 * math.pi
            for t in g.targets:
                counts[t] += 1
        assert np.array_equal(counts, np.full(n, depth))


def test_random_circuit_single_qubit_never_draws_entanglers():
    circuit = build_random_circuit(1, 50, 4)
    assert all(len(g.targets) == 1 for g in circuit.gates)
    assert len(circuit.gates) == 50


def test_random_circuit_seed_determinism():
    a = build_random_circuit(6, 3, 11)
    b = build_random_circuit(6, 3, 11)
    c = build_random_circuit(6, 3, 12)
    assert a == b
    assert a != c


def test_random_circuit_eventually_uses_two_qubit_gates():
    kinds = set()
    for seed in range(10):
        kinds |= {g.kind for g in build_random_circuit(6, 4, seed).gates}
    assert "CX" in kinds and "CZ" in kinds


def test_random_circuit_rejects_bad_shape():
    with pytest.raises(ValueError):
        build_random_circuit(0, 2, 0)
    with pytest.raises(ValueError):
        build_random_circuit(3, 0, 0)


def test_random_circuit_depth_cap_refuses_before_building():
    with pytest.raises(ResourceLimitError, match="depth"):
        build_random_circuit(3, DEPTH_CAP + 1, 0)
    assert len(build_random_circuit(1, DEPTH_CAP, 0).gates) == DEPTH_CAP
