import numpy as np
import pytest
from conftest import random_contraction, random_state_vector, random_unitary

from qaffine import (
    CapacityError,
    GateCountReport,
    GateList,
    HADAMARD,
    PAULI_X,
    ShapeError,
    UnitarityError,
    block,
    cnot,
    compare_methods,
    count_gates,
    gatelist_matrix,
    lower,
    reconstruction_error,
    single,
    synthesize,
)


def test_synthesize_single_qubit_is_exact():
    gl = synthesize(HADAMARD, 1)
    assert reconstruction_error(gl, HADAMARD) <= 1e-12
    assert count_gates(gl).multi_qubit == 0


def test_synthesize_identity_is_empty():
    gl = synthesize(np.eye(4), 2)
    assert gl.gates == []
    assert count_gates(gl) == GateCountReport(0, 0, 0)


def test_synthesize_random_unitaries():
    rng = np.random.default_rng(81)
    for q in (1, 2, 3, 4, 5):
        u = random_unitary(rng, 1 << q)
        gl = synthesize(u, q)
        assert reconstruction_error(gl, u) <= 1e-8
        rep = count_gates(gl)
        assert rep.total == rep.single_qubit + rep.multi_qubit
        # only elementary gates come out
        assert all(g.kind in ("single", "cnot") for g in gl.gates)


def test_synthesize_cnot_matrix():
    u = gatelist_matrix(GateList(2, [cnot(1, 0)]))
    gl = synthesize(u, 2)
    assert reconstruction_error(gl, u) <= 1e-10


def test_synthesis_counts_are_deterministic():
    rng = np.random.default_rng(82)
    u = random_unitary(rng, 8)
    r1 = count_gates(synthesize(u, 3))
    r2 = count_gates(synthesize(u, 3))
    assert r1 == r2


def test_structured_input_prunes_gates():
    rng = np.random.default_rng(83)
    dense = count_gates(synthesize(random_unitary(rng, 8), 3)).total
    diag = count_gates(synthesize(np.kron(np.eye(4), HADAMARD), 3)).total
    assert diag < dense


def test_synthesize_validation():
    with pytest.raises(UnitarityError):
        synthesize(0.5 * np.eye(2), 1)
    with pytest.raises(ShapeError):
        synthesize(np.eye(4), 1)
    with pytest.raises(ShapeError):
        synthesize(np.eye(2), 0)
    with pytest.raises(CapacityError):
        synthesize(np.eye(1 << 6), 6)


def test_count_gates_tallies_kinds():
    gl = GateList(2, [single(HADAMARD, 0), cnot(0, 1), single(PAULI_X, 1)])
    assert count_gates(gl) == GateCountReport(2, 1, 3)


def _aligned(m, target):
    tr = np.trace(target.conj().T @ m)
    phase = tr / abs(tr) if abs(tr) > 1e-12 else 1.0
    return m * np.conj(phase) - target


def test_lower_plain_block():
    rng = np.random.default_rng(84)
    u = random_unitary(rng, 4)
    gl = GateList(3, [block(u, (2, 0))])
    low = lower(gl)
    assert all(g.kind in ("single", "cnot") for g in low.gates)
    assert np.max(np.abs(_aligned(gatelist_matrix(low), gatelist_matrix(gl)))) <= 1e-8


def test_lower_controlled_block():
    rng = np.random.default_rng(85)
    u = random_unitary(rng, 2)
    gl = GateList(3, [block(u, (0,), (2,), (1,)), block(u, (1,), (0,), (0,))])
    low = lower(gl)
    assert all(g.kind in ("single", "cnot") for g in low.gates)
    assert np.max(np.abs(_aligned(gatelist_matrix(low), gatelist_matrix(gl)))) <= 1e-8


def test_lower_keeps_elementary_gates():
    gl = GateList(2, [single(HADAMARD, 0), cnot(0, 1)])
    low = lower(gl)
    assert low.gates == gl.gates


def test_reconstruction_error_detects_mismatch():
    gl = GateList(1, [single(HADAMARD, 0)])
    assert reconstruction_error(gl, HADAMARD) <= 1e-14
    assert reconstruction_error(gl, np.eye(2)) > 0.1


def test_reconstruction_error_ignores_global_phase():
    gl = GateList(1, [single(1j * HADAMARD, 0)])
    assert reconstruction_error(gl, HADAMARD) <= 1e-12


def test_compare_methods_reports():
    rng = np.random.default_rng(86)
    a = random_contraction(rng, 4, high=0.8)
    b = random_state_vector(rng, 4)
    psi = random_state_vector(rng, 4)
    ours, aug = compare_methods(a, b, psi)
    assert ours.total == ours.single_qubit + ours.multi_qubit
    assert aug.total == aug.single_qubit + aug.multi_qubit
    assert ours.total > 0 and aug.total > 0


def test_compare_methods_deterministic():
    rng = np.random.default_rng(87)
    a = random_contraction(rng, 4, high=0.8)
    b = random_state_vector(rng, 4)
    psi = random_state_vector(rng, 4)
    assert compare_methods(a, b, psi) == compare_methods(a, b, psi)


def test_compare_methods_zero_translation():
    rng = np.random.default_rng(88)
    a = random_contraction(rng, 4, high=0.8)
    psi = random_state_vector(rng, 4)
    ours, aug = compare_methods(a, None, psi)
    assert ours.total > 0 and aug.total > 0


def test_compare_methods_requires_4x4():
    with pytest.raises(ShapeError):
        compare_methods(np.eye(2), [1.0, 0.0], [1.0, 0.0])
