import numpy as np
import pytest
from conftest import count_calls, embed_controlled_oracle, embed_unitary_oracle, random_unitary

from qaffine import (
    GateList,
    HADAMARD,
    InvalidInputError,
    PAULI_X,
    ShapeError,
    UnitarityError,
    apply_gate,
    block,
    cnot,
    dagger,
    gatelist_matrix,
    init_basis,
    inverted,
    phase_gate,
    run_gatelist,
    single,
    with_control,
)


def test_single_gate_matrix_matches_oracle():
    rng = np.random.default_rng(31)
    for q in (1, 2, 4):
        for t in range(q):
            u = random_unitary(rng, 2)
            got = gatelist_matrix(GateList(q, [single(u, t)]))
            assert np.max(np.abs(got - embed_unitary_oracle(u, (t,), q))) <= 1e-13


def test_cnot_gate_matrix_matches_oracle():
    for q in (2, 3):
        for c in range(q):
            for t in range(q):
                if c == t:
                    continue
                got = gatelist_matrix(GateList(q, [cnot(c, t)]))
                ref = embed_controlled_oracle(PAULI_X, (t,), (c,), (1,), q)
                assert np.max(np.abs(got - ref)) == 0.0


def test_cnot_truth_table():
    # control = qubit 1, target = qubit 0 on 2 qubits
    m = gatelist_matrix(GateList(2, [cnot(1, 0)])).real
    expect = np.zeros((4, 4))
    expect[0, 0] = expect[1, 1] = expect[2, 3] = expect[3, 2] = 1.0
    assert np.array_equal(m, expect)


def test_block_gate_matrix_matches_oracle():
    rng = np.random.default_rng(32)
    for _ in range(15):
        q = int(rng.integers(3, 6))
        labels = rng.permutation(q).tolist()
        t = int(rng.integers(1, 3))
        c = int(rng.integers(0, 2))
        targets, controls = tuple(labels[:t]), tuple(labels[t : t + c])
        values = tuple(int(v) for v in rng.integers(0, 2, size=c))
        u = random_unitary(rng, 1 << t)
        g = block(u, targets, controls, values)
        got = gatelist_matrix(GateList(q, [g]))
        if controls:
            ref = embed_controlled_oracle(u, targets, controls, values, q)
        else:
            ref = embed_unitary_oracle(u, targets, q)
        assert np.max(np.abs(got - ref)) <= 1e-13


def test_gatelist_matrix_is_application_order_product():
    rng = np.random.default_rng(33)
    q = 3
    gl = GateList(q)
    dense = np.eye(1 << q, dtype=complex)
    for _ in range(8):
        u = random_unitary(rng, 2)
        t = int(rng.integers(q))
        gl.gates.append(single(u, t))
        dense = embed_unitary_oracle(u, (t,), q) @ dense
    assert np.max(np.abs(gatelist_matrix(gl) - dense)) <= 1e-12


def test_run_gatelist_equals_matrix_action():
    gl = GateList(2, [single(HADAMARD, 1), cnot(1, 0)])
    st = run_gatelist(gl)
    bell = gatelist_matrix(gl)[:, 0]
    assert np.max(np.abs(st.amplitudes - bell)) <= 1e-14
    assert st.amplitudes[0] == pytest.approx(1 / np.sqrt(2))
    assert st.amplitudes[3] == pytest.approx(1 / np.sqrt(2))


def test_with_control_adds_anticontrol():
    g = with_control(single(PAULI_X, 0), 1, value=0)
    assert g.kind == "block"
    ref = embed_controlled_oracle(PAULI_X, (0,), (1,), (0,), 2)
    assert np.max(np.abs(gatelist_matrix(GateList(2, [g])) - ref)) == 0.0
    with pytest.raises(InvalidInputError):
        with_control(g, 1)


def test_with_control_on_cnot_gives_toffoli_block():
    g = with_control(cnot(1, 0), 2)
    m = gatelist_matrix(GateList(3, [g]))
    ref = embed_controlled_oracle(PAULI_X, (0,), (1, 2), (1, 1), 3)
    assert np.max(np.abs(m - ref)) == 0.0


def test_inverted_program_undoes_itself():
    rng = np.random.default_rng(34)
    gates = [
        single(random_unitary(rng, 2), 0),
        cnot(0, 2),
        block(random_unitary(rng, 4), (2, 1), (0,), (1,)),
        single(phase_gate(0.7), 1),
    ]
    gl = GateList(3, gates + inverted(gates))
    assert np.max(np.abs(gatelist_matrix(gl) - np.eye(8))) <= 1e-12


def test_dagger_conjugates_matrix():
    g = dagger(single(phase_gate(0.3), 0))
    assert g.matrix[1, 1] == pytest.approx(np.exp(-0.3j))
    assert dagger(cnot(0, 1)).kind == "cnot"


def test_apply_gate_unknown_kind_and_shape_errors():
    with pytest.raises(ShapeError):
        single(np.eye(4), 0)
    with pytest.raises(ShapeError):
        block(np.eye(4), (0,))
    with pytest.raises(ShapeError):
        block(np.eye(4), (0, 1), (2,), ())
    with pytest.raises(InvalidInputError):
        cnot(1, 1)


def test_apply_gate_routes_all_kinds():
    st = init_basis(2)
    st = apply_gate(st, single(PAULI_X, 1))
    st = apply_gate(st, cnot(1, 0))
    st = apply_gate(st, block(np.eye(2), (0,), (1,), (1,)))
    assert st.amplitudes[3] == pytest.approx(1.0)


def test_gate_matrix_is_checked_when_the_gate_is_built():
    with pytest.raises(UnitarityError):
        single(0.5 * PAULI_X, 0)
    with pytest.raises(UnitarityError):
        block(0.5 * np.eye(4), (1, 0), (2,), (1,))


def test_running_built_gates_checks_no_unitarity(monkeypatch):
    rng = np.random.default_rng(35)
    gates = [
        single(random_unitary(rng, 2), 0),
        cnot(0, 2),
        block(random_unitary(rng, 4), (2, 1), (0,), (1,)),
    ]
    gl = GateList(3, gates + inverted(gates) + [with_control(gates[0], 1, value=0)])
    calls = count_calls(monkeypatch, "is_unitary")
    st = run_gatelist(gl)
    assert calls == []
    assert np.max(np.abs(st.amplitudes - gatelist_matrix(gl)[:, 0])) <= 1e-12


def test_gatelist_matrix_with_cnots_matches_oracle():
    rng = np.random.default_rng(36)
    q = 3
    u = random_unitary(rng, 2)
    gates = [cnot(2, 0), single(u, 1), dagger(cnot(0, 1)), with_control(cnot(1, 2), 0, value=0)]
    refs = [
        embed_controlled_oracle(PAULI_X, (0,), (2,), (1,), q),
        embed_unitary_oracle(u, (1,), q),
        embed_controlled_oracle(PAULI_X, (1,), (0,), (1,), q),
        embed_controlled_oracle(PAULI_X, (2,), (1, 0), (1, 0), q),
    ]
    dense = np.eye(1 << q, dtype=complex)
    for ref in refs:
        dense = ref @ dense
    assert np.max(np.abs(gatelist_matrix(GateList(q, gates)) - dense)) <= 1e-12
