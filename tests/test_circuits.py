import numpy as np
import pytest
from conftest import count_calls, embed_controlled_oracle, embed_unitary_oracle, random_unitary

from qaffine import (
    Gate,
    GateList,
    HADAMARD,
    InvalidInputError,
    PAULI_X,
    QubitIndexError,
    SWAP,
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
    with pytest.raises(QubitIndexError):
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
    with pytest.raises(QubitIndexError):  # its target is its control
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


def test_dense_gate_keeps_a_read_only_copy():
    # the matrix checked when the gate is built is the one it runs
    m = np.eye(2, dtype=complex)
    g = single(m, 0)
    m4 = np.eye(4, dtype=complex)
    b = block(m4, (1, 0))
    m[0, 0] = 2.0
    m4[0, 0] = 2.0
    for gate in (g, b):
        assert np.array_equal(gate.matrix, np.eye(gate.matrix.shape[0]))
        assert not gate.matrix.flags.writeable
        with pytest.raises(ValueError):
            gate.matrix[0, 0] = 2.0


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


def test_gatelist_matrix_checks_indices_as_run_gatelist_does():
    # a gate on qubit 3 of 2 once wrapped around to qubit 0: only the
    # register width tells, so running and multiplying out both check it
    gl = GateList(2, [single(HADAMARD, 3)])
    with pytest.raises(QubitIndexError):
        run_gatelist(gl)
    with pytest.raises(QubitIndexError):
        gatelist_matrix(gl)
    # a block controlled by its own target and a float index were once
    # multiplied out when built directly; a gate now refuses them when built
    with pytest.raises(QubitIndexError):
        Gate("block", (0,), (0,), (1,), PAULI_X)
    with pytest.raises(QubitIndexError):
        Gate("single", (1.0,), matrix=PAULI_X)


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: block(PAULI_X, (0,), (0,), (1,)), QubitIndexError),
        (lambda: block(np.eye(4), (1, 1)), QubitIndexError),
        (lambda: block(PAULI_X, (1,), (0, 0), (1, 1)), QubitIndexError),
        (lambda: block(PAULI_X, (1,), (0,), (2,)), InvalidInputError),
        (lambda: with_control(single(PAULI_X, 0), 3, 2), InvalidInputError),
    ],
    ids=["target-is-control", "duplicate-targets", "duplicate-controls", "block-value-2", "with-control-value-2"],
)
def test_gate_builders_refuse_bad_wiring(build, error):
    # each of these once built a gate that raised only when a program
    # holding it was run or multiplied out
    with pytest.raises(error):
        build()


def test_gate_builders_refuse_non_integral_indices():
    # int() truncated these: single(X, 0.9) targeted qubit 0 and a control
    # value of 0.4 was stored as 0
    for build in (
        lambda: single(PAULI_X, 0.9),
        lambda: cnot(0.5, 1),
        lambda: block(PAULI_X, (1.0,)),
        lambda: block(PAULI_X, (1,), (0.2,), (1,)),
        lambda: with_control(single(PAULI_X, 0), 1.5),
    ):
        with pytest.raises(QubitIndexError):
            build()
    with pytest.raises(InvalidInputError):
        block(PAULI_X, (1,), (0,), (0.4,))
    with pytest.raises(InvalidInputError):
        with_control(single(PAULI_X, 0), 1, value=0.5)
    g = block(PAULI_X, (np.int64(1),), (np.int32(0),), (np.uint8(0),))
    assert (g.targets, g.controls, g.control_values) == ((1,), (0,), (0,))
    assert all(type(i) is int for i in g.targets + g.controls + g.control_values)


@pytest.mark.parametrize(
    "matrix, targets, controls, values, error",
    [
        (np.diag([1.0, 2.0]), (0,), (), (), UnitarityError),
        (np.eye(4), (0,), (), (), ShapeError),
        (PAULI_X, (0.5,), (), (), QubitIndexError),
        (np.eye(4), (1, 1), (), (), QubitIndexError),
        (PAULI_X, (0,), (0,), (1,), QubitIndexError),
        (PAULI_X, (1,), (0,), (2,), InvalidInputError),
        (PAULI_X, (1,), (0,), (), ShapeError),
    ],
    ids=["not-unitary", "wrong-shape", "float-index", "repeated-target", "target-is-control", "value-2", "no-value"],
)
def test_a_directly_built_gate_refuses_what_block_refuses(matrix, targets, controls, values, error):
    # building a Gate is its one check: a direct Gate(...) once ran any
    # matrix and wiring it carried
    with pytest.raises(error):
        block(matrix, targets, controls, values)
    with pytest.raises(error):
        Gate("block", targets, controls, values, matrix)
    if not controls:
        with pytest.raises(error):
            Gate("single", targets, matrix=matrix)


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: Gate("single", (1, 0), matrix=SWAP), ShapeError),
        (lambda: Gate("single", (1,), (0,), (1,), PAULI_X), ShapeError),
        (lambda: Gate("cnot", (1,), matrix=PAULI_X), ShapeError),
        (lambda: Gate("cnot", (1, 2), (0,), (1,), SWAP), ShapeError),
        (lambda: Gate("swap", (1, 0), matrix=SWAP), InvalidInputError),
        (lambda: single(PAULI_X, 0)._derive("single", ((1, 0), (), ())), ShapeError),
        (lambda: cnot(0, 1)._derive("cnot", ((1,), (), ())), ShapeError),
        (lambda: single(PAULI_X, 0)._derive("toffoli", ((1,), (0,), (1,))), InvalidInputError),
    ],
    ids=["single-two-targets", "single-controlled", "cnot-no-control", "cnot-two-targets", "unknown-kind",
         "derived-single", "derived-cnot", "derived-unknown"],
)
def test_a_gate_kind_fixes_its_wiring(build, error):
    # Gate("single", (1, 0), matrix=SWAP) once built, and gate counts
    # tallied it as one single-qubit gate
    with pytest.raises(error):
        build()
    assert Gate("cnot", (1,), (0,), (1,), PAULI_X).kind == "cnot"
    assert Gate("block", (2, 1), (0,), (0,), SWAP).kind == "block"
