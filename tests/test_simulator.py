import numpy as np
import pytest
from conftest import (
    embed_controlled_oracle,
    embed_unitary_oracle,
    random_state_vector,
    random_unitary,
)

from qaffine import (
    CapacityError,
    NormalizationError,
    QubitIndexError,
    ShapeError,
    UnitarityError,
    apply_unitary,
    init_amplitudes,
    init_basis,
    prepend_ancilla,
    sample,
)
from qaffine.simulator import QuantumState

X = np.array([[0, 1], [1, 0]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def test_init_basis():
    st = init_basis(3)
    assert st.dim == 8
    assert st.amplitudes[0] == 1.0
    assert np.count_nonzero(st.amplitudes) == 1


def test_init_basis_capacity():
    with pytest.raises(CapacityError):
        init_basis(0)
    with pytest.raises(CapacityError):
        init_basis(25)


def test_init_amplitudes_renormalizes():
    v = np.array([1.0, 1.0]) / np.sqrt(2) * (1 + 5e-9)
    st = init_amplitudes(v)
    assert st.norm() == pytest.approx(1.0, abs=1e-15)


def test_init_amplitudes_rejects():
    with pytest.raises(ShapeError):
        init_amplitudes([1.0, 0.0, 0.0])
    with pytest.raises(NormalizationError):
        init_amplitudes([1.0, 1.0])


def test_qubit_ordering_msb():
    # flipping qubit 1 of a 2-qubit register moves |00> to |10> = index 2
    st = init_basis(2)
    st = apply_unitary(st, X, (1,))
    assert st.amplitudes[2] == 1.0
    st = init_basis(2)
    st = apply_unitary(st, X, (0,))
    assert st.amplitudes[1] == 1.0


def test_target_order_defines_local_msb():
    # CNOT-like permutation applied to (1, 0) vs (0, 1) on |01>
    perm = np.zeros((4, 4))
    perm[0, 0] = perm[1, 1] = perm[2, 3] = perm[3, 2] = 1.0  # X on local LSB if local MSB set
    st = init_basis(2)
    st = apply_unitary(st, X, (1,))  # |10>
    a = apply_unitary(st, perm, (1, 0))  # control = qubit 1 -> flips qubit 0
    assert a.amplitudes[3] == pytest.approx(1.0)
    b = apply_unitary(st, perm, (0, 1))  # control = qubit 0 (off) -> no-op
    assert b.amplitudes[2] == pytest.approx(1.0)


def test_apply_unitary_matches_dense_oracle():
    rng = np.random.default_rng(21)
    for _ in range(25):
        q = int(rng.integers(2, 6))
        t = int(rng.integers(1, min(q, 3) + 1))
        targets = tuple(rng.permutation(q)[:t].tolist())
        u = random_unitary(rng, 1 << t)
        psi = random_state_vector(rng, 1 << q)
        st = apply_unitary(init_amplitudes(psi), u, targets)
        ref = embed_unitary_oracle(u, targets, q) @ psi
        assert np.max(np.abs(st.amplitudes - ref)) <= 1e-12


def test_apply_controlled_matches_dense_oracle():
    rng = np.random.default_rng(22)
    for _ in range(25):
        q = int(rng.integers(2, 6))
        labels = rng.permutation(q).tolist()
        t = int(rng.integers(1, min(q - 1, 2) + 1))
        c = int(rng.integers(1, min(q - t, 2) + 1))
        targets, controls = tuple(labels[:t]), tuple(labels[t : t + c])
        values = tuple(int(v) for v in rng.integers(0, 2, size=c))
        u = random_unitary(rng, 1 << t)
        psi = random_state_vector(rng, 1 << q)
        st = apply_unitary(init_amplitudes(psi), u, targets, controls, values)
        ref = embed_controlled_oracle(u, targets, controls, values, q) @ psi
        assert np.max(np.abs(st.amplitudes - ref)) <= 1e-12


def test_apply_controlled_anticontrol():
    # X on qubit 0 only when qubit 1 is |0>
    st = init_basis(2)
    st = apply_unitary(st, X, (0,), (1,), (0,))
    assert st.amplitudes[1] == pytest.approx(1.0)


def test_apply_unitary_validation():
    st = init_basis(2)
    with pytest.raises(UnitarityError):
        apply_unitary(st, 0.5 * X, (0,))
    with pytest.raises(ShapeError):
        apply_unitary(st, X, (0, 1))
    with pytest.raises(QubitIndexError):
        apply_unitary(st, X, (2,))
    with pytest.raises(QubitIndexError):
        apply_unitary(st, X, (0,), (0,), (1,))


def test_apply_unitary_then_adjoint_restores_state():
    rng = np.random.default_rng(26)
    for _ in range(10):
        q = int(rng.integers(2, 6))
        t = int(rng.integers(1, 3))
        targets = tuple(rng.permutation(q)[:t].tolist())
        u = random_unitary(rng, 1 << t)
        psi = random_state_vector(rng, 1 << q)
        st = init_amplitudes(psi)
        st = apply_unitary(apply_unitary(st, u, targets), u.conj().T, targets)
        assert np.max(np.abs(st.amplitudes - psi)) <= 1e-12


def test_norm_preserved_over_random_circuit():
    rng = np.random.default_rng(23)
    st = init_amplitudes(random_state_vector(rng, 16))
    for _ in range(50):
        u = random_unitary(rng, 2)
        st = apply_unitary(st, u, (int(rng.integers(4)),))
    assert abs(st.norm() - 1.0) <= 1e-12


def test_prepend_ancilla():
    rng = np.random.default_rng(24)
    psi = random_state_vector(rng, 4)
    st = prepend_ancilla(init_amplitudes(psi))
    assert st.num_qubits == 3
    assert np.max(np.abs(st.amplitudes[:4] - psi)) == 0.0
    assert np.max(np.abs(st.amplitudes[4:])) == 0.0


def test_sample_deterministic_for_seed():
    rng = np.random.default_rng(25)
    st = init_amplitudes(random_state_vector(rng, 8))
    h1 = sample(st, 5000, seed=123)
    h2 = sample(st, 5000, seed=123)
    assert h1.counts == h2.counts
    assert sum(h1.counts.values()) == 5000


def test_sample_frequencies_track_probabilities():
    st = init_amplitudes([np.sqrt(0.75), 0.5])
    h = sample(st, 200_000, seed=9)
    freq = h.counts.get(0, 0) / h.shots
    sigma = np.sqrt(0.75 * 0.25 / h.shots)
    assert abs(freq - 0.75) <= 5 * sigma


def test_sample_basis_state_is_certain():
    h = sample(init_basis(3), 1000, seed=4)
    assert h.counts == {0: 1000}


def test_norm_drift_raises_normalization_error():
    # a register built by hand with norm 2: the output-norm check must raise
    # a typed error (it was a bare assert, gone under python -O)
    st = QuantumState(2, np.array([2.0, 0.0, 0.0, 0.0], dtype=complex))
    with pytest.raises(NormalizationError):
        apply_unitary(st, H, (0,))
    with pytest.raises(NormalizationError):
        apply_unitary(st, X, (0,), (1,), (0,))
