import numpy as np
import pytest
from conftest import random_state_vector, random_unitary

from qaffine import (
    GateList,
    InvalidInputError,
    MissingWitnessError,
    NormalizationError,
    PreconditionError,
    ShapeError,
    apply_gates,
    block,
    hadamard_addsub_fresh,
    hadamard_addsub_inplace,
    init_amplitudes,
    init_basis,
    run_gatelist,
    single,
)
from qaffine.linalg import state_preparation


def test_fresh_worked_example():
    res = hadamard_addsub_fresh([1.0, 0.0], [0.0, 1.0])
    assert np.allclose(res.state.amplitudes, [0.5, 0.5, 0.5, -0.5], atol=1e-14)
    assert res.sum_indices.tolist() == [0, 1]
    assert res.diff_indices.tolist() == [2, 3]


def test_fresh_matches_elementwise_arithmetic():
    rng = np.random.default_rng(51)
    for _ in range(40):
        dim = int(2 ** rng.integers(1, 6))
        a = random_state_vector(rng, dim)
        b = random_state_vector(rng, dim)
        res = hadamard_addsub_fresh(a, b)
        amps = res.state.amplitudes
        assert np.max(np.abs(amps[:dim] - (a + b) / 2)) <= 1e-12
        assert np.max(np.abs(amps[dim:] - (a - b) / 2)) <= 1e-12
        assert abs(res.state.norm() - 1.0) <= 1e-12


def test_inplace_abstract_worked_example():
    st = init_amplitudes([0.8, 0.6])
    out = hadamard_addsub_inplace(st, [0.6, 0.8])
    assert np.allclose(out.amplitudes, [0.7, 0.7, 0.1, -0.1], atol=1e-14)


def test_inplace_matches_elementwise_arithmetic():
    rng = np.random.default_rng(52)
    for _ in range(40):
        dim = int(2 ** rng.integers(1, 6))
        phi = random_state_vector(rng, dim)
        b = random_state_vector(rng, dim)
        out = hadamard_addsub_inplace(init_amplitudes(phi), b)
        assert np.max(np.abs(out.amplitudes[:dim] - (phi + b) / 2)) <= 1e-12
        assert np.max(np.abs(out.amplitudes[dim:] - (phi - b) / 2)) <= 1e-12


def _two_pass_addsub(phi, b_tilde):
    """The abstract add/sub as three passes over a fresh register: renormalize
    b~, write phi + b~ and phi - b~, halve both."""
    b = np.asarray(b_tilde, dtype=np.complex128)
    b = b / np.linalg.norm(b)
    out = np.empty((2, phi.shape[0]), dtype=np.complex128)
    np.add(phi, b, out=out[0])
    np.subtract(phi, b, out=out[1])
    out *= 0.5
    return out.reshape(-1)


def test_inplace_abstract_is_the_halved_sum_bit_for_bit():
    # the fold writes phi/2 +- b~/2; halving is exact, so this is
    # (phi +- b~) * 0.5 to the last bit (portfolio amplitudes depend on it)
    rng = np.random.default_rng(54)
    for i in range(240):
        dim = int(2 ** rng.integers(1, 11))
        phi = random_state_vector(rng, dim)
        b = random_state_vector(rng, dim) * (1.0 + rng.uniform(-1e-8, 1e-8))
        if i % 3 == 0:
            b = b.real / np.linalg.norm(b.real)
        st = init_amplitudes(phi)
        out = hadamard_addsub_inplace(st, b)
        assert np.array_equal(out.amplitudes, _two_pass_addsub(st.amplitudes, b))


def test_abstract_and_physical_agree():
    rng = np.random.default_rng(53)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        u = random_unitary(rng, 2)
        witness = GateList(n, [single(u, t) for t in range(n)])
        st = apply_gates(init_basis(n), witness.gates)
        b = random_state_vector(rng, st.dim)
        out_a = hadamard_addsub_inplace(st, b, mode="abstract")
        out_p = hadamard_addsub_inplace(st, b, mode="physical", circuit_so_far=witness)
        # both modes fold; physical mode also replays the extended witness
        assert np.array_equal(out_a.amplitudes, out_p.amplitudes)
        assert witness.qubit_count == n + 1
        assert np.max(np.abs(run_gatelist(witness).amplitudes - out_p.amplitudes)) <= 1e-12


def test_sum_and_diff_halves_reconstruct_operands():
    # (phi+b)/2 + (phi-b)/2 = phi and their difference recovers b
    rng = np.random.default_rng(54)
    phi = random_state_vector(rng, 8)
    b = random_state_vector(rng, 8)
    out = hadamard_addsub_inplace(init_amplitudes(phi), b)
    s, d = out.amplitudes[:8], out.amplitudes[8:]
    assert np.max(np.abs((s + d) - phi)) <= 1e-12
    assert np.max(np.abs((s - d) - b)) <= 1e-12


def test_physical_requires_witness():
    st = init_basis(1)
    with pytest.raises(MissingWitnessError):
        hadamard_addsub_inplace(st, [1.0, 0.0], mode="physical")


def test_physical_rejects_stale_witness():
    st = init_amplitudes([0.0, 1.0])
    witness = GateList(1, [])  # prepares |0>, not |1>
    with pytest.raises(PreconditionError):
        hadamard_addsub_inplace(st, [1.0, 0.0], mode="physical", circuit_so_far=witness)


def test_failed_physical_call_leaves_the_witness_unchanged(monkeypatch):
    # a stale witness, or stage gates without their closing Hadamard (they
    # prepare another state, and the replay checks them before they are
    # committed): the call raises and the caller's witness stays as it was
    import qaffine.addsub

    rng = np.random.default_rng(55)
    st = init_amplitudes(random_state_vector(rng, 4))
    b = random_state_vector(rng, 4)
    stale = GateList(2, [])  # it prepares |00>
    fresh = GateList(2, [block(state_preparation(st.amplitudes), (1, 0))])
    stage_gates = qaffine.addsub.addsub_stage_gates
    for witness in (stale, fresh):
        if witness is fresh:
            monkeypatch.setattr(qaffine.addsub, "addsub_stage_gates", lambda b, w: stage_gates(b, w)[:-1])
        gates = list(witness.gates)
        with pytest.raises(PreconditionError):
            hadamard_addsub_inplace(st, b, mode="physical", circuit_so_far=witness)
        assert witness.qubit_count == 2
        assert witness.gates == gates  # the same Gate objects: gates compare by identity


def test_physical_rejects_wrong_width_witness():
    st = init_basis(2)
    with pytest.raises(ShapeError):
        hadamard_addsub_inplace(
            st, [1.0, 0.0, 0.0, 0.0], mode="physical", circuit_so_far=GateList(1, [])
        )


def test_operand_validation():
    with pytest.raises(NormalizationError):
        hadamard_addsub_fresh([1.0, 1.0], [1.0, 0.0])
    with pytest.raises(ShapeError):
        hadamard_addsub_fresh([1.0, 0.0], [1.0, 0.0, 0.0, 0.0])
    with pytest.raises(ShapeError):
        hadamard_addsub_inplace(init_basis(1), [1.0, 0.0, 0.0, 0.0])
    with pytest.raises(InvalidInputError):
        hadamard_addsub_inplace(init_basis(1), [1.0, 0.0], mode="magic")


def test_orthogonal_inputs_split_evenly():
    # orthonormal a, b put probability 1/2 on each branch
    res = hadamard_addsub_fresh([1.0, 0.0], [0.0, 1.0])
    p_sum = float(np.sum(np.abs(res.state.amplitudes[:2]) ** 2))
    assert p_sum == pytest.approx(0.5, abs=1e-12)
