import tracemalloc
from collections import Counter

import numpy as np
import pytest
from conftest import (
    embed_controlled_oracle,
    embed_unitary_oracle,
    random_state_vector,
    random_unitary,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2, multinomial

from qaffine import (
    CapacityError,
    GateList,
    InvalidInputError,
    NormalizationError,
    QubitIndexError,
    ShapeError,
    UnitarityError,
    apply_unitary,
    block,
    gatelist_matrix,
    init_amplitudes,
    init_basis,
    qft,
    sample,
    single,
    synthesize,
)
from qaffine.linalg import Diagonal, Reflector
from qaffine.simulator import QuantumState, _check_normalized, _layout

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


@given(
    q=st.integers(1, 7),
    t=st.integers(1, 3),
    c=st.integers(0, 3),
    matrix=st.sampled_from(("dense", "reflector", "diagonal")),
    seed=st.integers(0, 2**32 - 1),
)
def test_gate_kernel_matches_dense_oracle(q, t, c, matrix, seed):
    # one kernel runs states (apply_unitary) and columns (gatelist_matrix);
    # both must match the entry-by-entry embedding, for any order of targets
    # and (anti-)controls and for a dense matrix, a reflector or a diagonal
    rng = np.random.default_rng(seed)
    t = min(t, q)
    c = min(c, q - t)
    labels = rng.permutation(q).tolist()
    targets, controls = tuple(labels[:t]), tuple(labels[t : t + c])
    values = tuple(int(v) for v in rng.integers(0, 2, size=c))
    if matrix == "reflector":
        v = random_state_vector(rng, 1 << t) * np.sqrt(2.0)
        u = Reflector(v, np.exp(2j * np.pi * rng.uniform()))
        dense = u @ np.eye(1 << t)
    elif matrix == "diagonal":
        u = Diagonal(np.exp(2j * np.pi * rng.uniform(size=1 << t)))
        dense = u @ np.eye(1 << t)
    else:
        u = dense = random_unitary(rng, 1 << t)
    ref = embed_controlled_oracle(dense, targets, controls, values, q)
    psi = random_state_vector(rng, 1 << q)
    st_out = apply_unitary(init_amplitudes(psi), u, targets, controls, values)
    assert np.max(np.abs(st_out.amplitudes - ref @ psi)) <= 1e-12
    mat = gatelist_matrix(GateList(q, [block(u, targets, controls, values)]))
    assert np.max(np.abs(mat - ref)) <= 1e-12


def test_invalid_layout_raises_on_every_call():
    # a layout that fails its check is never cached, before or after the
    # valid layouts of the same register are
    st = init_basis(3)
    bad = [
        ((3,), (), (), QubitIndexError),
        ((0,), (0,), (1,), QubitIndexError),
        ((0, 0), (), (), QubitIndexError),
        ((0,), (1,), (2,), InvalidInputError),
        ((0,), (1,), (), ShapeError),
    ]
    for targets, controls, values, error in bad:
        u = np.eye(1 << len(targets))
        for _ in range(2):
            with pytest.raises(error):
                apply_unitary(st, u, targets, controls, values)
        apply_unitary(st, X, (0,), (1,), (1,))
        apply_unitary(st, X, (2,))
        for _ in range(2):
            with pytest.raises(error):
                apply_unitary(st, u, targets, controls, values)


def test_layout_cache_is_bounded():
    assert 0 < _layout.cache_info().maxsize < float("inf")


def test_non_integral_indices_are_refused():
    # int() would truncate them: 0.7 acted on qubit 0 and a control value of
    # 0.5 as an anti-control; and 1.0 must not run as the cached layout of 1
    st = init_basis(2)
    apply_unitary(st, X, (1,))
    with pytest.raises(QubitIndexError):
        apply_unitary(st, X, (0.7,))
    with pytest.raises(QubitIndexError):
        apply_unitary(st, X, (1.0,))
    with pytest.raises(QubitIndexError):
        apply_unitary(st, X, (0,), (1.0,), (1,))
    with pytest.raises(InvalidInputError):
        apply_unitary(st, X, (0,), (1,), (0.5,))
    # numpy integers are integral
    out = apply_unitary(st, X, (np.int64(1),), (np.int32(0),), (np.uint8(0),))
    assert out.amplitudes[2] == 1.0


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: single(X, True), QubitIndexError),
        (lambda: apply_unitary(init_basis(2), X, (True,)), QubitIndexError),
        (lambda: apply_unitary(init_basis(2), X, (0,), (np.True_,), (1,)), QubitIndexError),
        (lambda: apply_unitary(init_basis(2), X, (0,), (1,), (True,)), InvalidInputError),
        (lambda: qft(init_basis(2), (True, 0)), QubitIndexError),
        (lambda: synthesize(X, (True,)), QubitIndexError),
    ],
    ids=["single", "apply_unitary", "np_bool_control", "control_value", "qft", "synthesize"],
)
def test_bool_indices_are_refused(call, error):
    # operator.index takes True as 1: single(X, True) built a gate on qubit 1
    # and apply_unitary(init_basis(2), X, (True,)) flipped qubit 1
    with pytest.raises(error):
        call()


@pytest.mark.parametrize(
    "args, registers",
    [
        (((0,),), 2.0),  # a reordered copy and the product, then the product reordered
        (((1,), (17,), (1,)), 2.0),  # the controlled half's copy and product, then the register's copy
        (((17,),), 1.0),  # the order is the register's own: the product only
    ],
)
def test_gate_peak_allocation(args, registers):
    q = 18
    st = init_basis(q)
    apply_unitary(st, H, *args)
    tracemalloc.start()
    try:
        apply_unitary(st, H, *args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the slack covers the gate's own small arrays and tuples
    assert peak <= registers * st.amplitudes.nbytes + 64 * 1024


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


def test_sample_deterministic_for_seed():
    rng = np.random.default_rng(25)
    st = init_amplitudes(random_state_vector(rng, 8))
    h1 = sample(st, 5000, seed=123)
    h2 = sample(st, 5000, seed=123)
    assert h1.counts == h2.counts
    assert sum(h1.counts.values()) == 5000
    with pytest.raises(InvalidInputError):
        sample(st, 5000, seed=-1)


def test_sample_frequencies_track_probabilities():
    st = init_amplitudes([np.sqrt(0.75), 0.5])
    h = sample(st, 200_000, seed=9)
    freq = h.counts.get(0, 0) / h.shots
    sigma = np.sqrt(0.75 * 0.25 / h.shots)
    assert abs(freq - 0.75) <= 5 * sigma


def test_sample_basis_state_is_certain():
    h = sample(init_basis(3), 1000, seed=4)
    assert h.counts == {0: 1000}


@st.composite
def sparse_states(draw):
    """States on 1..10 qubits whose zero-probability bins are none, a random
    share or all but one, with or without both ends."""
    q = draw(st.integers(1, 10))
    dim = 1 << q
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amps = random_state_vector(rng, dim)
    zeros = rng.random(dim) < draw(st.sampled_from([0.0, 0.5, 0.95, 1.0]))
    if draw(st.booleans()):
        zeros[[0, -1]] = True
    zeros[int(rng.integers(dim))] = False
    amps[zeros] = 0.0
    return QuantumState(q, amps / np.linalg.norm(amps))


@settings(max_examples=200)
@given(
    sparse_states(),
    st.one_of(st.integers(1, 10**4), st.integers(1, 2**63 - 1), st.just(2**63 - 1)),
    st.integers(0, 2**64),
)
def test_sample_histograms_keep_their_laws(state, shots, seed):
    # numpy hands the rounding remainder of a multinomial draw to its last
    # bin, so a zero-probability bin could be counted at large shot counts
    # unless the draw runs on the support only
    h = sample(state, shots, seed)
    assert h.shots == shots and sum(h.counts.values()) == shots
    assert list(h.counts) == sorted(h.counts)
    assert all(type(k) is int and type(c) is int and c > 0 for k, c in h.counts.items())
    assert all(state.amplitudes[k] != 0 for k in h.counts)
    assert sample(state, shots, seed).counts == h.counts
    k = seed % state.dim
    basis = np.zeros(state.dim, dtype=complex)
    basis[k] = 1.0
    assert sample(QuantumState(state.num_qubits, basis), shots, seed).counts == {k: shots}


def test_sample_counts_follow_the_multinomial_law():
    # 4 shots of a 3-bin state over 8,000 fixed seeds: the frequencies of
    # all 15 possible histograms against the multinomial pmf, chi-square
    probs = np.array([0.5, 0.0, 0.3, 0.2])
    state = QuantumState(2, np.sqrt(probs).astype(complex))
    shots, seeds = 4, range(8000)
    seen = Counter(tuple(sample(state, shots, seed).counts.get(k, 0) for k in (0, 2, 3)) for seed in seeds)
    outcomes = [(a, b, shots - a - b) for a in range(shots + 1) for b in range(shots + 1 - a)]
    expected = np.array([multinomial.pmf(o, shots, probs[[0, 2, 3]]) for o in outcomes]) * len(seeds)
    observed = np.array([seen[o] for o in outcomes])
    assert observed.sum() == len(seeds)
    stat = float(np.sum((observed - expected) ** 2 / expected))
    assert chi2.sf(stat, len(outcomes) - 1) > 1e-3, stat


def test_sample_takes_integer_counts_and_normalized_states():
    state = init_amplitudes([np.sqrt(0.75), 0.5])
    for shots, seed in ((2.7, 1), (True, 1), (np.bool_(True), 1), (5, False), (5, 1.0), ("5", 1)):
        with pytest.raises(InvalidInputError):
            sample(state, shots, seed)
    for shots in (2**63, 10**20):
        with pytest.raises(CapacityError):
            sample(state, shots, 1)
    assert sample(state, np.int64(500), np.uint8(3)).counts == sample(state, 500, 3).counts
    # a NaN, zero or off-norm register has no measurement law
    for amps in ([np.nan, 0.0], [0.0, 0.0], [1.0, 1.0]):
        with pytest.raises(NormalizationError):
            sample(QuantumState(1, np.array(amps, dtype=complex)), 5, 1)


def test_norm_drift_raises_normalization_error():
    # a register built by hand with norm 2: the output-norm check must raise
    # a typed error (it was a bare assert, gone under python -O)
    st = QuantumState(2, np.array([2.0, 0.0, 0.0, 0.0], dtype=complex))
    with pytest.raises(NormalizationError):
        apply_unitary(st, H, (0,))
    with pytest.raises(NormalizationError):
        apply_unitary(st, X, (0,), (1,), (0,))
    # a NaN norm is no norm within tolerance of 1
    with pytest.raises(NormalizationError):
        _check_normalized(np.array([np.nan, 1.0], dtype=complex))


def test_state_norm_matches_numpy():
    # the engine's norm checks take sqrt(v^dag v), not np.linalg.norm
    rng = np.random.default_rng(29)
    for q in range(1, 17):
        for v in (rng.normal(size=1 << q), rng.normal(size=1 << q) + 1j * rng.normal(size=1 << q)):
            v *= rng.uniform(0.1, 10.0)
            ref = np.linalg.norm(v)
            assert abs(QuantumState(q, v).norm() - ref) <= 1e-15 * ref
