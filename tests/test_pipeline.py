import numpy as np
import pytest
from conftest import count_calls, random_contraction, random_real_unit, random_state_vector

from qaffine import (
    AffineSequence,
    AffineStep,
    CapacityError,
    ContractionError,
    EncodingError,
    InvalidInputError,
    NormalizationError,
    ShapeError,
    apply_affine_step,
    classical_affine_compose,
    extract_result,
    init_amplitudes,
    rescale_translation,
    run_gatelist,
    run_pipeline,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)


def random_sequence(rng, n, k):
    dim = 1 << n
    steps = []
    for _ in range(k):
        b = random_state_vector(rng, dim) if rng.random() < 0.8 else None
        steps.append(AffineStep(random_contraction(rng, dim), b))
    return AffineSequence(n, random_state_vector(rng, dim), tuple(steps))


# --- rescaled translations -------------------------------------------------


def test_rescale_first_step_keeps_entries():
    rt = rescale_translation([1.0, 0.0], 1, 8)
    assert rt.b_tilde[0] == pytest.approx(1.0)
    assert rt.garbage_index == 7
    assert rt.b_tilde[7] == pytest.approx(0.0, abs=1e-12)
    assert np.linalg.norm(rt.b_tilde) == pytest.approx(1.0, abs=1e-14)


def test_rescale_second_step_halves_entries():
    rt = rescale_translation([1.0, 0.0], 2, 32)
    assert rt.b_tilde[0] == pytest.approx(0.5)
    assert rt.b_tilde[31] == pytest.approx(np.sqrt(0.75))
    assert np.count_nonzero(rt.b_tilde) == 2


def test_rescale_zero_translation_is_pure_garbage():
    rt = rescale_translation(None, 3, 16)
    assert rt.b_tilde[15] == 1.0
    assert np.count_nonzero(rt.b_tilde) == 1


def test_rescale_weight_scales_entries():
    rt = rescale_translation([1.0, 0.0], 1, 8, weight=0.5)
    assert rt.b_tilde[0] == pytest.approx(0.5)
    assert rt.b_tilde[7] == pytest.approx(np.sqrt(0.75))


def test_rescale_always_unit_norm():
    rng = np.random.default_rng(61)
    for _ in range(30):
        dim = int(2 ** rng.integers(1, 4))
        j = int(rng.integers(1, 4))
        target = dim << (2 * j - 1)
        w = float(rng.uniform(-1, 1))
        rt = rescale_translation(random_state_vector(rng, dim), j, target, weight=w)
        assert abs(np.linalg.norm(rt.b_tilde) - 1.0) <= 1e-12


def test_rescale_validation():
    with pytest.raises(NormalizationError):
        rescale_translation([1.0, 1.0], 1, 8)
    with pytest.raises(NormalizationError):
        rescale_translation([1.0, 0.0], 1, 8, weight=1.5)
    with pytest.raises(ShapeError):
        rescale_translation([1.0, 0.0], 1, 3)
    with pytest.raises(ShapeError):
        rescale_translation(np.eye(4)[0], 1, 4)  # needs dim > 2 * len
    with pytest.raises(InvalidInputError):
        rescale_translation([1.0, 0.0], 0, 8)


def test_rescale_residual_below_zero_raises(monkeypatch):
    # a norm read 1e-9 low passes the 1e-8 check but makes the rescaled
    # entries overshoot a unit vector: a typed error, not a bare assert
    monkeypatch.setattr(np.linalg, "norm", lambda v: 1.0 - 1e-9)
    with pytest.raises(NormalizationError):
        rescale_translation([1.0, 0.0], 1, 8)


# --- step and sequence validation -------------------------------------------


def test_affine_step_validation():
    with pytest.raises(ShapeError):
        AffineStep(np.ones((2, 3)))
    with pytest.raises(ShapeError):
        AffineStep(np.eye(2), [1.0, 0.0, 0.0])


def test_affine_sequence_validation():
    with pytest.raises(ShapeError):
        AffineSequence(1, [1.0, 0.0, 0.0, 0.0], (AffineStep(np.eye(2)),))
    with pytest.raises(ShapeError):
        AffineSequence(1, [1.0, 0.0], (AffineStep(np.eye(4)),))
    with pytest.raises(InvalidInputError):
        AffineSequence(1, [1.0, 0.0], ())


# --- single worked examples --------------------------------------------------


def test_pipeline_identity_step():
    seq = AffineSequence(1, [1.0, 0.0], (AffineStep(np.eye(2), [0.0, 1.0]),))
    res = run_pipeline(seq)
    assert res.scale == 2
    assert np.allclose(extract_result(res), [1.0, 1.0], atol=1e-12)


def test_pipeline_bitflip_step():
    seq = AffineSequence(1, [1.0, 0.0], (AffineStep(X, [1.0, 0.0]),))
    res = run_pipeline(seq)
    got = extract_result(res)
    assert np.allclose(got, [1.0, 1.0], atol=1e-12)
    assert np.allclose(got, classical_affine_compose(seq), atol=1e-12)


def test_difference_branch_holds_a_psi_minus_b():
    rng = np.random.default_rng(62)
    a = random_contraction(rng, 4)
    b = random_state_vector(rng, 4)
    psi = random_state_vector(rng, 4)
    seq = AffineSequence(2, psi, (AffineStep(a, b),))
    res = run_pipeline(seq)
    diff = res.scale * res.state.amplitudes[res.branch_indices((1,))]
    assert np.max(np.abs(diff - (a @ psi - b))) <= 1e-12


def test_branch_indices_layout():
    seq = AffineSequence(1, [1.0, 0.0], (AffineStep(np.eye(2)), AffineStep(np.eye(2))))
    res = run_pipeline(seq)
    assert res.branch_indices((0, 0)).tolist() == [0, 1]
    assert res.branch_indices((1, 0)).tolist() == [4, 5]
    assert res.branch_indices((0, 1)).tolist() == [16, 17]
    with pytest.raises(ShapeError):
        res.branch_indices((0,))
    with pytest.raises(InvalidInputError):
        res.branch_indices((0, 2))


def test_identity_chain_is_exact():
    rng = np.random.default_rng(63)
    psi = random_real_unit(rng, 4)
    steps = tuple(AffineStep(np.eye(4)) for _ in range(3))
    res = run_pipeline(AffineSequence(2, psi, steps))
    assert res.scale == 8
    assert isinstance(res.scale, int)
    assert np.max(np.abs(extract_result(res) - psi)) <= 1e-12


# --- random agreement with the classical oracle ------------------------------


def test_pipeline_matches_classical_composition():
    rng = np.random.default_rng(64)
    for _ in range(30):
        n = int(rng.integers(1, 4))
        k = int(rng.integers(1, 4))
        seq = random_sequence(rng, n, k)
        got = extract_result(run_pipeline(seq))
        want = classical_affine_compose(seq)
        assert np.max(np.abs(got - want)) <= 1e-10


def test_classical_compose_matches_nested_formula():
    # independent check of the oracle itself: evaluate the fully expanded
    # composition (A2 A1 psi + A2 B1 + B2) by explicit matrix algebra
    rng = np.random.default_rng(65)
    a1, a2 = random_contraction(rng, 4), random_contraction(rng, 4)
    b1, b2 = random_state_vector(rng, 4), random_state_vector(rng, 4)
    psi = random_state_vector(rng, 4)
    seq = AffineSequence(2, psi, (AffineStep(a1, b1), AffineStep(a2, b2)))
    want = a2 @ (a1 @ psi) + a2 @ b1 + b2
    assert np.max(np.abs(classical_affine_compose(seq) - want)) <= 1e-13


def test_pipeline_norm_is_preserved():
    rng = np.random.default_rng(66)
    seq = random_sequence(rng, 2, 3)
    res = run_pipeline(seq)
    assert abs(res.state.norm() - 1.0) <= 1e-10


# --- modes -------------------------------------------------------------------


def test_physical_mode_matches_abstract():
    rng = np.random.default_rng(67)
    for _ in range(5):
        seq = random_sequence(rng, 1, 2)
        res_a = run_pipeline(seq, mode="abstract")
        res_p = run_pipeline(seq, mode="physical")
        assert np.max(np.abs(res_a.state.amplitudes - res_p.state.amplitudes)) <= 1e-10
        assert res_p.circuit is not None and res_a.circuit is None


def test_physical_circuit_reconstructs_state():
    rng = np.random.default_rng(68)
    seq = random_sequence(rng, 2, 1)
    res = run_pipeline(seq, mode="physical")
    rebuilt = run_gatelist(res.circuit)
    assert np.max(np.abs(rebuilt.amplitudes - res.state.amplitudes)) <= 1e-10


def test_physical_stage_gates_are_built_once(monkeypatch):
    # one state preparation for psi0 and one for each translation stage: the
    # gates a stage runs are the ones appended to the witness
    calls = count_calls(monkeypatch, "completion_unitary")
    rng = np.random.default_rng(69)
    for k in (1, 2, 3):
        calls.clear()
        res = run_pipeline(random_sequence(rng, 2, k), mode="physical")
        assert len(calls) == k + 1
        rebuilt = run_gatelist(res.circuit)
        assert np.max(np.abs(rebuilt.amplitudes - res.state.amplitudes)) <= 1e-9


def test_unknown_mode_rejected():
    seq = AffineSequence(1, [1.0, 0.0], (AffineStep(np.eye(2)),))
    with pytest.raises(InvalidInputError):
        run_pipeline(seq, mode="noisy")


# --- constraint enforcement ---------------------------------------------------


def test_expansive_matrix_rejected():
    seq = AffineSequence(1, [1.0, 0.0], (AffineStep(1.5 * np.eye(2)),))
    with pytest.raises(ContractionError):
        run_pipeline(seq)


def test_contraction_slack_is_rescaled_not_rejected():
    # spectral norm 1 + 5e-11 sits inside the tolerance window
    seq = AffineSequence(1, [1.0, 0.0], (AffineStep((1 + 5e-11) * np.eye(2)),))
    res = run_pipeline(seq)
    assert np.allclose(extract_result(res), [1.0, 0.0], atol=1e-9)


def test_unnormalized_translation_rejected():
    seq = AffineSequence(1, [1.0, 0.0], (AffineStep(np.eye(2), [2.0, 0.0]),))
    with pytest.raises(NormalizationError):
        run_pipeline(seq)


def test_capacity_limit():
    # n + 2k = 1 + 24 = 25 exceeds the 24-qubit cap
    steps = tuple(AffineStep(np.eye(2)) for _ in range(12))
    seq = AffineSequence(1, [1.0, 0.0], steps)
    with pytest.raises(CapacityError):
        run_pipeline(seq)


def test_apply_affine_step_weight_parameter():
    # weight w folds w*B into the sum branch: result = A psi + w B
    rng = np.random.default_rng(69)
    a = random_contraction(rng, 2)
    b = random_state_vector(rng, 2)
    psi = random_state_vector(rng, 2)
    st = apply_affine_step(init_amplitudes(psi), a, b, 1, 1, translation_weight=0.25)
    assert np.max(np.abs(2 * st.amplitudes[:2] - (a @ psi + 0.25 * b))) <= 1e-12


def test_dense_expansive_matrix_rejected():
    rng = np.random.default_rng(70)
    a = random_contraction(rng, 4, 1.0, 1.0) * (1 + 1e-6)
    seq = AffineSequence(2, random_state_vector(rng, 4), (AffineStep(a),))
    with pytest.raises(ContractionError):
        run_pipeline(seq)


def test_dense_contraction_slack_is_rescaled():
    rng = np.random.default_rng(71)
    a = random_contraction(rng, 4, 1.0, 1.0)
    psi = random_state_vector(rng, 4)
    seq = AffineSequence(2, psi, (AffineStep(a * (1 + 5e-11)),))
    assert np.max(np.abs(extract_result(run_pipeline(seq)) - a @ psi)) <= 1e-9


# --- structure of the abstract stage ------------------------------------------


def test_abstract_mode_never_builds_the_dilation(monkeypatch):
    import qaffine.pipeline

    def refuse(_):
        raise AssertionError("abstract mode built a 2N x 2N dilation")

    monkeypatch.setattr(qaffine.pipeline, "block_encode", refuse)
    rng = np.random.default_rng(72)
    seq = random_sequence(rng, 2, 3)
    got = extract_result(run_pipeline(seq))
    assert np.max(np.abs(got - classical_affine_compose(seq))) <= 1e-10


def test_diagonal_step_needs_no_svd(monkeypatch):
    # a*I and phased diagonals take the elementwise O(N) route
    rng = np.random.default_rng(73)
    d = 0.9 * np.exp(2j * np.pi * rng.uniform(size=64))
    psi = random_state_vector(rng, 64)
    b = random_state_vector(rng, 64)

    def refuse(*_args, **_kwargs):
        raise AssertionError("diagonal step ran an SVD")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    for a in (np.diag(d), -0.5 * np.eye(64), np.zeros((64, 64))):
        st = apply_affine_step(init_amplitudes(psi), a, b, 1, 6)
        assert np.max(np.abs(2 * st.amplitudes[:64] - (a @ psi + b))) <= 1e-12


def test_broken_dilation_columns_raise_encoding_error(monkeypatch):
    import qaffine.pipeline

    monkeypatch.setattr(
        qaffine.pipeline, "_dilation_half", lambda m, j: (m, np.zeros_like(m))
    )
    st = init_amplitudes([1.0, 0.0])
    with pytest.raises(EncodingError):
        apply_affine_step(st, 0.5 * X, None, 1, 1)
