import numpy as np
import pytest
from conftest import count_calls, random_contraction, random_state_vector
from hypothesis import given
from hypothesis import strategies as st
from test_stage_properties import MATRICES, off_by

from qaffine import (
    AffineSequence,
    AffineStep,
    NormalizationError,
    ShapeError,
    build_augmented,
    classical_affine_compose,
    extract_result,
    is_unitary,
    run_augmented,
    run_pipeline,
)


def test_augmented_matrix_layout():
    a = 0.5 * np.eye(2)
    b = np.array([0.3, 0.4])
    aug = build_augmented(a, b, [1.0, 0.0])
    at = aug.A_tilde
    assert at.shape == (4, 4)
    assert np.allclose(at[:2, :2], a)
    assert np.allclose(at[:2, 3], b)
    assert np.allclose(at[:2, 2], 0.0)
    assert np.allclose(at[2:, 2:], np.eye(2))
    assert np.allclose(at[2:, :2], 0.0)


def test_augmented_state_layout():
    aug = build_augmented(0.5 * np.eye(2), [0.0, 0.0], [0.6, 0.8])
    pt = aug.psi_tilde
    assert pt[0] == pytest.approx(0.6 / np.sqrt(2))
    assert pt[1] == pytest.approx(0.8 / np.sqrt(2))
    assert pt[2] == 0.0
    assert pt[3] == pytest.approx(1 / np.sqrt(2))
    assert np.linalg.norm(pt) == pytest.approx(1.0, abs=1e-12)


def test_dilation_doubles_augmented_dimension():
    # 2N base -> A~ is 2N x 2N -> dilation unitary is 4N x 4N
    aug = build_augmented(0.5 * np.eye(4), np.zeros(4), np.eye(4)[0])
    assert aug.A_tilde.shape == (8, 8)
    assert aug.enc.U.shape == (16, 16)


def test_run_augmented_computes_affine_image():
    rng = np.random.default_rng(71)
    for _ in range(25):
        dim = int(2 ** rng.integers(1, 4))
        a = random_contraction(rng, dim, high=0.7)
        b = 0.3 * random_state_vector(rng, dim)
        psi = random_state_vector(rng, dim)
        got = run_augmented(build_augmented(a, b, psi))
        assert np.max(np.abs(got - (a @ psi + b))) <= 1e-9


def test_augmented_agrees_with_pipeline():
    rng = np.random.default_rng(72)
    for _ in range(10):
        dim = 4
        a = random_contraction(rng, dim, high=0.6)
        b = random_state_vector(rng, dim)
        psi = random_state_vector(rng, dim)
        seq = AffineSequence(2, psi, (AffineStep(a, b),))
        via_pipeline = extract_result(run_pipeline(seq))
        via_augmented = run_augmented(build_augmented(a, b, psi))
        via_classical = classical_affine_compose(seq)
        assert np.max(np.abs(via_pipeline - via_augmented)) <= 1e-9
        assert np.max(np.abs(via_augmented - via_classical)) <= 1e-9


def test_augmented_zero_translation():
    rng = np.random.default_rng(73)
    a = random_contraction(rng, 2)
    psi = random_state_vector(rng, 2)
    got = run_augmented(build_augmented(a, np.zeros(2), psi))
    assert np.max(np.abs(got - a @ psi)) <= 1e-9


def test_augmented_alpha_absorbs_large_entries():
    # the stacked matrix typically has spectral norm > 1; alpha rescales it
    a = 0.9 * np.eye(2)
    b = np.array([0.9, 0.0])
    aug = build_augmented(a, b, [0.0, 1.0])
    assert aug.enc.alpha > 1.0
    got = run_augmented(aug)
    assert np.max(np.abs(got - (a @ np.array([0.0, 1.0]) + b))) <= 1e-9


def test_build_augmented_validation():
    with pytest.raises(ShapeError):
        build_augmented(np.ones((2, 3)), [0.0, 0.0], [1.0, 0.0])
    with pytest.raises(ShapeError):
        build_augmented(np.eye(3), np.zeros(3), np.eye(3)[0])
    with pytest.raises(ShapeError):
        build_augmented(np.eye(2), [0.0, 0.0, 0.0], [1.0, 0.0])
    with pytest.raises(NormalizationError):
        build_augmented(np.eye(2), [0.0, 0.0], [1.0, 1.0])


def test_run_augmented_checks_no_unitarity(monkeypatch):
    # the dilation was checked when its BlockEncoding was built
    rng = np.random.default_rng(74)
    aug = build_augmented(random_contraction(rng, 4), random_state_vector(rng, 4), random_state_vector(rng, 4))
    calls = count_calls(monkeypatch, "is_unitary")
    run_augmented(aug)
    assert calls == []


@given(
    kind=st.sampled_from(sorted(MATRICES)),
    n=st.integers(1, 3),
    with_b=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_baseline_matches_classical(kind, n, with_b, seed):
    rng = np.random.default_rng(seed)
    dim = 1 << n
    a = MATRICES[kind](rng, dim)
    b = random_state_vector(rng, dim) if with_b else np.zeros(dim)
    psi = off_by(rng, random_state_vector(rng, dim))
    aug = build_augmented(a, b, psi)
    enc = aug.enc
    assert is_unitary(enc.U, 1e-10)
    assert np.max(np.abs(enc.alpha * enc.U[: 2 * dim, : 2 * dim] - aug.A_tilde)) <= 1e-10
    want = classical_affine_compose(AffineSequence(n, psi, (AffineStep(a, b if with_b else None),)))
    assert np.max(np.abs(run_augmented(aug) - want)) <= 1e-9
