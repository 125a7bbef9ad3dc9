import tracemalloc

import numpy as np
import pytest
from conftest import count_calls, random_contraction, random_state_vector
from hypothesis import given
from hypothesis import strategies as st
from test_stage_properties import MATRICES, off_by

from qaffine import (
    AffineSequence,
    AffineStep,
    BlockEncoding,
    EncodingError,
    NormalizationError,
    ShapeError,
    block_encode,
    build_augmented,
    classical_affine_compose,
    extract_result,
    is_unitary,
    run_augmented,
    run_pipeline,
)
from qaffine.blockenc import _Dilation


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


def test_build_augmented_factors_only_the_coupled_core(monkeypatch):
    # the N - 1 identity coordinates of A~ are singular pairs: one SVD, of
    # the N + 1 rows and columns that A and B couple
    rng = np.random.default_rng(75)
    shapes = []
    svd = np.linalg.svd

    def recorded_svd(m, *args, **kwargs):
        shapes.append(m.shape)
        return svd(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded_svd)
    for dim in (2, 8, 32):
        shapes.clear()
        build_augmented(random_contraction(rng, dim), random_state_vector(rng, dim), random_state_vector(rng, dim))
        assert shapes == [(dim + 1, dim + 1)]


def test_build_augmented_checks_only_the_core_gram(monkeypatch):
    # the check is of the ancilla-0 columns [A~/alpha ; R~]: the Gram formed
    # is the core's, N + 1 wide, plus one 2 x 1 block per singular pair
    grams = count_calls(monkeypatch, "gram_deviation")
    dense = count_calls(monkeypatch, "is_unitary")
    rng = np.random.default_rng(76)
    dim = 8
    build_augmented(random_contraction(rng, dim), random_state_vector(rng, dim), random_state_vector(rng, dim))
    widths = sorted(np.shape(part)[-1] for args in grams for part in args)
    assert widths == [1, 1, dim + 1, dim + 1]
    assert dense == []


def test_broken_factorization_raises_encoding_error(monkeypatch):
    # a factorization whose residual block R~ is zeroed fails the isometry
    # check in build_augmented, before any U exists
    import qaffine.baseline

    factor = qaffine.baseline._factor

    def broken(m):
        f = factor(m)
        return f._replace(r=np.zeros_like(f.r))

    monkeypatch.setattr(qaffine.baseline, "_factor", broken)
    rng = np.random.default_rng(78)
    for a, b in (
        (0.5 * np.eye(2), [0.6, 0.8]),
        (0.5 * np.eye(2), [0.0, 0.0]),
        (random_contraction(rng, 4), random_state_vector(rng, 4)),
    ):
        with pytest.raises(EncodingError):
            build_augmented(a, b, np.eye(len(b))[0])


def test_run_augmented_builds_no_4n_dilation(monkeypatch):
    # build and run apply only the checked columns [A~/alpha ; R~]: no U, no
    # unitarity check, and a traced peak below one 4N x 4N array next to
    # A~, which a route holding U cannot stay under.  U is built once, on
    # the first read of enc, bit-identical to block_encode's
    rng = np.random.default_rng(77)
    dim = 64
    a, b, psi = random_contraction(rng, dim), random_state_vector(rng, dim), random_state_vector(rng, dim)
    encodings, checked = [], []
    encoding, post_init = _Dilation.encoding, BlockEncoding.__post_init__
    monkeypatch.setattr(_Dilation, "encoding", lambda f: encodings.append(None) or encoding(f))
    monkeypatch.setattr(BlockEncoding, "__post_init__", lambda e: checked.append(None) or post_init(e))
    dense = count_calls(monkeypatch, "is_unitary")
    tracemalloc.start()
    try:
        aug = build_augmented(a, b, psi)
        got = run_augmented(aug)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert encodings == checked == dense == []
    assert peak < 16 * (4 * dim) ** 2 + aug.A_tilde.nbytes
    assert np.max(np.abs(got - (a @ psi + b))) <= 1e-9
    enc = aug.enc
    assert aug.enc is enc
    assert len(encodings) == len(checked) == 1
    assert np.array_equal(enc.U, block_encode(aug.A_tilde).U)


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
