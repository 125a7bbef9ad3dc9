import numpy as np
import pytest
from conftest import random_contraction, random_unitary

from qaffine import (
    BlockEncoding,
    EncodingError,
    ShapeError,
    apply_unitary,
    block_encode,
    is_unitary,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)


def test_alpha_is_one_for_contractions():
    rng = np.random.default_rng(41)
    for _ in range(20):
        dim = int(2 ** rng.integers(1, 4))
        enc = block_encode(random_contraction(rng, dim))
        assert enc.alpha == 1.0
        assert enc.block_dim == dim
        assert enc.U.shape == (2 * dim, 2 * dim)


def test_alpha_inflates_for_expansive_matrices():
    a = 3.0 * np.eye(2)
    enc = block_encode(a)
    assert enc.alpha > 3.0
    assert enc.alpha == pytest.approx(3.0, rel=1e-11)
    assert np.linalg.norm(enc.U[:2, :2], 2) <= 1.0
    assert np.max(np.abs(enc.U[:2, :2] * enc.alpha - a)) <= 1e-9


def test_identity_input_dilation():
    enc = block_encode(np.eye(2))
    want = np.block([[np.eye(2), np.zeros((2, 2))], [np.zeros((2, 2)), -np.eye(2)]])
    assert enc.alpha == 1.0
    assert np.max(np.abs(enc.U - want)) <= 1e-12


def test_zero_input_dilation():
    enc = block_encode(np.zeros((2, 2)))
    want = np.block([[np.zeros((2, 2)), np.eye(2)], [np.eye(2), np.zeros((2, 2))]])
    assert enc.alpha == 1.0
    assert np.max(np.abs(enc.U - want)) <= 1e-12


def test_dilation_is_unitary_and_embeds_block():
    rng = np.random.default_rng(42)
    for _ in range(30):
        dim = int(2 ** rng.integers(1, 5))
        a = random_contraction(rng, dim)
        enc = block_encode(a)
        assert is_unitary(enc.U, 1e-10)
        assert np.max(np.abs(enc.U[:dim, :dim] * enc.alpha - a)) <= 1e-10


def test_dilation_block_structure():
    a = 0.5 * np.eye(2)
    u = block_encode(a).U
    s = np.sqrt(0.75)
    assert np.allclose(u[:2, 2:], s * np.eye(2), atol=1e-12)
    assert np.allclose(u[2:, :2], s * np.eye(2), atol=1e-12)
    assert np.allclose(u[2:, 2:], -0.5 * np.eye(2), atol=1e-12)


def test_unitary_input_has_zero_residual():
    rng = np.random.default_rng(43)
    u = random_unitary(rng, 4)
    enc = block_encode(u)
    assert np.max(np.abs(enc.U[:4, 4:])) <= 1e-7
    assert np.max(np.abs(enc.U[4:, :4])) <= 1e-7


def test_block_encode_rejects_bad_shapes():
    with pytest.raises(ShapeError):
        block_encode(np.ones((2, 3)))
    with pytest.raises(ShapeError):
        block_encode(np.eye(3))


def test_alpha_guard_handles_norm_boundary():
    # near-isometries sit right at the PSD clamp; the guard must keep them encodable
    for eps in (0.0, 1e-13, 1e-11):
        enc = block_encode(np.eye(2) * (1.0 - eps))
        assert enc.alpha == 1.0
        assert is_unitary(enc.U, 1e-10)
    enc = block_encode(np.eye(2) * (1.0 + 1e-13))
    assert is_unitary(enc.U, 1e-10)


def test_block_encode_factors_once(monkeypatch):
    svd_calls, norm_calls = [], []
    svd, norm = np.linalg.svd, np.linalg.norm

    def counted_svd(*args, **kwargs):
        svd_calls.append(None)
        return svd(*args, **kwargs)

    def counted_norm(*args, **kwargs):
        norm_calls.append(None)
        return norm(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    monkeypatch.setattr(np.linalg, "norm", counted_norm)
    rng = np.random.default_rng(44)
    for a in (random_contraction(rng, 4), 3.0 * random_unitary(rng, 4)):
        svd_calls.clear()
        norm_calls.clear()
        block_encode(a)
        assert len(svd_calls) == 1
        assert norm_calls == []


def test_block_encoding_checks_unitarity_when_built():
    with pytest.raises(EncodingError):
        BlockEncoding(np.diag([1.0, 2.0]), 1.0, 1)
