import numpy as np
import pytest
from conftest import random_contraction, random_unitary

from qaffine import (
    InvalidInputError,
    ShapeError,
    completion_unitary,
    is_unitary,
    spectral_norm,
)


def test_spectral_norm_diagonal():
    assert spectral_norm(np.diag([3.0, 1.0])) == pytest.approx(3.0, abs=1e-12)


def test_spectral_norm_matches_svd():
    rng = np.random.default_rng(11)
    for _ in range(20):
        m = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
        assert spectral_norm(m) == pytest.approx(np.linalg.svd(m, compute_uv=False)[0], rel=1e-12)


def test_spectral_norm_rejects_nonfinite():
    with pytest.raises(InvalidInputError):
        spectral_norm(np.array([[np.nan, 0], [0, 1]]))


def test_is_unitary():
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    assert is_unitary(h, 1e-12)
    assert not is_unitary(0.999 * h, 1e-10)
    with pytest.raises(ShapeError):
        is_unitary(np.zeros((2, 3)), 1e-10)


def test_is_unitary_random():
    rng = np.random.default_rng(13)
    for dim in (2, 4, 8):
        assert is_unitary(random_unitary(rng, dim), 1e-10)
        assert not is_unitary(random_contraction(rng, dim, high=0.9), 1e-10)


def test_completion_unitary_first_column():
    rng = np.random.default_rng(14)
    for dim in (2, 3, 8, 16):
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        v /= np.linalg.norm(v)
        u = completion_unitary(v)
        # the first column is the renormalized input, pinned bit-for-bit
        assert np.array_equal(u[:, 0], v / np.linalg.norm(v))
        assert np.max(np.abs(u[:, 0] - v)) <= 1e-15
        assert is_unitary(u, 1e-12)


def test_completion_unitary_basis_vector():
    u = completion_unitary([0, 0, 1, 0])
    assert is_unitary(u, 1e-12)
    assert np.max(np.abs(u[:, 0] - np.array([0, 0, 1, 0]))) == 0.0
