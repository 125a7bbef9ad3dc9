import numpy as np
import pytest
from conftest import random_contraction, random_unitary
from hypothesis import given
from hypothesis import strategies as st

from qaffine import (
    NormalizationError,
    ShapeError,
    completion_unitary,
    is_unitary,
)


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


def test_completion_unitary_rejects_zero_vector():
    with pytest.raises(NormalizationError):
        completion_unitary(np.zeros(4))


def test_completion_unitary_runs_no_qr(monkeypatch):
    def no_qr(*args, **kwargs):
        raise AssertionError("completion_unitary called np.linalg.qr")

    monkeypatch.setattr(np.linalg, "qr", no_qr)
    rng = np.random.default_rng(15)
    u = completion_unitary(rng.normal(size=8) + 1j * rng.normal(size=8))
    assert is_unitary(u, 1e-12)


def _basis(dim, j):
    return np.eye(dim)[j]


def _zero_first(rng, dim):
    """Complex vector whose first entry is exactly 0 (for dim > 1)."""
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    if dim > 1:
        v[0] = 0.0
    return v


COMPLETION_INPUTS = {
    "complex": lambda rng, d: rng.normal(size=d) + 1j * rng.normal(size=d),
    "real_negative_first": lambda rng, d: np.concatenate([[-abs(rng.normal()) - 0.1], rng.normal(size=d - 1)]),
    "zero_first": _zero_first,
    "e0": lambda rng, d: _basis(d, 0),
    "e_j": lambda rng, d: _basis(d, int(rng.integers(d))),
    "e_last": lambda rng, d: _basis(d, d - 1),
    "near_basis": lambda rng, d: _basis(d, int(rng.integers(d))) + 1e-9 * rng.normal(size=d),
    "minus_e0": lambda rng, d: -_basis(d, 0),
}


@given(
    kind=st.sampled_from(sorted(COMPLETION_INPUTS)),
    dim=st.one_of(st.integers(1, 64), st.sampled_from([100, 255, 256, 1000, 1024, 2047, 2048])),
    off=st.floats(-1e-8, 1e-8),
    seed=st.integers(0, 2**32 - 1),
)
def test_completion_unitary_properties(kind, dim, off, seed):
    rng = np.random.default_rng(seed)
    x = COMPLETION_INPUTS[kind](rng, dim).astype(complex)
    x = x / np.linalg.norm(x) * (1.0 + off)
    u = completion_unitary(x)
    assert np.array_equal(u[:, 0], x / np.linalg.norm(x))
    assert is_unitary(u, 1e-12)
