import numpy as np
import pytest
from conftest import random_contraction, random_state_vector, random_unitary
from hypothesis import assume, given
from hypothesis import strategies as st
from test_stage_properties import MATRICES

from qaffine import (
    BlockEncoding,
    EncodingError,
    ShapeError,
    apply_unitary,
    block_encode,
    build_augmented,
    is_unitary,
)
from qaffine.blockenc import ONE_TOL, UNITARY_TOL, _block_deviation, _check_isometry, _factor

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
    # alpha is sigma_max itself, with no guard: s / alpha <= 1 holds exactly
    a = 3.0 * np.eye(2)
    enc = block_encode(a)
    assert enc.alpha == np.linalg.norm(a, 2)
    assert np.linalg.norm(enc.U[:2, :2], 2) <= 1.0
    assert np.max(np.abs(enc.U[:2, :2] * enc.alpha - a)) <= 1e-9
    rng = np.random.default_rng(45)
    b = 3.0 * random_unitary(rng, 4) @ np.diag([1.0, 0.5, 0.2, 0.1])
    enc = block_encode(b)
    assert enc.alpha == np.linalg.svd(b)[1][0]
    assert np.max(np.abs(enc.U[:4, :4] * enc.alpha - b)) <= 1e-9


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
    # near-isometries sit right at singular value 1, which the factorization
    # reads as exactly 1 within ONE_TOL; they must stay encodable
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


def test_block_encoding_holds_a_read_only_copy():
    u = np.eye(4, dtype=complex)
    enc = BlockEncoding(u, 1.0, 2)
    u[0, 0] = 2.0
    assert enc.U[0, 0] == 1.0
    with pytest.raises(ValueError):
        block_encode(0.5 * X).U[0, 0] = 2.0


def test_singular_values_at_one_give_exact_zero_residual():
    # a dense unitary reads its singular values a few ulp off 1; they count
    # as exactly 1, so both residual blocks vanish and alpha stays 1
    rng = np.random.default_rng(46)
    for dim in (2, 4, 8, 16):
        u = random_unitary(rng, dim)
        enc = block_encode(u)
        assert enc.alpha == 1.0
        assert np.array_equal(enc.U[:dim, :dim], u)
        assert np.max(np.abs(enc.U[:dim, dim:])) == 0.0
        assert np.max(np.abs(enc.U[dim:, :dim])) == 0.0


# --- the core/pair split against one SVD of the whole matrix ----------------


def whole_matrix_dilation(m):
    """The dilation as factored before the core/pair split: one SVD of the
    whole matrix, with the same alpha and the same clamp at ONE_TOL."""
    w, s, vh = np.linalg.svd(m)
    sigma = float(s.max())
    alpha = 1.0 if sigma <= 1.0 + ONE_TOL else sigma
    a, s = m / alpha, s / alpha
    s[np.abs(1.0 - s) <= ONE_TOL] = 1.0
    rs = np.sqrt(1.0 - s**2)
    r, top_right = (vh.conj().T * rs) @ vh, (w * rs) @ w.conj().T
    return np.block([[a, top_right], [r, -a.conj().T]]), alpha


def single_nonzero(rng, dim):
    a = np.zeros((dim, dim), dtype=complex)
    a[rng.integers(dim), rng.integers(dim)] = rng.uniform(0.1, 1.0) * np.exp(2j * np.pi * rng.uniform())
    return a


def augmented(rng, dim):
    """The baseline's A~, of size 2N >= dim."""
    n = max(dim // 2, 2)
    b = random_state_vector(rng, n) if rng.uniform() < 0.7 else np.zeros(n)
    return build_augmented(random_contraction(rng, n), b, random_state_vector(rng, n)).A_tilde


KINDS = {**MATRICES, "single_nonzero": single_nonzero, "augmented": augmented}


@given(
    kind=st.sampled_from(sorted(KINDS)),
    n=st.integers(1, 4),
    scale=st.sampled_from([0.5, 1.0, 2.5]),
    seed=st.integers(0, 2**32 - 1),
)
def test_factor_matches_whole_matrix_svd(kind, n, scale, seed):
    # dense cores, singular pairs (permuted, phased, unit or not), zero rows
    # and columns, alpha above 1, a single nonzero, all zero, A~
    rng = np.random.default_rng(seed)
    a = scale * KINDS[kind](rng, 1 << n)
    want_u, want_alpha = whole_matrix_dilation(a)
    enc = block_encode(a)
    assert np.max(np.abs(enc.U - want_u)) <= 1e-12
    # two SVDs of different sizes each read sigma_max O(N) ulp off: up to
    # 9 ulp each for a 32 x 32 A~, against a 40-digit reference
    assert abs(enc.alpha - want_alpha) <= 2 * a.shape[0] * np.spacing(want_alpha)


# --- the block-by-block check against the dense check ---------------------


def with_zero_lines(rng, d):
    """Permuted blocks with a zero row and a zero column: pairs of value 0,
    or zero lines inside a core."""
    a = MATRICES["permuted_blocks"](rng, d)
    a[rng.integers(d), :] = 0.0
    a[:, rng.integers(d)] = 0.0
    return a


BLOCK_KINDS = {
    "phased_permutation": MATRICES["sigma_one_exact"],
    "permuted_blocks": MATRICES["permuted_blocks"],
    "near_diagonal": MATRICES["near_diagonal"],
    "zero_lines": with_zero_lines,
    "diagonal": MATRICES["diagonal_phases"],
    "augmented": augmented,
}


def dense_deviation(m):
    return np.max(np.abs(m.conj().T @ m - np.eye(m.shape[1])))


def block_labels(order, c):
    """The block of each index: 0 for the core, k + 1 for pair k."""
    pos = np.argsort(order)
    return np.where(pos < c, 0, pos - c + 1)


@given(
    kind=st.sampled_from(sorted(BLOCK_KINDS)),
    n=st.integers(1, 4),
    scale=st.sampled_from([0.5, 1.0, 2.5]),
    stretch=st.sampled_from([0.0, 1e-12, 1e-6]),
    seed=st.integers(0, 2**32 - 1),
)
def test_block_check_decides_as_the_dense_check(kind, n, scale, stretch, seed):
    # U and [A; R], scaled by 1 + stretch to move the deviation across the
    # tolerance, checked block by block and whole; then with a nonzero
    # planted outside the blocks, which leaves the decision to the dense check
    rng = np.random.default_rng(seed)
    f = _factor(scale * BLOCK_KINDS[kind](rng, 1 << n))
    assume(f.blocks is not None)
    rows, cols, c = f.blocks
    dim = rows.shape[0]
    a, r = (np.diag(f.a), np.diag(f.r)) if f.a.ndim == 1 else (f.a, f.r)
    lr, lc = block_labels(rows, c), block_labels(cols, c)
    cases = (
        (f.encoding().U, True, np.concatenate([lc, lr])),
        (np.vstack([a, r]), False, lc),
    )
    for m, wide, col_labels in cases:
        m = m * (1.0 + stretch)
        dense = dense_deviation(m)
        block = _block_deviation(m[:dim], m[dim:], rows, cols, c, wide)
        assert abs(block - dense) <= 1e-15
        assert (block <= UNITARY_TOL) == (dense <= UNITARY_TOL)
        outside = np.argwhere(np.concatenate([lr, lc])[:, None] != col_labels[None, :])
        i, j = outside[rng.integers(len(outside))]
        for planted in (1e-14, 1e-3):
            mp = m.copy()
            mp[i, j] = planted
            assert _block_deviation(mp[:dim], mp[dim:], rows, cols, c, wide) is None
            refused = dense_deviation(mp) > UNITARY_TOL
            try:
                if wide:
                    BlockEncoding(mp, f.alpha, dim, f.blocks)
                else:
                    _check_isometry(f._replace(a=mp[:dim], r=mp[dim:]), "step 1")
            except EncodingError:
                assert refused
            else:
                assert not refused


def test_block_check_rejects_a_partition_that_is_not_one():
    # orders that are not permutations of A's indices cannot vouch for the
    # blocks: the dense check decides
    u = np.diag([1.0, 1.0, 1.0, 2.0])
    order = np.array([0, 0])
    assert _block_deviation(u[:2], u[2:], order, np.arange(2), 0, True) is None
    with pytest.raises(EncodingError):
        BlockEncoding(u, 1.0, 2, (order, np.arange(2), 0))
