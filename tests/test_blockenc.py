import dataclasses

import numpy as np
import pytest
from conftest import broken_residual, nan_at_largest, random_contraction, random_state_vector, random_unitary
from hypothesis import given
from hypothesis import strategies as st
from test_stage_properties import MATRICES

from qaffine import (
    AffineSequence,
    AffineStep,
    EncodingError,
    InvalidInputError,
    ShapeError,
    apply_unitary,
    block_encode,
    build_augmented,
    is_unitary,
    run_pipeline,
)
from qaffine.blockenc import ONE_TOL, UNITARY_TOL, _check_isometry, _deviation, _factor, _write_dilation
from qaffine.linalg import gram_deviation

X = np.array([[0, 1], [1, 0]], dtype=complex)


def test_alpha_is_one_for_contractions():
    rng = np.random.default_rng(41)
    for _ in range(20):
        dim = int(2 ** rng.integers(1, 4))
        enc = block_encode(random_contraction(rng, dim))
        assert enc.alpha == 1.0
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
    # sigma_max from the Gram's eigendecomposition, a few ulp off the SVD's
    sigma = np.linalg.svd(b)[1][0]
    assert abs(enc.alpha - sigma) <= 2 * b.shape[0] * np.spacing(sigma)
    # the factorization's own s / alpha: 1 exactly at sigma_max (rs = 0),
    # never above 1 (rs = sqrt(1 - s^2) would be NaN)
    f = _factor(b)
    assert f.alpha == enc.alpha
    assert not np.isnan(f.rs).any() and f.rs.min() == 0.0
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
    eigh_shapes, norm_calls = [], []
    eigh, norm = np.linalg.eigh, np.linalg.norm

    def recorded_eigh(m, *args, **kwargs):
        eigh_shapes.append(m.shape)
        return eigh(m, *args, **kwargs)

    def counted_norm(*args, **kwargs):
        norm_calls.append(None)
        return norm(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recorded_eigh)
    monkeypatch.setattr(np.linalg, "norm", counted_norm)
    rng = np.random.default_rng(44)
    for a in (random_contraction(rng, 4), 3.0 * random_unitary(rng, 4)):
        eigh_shapes.clear()
        norm_calls.clear()
        block_encode(a)
        assert eigh_shapes == [(4, 4)]
        assert norm_calls == []


def test_block_encoding_checks_unitarity_when_built(monkeypatch):
    # U is built, and checked whole, on its first read.  A residual zeroed,
    # or holding a NaN, where the block format keeps it (the pairs' rs of a
    # diagonal, the core's R of a dense A) fails that check on every read,
    # and block_encode, which reads U, raises
    import qaffine.blockenc

    factor = qaffine.blockenc._factor
    for broken in (np.zeros_like, nan_at_largest):
        for a in (0.5 * np.eye(2), random_contraction(np.random.default_rng(47), 2)):
            f = broken_residual(factor(a), broken)
            for _ in range(2):
                with pytest.raises(EncodingError):
                    f.U
        monkeypatch.setattr(qaffine.blockenc, "_factor", lambda m: broken_residual(factor(m), broken))
        with pytest.raises(EncodingError):
            block_encode(0.5 * X)


def test_block_encoding_holds_a_read_only_copy():
    # U is built on the first read, not by _factor, then cached read-only:
    # a later change to the input does not reach it
    a = 0.5 * X
    f = _factor(a)
    assert "U" not in vars(f)
    u = f.U
    assert f.U is u
    a[0, 1] = 2.0
    assert u[0, 1] == 0.5
    with pytest.raises(ValueError):
        u[0, 0] = 2.0
    with pytest.raises(ValueError):
        block_encode(0.5 * X).U[0, 0] = 2.0


OVERFLOW_SCALES = (1e155, 1e200, 1e300)


def overflowing(n, scale):
    """A dense complex matrix with finite entries whose Gram overflows."""
    rng = np.random.default_rng(48)
    dim = 1 << n
    return scale * (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))


@pytest.mark.parametrize("scale", OVERFLOW_SCALES)
@pytest.mark.parametrize("n", [1, 2])
def test_finite_entries_that_overflow_are_invalid_input(n, scale):
    # refused before the eigendecomposition (which fails to converge on an
    # infinite Gram) and with no overflow warning, on every route
    a = overflowing(n, scale)
    dim = 1 << n
    psi = np.eye(dim)[0]
    with pytest.raises(InvalidInputError):
        block_encode(a)
    with pytest.raises(InvalidInputError):
        build_augmented(a, psi, psi)
    for mode in ("abstract", "physical"):
        for b in (None, psi):
            with pytest.raises(InvalidInputError):
                run_pipeline(AffineSequence(n, psi, (AffineStep(a, b),)), mode)


def test_overflowing_modulus_is_invalid_input():
    # |1.7e308 (1 + i)| is infinite: sigma_max, and alpha, would be
    d = np.array([1.7e308 + 1.7e308j, 0.5])
    with pytest.raises(InvalidInputError):
        block_encode(np.diag(d))
    for a in (d, np.diag(d)):
        for mode in ("abstract", "physical"):
            with pytest.raises(InvalidInputError):
                run_pipeline(AffineSequence(1, [1.0, 0.0], (AffineStep(a),)), mode)


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
    n=st.integers(1, 4),
    scale=st.sampled_from([0.5, 1.0, 2.5]),
    seed=st.integers(0, 2**32 - 1),
)
def test_factor_matches_whole_matrix_svd(n, scale, seed):
    # every kind in every example: dense cores, singular pairs (permuted,
    # phased, unit or not), zero rows and columns, alpha above 1, a single
    # nonzero, all zero, A~
    rng = np.random.default_rng(seed)
    for kind, make in sorted(KINDS.items()):
        a = scale * make(rng, 1 << n)
        want_u, want_alpha = whole_matrix_dilation(a)
        enc = block_encode(a)
        assert np.max(np.abs(enc.U - want_u)) <= 1e-12, kind
        # two SVDs of different sizes each read sigma_max O(N) ulp off: up to
        # 9 ulp each for a 32 x 32 A~, against a 40-digit reference
        assert abs(enc.alpha - want_alpha) <= 2 * a.shape[0] * np.spacing(want_alpha), kind


# --- the Gram eigendecomposition at its numerical edges --------------------


def edge_spectrum(rng, count, unit_top):
    """Singular values where the Gram route is weakest: 1 - 10^u just outside
    ONE_TOL (u in [-13, -8]), tiny (<= 1e-9) or exactly 0; the first is the
    largest, 1 or just below it."""
    near_one = 1.0 - 10.0 ** rng.uniform(-13, -8, count)
    kind = rng.integers(3, size=count)
    s = np.where(kind == 0, near_one, np.where(kind == 1, 10.0 ** rng.uniform(-17, -9, count), 0.0))
    s[0] = 1.0 if unit_top else near_one[0]
    return s


@given(
    n=st.integers(2, 64),
    pairs=st.integers(0, 4),
    unit_top=st.booleans(),
    scale=st.sampled_from([1.0, 2.5]),
    seed=st.integers(0, 2**32 - 1),
)
def test_gram_route_at_singular_value_edges(n, pairs, unit_top, scale, seed):
    # a dense core W diag(s) V^dag beside singular pairs of the same kinds
    # (a pair of value 0 is a zero row and column in the core), permuted;
    # alpha is 1, or above 1 for the scaled copies
    rng = np.random.default_rng(seed)
    s = edge_spectrum(rng, n, unit_top)
    c = max(n - pairs, 2)
    a = np.diag(s * np.exp(2j * np.pi * rng.uniform(size=n)))
    a[:c, :c] = random_unitary(rng, c) @ np.diag(s[:c]) @ random_unitary(rng, c).conj().T
    a = scale * a[rng.permutation(n)][:, rng.permutation(n)]
    f = _factor(a)
    assert (f.alpha == 1.0) == (scale == 1.0)
    _check_isometry(f, "step 1")
    assert _deviation(f) <= 1e-12
    assert gram_deviation(f.U) <= 1e-12
    assert np.array_equal(f.U[:n, :n], a / f.alpha)


# --- the block-by-block check of [A; R] against the dense check -----------


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


@given(
    kind=st.sampled_from(sorted(BLOCK_KINDS)),
    n=st.integers(1, 4),
    scale=st.sampled_from([0.5, 1.0, 2.5]),
    stretch=st.sampled_from([0.0, 1e-12, 1e-6]),
    seed=st.integers(0, 2**32 - 1),
)
def test_block_check_decides_as_the_dense_check(kind, n, scale, stretch, seed):
    # [A; R], scaled by 1 + stretch to move the deviation across the
    # tolerance, checked block by block and as the dense [A; R] that U
    # holds in its first N columns (U itself is checked whole)
    rng = np.random.default_rng(seed)
    f = _factor(scale * BLOCK_KINDS[kind](rng, 1 << n))
    dim = f.rs.shape[0]
    k = 1.0 + stretch
    dense = dense_deviation(f.U[:, :dim] * k)
    g = dataclasses.replace(f, a=k * f.a, r=k * f.r, p=k * f.p, rs=k * f.rs)
    block = _deviation(g)
    assert abs(block - dense) <= 1e-15
    assert (block <= UNITARY_TOL) == (dense <= UNITARY_TOL)
    try:
        _check_isometry(g, "step 1")
    except EncodingError:
        assert dense > UNITARY_TOL
    else:
        assert dense <= UNITARY_TOL


# --- the block-by-block write of [A; R] against the dense products -----------


@given(
    n=st.integers(1, 4),
    batch=st.integers(1, 3),
    scale=st.sampled_from([0.5, 1.0, 2.5]),
    half=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_write_dilation_matches_the_dense_products(n, batch, scale, half, seed):
    # every kind in every example: the core as one product and the pairs
    # elementwise, through A's row and column orders, against X (A/alpha)^T
    # and X R^T of the dense blocks U holds.  A dense A (all core) and a
    # diagonal A (all pairs) run the very products of the dense route, on
    # A/alpha as given, and match it exactly
    rng = np.random.default_rng(seed)
    w = 0.5 if half else 1.0
    for kind, make in sorted({**MATRICES, **BLOCK_KINDS}.items()):
        m = scale * make(rng, 1 << n)
        f = _factor(m)
        dim = f.rs.shape[0]
        u = f.U
        dense_a, dense_r = w * np.ascontiguousarray(u[:dim, :dim]), w * np.ascontiguousarray(u[dim:, :dim])
        x = np.array([random_state_vector(rng, dim) for _ in range(batch)])
        a_out, r_out = np.empty_like(x), np.empty_like(x)
        _write_dilation(x, f, w, a_out, r_out)
        assert np.max(np.abs(a_out - x @ dense_a.T)) <= 1e-15, kind
        assert np.max(np.abs(r_out - x @ dense_r.T)) <= 1e-15, kind
        a = w * (m if f.alpha == 1.0 else m / f.alpha)
        if f.rows is None and f.p.size == 0:
            assert np.array_equal(a_out, x @ a.T) and np.array_equal(r_out, x @ dense_r.T), kind
        elif f.rows is None:
            assert np.array_equal(a_out, x * np.diagonal(a)), kind
            assert np.array_equal(r_out, x * np.diagonal(dense_r)), kind
