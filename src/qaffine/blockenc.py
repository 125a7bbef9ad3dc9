"""Unitary dilation of square contractions (block encoding).

A matrix A with spectral norm at most alpha embeds into the unitary

    U = [[A/alpha,            sqrt(I - (A/alpha)(A/alpha)^dag)],
         [sqrt(I - (A/alpha)^dag (A/alpha)),        -(A/alpha)^dag]]

so applying U to a register whose top ancilla is |0> acts as A/alpha on the
ancilla-0 block; alpha is 1 for a contraction, else sigma_max.

Every route factors A once, in `_factor`.  A diagonal A takes O(N).
Otherwise the dilation of a direct sum is the direct sum of the dilations,
so an entry alone in its row and column is split off as its own singular
pair and the one factorization runs on the coupled core left over: none
for a phased permutation, N + 1 rows and columns for the baseline's
2N x 2N A~.  It is one eigendecomposition of the core's Gram A^dag A = V
diag(s^2) V^dag, since the dilation needs no left singular vectors:
R = V diag(sqrt(1 - s^2)) V^dag, and the top-right block is
I - A (I + R)^-1 A^dag (Gilyen, Su, Low, Wiebe, STOC 2019).  The
abstract pipeline stage and the baseline take only the ancilla-0 columns
[A; R] from it (`_check_isometry`, `_write_dilation`); the physical stage's
witness, `block_encode` and the baseline's `enc` (synthesis) build U from
it, checked whole, once, in `BlockEncoding`.

A direct sum is an isometry exactly when each summand is, so the check of
[A; R] follows the same split (`_block_deviation`): after one count shows
that every entry outside the blocks is zero, it forms the Gram of the core
block only and checks the pairs' 2 x 1 blocks in O(N).  [A; R] with no
pairs, or with any nonzero outside the blocks, is checked whole."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import EncodingError, InvalidInputError, ShapeError
from .linalg import as_matrix, gram_deviation, is_unitary, max_abs

UNITARY_TOL = 1e-10
# The square root of an eigenvalue of the Gram reads a singular value that is
# 1 in exact arithmetic a few ulp off 1 (within 2.9e-15, 13 ulp, for dense
# unitaries up to N = 1024), where sqrt(1 - s^2) moves ~1.5e-8 per ulp:
# rounding would decide the residual blocks.  So s within ONE_TOL of 1 reads
# as 1 (r = 0), and sigma_max within ONE_TOL above 1 as a contraction;
# A^dag A + R^dag R - I moves by at most 2 * ONE_TOL.
ONE_TOL = 1e-13


@dataclass(frozen=True, eq=False)
class BlockEncoding:
    """A dilation U of A/alpha, A being U's top-left block of dimension
    block_dim, half U's side.  U is checked whole for unitarity (within
    UNITARY_TOL) once, here, and kept as a read-only copy, so gates can run
    it without checking it again; alpha, which scales the block back to A,
    must be finite and > 0."""

    U: np.ndarray
    alpha: float

    def __post_init__(self):
        if not 0 < self.alpha < np.inf:  # a NaN fails too
            raise InvalidInputError(f"alpha must be finite and > 0, got {self.alpha!r}")
        u = np.array(self.U, dtype=np.complex128)  # is_unitary checks it is square
        if u.ndim != 2 or u.shape[0] % 2:
            raise ShapeError(f"a dilation is a matrix of even side, got shape {u.shape}")
        if not (np.isfinite(u).all() and is_unitary(u, UNITARY_TOL)):  # a NaN is a failed dilation, not bad input
            raise EncodingError(f"dilation failed the unitarity check at {UNITARY_TOL:g}")
        u.flags.writeable = False
        object.__setattr__(self, "U", u)

    @property
    def block_dim(self) -> int:
        return self.U.shape[0] // 2


class _Dilation(NamedTuple):
    """The dilation of A/alpha: ancilla-0 columns `a` = A/alpha and
    `r` = sqrt(I - A^dag A / alpha^2).  The top-right block
    sqrt(I - A A^dag / alpha^2) is built only by `encoding`, from `a`, the
    core's right singular vectors `v` and the residuals `rs`, placed by the
    row order `rows` (see `_residual`).  For a diagonal A (v None) `a` and
    `r` = `rs` hold the diagonals.  `rows`, `cols` and the core size `c`
    are A's direct-sum partition (see `_split`; every index is a pair of a
    diagonal A), None when the core is all of A."""

    a: np.ndarray
    r: np.ndarray
    alpha: float
    v: np.ndarray | None
    rs: np.ndarray
    rows: np.ndarray | None
    cols: np.ndarray | None
    c: int

    def encoding(self) -> BlockEncoding:
        """The full 2N x 2N dilation, checked once, whole."""
        if self.v is None:
            a = np.diag(self.a)
            r = top_right = np.diag(self.r)
        else:
            a, r, c, rs = self.a, self.r, self.c, self.rs[: self.c]
            t = np.zeros((c, c))  # exactly, for a unitary core
            if rs.any():  # W diag(rs) W^dag = I - Y diag(1 / (1 + rs)) Y^dag, Y = A V
                y = (a if self.rows is None else a[np.ix_(self.rows[:c], self.cols[:c])]) @ self.v
                t = np.eye(c) - (y / (1.0 + rs)) @ y.conj().T
            top_right = _residual(t, self.rs, self.rows)
        return BlockEncoding(np.block([[a, top_right], [r, -a.conj().T]]), self.alpha)


def _split(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, int] | None:
    """Row and column orders with the core first and the pairs after it, and
    the core size; None when there is no pair.  A pair is an entry A_ij
    that is the only nonzero of both row i and column j: its own singular
    pair, |A_ij| with vectors e_i (times a phase) and e_j.  Each pair takes
    one row and one column, so the core left over, zero rows and columns
    included, is square."""
    nz = m != 0
    pair_rows = np.flatnonzero(np.count_nonzero(nz, axis=1) == 1)
    pair_cols = nz[pair_rows].argmax(axis=1)
    alone = np.count_nonzero(nz, axis=0)[pair_cols] == 1
    if not alone.any():
        return None
    pair_rows, pair_cols = pair_rows[alone], pair_cols[alone]
    core_rows, core_cols = np.ones(m.shape[0], bool), np.ones(m.shape[0], bool)
    core_rows[pair_rows] = core_cols[pair_cols] = False
    rows = np.concatenate([np.flatnonzero(core_rows), pair_rows])
    cols = np.concatenate([np.flatnonzero(core_cols), pair_cols])
    return rows, cols, m.shape[0] - pair_rows.shape[0]


def _residual(core: np.ndarray, rs: np.ndarray, order: np.ndarray | None) -> np.ndarray:
    """`core` over the core coordinates order[:c] and rs itself on the paired
    ones order[c:]; order None means the core is everything."""
    c = core.shape[0]
    if order is None:
        return core
    out = np.zeros((order.shape[0], order.shape[0]), dtype=np.complex128)
    out[np.ix_(order[:c], order[:c])] = core
    out[order[c:], order[c:]] = rs[c:]
    return out


def _factor(m: np.ndarray) -> _Dilation:
    """Factor a square matrix once.  alpha = sigma_max unless that is at most
    1 + ONE_TOL (then 1), so s / alpha <= 1 holds exactly in IEEE arithmetic;
    singular values of A/alpha within ONE_TOL of 1 become 1 (rs = 0).

    A diagonal A is its own SVD.  Otherwise A is, up to row and column
    orders, the direct sum of a core and its pairs (`_split`), and so is its
    dilation: the one eigendecomposition, of the core's Gram, runs on the
    core only, and none runs when the core is empty (a phased permutation)
    or all zero; s = sqrt(lambda), a negative lambda of rounding read as 0.
    A matrix with no zero entry has no pairs and is factored whole."""
    diagonal = np.diagonal(m)
    nonzero = np.count_nonzero(m)
    v = rows = cols = None
    c = m.shape[0]
    if nonzero == np.count_nonzero(diagonal):
        a, s = diagonal, np.abs(diagonal)
        rows = cols = np.arange(m.shape[0])
        c = 0
    else:
        a, core, paired = m, m, np.zeros(0)
        split = _split(m) if nonzero < m.size else None
        if split is not None:
            rows, cols, c = split
            if nonzero == m.shape[0] - c:  # an all-zero core: its zero rows
                c = 0  # and columns pair off in order, as pairs of value 0
            core, paired = m[np.ix_(rows[:c], cols[:c])], np.abs(m[rows[c:], cols[c:]])
        v, s = core, np.zeros(0)
        if core.size:
            lam, v = np.linalg.eigh(core.conj().T @ core)
            s = np.sqrt(np.maximum(lam, 0.0))
        s = np.concatenate([s, paired])
    sigma = float(s.max())
    alpha = 1.0 if sigma <= 1.0 + ONE_TOL else sigma
    if alpha != 1.0:
        a, s = a / alpha, s / alpha
    s[np.abs(1.0 - s) <= ONE_TOL] = 1.0
    rs = np.sqrt(1.0 - s**2)
    r = rs if v is None else _residual((v * rs[:c]) @ v.conj().T, rs, cols)
    return _Dilation(a, r, alpha, v, rs, rows, cols, c)


def _block_deviation(top, bottom, rows, cols, c: int) -> float | None:
    """max |M^dag M - I| for M = [top; bottom] = [A; R] over the blocks of
    A's direct-sum partition (rows, cols, c) from `_factor`: top's rows
    follow A's rows, bottom's rows and M's columns A's columns.  The core
    block, 2c rows by c columns, is one Gram; the pairs' 2 x 1 blocks are
    checked together in O(N).  M^dag M is the direct sum of the blocks'
    Grams when every entry outside them is zero; None, for the dense check,
    when one is not."""
    parts = ((top, rows), (bottom, cols))
    core = [p[np.ix_(o[:c], cols[:c])] for p, o in parts]
    pairs = [p[o[c:, None, None], cols[c:, None, None]] for p, o in parts]
    inside = sum(np.count_nonzero(b) for b in core + pairs)
    if np.count_nonzero(top) + np.count_nonzero(bottom) != inside:
        return None
    return max_abs([gram_deviation(*b) for b in (core, pairs) if b[0].size])  # max_abs keeps a NaN


def _check_isometry(f: _Dilation, label: str) -> None:
    """[A; R] must have orthonormal columns: A^dag A + R^dag R = I.  Checked
    elementwise for a diagonal A, over the core's Gram and one 2 x 1 block
    per pair when A splits (`_block_deviation`), else, or when an entry
    outside those blocks is nonzero, by the two dense Grams."""
    if f.a.ndim == 1:
        dev = max_abs(np.abs(f.a) ** 2 + f.r**2 - 1.0)
    else:
        dev = None if f.rows is None else _block_deviation(f.a, f.r, f.rows, f.cols, f.c)
        if dev is None:
            dev = gram_deviation(f.a, f.r)
    if not dev <= UNITARY_TOL:
        raise EncodingError(f"{label}: dilation columns deviate from an isometry by {dev:.3e}")


def _write_dilation(x: np.ndarray, a: np.ndarray, r: np.ndarray, a_out: np.ndarray, r_out: np.ndarray) -> None:
    """Write X A^T into a_out and X R^T into r_out, where X holds the register
    as rows over the base index (a diagonal A comes as its diagonal)."""
    if a.ndim == 1:
        np.multiply(x, a, out=a_out)
        np.multiply(x, r, out=r_out)
    else:
        np.matmul(x, a.T, out=a_out)
        np.matmul(x, r.T, out=r_out)


def block_encode(a) -> BlockEncoding:
    """Dilate a square matrix to a unitary twice its size; both residual
    blocks come from one factorization, so they stay exactly intertwined."""
    m = as_matrix(a)
    n, ncols = m.shape
    if n != ncols:
        raise ShapeError(f"block encoding needs a square matrix, got {m.shape}")
    if n & (n - 1) or n < 1:
        raise ShapeError(f"matrix dimension {n} is not a power of two")
    return _factor(m).encoding()
