"""Unitary dilation of square contractions (block encoding).

A matrix A with spectral norm at most alpha embeds into the unitary

    U = [[A/alpha,            sqrt(I - (A/alpha)(A/alpha)^dag)],
         [sqrt(I - (A/alpha)^dag (A/alpha)),        -(A/alpha)^dag]]

so applying U to a register whose top ancilla is |0> acts as A/alpha on the
ancilla-0 block; alpha is 1 for a contraction, else sigma_max.

Every route factors A once, in `_factor`.  A diagonal A takes O(N).
Otherwise the dilation of a direct sum is the direct sum of the dilations,
so an entry alone in its row and column is split off as its own singular
pair and the one SVD runs on the coupled core left over: none for a phased
permutation, N + 1 rows and columns for the baseline's 2N x 2N A~.  The
abstract pipeline stage and the baseline take only the ancilla-0 columns
[A; R] from it (`_check_isometry`, `_write_dilation`); the physical stage's
witness, `block_encode` and the baseline's `enc` (synthesis) build U from
it, checked once, in `BlockEncoding`.

A direct sum is unitary exactly when each summand is, so both checks of a
dilation, U's unitarity and the isometry [A; R], follow the same split
(`_block_deviation`): after one count shows that every entry outside the
blocks is zero, they form the Gram of the core block only and check the
pairs' 2 x 2 (or 2 x 1) blocks in O(N).  A dilation with no pairs, or any
nonzero outside the blocks, is checked whole."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import EncodingError, ShapeError
from .linalg import as_matrix, gram_deviation, is_unitary, max_abs

UNITARY_TOL = 1e-10
# An SVD returns a singular value that is 1 in exact arithmetic a few ulp off
# 1 (within 4 ulp for dense unitaries up to N = 1024), where sqrt(1 - s^2)
# moves ~1.5e-8 per ulp: rounding would decide the residual blocks.  So s
# within ONE_TOL of 1 reads as 1 (r = 0), and sigma_max within ONE_TOL above 1
# as a contraction; A^dag A + R^dag R - I moves by at most 2 * ONE_TOL.
ONE_TOL = 1e-13


@dataclass(frozen=True, eq=False)
class BlockEncoding:
    """A dilation U of A/alpha on a block of dimension block_dim.  U is
    checked for unitarity (within UNITARY_TOL) once, here, and kept as a
    read-only copy, so gates can run it without checking it again.

    `blocks` is A's direct-sum partition (rows, cols, c) from its
    factorization (see `_split`), or None for one dense block.  Given one,
    U is checked block by block (`_block_deviation`), which falls back to
    the dense check whenever an entry outside the blocks is nonzero."""

    U: np.ndarray
    alpha: float
    block_dim: int
    blocks: tuple[np.ndarray, np.ndarray, int] | None = None

    def __post_init__(self):
        u = np.array(self.U, dtype=np.complex128)  # is_unitary validates it
        u.flags.writeable = False
        object.__setattr__(self, "U", u)
        n = self.block_dim
        dev = None if self.blocks is None else _block_deviation(u[:n], u[n:], *self.blocks, wide=True)
        if not (is_unitary(u, UNITARY_TOL) if dev is None else dev <= UNITARY_TOL):
            raise EncodingError(f"dilation failed the unitarity check at {UNITARY_TOL:g}")


class _Dilation(NamedTuple):
    """The dilation of A/alpha: ancilla-0 columns `a` = A/alpha and
    `r` = sqrt(I - A^dag A / alpha^2).  The top-right block
    sqrt(I - A A^dag / alpha^2) is built only by `encoding`, from the core's
    left singular vectors `w`, the residuals `rs` and the row order `rows`
    (see `_residual`).  For a diagonal A (w None) `a` and `r` = `rs` hold
    the diagonals.  `rows`, `cols` and the core size `c` are A's direct-sum
    partition (see `_split`; every index is a pair of a diagonal A), None
    when the core is all of A."""

    a: np.ndarray
    r: np.ndarray
    alpha: float
    w: np.ndarray | None
    rs: np.ndarray
    rows: np.ndarray | None
    cols: np.ndarray | None
    c: int

    @property
    def blocks(self) -> tuple[np.ndarray, np.ndarray, int] | None:
        return None if self.rows is None else (self.rows, self.cols, self.c)

    def encoding(self) -> BlockEncoding:
        """The full 2N x 2N dilation, checked once, block by block."""
        if self.w is None:
            a = np.diag(self.a)
            r = top_right = np.diag(self.r)
        else:
            a, r = self.a, self.r
            top_right = _residual(self.w, self.w.conj().T, self.rs, self.rows)
        return BlockEncoding(np.block([[a, top_right], [r, -a.conj().T]]), self.alpha, a.shape[0], self.blocks)


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


def _residual(left: np.ndarray, right: np.ndarray, rs: np.ndarray, order: np.ndarray | None) -> np.ndarray:
    """left diag(rs) right over the core coordinates order[:c] and rs itself
    on the paired ones order[c:]; order None means the core is everything."""
    c = left.shape[0]
    core = (left * rs[:c]) @ right
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
    dilation: the one SVD runs on the core only, and none runs when the core
    is empty (a phased permutation) or all zero.  A matrix with no zero
    entry has no pairs and is factored whole."""
    diagonal = np.diagonal(m)
    nonzero = np.count_nonzero(m)
    w = vh = rows = cols = None
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
        if core.size:
            w, s, vh = np.linalg.svd(core)
        else:
            w, s, vh = core, np.zeros(0), core
        s = np.concatenate([s, paired])
    sigma = float(s.max())
    alpha = 1.0 if sigma <= 1.0 + ONE_TOL else sigma
    if alpha != 1.0:
        a, s = a / alpha, s / alpha
    s[np.abs(1.0 - s) <= ONE_TOL] = 1.0
    rs = np.sqrt(1.0 - s**2)
    r = rs if vh is None else _residual(vh.conj().T, vh, rs, cols)
    return _Dilation(a, r, alpha, w, rs, rows, cols, c)


def _is_order(o: np.ndarray, n: int) -> bool:
    return o.shape == (n,) and o.dtype.kind in "iu" and np.array_equal(np.sort(o), np.arange(n))


def _block_deviation(top, bottom, rows, cols, c: int, wide: bool) -> float | None:
    """max |M^dag M - I| for M = [top; bottom] over the blocks of A's
    direct-sum partition (rows, cols, c): M is [A; R], or U when `wide`.
    top's rows follow A's rows and bottom's A's columns; M's columns follow
    A's columns, then (U's right half) A's rows.  The core block, 2c rows
    by c (or 2c) columns, is one Gram; the pairs' 2 x 1 (or 2 x 2) blocks
    are checked together in O(N).  M^dag M is the direct sum of the blocks'
    Grams when every entry outside them is zero.  None, for the dense check,
    when one is not, when the partition is not a pair of orders of A's
    indices, or when the deviation is not finite."""
    rows, cols, n = np.asarray(rows), np.asarray(cols), top.shape[0]
    width = 2 * n if wide else n
    if not (_is_order(rows, n) and _is_order(cols, n) and 0 <= c <= n and top.shape == bottom.shape == (n, width)):
        return None
    core_cols, pair_cols = cols[:c], cols[c:, None]
    if wide:
        core_cols = np.concatenate([core_cols, n + rows[:c]])
        pair_cols = np.column_stack([cols[c:], n + rows[c:]])
    parts = ((top, rows), (bottom, cols))
    core = [p[np.ix_(o[:c], core_cols)] for p, o in parts]
    pairs = [p[o[c:, None, None], pair_cols[:, None, :]] for p, o in parts]
    inside = sum(np.count_nonzero(b) for b in core + pairs)
    if np.count_nonzero(top) + np.count_nonzero(bottom) != inside:
        return None
    dev = max(gram_deviation(*b) if b[0].size else 0.0 for b in (core, pairs))
    return dev if np.isfinite(dev) else None


def _check_isometry(f: _Dilation, label: str) -> None:
    """[A; R] must have orthonormal columns: A^dag A + R^dag R = I.  Checked
    elementwise for a diagonal A, over the core's Gram and one 2 x 1 block
    per pair when A splits (`_block_deviation`), else, or when an entry
    outside those blocks is nonzero, by the two dense Grams."""
    if f.a.ndim == 1:
        dev = max_abs(np.abs(f.a) ** 2 + f.r**2 - 1.0)
    else:
        dev = None if f.blocks is None else _block_deviation(f.a, f.r, *f.blocks, wide=False)
        if dev is None:
            dev = gram_deviation(f.a, f.r)
    if dev > UNITARY_TOL:
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
