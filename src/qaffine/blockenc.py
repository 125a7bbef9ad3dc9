"""Unitary dilation of square contractions (block encoding).

A matrix A with spectral norm at most alpha embeds into the unitary

    U = [[A/alpha,            sqrt(I - (A/alpha)(A/alpha)^dag)],
         [sqrt(I - (A/alpha)^dag (A/alpha)),        -(A/alpha)^dag]]

so applying U to a register whose top ancilla is |0> acts as A/alpha on the
ancilla-0 block; alpha is 1 for a contraction, else sigma_max.

Every route factors A once, in `_factor`, and keeps only A's direct-sum
blocks (`_Dilation`).  The dilation of a direct sum is the direct sum of
the dilations, so an entry alone in its row and column is split off as its
own singular pair and the one factorization runs on the coupled core left
over: all of a matrix with no zero entry, none for a diagonal A or a phased
permutation, N + 1 rows and columns for the baseline's 2N x 2N A~.  It is
one eigendecomposition of the core's Gram A^dag A = V diag(s^2) V^dag,
since the dilation needs no left singular vectors: R = V diag(sqrt(1 - s^2))
V^dag, and the top-right block is I - A (I + R)^-1 A^dag (Gilyen, Su, Low,
Wiebe, STOC 2019).

The abstract pipeline stage and the baseline take only the ancilla-0
columns [A; R], block by block: `_check_isometry` forms the core's Gram and
checks the pairs' 2 x 1 blocks in O(N) (a direct sum is an isometry exactly
when each summand is), and `_write_dilation` runs the core as one product
and the pairs elementwise.  Only `_Dilation.encoding` writes the blocks out
densely, to build U for the physical stage's witness, `block_encode` and
the baseline's `enc` (synthesis); U is checked whole, once, in
`BlockEncoding`."""

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
    """A dilation U of A/alpha, A being U's top-left block, half U's side.
    U is checked whole for unitarity (within UNITARY_TOL) once, here, and
    kept as a read-only copy, so gates can run it without checking it again;
    alpha, which scales the block back to A, must be finite and > 0."""

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


class _Dilation(NamedTuple):
    """The dilation of A/alpha as A's direct-sum blocks, in `_split`'s row
    order `rows` and column order `cols`: the c x c core `a` of A/alpha, its
    residual `r` = V diag(rs[:c]) V^dag from the core's right singular
    vectors `v`, the pair values `p` = (A/alpha)[rows[c:], cols[c:]] and all
    residuals `rs` = sqrt(1 - s^2), the core's first.  R = sqrt(I - A^dag A
    / alpha^2) is `r` over cols[:c] and rs[c:] at the pairs' columns.
    rows = cols = None is the identity order, of a matrix that is all core
    (no pair) or all pairs (a diagonal A)."""

    a: np.ndarray
    r: np.ndarray
    v: np.ndarray
    p: np.ndarray
    rs: np.ndarray
    alpha: float
    rows: np.ndarray | None
    cols: np.ndarray | None

    def encoding(self) -> BlockEncoding:
        """The full 2N x 2N dilation, checked once, whole; the one place the
        blocks are written out densely.  The top-right block
        sqrt(I - A A^dag / alpha^2) holds rs[c:] at the pairs' rows too."""
        c = self.a.shape[0]
        rs, pair_rs = self.rs[:c], self.rs[c:]
        t = np.zeros((c, c))  # exactly, for a unitary core
        if rs.any():  # W diag(rs) W^dag = I - Y diag(1 / (1 + rs)) Y^dag, Y = A V
            y = self.a @ self.v
            t = np.eye(c) - (y / (1.0 + rs)) @ y.conj().T
        rows, cols = self.rows, self.cols
        blocks = ((self.a, self.p, rows, cols), (self.r, pair_rs, cols, cols), (t, pair_rs, rows, rows))
        a, r, top_right = (_dense(*b) for b in blocks)
        return BlockEncoding(np.block([[a, top_right], [r, -a.conj().T]]), self.alpha)


def _dense(core: np.ndarray, pairs: np.ndarray, rows: np.ndarray | None, cols: np.ndarray | None) -> np.ndarray:
    """The N x N matrix with `core` over rows[:c] x cols[:c] and pair k's
    value at (rows[c + k], cols[c + k]); None is the identity order."""
    if rows is None:  # all core, or all pairs on the diagonal
        return core if core.size else np.diag(pairs)
    c = core.shape[0]
    out = np.zeros((rows.shape[0],) * 2, dtype=np.complex128)
    out[np.ix_(rows[:c], cols[:c])] = core
    out[rows[c:], cols[c:]] = pairs
    return out


def _split(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, int] | None:
    """Row and column orders with the core first and the pairs after it, and
    the core size; None when there is no pair.  A pair is an entry A_ij
    that is the only nonzero of both row i and column j: its own singular
    pair, |A_ij| with vectors e_i (times a phase) and e_j.  Each pair takes
    one row and one column, so the core left over, zero rows and columns
    included, is square."""
    nz = m != 0
    pair_rows = np.flatnonzero(np.count_nonzero(nz, axis=1) == 1)
    pair_cols = nz.argmax(axis=1)[pair_rows]
    alone = np.count_nonzero(nz, axis=0)[pair_cols] == 1
    if not alone.any():
        return None
    pair_rows, pair_cols = pair_rows[alone], pair_cols[alone]
    core_rows, core_cols = np.ones(m.shape[0], bool), np.ones(m.shape[0], bool)
    core_rows[pair_rows] = core_cols[pair_cols] = False
    rows = np.concatenate([np.flatnonzero(core_rows), pair_rows])
    cols = np.concatenate([np.flatnonzero(core_cols), pair_cols])
    return rows, cols, m.shape[0] - pair_rows.shape[0]


def _factor(m: np.ndarray) -> _Dilation:
    """Factor a square matrix once.  alpha = sigma_max unless that is at most
    1 + ONE_TOL (then 1), so s / alpha <= 1 holds exactly in IEEE arithmetic;
    singular values of A/alpha within ONE_TOL of 1 become 1 (rs = 0).

    A is, up to row and column orders, the direct sum of a core and its
    pairs (`_split`), and so is its dilation: the one eigendecomposition, of
    the core's Gram, runs on the core only, and none runs when the core is
    empty (a diagonal A, a phased permutation) or all zero; s = sqrt(lambda),
    a negative lambda of rounding read as 0.  A diagonal A is all pairs and
    a matrix with no zero entry all core, both in the identity order."""
    diagonal = np.diagonal(m)
    nonzero = np.count_nonzero(m)
    rows = cols = None
    if nonzero == np.count_nonzero(diagonal):
        core, pairs = m[:0, :0], diagonal
    else:
        core, pairs = m, diagonal[:0]
        split = _split(m) if nonzero < m.size else None
        if split is not None:
            rows, cols, c = split
            if nonzero == m.shape[0] - c:  # an all-zero core: its zero rows
                c = 0  # and columns pair off in order, as pairs of value 0
            core, pairs = m[np.ix_(rows[:c], cols[:c])], m[rows[c:], cols[c:]]
    c = core.shape[0]
    v, s = core, np.abs(pairs)
    if c:
        lam, v = np.linalg.eigh(core.conj().T @ core)
        s = np.concatenate([np.sqrt(np.maximum(lam, 0.0)), s])
    sigma = float(s.max())
    alpha = 1.0 if sigma <= 1.0 + ONE_TOL else sigma
    if alpha != 1.0:
        core, pairs, s = core / alpha, pairs / alpha, s / alpha
    s[np.abs(1.0 - s) <= ONE_TOL] = 1.0
    rs = np.sqrt(1.0 - s**2)
    return _Dilation(core, (v * rs[:c]) @ v.conj().T, v, pairs, rs, alpha, rows, cols)


def _deviation(f: _Dilation) -> float:
    """max |M^dag M - I| for M = [A; R], the dilation's ancilla-0 columns.
    A direct sum is an isometry exactly when each summand is, so this forms
    the core's Gram and checks the pairs' 2 x 1 blocks [p; rs] as one batch."""
    c = f.a.shape[0]
    blocks = ((f.a, f.r), (f.p[:, None, None], f.rs[c:, None, None]))
    return max_abs([gram_deviation(*b) for b in blocks if b[0].size])  # max_abs keeps a NaN


def _check_isometry(f: _Dilation, label: str) -> None:
    """[A; R] must have orthonormal columns: A^dag A + R^dag R = I."""
    dev = _deviation(f)
    if not dev <= UNITARY_TOL:
        raise EncodingError(f"{label}: dilation columns deviate from an isometry by {dev:.3e}")


def _write_dilation(x: np.ndarray, f: _Dilation, scale: float, a_out: np.ndarray, r_out: np.ndarray) -> None:
    """Write scale * X (A/alpha)^T into a_out and scale * X R^T into r_out,
    where X holds the register as rows over the base index: the core as one
    product, the pairs elementwise, gathered and scattered through A's
    orders only when they are not the identity."""
    c = f.a.shape[0]
    a, r, p, rs = scale * f.a, scale * f.r, scale * f.p, scale * f.rs[c:]
    if f.rows is None:  # all core or all pairs
        if c:
            np.matmul(x, a.T, out=a_out)
            np.matmul(x, r.T, out=r_out)
        else:
            np.multiply(x, p, out=a_out)
            np.multiply(x, rs, out=r_out)
        return
    rows, cols = f.rows, f.cols
    core_x, pair_x = x[:, cols[:c]], x[:, cols[c:]]
    a_out[:, rows[:c]] = core_x @ a.T
    r_out[:, cols[:c]] = core_x @ r.T
    a_out[:, rows[c:]] = pair_x * p
    r_out[:, cols[c:]] = pair_x * rs


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
