"""Unitary dilation of square contractions (block encoding).

A matrix A with spectral norm at most alpha embeds into the unitary

    U = [[A/alpha,            sqrt(I - (A/alpha)(A/alpha)^dag)],
         [sqrt(I - (A/alpha)^dag (A/alpha)),        -(A/alpha)^dag]]

so applying U to a register whose top ancilla is |0> acts as A/alpha on the
ancilla-0 block; alpha is 1 for a contraction, else sigma_max.

Every route factors A once, in `_factor`, into the one dilation type,
`BlockEncoding`: A's direct-sum blocks.  The dilation of a direct sum is
the direct sum of the dilations, so an entry alone in its row and column is
split off as its own singular pair and the one factorization runs on the
coupled core left over: all of a matrix with no zero entry, none for a
diagonal A or a phased permutation, N + 1 rows and columns for the
baseline's 2N x 2N A~.  It is
one eigendecomposition of the core's Gram A^dag A = V diag(s^2) V^dag,
since the dilation needs no left singular vectors: R = V diag(sqrt(1 - s^2))
V^dag, and the top-right block is I - A (I + R)^-1 A^dag (Gilyen, Su, Low,
Wiebe, STOC 2019).  A diagonal A given as its 1-d diagonal (a pipeline step
may be) is taken as its pairs directly, so its factorization, check and
stage are all O(N).

The abstract pipeline stage and the baseline take only the ancilla-0
columns [A; R], block by block: `_check_isometry` forms the core's Gram and
checks the pairs' 2 x 1 blocks in O(N) (a direct sum is an isometry exactly
when each summand is), and `_write_dilation` runs the core as one product
and the pairs elementwise; neither reads U, which the first read writes out
densely and checks whole, once: the physical stage's witness gate,
`block_encode` and synthesis of the baseline's `enc`."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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
    """The dilation of A/alpha as A's direct-sum blocks, in `_split`'s row
    order `rows` and column order `cols`: the c x c core `a` of A/alpha, its
    residual `r` = V diag(rs[:c]) V^dag from the core's right singular
    vectors `v`, the pair values `p` = (A/alpha)[rows[c:], cols[c:]] and all
    residuals `rs` = sqrt(1 - s^2), the core's first.  R = sqrt(I - A^dag A
    / alpha^2) is `r` over cols[:c] and rs[c:] at the pairs' columns.
    rows = cols = None is the identity order, of a matrix that is all core
    (no pair) or all pairs (a diagonal A).  Only `_factor` builds one, so
    alpha, which scales the block back to A, is finite and > 0."""

    a: np.ndarray
    r: np.ndarray
    v: np.ndarray
    p: np.ndarray
    rs: np.ndarray
    alpha: float
    rows: np.ndarray | None
    cols: np.ndarray | None

    @cached_property
    def U(self) -> np.ndarray:
        """The 2N x 2N dilation: on the first read the blocks are written out
        densely, the one place they are, and U is checked whole within
        UNITARY_TOL, then kept read-only, so gates run it unchecked.  The
        top-right block sqrt(I - A A^dag / alpha^2) holds rs[c:] at the
        pairs' rows too."""
        c = self.a.shape[0]
        rs, pair_rs = self.rs[:c], self.rs[c:]
        t = np.zeros((c, c))  # exactly, for a unitary core
        if rs.any():  # W diag(rs) W^dag = I - Y diag(1 / (1 + rs)) Y^dag, Y = A V
            y = self.a @ self.v
            t = np.eye(c) - (y / (1.0 + rs)) @ y.conj().T
        rows, cols = self.rows, self.cols
        blocks = ((self.a, self.p, rows, cols), (self.r, pair_rs, cols, cols), (t, pair_rs, rows, rows))
        a, r, top_right = (_dense(*b) for b in blocks)
        u = np.block([[a, top_right], [r, -a.conj().T]])
        if not is_unitary(u, UNITARY_TOL):  # a NaN fails too
            raise EncodingError(f"dilation failed the unitarity check at {UNITARY_TOL:g}")
        u.flags.writeable = False
        return u


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


def _factor(m: np.ndarray) -> BlockEncoding:
    """Factor a square matrix, or a diagonal one given as its 1-d diagonal,
    once.  alpha = sigma_max unless that is at most 1 + ONE_TOL (then 1), so
    s / alpha <= 1 holds exactly in IEEE arithmetic; singular values of
    A/alpha within ONE_TOL of 1 become 1 (rs = 0).

    A is, up to row and column orders, the direct sum of a core and its
    pairs (`_split`), and so is its dilation: the one eigendecomposition, of
    the core's Gram, runs on the core only, and none runs when the core is
    empty (a diagonal A, a phased permutation) or all zero; s = sqrt(lambda),
    a negative lambda of rounding read as 0.  A diagonal A is all pairs and
    a matrix with no zero entry all core, both in the identity order.  A
    1-d m is A's diagonal itself: all pairs, found with no scan of A.  A
    Gram or sigma_max that overflows is InvalidInputError, raised before
    eigh and before the division by alpha."""
    rows = cols = None
    core, pairs = np.zeros((0, 0), m.dtype), m
    if m.ndim == 2:
        diagonal = np.diagonal(m)
        nonzero = np.count_nonzero(m)
        if nonzero == np.count_nonzero(diagonal):
            pairs = diagonal
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
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused next
            gram = core.conj().T @ core
        if not np.isfinite(gram).all():
            raise InvalidInputError("the Gram of the matrix is not finite: its entries are too large")
        lam, v = np.linalg.eigh(gram)
        s = np.concatenate([np.sqrt(np.maximum(lam, 0.0)), s])
    sigma = float(s.max())
    if not sigma < np.inf:
        raise InvalidInputError(f"spectral norm {sigma!r} overflows")
    alpha = 1.0 if sigma <= 1.0 + ONE_TOL else sigma
    if alpha != 1.0:
        core, pairs, s = core / alpha, pairs / alpha, s / alpha
    s[np.abs(1.0 - s) <= ONE_TOL] = 1.0
    rs = np.sqrt(1.0 - s**2)
    return BlockEncoding(core, (v * rs[:c]) @ v.conj().T, v, pairs, rs, alpha, rows, cols)


def _deviation(f: BlockEncoding) -> float:
    """max |M^dag M - I| for M = [A; R], the dilation's ancilla-0 columns.
    A direct sum is an isometry exactly when each summand is, so this forms
    the core's Gram and checks the pairs' 2 x 1 blocks [p; rs] as one batch."""
    c = f.a.shape[0]
    blocks = ((f.a, f.r), (f.p[:, None, None], f.rs[c:, None, None]))
    return max_abs([gram_deviation(*b) for b in blocks if b[0].size])  # max_abs keeps a NaN


def _check_isometry(f: BlockEncoding, label: str) -> None:
    """[A; R] must have orthonormal columns: A^dag A + R^dag R = I."""
    dev = _deviation(f)
    if not dev <= UNITARY_TOL:
        raise EncodingError(f"{label}: dilation columns deviate from an isometry by {dev:.3e}")


def _write_dilation(x: np.ndarray, f: BlockEncoding, scale: float, a_out: np.ndarray, r_out: np.ndarray) -> None:
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
    """Dilate a square matrix to a unitary twice its size, U built and
    checked; both residual blocks come from one factorization."""
    m = as_matrix(a)
    n, ncols = m.shape
    if n != ncols:
        raise ShapeError(f"block encoding needs a square matrix, got {m.shape}")
    if n & (n - 1) or n < 1:
        raise ShapeError(f"matrix dimension {n} is not a power of two")
    f = _factor(m)
    f.U  # built and checked now, so a failed dilation is refused here
    return f
