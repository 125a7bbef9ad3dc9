"""Unitary dilation of square contractions (block encoding).

A matrix A with spectral norm at most alpha embeds into the unitary

    U = [[A/alpha,            sqrt(I - (A/alpha)(A/alpha)^dag)],
         [sqrt(I - (A/alpha)^dag (A/alpha)),        -(A/alpha)^dag]]

so applying U to a register whose top ancilla is |0> acts as A/alpha on the
ancilla-0 block; alpha is 1 for a contraction, else sigma_max.

Every route factors A once, in `_factor` (one SVD, or O(N) for a diagonal
A).  The abstract pipeline stage takes only the ancilla-0 columns from it;
the physical stage's witness and `block_encode` (baseline, synthesis) build
U from it, checked once, in `BlockEncoding`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import EncodingError, ShapeError
from .linalg import as_matrix, is_unitary

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
    read-only copy, so gates can run it without checking it again."""

    U: np.ndarray
    alpha: float
    block_dim: int

    def __post_init__(self):
        u = np.array(self.U, dtype=np.complex128)  # is_unitary validates it
        u.flags.writeable = False
        object.__setattr__(self, "U", u)
        if not is_unitary(u, UNITARY_TOL):
            raise EncodingError(f"dilation failed the unitarity check at {UNITARY_TOL:g}")


class _Dilation(NamedTuple):
    """The dilation of A/alpha from A = W diag(s) V^dag: ancilla-0 columns
    `a` = A/alpha and `r` = V diag(rs) V^dag, top-right block W diag(rs) W^dag.
    For a diagonal A (w None) `a` and `r` = `rs` hold the diagonals."""

    a: np.ndarray
    r: np.ndarray
    alpha: float
    w: np.ndarray | None
    rs: np.ndarray

    def encoding(self) -> BlockEncoding:
        """The full 2N x 2N dilation, checked once."""
        if self.w is None:
            a = np.diag(self.a)
            r = top_right = np.diag(self.r)
        else:
            a, r = self.a, self.r
            top_right = (self.w * self.rs) @ self.w.conj().T
        return BlockEncoding(np.block([[a, top_right], [r, -a.conj().T]]), self.alpha, a.shape[0])


def _factor(m: np.ndarray) -> _Dilation:
    """Factor a square matrix once.  alpha = sigma_max unless that is at most
    1 + ONE_TOL (then 1), so s / alpha <= 1 holds exactly in IEEE arithmetic;
    singular values of A/alpha within ONE_TOL of 1 become 1 (rs = 0)."""
    diagonal = np.diagonal(m)
    if np.count_nonzero(m) == np.count_nonzero(diagonal):
        a, s, w, vh = diagonal, np.abs(diagonal), None, None
    else:
        w, s, vh = np.linalg.svd(m)
        a = m
    sigma = float(s.max())
    alpha = 1.0 if sigma <= 1.0 + ONE_TOL else sigma
    if alpha != 1.0:
        a, s = a / alpha, s / alpha
    s[np.abs(1.0 - s) <= ONE_TOL] = 1.0
    rs = np.sqrt(1.0 - s**2)
    return _Dilation(a, rs if vh is None else (vh.conj().T * rs) @ vh, alpha, w, rs)


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
