"""Unitary dilation of square contractions (block encoding).

A matrix A with spectral norm at most alpha embeds into the unitary

    U = [[A/alpha,            sqrt(I - (A/alpha)(A/alpha)^dag)],
         [sqrt(I - (A/alpha)^dag (A/alpha)),        -(A/alpha)^dag]]

so applying U to a register whose top ancilla is |0> acts as A/alpha on the
ancilla-0 block.

The full 2N x 2N unitary is built only where a circuit needs it: the
pipeline's physical mode (its gate witness), the homogeneous-coordinate
baseline and gate synthesis.  The pipeline's abstract mode never builds it;
it writes the ancilla-0 columns [A; sqrt(I - A^dag A)] directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EncodingError, ShapeError
from .linalg import as_matrix, is_unitary

ALPHA_GUARD = 1e-12
UNITARY_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class BlockEncoding:
    """A dilation U of A/alpha on a block of dimension block_dim; U is
    checked for unitarity (within UNITARY_TOL) once, here."""

    U: np.ndarray
    alpha: float
    block_dim: int

    def __post_init__(self):
        if not is_unitary(self.U, UNITARY_TOL):
            raise EncodingError(f"dilation failed the unitarity check at {UNITARY_TOL:g}")


def block_encode(a) -> BlockEncoding:
    """Dilate a square matrix to a unitary twice its size.

    One SVD A = W diag(s) V^dag gives everything: sigma_max = s[0]; alpha is
    exactly 1 when sigma_max <= 1, otherwise sigma_max inflated by a relative
    ALPHA_GUARD; the singular values of A/alpha are s/alpha <= 1, so both
    residual blocks W sqrt(1 - (s/alpha)^2) W^dag and
    V sqrt(1 - (s/alpha)^2) V^dag are PSD by construction.  Taking them from
    the same factorization keeps the off-diagonal blocks exactly intertwined.
    The guard is kept for the value of alpha, which the baseline reports.
    """
    m = as_matrix(a)
    n, ncols = m.shape
    if n != ncols:
        raise ShapeError(f"block encoding needs a square matrix, got {m.shape}")
    if n & (n - 1) or n < 1:
        raise ShapeError(f"matrix dimension {n} is not a power of two")
    w, s, vh = np.linalg.svd(m)
    alpha = 1.0 if s[0] <= 1.0 else float(s[0]) * (1.0 + ALPHA_GUARD)
    at = m / alpha
    r = np.sqrt(1.0 - (s / alpha) ** 2)
    top_right = (w * r) @ w.conj().T
    bottom_left = (vh.conj().T * r) @ vh
    u = np.block([[at, top_right], [bottom_left, -at.conj().T]])
    return BlockEncoding(u, alpha, n)
