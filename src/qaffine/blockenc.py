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
from .linalg import EIGENVALUE_TOL, as_matrix, is_unitary, spectral_norm

ALPHA_GUARD = 1e-12
UNITARY_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class BlockEncoding:
    U: np.ndarray
    alpha: float
    block_dim: int


def block_encode(a) -> BlockEncoding:
    """Dilate a square matrix to a unitary twice its size.

    alpha is exactly 1 when sigma_max(A) <= 1, otherwise sigma_max inflated
    by a relative 1e-12 guard so the residual blocks stay numerically PSD.
    Both residual square roots sqrt(I - (A/a)(A/a)^dag) and
    sqrt(I - (A/a)^dag (A/a)) are built from a single SVD of A/alpha, which
    keeps the off-diagonal blocks exactly intertwined; two independent
    eigendecompositions would lose ~1/sqrt(residual) digits when alpha pins
    the top singular value at 1 - 1e-12.
    """
    m = as_matrix(a)
    n, ncols = m.shape
    if n != ncols:
        raise ShapeError(f"block encoding needs a square matrix, got {m.shape}")
    if n & (n - 1) or n < 1:
        raise ShapeError(f"matrix dimension {n} is not a power of two")
    sigma = spectral_norm(m)
    alpha = 1.0 if sigma <= 1.0 else sigma * (1.0 + ALPHA_GUARD)
    at = m / alpha
    w, s, vh = np.linalg.svd(at)
    resid = 1.0 - s**2
    if np.min(resid) < -EIGENVALUE_TOL:
        raise EncodingError(
            f"residual block not PSD: singular value {np.max(s)!r} exceeds 1"
        )
    r = np.sqrt(np.clip(resid, 0.0, None))
    top_right = (w * r) @ w.conj().T
    bottom_left = (vh.conj().T * r) @ vh
    u = np.block([[at, top_right], [bottom_left, -at.conj().T]])
    if not is_unitary(u, UNITARY_TOL):
        raise EncodingError(f"dilation failed the unitarity check at {UNITARY_TOL:g}")
    return BlockEncoding(u, alpha, n)
