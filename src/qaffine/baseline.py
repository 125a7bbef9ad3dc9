"""Single-shot affine baseline via homogeneous coordinates.

The map x -> A x + B embeds into one linear map on a doubled register:

    A~ = [[A, 0 | B],      psi~ = (1/sqrt(2)) [psi; 0; ...; 0; 1]
          [0,     I]]

(B sits in the last column of the top-right block, the constant 1 in the
last amplitude).  One dilation of A~ then computes A psi + B in a single
4N x 4N unitary, versus 2N x 2N per sequential stage: an independent
cross-check and the cost baseline for gate counting.  Factoring A~ takes one
eigendecomposition of the Gram of the N + 1 coordinates that A and B couple;
the other N - 1 are singular pairs (`blockenc._factor`).  Only the ancilla-0
columns [A~/alpha ; R~] act, as in an abstract stage: they alone are checked
and applied, block by block from the factorization `enc`; its U is built
and checked only when a circuit reads it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blockenc import BlockEncoding, _check_isometry, _factor, _write_dilation
from .errors import ShapeError
from .linalg import as_matrix, as_vector, check_unit_norm
from .simulator import _check_normalized


@dataclass(frozen=True, eq=False)
class AugmentedAffine:
    A_tilde: np.ndarray
    psi_tilde: np.ndarray
    enc: BlockEncoding


def build_augmented(a, b, psi) -> AugmentedAffine:
    m = as_matrix(a)
    n, ncols = m.shape
    if n != ncols:
        raise ShapeError(f"baseline needs a square matrix, got {m.shape}")
    if n < 2 or n & (n - 1):
        raise ShapeError(f"matrix dimension {n} is not a power of two >= 2")
    bv, p = as_vector(b), as_vector(psi)
    if bv.shape[0] != n or p.shape[0] != n:
        raise ShapeError(f"translation/state lengths {bv.shape[0]}/{p.shape[0]} != matrix dimension {n}")
    at = np.zeros((2 * n, 2 * n), dtype=np.complex128)
    at[:n, :n] = m
    at[:n, 2 * n - 1] = bv
    at[n:, n:] = np.eye(n)
    pt = np.zeros(2 * n, dtype=np.complex128)
    pt[:n], pt[-1] = p / check_unit_norm(p, "psi"), 1.0
    pt /= np.sqrt(2.0)
    f = _factor(at)
    _check_isometry(f, "baseline")
    return AugmentedAffine(at, pt, f)


def run_augmented(aug: AugmentedAffine) -> np.ndarray:
    """A psi + B: the checked ancilla-0 columns of A~'s dilation on psi~."""
    f, x = aug.enc, aug.psi_tilde[None, :]
    phi = np.empty((2, x.shape[1]), dtype=np.complex128)
    _write_dilation(x, f, 1.0, phi[:1], phi[1:])
    _check_normalized(phi)
    return np.sqrt(2.0) * f.alpha * phi[0, : x.shape[1] // 2]
