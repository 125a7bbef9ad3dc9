"""Single-shot affine baseline via homogeneous coordinates.

The map x -> A x + B embeds into one linear map on a doubled register:

    A~ = [[A, 0 | B],      psi~ = (1/sqrt(2)) [psi; 0; ...; 0; 1]
          [0,     I]]

(B sits in the last column of the top-right block, the constant 1 in the
last amplitude).  One dilation of A~ then computes A psi + B in a single
unitary of dimension 4N x 4N, versus 2N x 2N per stage for the sequential
pipeline.  Used as an independent cross-check and as the cost baseline for
gate counting.  The N - 1 identity coordinates of A~ that B does not touch
are singular pairs of their own, so factoring A~ takes one SVD of the
(N + 1) x (N + 1) core that A and B couple (`blockenc._factor`).  The
4N x 4N unitary is still built whole, but checked over the same split: one
Gram of its 2(N + 1)-wide core block and a 2 x 2 block per pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import simulator
from .blockenc import BlockEncoding, block_encode
from .errors import ShapeError
from .linalg import as_matrix, as_vector, check_unit_norm


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
    bv = as_vector(b)
    p = as_vector(psi)
    if bv.shape[0] != n or p.shape[0] != n:
        raise ShapeError(
            f"translation/state lengths {bv.shape[0]}/{p.shape[0]} != matrix dimension {n}"
        )
    nrm = check_unit_norm(p, "psi")
    at = np.zeros((2 * n, 2 * n), dtype=np.complex128)
    at[:n, :n] = m
    at[:n, 2 * n - 1] = bv
    at[n:, n:] = np.eye(n)
    pt = np.zeros(2 * n, dtype=np.complex128)
    pt[:n] = p / nrm
    pt[2 * n - 1] = 1.0
    pt /= np.sqrt(2.0)
    return AugmentedAffine(at, pt, block_encode(at))


def run_augmented(aug: AugmentedAffine) -> np.ndarray:
    """Prepare psi~, apply the dilation of A~, de-scale: returns A psi + B."""
    n1 = aug.psi_tilde.shape[0].bit_length() - 1  # n + 1 qubits
    st = simulator.init_amplitudes(aug.psi_tilde)
    st = simulator.prepend_ancilla(st)
    st = simulator._apply_gate(st, aug.enc.U, tuple(range(n1, -1, -1)), (), ())
    half = aug.psi_tilde.shape[0] // 2
    return np.sqrt(2.0) * aug.enc.alpha * st.amplitudes[:half]
