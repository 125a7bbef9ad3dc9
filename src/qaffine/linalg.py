"""Dense complex linear algebra used by the engine modules."""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError, NormalizationError, ShapeError

UNIT_NORM_TOL = 1e-8


def as_vector(x) -> np.ndarray:
    """Validate and return a finite 1-d complex128 array."""
    a = np.asarray(x, dtype=np.complex128)
    if a.ndim != 1 or a.shape[0] < 1:
        raise ShapeError(f"expected a 1-d vector, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise InvalidInputError("vector entries must be finite")
    return a


def as_matrix(m) -> np.ndarray:
    """Validate and return a finite 2-d complex128 array."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ShapeError(f"expected a 2-d matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise InvalidInputError("matrix entries must be finite")
    return a


def check_unit_norm(v, label: str) -> float:
    """Norm of an input vector that must be a unit vector; raises unless it
    lies within UNIT_NORM_TOL of 1."""
    nrm = float(np.linalg.norm(v))
    if abs(nrm - 1.0) > UNIT_NORM_TOL:
        raise NormalizationError(f"{label} norm {nrm!r} not within {UNIT_NORM_TOL:g} of 1")
    return nrm


def max_abs(m) -> float:
    return float(np.max(np.abs(m)))


def is_unitary(m, tol: float) -> bool:
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"unitarity is only defined for square matrices, got {a.shape}")
    return max_abs(a.conj().T @ a - np.eye(a.shape[0])) <= tol


def completion_unitary(v) -> np.ndarray:
    """Unitary whose first column is the given vector, renormalized.

    A Householder reflector H = I - 2 w w^dag / |w|^2 with
    w = e_0 + e^{-i phi} x (phi = arg x_0, 0 when x_0 = 0) maps e_0 to
    -e^{-i phi} x; the plus sign keeps |w|^2 >= 2.  The first column is then
    set to x itself, a unit-modulus rescaling of that column, so the matrix
    stays unitary and its first column is x bit for bit.  O(d^2), no
    factorization.
    """
    x = as_vector(v)
    nrm = np.linalg.norm(x)
    if nrm < 1e-12:
        raise NormalizationError("cannot complete a (near-)zero vector to a unitary")
    x = x / nrm
    w = x * np.exp(-1j * np.angle(x[0]))
    w[0] += 1.0
    h = np.outer(w, (-2.0 / np.vdot(w, w).real) * w.conj())
    h.flat[:: x.shape[0] + 1] += 1.0  # add the identity along the diagonal
    h[:, 0] = x
    return h
