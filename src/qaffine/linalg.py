"""Dense complex linear algebra used by the engine modules."""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError, NormalizationError, ShapeError

EIGENVALUE_TOL = 1e-10
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


def spectral_norm(m) -> float:
    """Largest singular value of a (possibly rectangular) matrix."""
    return float(np.linalg.norm(as_matrix(m), 2))


def is_unitary(m, tol: float) -> bool:
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"unitarity is only defined for square matrices, got {a.shape}")
    return max_abs(a.conj().T @ a - np.eye(a.shape[0])) <= tol


def completion_unitary(v) -> np.ndarray:
    """Unitary whose first column is the given unit vector.

    The remaining columns come from orthonormalizing standard basis vectors
    against v (the basis vector at v's largest component is dropped so the
    starting set is always independent).
    """
    x = as_vector(v)
    nrm = np.linalg.norm(x)
    if nrm < 1e-12:
        raise NormalizationError("cannot complete a (near-)zero vector to a unitary")
    x = x / nrm
    d = x.shape[0]
    pivot = int(np.argmax(np.abs(x)))
    cols = np.zeros((d, d), dtype=np.complex128)
    cols[:, 0] = x
    rest = [i for i in range(d) if i != pivot]
    for k, i in enumerate(rest, start=1):
        cols[i, k] = 1.0
    q, _ = np.linalg.qr(cols)
    q = np.ascontiguousarray(q)
    # qr fixes the first column only up to phase; pin it to x exactly
    q[:, 0] = x
    return q
