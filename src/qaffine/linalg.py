"""Complex linear algebra used by the engine modules.

Matrices are dense complex128 arrays, with one structured exception: a state
preparation is a `Reflector`, a d x d unitary held as O(d) data.  It checks
its own unitarity in O(d) when it is built, and `@` applies it in
O(d * batch), so gate code can run it where it runs a dense matrix.
`completion_unitary` is its dense view.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NormalizationError, ShapeError, UnitarityError

UNIT_NORM_TOL = 1e-8
UNITARY_ATOL = 1e-9


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
    if not abs(nrm - 1.0) <= UNIT_NORM_TOL:
        raise NormalizationError(f"{label} norm {nrm!r} not within {UNIT_NORM_TOL:g} of 1")
    return nrm


def max_abs(m) -> float:
    return float(np.max(np.abs(m)))


def gram_deviation(*parts: np.ndarray) -> float:
    """max |M^dag M - I| for M the row stack of the parts, as the sum of
    their Grams.  Parts of shape (..., rows, cols) stack per leading index,
    so a batch of small blocks is checked in one call."""
    gram = parts[0].conj().swapaxes(-1, -2) @ parts[0]
    for p in parts[1:]:
        gram += p.conj().swapaxes(-1, -2) @ p
    w = gram.shape[-1]
    gram.reshape(*gram.shape[:-2], w * w)[..., :: w + 1] -= 1.0  # subtract the identity along the diagonals
    return max_abs(gram)


def is_unitary(m, tol: float) -> bool:
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"unitarity is only defined for square matrices, got {a.shape}")
    return gram_deviation(a) <= tol


@dataclass(frozen=True, eq=False)
class Reflector:
    """The d x d unitary U = (I - u u^dag) diag(p, 1, ..., 1), with
    |u|^2 = 2 and |p| = 1, held as the vector u and the phase p.

    U^dag U - I = (|u|^2 - 2) P^dag u u^dag P for P = diag(p, 1, ..., 1), so
    when |p| = 1 its largest entry is | |u|^2 - 2 | * max_i |u_i|^2.  The
    construction checks that product, plus | |p|^2 - 1 |, against
    UNITARY_ATOL in O(d): the same meaning and tolerance as a dense check of
    a gate matrix, without the O(d^3) product.  u is kept as a read-only
    copy, so the checked operator cannot change afterwards.
    """

    u: np.ndarray
    p: complex

    def __post_init__(self):
        u = as_vector(self.u).copy()
        u.flags.writeable = False
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "p", complex(self.p))
        if not np.isfinite(self.p):
            raise InvalidInputError("reflector phase must be finite")
        dev = self.deviation()
        if not dev <= UNITARY_ATOL:
            raise UnitarityError(f"reflector deviates from a unitary by {dev:.3e} > {UNITARY_ATOL:g}")

    @property
    def shape(self) -> tuple[int, int]:
        d = self.u.shape[0]
        return (d, d)

    def deviation(self) -> float:
        """max |U^dag U - I|, from u and p in O(d) (a bound when |p| != 1)."""
        norm_sq = float(np.vdot(self.u, self.u).real)
        return abs(norm_sq - 2.0) * max_abs(self.u) ** 2 + abs(abs(self.p) ** 2 - 1.0)

    def adjoint(self) -> "Reflector":
        """U^dag = P^dag (I - u u^dag) = (I - v v^dag) P^dag with v = P^dag u."""
        v = self.u.copy()
        v[0] *= self.p.conjugate()
        return Reflector(v, self.p.conjugate())

    def __matmul__(self, x) -> np.ndarray:
        """U @ x for x of shape (d,) or (d, batch), in O(d * batch).  With
        P x = x + (p - 1) x_0 e_0 and t = u^dag P x, U x = P x - u t: one new
        array of x's size, and x, which may be a view of a caller's state, is
        never written."""
        x = np.asarray(x)
        p1 = self.p - 1.0
        t = self.u.conj() @ x + self.u[0].conjugate() * p1 * x[0]
        y = np.multiply.outer(-self.u, t)
        y += x
        y[0] += p1 * x[0]
        return y

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        """The dense d x d matrix."""
        h = np.multiply.outer(-self.u, self.u.conj())
        h.flat[:: self.u.shape[0] + 1] += 1.0  # add the identity along the diagonal
        h[:, 0] *= self.p
        return h if dtype is None else h.astype(dtype)


def state_preparation(v) -> Reflector:
    """Unitary whose first column is the given vector x, renormalized.

    H = I - 2 w w^dag / |w|^2 with w = e_0 + e^{-i phi} x (phi = arg x_0, 0
    when x_0 = 0) maps e_0 to -e^{-i phi} x; the plus sign keeps
    |w|^2 >= 2.  So U = H diag(-e^{i phi}, 1, ..., 1) maps e_0 to x, and
    u = w sqrt(2 / |w|^2) has |u|^2 = 2.
    """
    x = as_vector(v)
    nrm = np.linalg.norm(x)
    if nrm < 1e-12:
        raise NormalizationError("cannot complete a (near-)zero vector to a unitary")
    x = x / nrm
    phase = np.exp(1j * np.angle(x[0]))
    w = x * phase.conjugate()
    w[0] += 1.0
    return Reflector(w * np.sqrt(2.0 / np.vdot(w, w).real), -phase)


def completion_unitary(v) -> np.ndarray:
    """Dense view of state_preparation(v), with its first column set to the
    renormalized vector bit for bit (a change of that column at rounding
    level, so the matrix stays unitary).  O(d^2)."""
    h = np.asarray(state_preparation(v))
    x = as_vector(v)
    h[:, 0] = x / np.linalg.norm(x)
    return h
