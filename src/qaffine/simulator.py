"""Dense statevector engine.

Conventions used throughout the package:

* A register of q qubits holds 2**q complex amplitudes indexed by the basis
  integer i.  Qubit q-1 is the most significant bit of i, qubit 0 the least
  significant.
* Target lists handed to gate application are ordered most-significant-first
  within the local index space of the applied matrix: for a two-qubit unitary
  U and targets (a, b), the local row index is 2*bit(a) + bit(b).
* Operations are pure: they return a new QuantumState and never mutate their
  input.
* Sampling draws one uniform variate per shot from numpy's default_rng (PCG64,
  a seedable 64-bit generator) and inverts the cumulative distribution of
  |amplitude|^2, so histograms are reproducible for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    CapacityError,
    InvalidInputError,
    NormalizationError,
    QubitIndexError,
    ShapeError,
    UnitarityError,
)
from .linalg import as_matrix, as_vector, check_unit_norm, is_unitary

MAX_QUBITS = 24
NORM_ATOL = 1e-10
UNITARY_ATOL = 1e-9


@dataclass(frozen=True, eq=False)
class QuantumState:
    num_qubits: int
    amplitudes: np.ndarray

    @property
    def dim(self) -> int:
        return 1 << self.num_qubits

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


@dataclass(frozen=True, eq=False)
class ShotHistogram:
    shots: int
    counts: dict[int, int]


def _check_normalized(amps: np.ndarray) -> None:
    nrm = np.linalg.norm(amps)
    if abs(nrm - 1.0) > NORM_ATOL:
        raise NormalizationError(f"state norm {nrm!r} drifted from 1 by more than {NORM_ATOL:g}")


def init_basis(q: int) -> QuantumState:
    """All-zeros basis state |0...0> on q qubits."""
    if not 1 <= q <= MAX_QUBITS:
        raise CapacityError(f"qubit count {q} outside [1, {MAX_QUBITS}]")
    amps = np.zeros(1 << q, dtype=np.complex128)
    amps[0] = 1.0
    return QuantumState(q, amps)


def init_amplitudes(x) -> QuantumState:
    """State with the given amplitude vector (renormalized to machine precision)."""
    v = as_vector(x)
    d = v.shape[0]
    q = d.bit_length() - 1
    if d < 2 or (1 << q) != d:
        raise ShapeError(f"amplitude vector length {d} is not a power of two >= 2")
    if q > MAX_QUBITS:
        raise CapacityError(f"qubit count {q} exceeds {MAX_QUBITS}")
    return QuantumState(q, v / check_unit_norm(v, "amplitude vector"))


def prepend_ancilla(state: QuantumState) -> QuantumState:
    """Adjoin one qubit in |0> as the new most significant qubit."""
    q = state.num_qubits + 1
    if q > MAX_QUBITS:
        raise CapacityError(f"qubit count {q} exceeds {MAX_QUBITS}")
    amps = np.concatenate([state.amplitudes, np.zeros_like(state.amplitudes)])
    return QuantumState(q, amps)


def _check_qubits(q: int, idxs, label: str) -> tuple[int, ...]:
    idxs = tuple(int(i) for i in idxs)
    if len(set(idxs)) != len(idxs):
        raise QubitIndexError(f"{label} contains duplicates: {idxs}")
    for i in idxs:
        if not 0 <= i < q:
            raise QubitIndexError(f"{label} index {i} outside [0, {q})")
    return idxs


def _apply_on_axes(arr: np.ndarray, u: np.ndarray, axes: list[int]) -> np.ndarray:
    """Apply u across the given qubit axes of an ndarray (extra trailing axes
    are treated as a batch)."""
    t = len(axes)
    moved = np.moveaxis(arr, axes, range(t))
    shape = moved.shape
    flat = moved.reshape(1 << t, -1)
    flat = u @ flat
    return np.moveaxis(flat.reshape(shape), range(t), axes)


def _apply(arr: np.ndarray, q: int, u: np.ndarray, targets, controls, control_values) -> np.ndarray:
    """The gate kernel: apply u to the target qubits of an array of shape
    [2]*q + batch, only where the control qubits carry control_values.

    Indices and u are taken as already checked."""
    axes = [q - 1 - t for t in targets]
    if not controls:
        return _apply_on_axes(arr, u, axes)
    arr = arr.copy()
    sel: list[object] = [slice(None)] * q
    for c, v in zip(controls, control_values):
        sel[q - 1 - c] = v
    # axis positions shift once the control axes are indexed away
    c_axes = sorted(q - 1 - c for c in controls)
    local = [a - sum(1 for ca in c_axes if ca < a) for a in axes]
    arr[tuple(sel)] = _apply_on_axes(arr[tuple(sel)], u, local)
    return arr


def _validated_gate(u, t: int) -> np.ndarray:
    m = as_matrix(u)
    if m.shape != (1 << t, 1 << t):
        raise ShapeError(f"matrix shape {m.shape} does not act on {t} qubit(s)")
    if not is_unitary(m, UNITARY_ATOL):
        raise UnitarityError(f"matrix is not unitary within {UNITARY_ATOL:g}")
    return m


def _apply_gate(state: QuantumState, m: np.ndarray, targets, controls, control_values) -> QuantumState:
    """apply_unitary for a matrix checked when its gate was built: qubit
    indices and the output norm are checked, unitarity is not."""
    q = state.num_qubits
    ts = _check_qubits(q, targets, "targets")
    cs = _check_qubits(q, controls, "controls")
    if set(ts) & set(cs):
        raise QubitIndexError(f"targets {ts} and controls {cs} overlap")
    vals = tuple(int(v) for v in control_values)
    if len(vals) != len(cs):
        raise ShapeError(f"{len(cs)} controls but {len(vals)} control values")
    if any(v not in (0, 1) for v in vals):
        raise InvalidInputError(f"control values must be bits, got {vals}")
    out = _apply(state.amplitudes.reshape([2] * q), q, m, ts, cs, vals).reshape(-1)
    _check_normalized(out)
    return QuantumState(q, out)


def apply_unitary(state: QuantumState, u, targets, controls=(), control_values=()) -> QuantumState:
    """Apply a 2^t x 2^t unitary to the listed target qubits, only where the
    control qubits carry the given classical values (0 entries make
    anti-controls).

    targets[0] is the most significant qubit of the matrix's local index.
    """
    ts = tuple(targets)
    return _apply_gate(state, _validated_gate(u, len(ts)), ts, controls, control_values)


def sample(state: QuantumState, shots: int, seed: int) -> ShotHistogram:
    """Measure all qubits `shots` times; deterministic for a fixed seed."""
    shots = int(shots)
    if shots < 1:
        raise InvalidInputError(f"shots must be >= 1, got {shots}")
    probs = np.abs(state.amplitudes) ** 2
    cdf = np.cumsum(probs)
    cdf /= cdf[-1]
    rng = np.random.default_rng(int(seed))
    draws = rng.random(shots)
    idx = np.searchsorted(cdf, draws, side="right")
    np.minimum(idx, state.dim - 1, out=idx)
    values, counts = np.unique(idx, return_counts=True)
    return ShotHistogram(shots, {int(v): int(c) for v, c in zip(values, counts)})
