"""Dense statevector engine.

Conventions used throughout the package:

* A register of q qubits holds 2**q complex amplitudes indexed by the basis
  integer i.  Qubit q-1 is the most significant bit of i, qubit 0 the least
  significant.
* Target lists handed to gate application are ordered most-significant-first
  within the local index space of the applied matrix: for a two-qubit unitary
  U and targets (a, b), the local row index is 2*bit(a) + bit(b).
* Operations are pure: they return a new QuantumState and never mutate their
  input.  So do the package's other public operations.  The abstract
  pipeline rewrites amplitudes in place only inside the one register buffer
  it allocates for a run (see `pipeline`), never in a caller's array.
* Sampling draws one uniform variate per shot from numpy's default_rng (PCG64,
  a seedable 64-bit generator) and inverts the cumulative distribution of
  |amplitude|^2, so histograms are reproducible for a fixed seed.
* One kernel, `_apply`, runs every gate on a transposed view of a state or
  of a matrix's columns.  `_layout` checks and caches each distinct qubit
  layout once.  Qubit indices and control values must be integers.
* A gate matrix is a dense array or a `linalg.Reflector`; the kernel applies
  either through `@`, so a reflector costs O(d) per column, not O(d^2).
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

from .blockenc import BlockEncoding
from .errors import (
    CapacityError,
    InvalidInputError,
    NormalizationError,
    QubitIndexError,
    ShapeError,
    UnitarityError,
)
from .linalg import UNITARY_ATOL, Reflector, as_matrix, as_vector, check_unit_norm, is_unitary

MAX_QUBITS = 24
NORM_ATOL = 1e-10
LAYOUT_CACHE_SIZE = 1024  # checked layouts kept; a perfbench `physical` cycle uses 293


@dataclass(frozen=True, eq=False)
class QuantumState:
    num_qubits: int
    amplitudes: np.ndarray

    @property
    def dim(self) -> int:
        return 1 << self.num_qubits

    def norm(self) -> float:
        return _norm(self.amplitudes)


@dataclass(frozen=True, eq=False)
class ShotHistogram:
    shots: int
    counts: dict[int, int]


def _norm(amps: np.ndarray) -> float:
    """|amps| as sqrt(amps^dag amps): one BLAS dot over the array, where
    np.linalg.norm first splits a complex array into real and imaginary
    parts, 2-2.5x slower on a register."""
    return float(np.sqrt(np.vdot(amps, amps).real))


def _check_normalized(amps: np.ndarray, scale: float = 1.0) -> None:
    """Raise unless scale * |amps| lies within NORM_ATOL of 1."""
    nrm = scale * _norm(amps)
    if not abs(nrm - 1.0) <= NORM_ATOL:
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


def _as_ints(xs, error=QubitIndexError, label: str = "qubit indices") -> tuple[int, ...]:
    """xs as ints; int() would truncate 0.7, and 1.0 would hit 1's layout."""
    try:
        return tuple(map(operator.index, xs))
    except TypeError:
        raise error(f"{label} must be integers, got {xs!r}") from None


def _check_wires(targets: tuple[int, ...], controls: tuple[int, ...], control_values: tuple[int, ...]) -> None:
    """The checks of a gate's qubits that need no register width: no qubit
    twice, one bit per control."""
    for label, idxs in (("targets", targets), ("controls", controls)):
        if len(set(idxs)) != len(idxs):
            raise QubitIndexError(f"{label} contains duplicates: {idxs}")
    if set(targets) & set(controls):
        raise QubitIndexError(f"targets {targets} and controls {controls} overlap")
    if len(control_values) != len(controls):
        raise ShapeError(f"{len(controls)} controls but {len(control_values)} control values")
    if any(v not in (0, 1) for v in control_values):
        raise InvalidInputError(f"control values must be bits, got {control_values}")


@functools.lru_cache(maxsize=LAYOUT_CACHE_SIZE)
def _layout(q: int, targets: tuple[int, ...], controls: tuple[int, ...], control_values: tuple[int, ...]):
    """The checked layout of a gate on q qubits: the axis order that brings an
    array of shape [2]*q + [batch] to controls first, then targets, then the
    other qubits in their order (batch last), its inverse, and the control
    values.  A call that raises is not cached: a bad layout raises each time."""
    for label, idxs in (("targets", targets), ("controls", controls)):
        for i in idxs:
            if not 0 <= i < q:
                raise QubitIndexError(f"{label} index {i} outside [0, {q})")
    _check_wires(targets, controls, control_values)
    front = [q - 1 - i for i in controls + targets]
    order = tuple(front + [a for a in range(q + 1) if a not in front])
    inverse = tuple(order.index(a) for a in range(q + 1))
    return order, inverse, control_values


def _apply(arr: np.ndarray, q: int, u, targets, controls, control_values) -> np.ndarray:
    """The gate kernel: apply u (taken as checked) to the target qubits of a
    register of shape (2**q,) or (2**q, batch), where the controls carry
    control_values.  An uncontrolled gate holds at most two register-sized
    arrays at once (one if its layout is arr's own order)."""
    vals = _as_ints(control_values, InvalidInputError, "control values")
    order, inverse, vals = _layout(q, _as_ints(targets), _as_ints(controls), vals)
    grid = arr.reshape((2,) * q + (-1,))
    block = grid.transpose(order)[vals]
    new = (u @ block.reshape(1 << len(targets), -1)).reshape(block.shape)
    if not vals:
        return new.transpose(inverse).reshape(arr.shape)
    out = grid.copy()
    out.transpose(order)[vals] = new
    return out.reshape(arr.shape)


def _validated_gate(u, t: int) -> np.ndarray | Reflector:
    """A gate matrix checked for shape and unitarity and kept as a read-only
    copy, so it cannot change after its check.  A Reflector and a
    BlockEncoding's U were checked when built and hold read-only data, so
    only their shape is checked here."""
    checked = isinstance(u, (Reflector, BlockEncoding))
    m = getattr(u, "U", u) if checked else as_matrix(u).copy()
    if m.shape != (1 << t, 1 << t):
        raise ShapeError(f"matrix shape {m.shape} does not act on {t} qubit(s)")
    if not checked:
        if not is_unitary(m, UNITARY_ATOL):
            raise UnitarityError(f"matrix is not unitary within {UNITARY_ATOL:g}")
        m.flags.writeable = False
    return m


def _apply_gate(state: QuantumState, m: np.ndarray, targets, controls, control_values) -> QuantumState:
    """apply_unitary for a matrix checked when its gate was built: the layout
    and the output norm are checked, unitarity is not."""
    out = _apply(state.amplitudes, state.num_qubits, m, targets, controls, control_values)
    _check_normalized(out)
    return QuantumState(state.num_qubits, out)


def apply_unitary(state: QuantumState, u, targets, controls=(), control_values=()) -> QuantumState:
    """Apply a 2^t x 2^t unitary to the listed target qubits, only where the
    control qubits carry the given classical values (0 entries make
    anti-controls).

    targets[0] is the most significant qubit of the matrix's local index.
    """
    ts = _as_ints(targets)
    return _apply_gate(state, _validated_gate(u, len(ts)), ts, controls, control_values)


def sample(state: QuantumState, shots: int, seed: int) -> ShotHistogram:
    """Measure all qubits `shots` times; deterministic for a fixed seed.

    One uniform variate per shot, inverse CDF: the draws are sorted in place
    and the CDF is searched into them, so the work is one sort of the shots
    plus a search per bin, and the counts are differences of the search
    results.  The histogram equals a per-shot search of each draw."""
    shots, seed = int(shots), int(seed)
    if shots < 1:
        raise InvalidInputError(f"shots must be >= 1, got {shots}")
    if seed < 0:
        raise InvalidInputError(f"seed must be >= 0, got {seed}")
    probs = np.abs(state.amplitudes) ** 2
    cdf = np.cumsum(probs)
    cdf /= cdf[-1]
    rng = np.random.default_rng(seed)
    draws = rng.random(shots)
    draws.sort()
    # a draw lands in bin i when cdf[i-1] <= draw < cdf[i], and in the last
    # bin when it is >= cdf[-2]; so #{draws < cdf[i]} counts bins 0..i
    below = np.searchsorted(draws, cdf[:-1], side="left")
    counts = np.diff(below, prepend=0, append=shots)
    return ShotHistogram(shots, {int(i): int(counts[i]) for i in np.flatnonzero(counts)})
