"""Dense statevector engine.

Conventions used throughout the package:

* A register of q qubits holds 2**q complex amplitudes indexed by the basis
  integer i.  Qubit q-1 is the most significant bit of i, qubit 0 the least
  significant.
* Target lists handed to gate application are ordered most-significant-first
  within the local index space of the applied matrix: for a two-qubit unitary
  U and targets (a, b), the local row index is 2*bit(a) + bit(b).
* Operations are pure: they return a new QuantumState and never mutate their
  input.  So do the package's other public operations.  The pipeline
  rewrites amplitudes in place only inside its run's register buffer, never
  in a caller's array.  That buffer is the one the module kept from an
  earlier run only when no result, view or slice of it is alive (see
  `pipeline`), so a later run never writes a result that is held.
* Sampling makes one multinomial draw from numpy's default_rng (PCG64, a
  seedable 64-bit generator) over the nonzero |amplitude|^2, so a histogram
  costs O(2^q) for any shot count, never counts a zero-probability basis
  state, and is reproducible for a fixed seed.
* A `Gate` checks itself once, when it is built: integer qubit indices and
  control values that are bits, neither of them a bool, no qubit used
  twice, the wiring its kind takes ("single": one target, no control;
  "cnot": one of each; "block": any), and a matrix of the right shape
  that is unitary (a dense matrix) or checked by its type (a
  `linalg.Reflector`, a `linalg.Diagonal`, the U a `blockenc.BlockEncoding`
  checks on first read).  Gates made from a built gate (`Gate._derive`)
  keep its checked matrix.
* One kernel, `_apply`, runs every built gate on a transposed view of a
  state or of a matrix's columns, without checking it again; `_layout`
  checks the qubit indices against the register width and caches each
  distinct layout once.  The kernel applies a dense matrix, a reflector or
  a diagonal through `@`, so the last two cost O(d) per column, not O(d^2).
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
from .linalg import UNITARY_ATOL, Diagonal, Reflector, as_matrix, as_vector, check_unit_norm, is_unitary

MAX_QUBITS = 24
MAX_SHOTS = 2**63 - 1  # numpy counts shots in int64
NORM_ATOL = 1e-10
LAYOUT_CACHE_SIZE = 1024  # layouts kept; a perfbench `physical` cycle uses 291


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


def _as_ints(xs, error=QubitIndexError, label: str = "qubit indices") -> tuple[int, ...]:
    """xs as ints; int() would truncate 0.7, and 1.0 would hit 1's layout.
    operator.index takes True as 1, so a bool is refused first (it refuses
    np.bool_ itself)."""
    try:
        xs = tuple(xs)
        if bool in map(type, xs):
            raise TypeError
        return tuple(map(operator.index, xs))
    except TypeError:
        raise error(f"{label} must be integers, got {xs!r}") from None


# qubits a gate of each kind acts on: (targets, controls), None for any count
_KIND_WIRES = {"single": (1, 0), "cnot": (1, 1), "block": None}


def _wires(kind: str, targets, controls, control_values) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """A gate's wiring, checked as far as it can be without the register
    width: integer qubit indices, no qubit used twice, one bit per control,
    and as many targets and controls as the gate's kind takes."""
    if kind not in _KIND_WIRES:
        raise InvalidInputError(f"unknown gate kind {kind!r}")
    ts, cs = _as_ints(targets), _as_ints(controls)
    vs = _as_ints(control_values, InvalidInputError, "control values")
    if len(set(ts + cs)) != len(ts) + len(cs):
        raise QubitIndexError(f"a qubit is used twice in targets {ts} and controls {cs}")
    if len(vs) != len(cs):
        raise ShapeError(f"{len(cs)} controls but {len(vs)} control values")
    if not {0, 1}.issuperset(vs):
        raise InvalidInputError(f"control values must be bits, got {vs}")
    counts = _KIND_WIRES[kind]
    if counts is not None and (len(ts), len(cs)) != counts:
        raise ShapeError(f"a {kind!r} gate takes {counts[0]} target(s) and {counts[1]} control(s), got {ts} and {cs}")
    return ts, cs, vs


@dataclass(frozen=True, eq=False)
class Gate:
    """A unitary on the target qubits (targets[0] is the most significant
    bit of its local index), applied where the controls carry
    control_values.

    Building a gate is its one check: the wiring (`_wires`), then the
    matrix.  A dense matrix must be 2^t x 2^t and unitary within
    UNITARY_ATOL, and is kept as a read-only copy, so it cannot change after
    its check.  A Reflector, a Diagonal and a BlockEncoding (kept as its
    U, checked on first read) hold checked read-only data, so only their
    shape is checked.  The kernel runs a built gate as it is; only the
    register width is checked there, once per layout."""

    kind: str  # "single" | "cnot" | "block"
    targets: tuple[int, ...]
    controls: tuple[int, ...] = ()
    control_values: tuple[int, ...] = ()
    matrix: np.ndarray | Reflector | Diagonal | BlockEncoding | None = None

    def __post_init__(self):
        ts, cs, vs = _wires(self.kind, self.targets, self.controls, self.control_values)
        checked = isinstance(self.matrix, (Reflector, Diagonal, BlockEncoding))
        m = getattr(self.matrix, "U", self.matrix) if checked else as_matrix(self.matrix).copy()
        if m.shape != (1 << len(ts), 1 << len(ts)):
            raise ShapeError(f"matrix shape {m.shape} does not act on {len(ts)} qubit(s)")
        if not checked:
            if not is_unitary(m, UNITARY_ATOL):
                raise UnitarityError(f"matrix is not unitary within {UNITARY_ATOL:g}")
            m.flags.writeable = False
        vars(self).update(targets=ts, controls=cs, control_values=vs, matrix=m)

    def _derive(self, kind: str, wires=None, matrix=None) -> Gate:
        """A gate made from this built one: on its wiring or on new `wires`
        (targets, controls, control values), which alone are checked, and
        with its checked matrix or `matrix` derived from it (its adjoint),
        which is not checked again."""
        ts, cs, vs = (self.targets, self.controls, self.control_values) if wires is None else _wires(kind, *wires)
        gate = object.__new__(Gate)
        vars(gate).update(
            kind=kind, targets=ts, controls=cs, control_values=vs, matrix=self.matrix if matrix is None else matrix
        )
        return gate


@functools.lru_cache(maxsize=LAYOUT_CACHE_SIZE)
def _layout(q: int, targets: tuple[int, ...], controls: tuple[int, ...]):
    """The layout of a built gate's wiring on q qubits, its qubit indices
    checked against q: the axis order that brings an array of shape
    [2]*q + [batch] to controls first, then targets, then the other qubits
    in their order (batch last), and its inverse.  A call that raises is not
    cached: a bad layout raises each time."""
    for label, idxs in (("targets", targets), ("controls", controls)):
        for i in idxs:
            if not 0 <= i < q:
                raise QubitIndexError(f"{label} index {i} outside [0, {q})")
    front = [q - 1 - i for i in controls + targets]
    order = tuple(front + [a for a in range(q + 1) if a not in front])
    inverse = tuple(order.index(a) for a in range(q + 1))
    return order, inverse


def _apply(arr: np.ndarray, q: int, g: Gate) -> np.ndarray:
    """The gate kernel: apply a built gate to a register of shape (2**q,) or
    (2**q, batch).  An uncontrolled gate holds at most two register-sized
    arrays at once (one if its layout is arr's own order)."""
    order, inverse = _layout(q, g.targets, g.controls)
    vals = g.control_values
    grid = arr.reshape((2,) * q + (-1,))
    block = grid.transpose(order)[vals]
    new = (g.matrix @ block.reshape(1 << len(g.targets), -1)).reshape(block.shape)
    if not vals:
        return new.transpose(inverse).reshape(arr.shape)
    out = grid.copy()
    out.transpose(order)[vals] = new
    return out.reshape(arr.shape)


def _apply_gate(state: QuantumState, g: Gate) -> QuantumState:
    """Run a built gate on a state; the layout and the output norm are
    checked, unitarity is not."""
    out = _apply(state.amplitudes, state.num_qubits, g)
    _check_normalized(out)
    return QuantumState(state.num_qubits, out)


def apply_unitary(state: QuantumState, u, targets, controls=(), control_values=()) -> QuantumState:
    """Apply a 2^t x 2^t unitary to the listed target qubits, only where the
    control qubits carry the given classical values (0 entries make
    anti-controls): the gate is built, and so checked, first.

    targets[0] is the most significant qubit of the matrix's local index.
    """
    return _apply_gate(state, Gate("block", targets, controls, control_values, u))


def sample(state: QuantumState, shots: int, seed: int) -> ShotHistogram:
    """Measure all qubits `shots` times; deterministic for a fixed seed.

    One multinomial draw over the support of |amplitude|^2: numpy draws it
    as a chain of conditional binomials, so the counts have the law of
    `shots` independent measurements, and the work and memory are O(2^q)
    whatever `shots` is.  The draw skips the zero-probability bins, since
    numpy gives the rounding remainder to the last bin it is handed."""
    try:
        # int() would truncate 2.7 shots to 2, and a bool is an int
        if any(isinstance(x, (bool, np.bool_)) for x in (shots, seed)):
            raise TypeError
        shots, seed = operator.index(shots), operator.index(seed)
    except TypeError:
        raise InvalidInputError(f"shots and seed must be integers, got {shots!r} and {seed!r}") from None
    if shots < 1:
        raise InvalidInputError(f"shots must be >= 1, got {shots}")
    if shots > MAX_SHOTS:
        raise CapacityError(f"shots {shots} exceed {MAX_SHOTS}, the most an int64 count holds")
    if seed < 0:
        raise InvalidInputError(f"seed must be >= 0, got {seed}")
    _check_normalized(state.amplitudes)
    probs = np.abs(state.amplitudes) ** 2
    support = np.flatnonzero(probs)
    p = probs[support]
    p /= p.sum()
    counts = np.random.default_rng(seed).multinomial(shots, p)
    hit = counts > 0
    return ShotHistogram(shots, dict(zip(support[hit].tolist(), counts[hit].tolist())))
