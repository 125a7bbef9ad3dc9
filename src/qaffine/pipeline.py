"""Sequential affine maps psi -> A_k(...(A_1 psi + B_1)...) + B_k on
amplitudes, via block-encoded matrix stages and Hadamard-supported
translation stages.

Register layout after j steps (base register of n qubits, N = 2^n):

    qubit 0 .. n-1          base register
    qubit n + 2j - 2        dilation ancilla of step j
    qubit n + 2j - 1        add/sub ancilla of step j

Each step adjoins the dilation ancilla, applies the dilation of A_j to
{that ancilla} + {base register}, adjoins the add/sub ancilla and folds in
the rescaled translation.  After k steps the composed affine image sits at
basis indices 0..N-1 with an exact amplitude ledger of 2^k: the branch with
all add/sub ancillas 0 carries (result)_i / 2^k.  A step's weight w in
[-1, 1] scales its translation: the step maps x -> A x + w B.

The dilation ancilla starts in |0>, so only the ancilla-0 columns of the
2N x 2N dilation ever act: the stage writes [A psi ; R psi] with
R = sqrt(I - A^dag A), from the one factorization of A that every route
shares (`blockenc._factor`: A's direct-sum blocks, one eigendecomposition of
the coupled core's Gram and O(N) for the singular pairs).  The stage reads
those blocks as they are; only physical mode's gate witness reads the
factorization's U, the 2N x 2N unitary built and checked on first read.  A
diagonal A may be given as its 1-d diagonal: it is all singular pairs, so
such a step is O(N) from the input check to the stage, with no N x N array.

Both ancillas of a step are new most significant qubits, so the register
after step j is the prefix of the register after step j + 1: its d
amplitudes are the first d of the next register's 4d.  `run_pipeline`
therefore takes one buffer of 2^(n + 2k) amplitudes and runs each stage
in place, rewriting buf[:4d] from buf[:d] in one pass (`_stage`): the
halved dilation blocks X (A/2)^T and X (R/2)^T go to [2d, 3d) and [d, 2d),
clear of the input, and are copied to [0, d) and [3d, 4d); +-b~/2 is then
folded in on b~'s support, its first N entries and the garbage index
2d - 1.  No register-size translation vector is built.

The buffer outlives its run.  glibc serves every allocation of 32 MiB or
more (21 qubits and up) from a fresh mmap, which a run would first fault in
and zero page by page: about a third of a 21- or 22-qubit run.  So the
module keeps the latest run's buffer, and `_register` gives the next run a
prefix view of it when nothing but the module refers to it (no result,
view or slice of it is alive) and it is at most 4x the request; otherwise
it lets the buffer go, then allocates and keeps a new one.  A lock keeps
two threads from taking the same buffer.  Each stage writes all of buf[:4d]
from buf[:d] before reading it, so a reused buffer gives the register a
new one gives, bit for bit.

Physical mode runs the same stages and appends each step's gates to a
witness (the dilation U, then `addsub.addsub_stage_gates`); one replay at
the end must prepare the final register within `addsub.WITNESS_TOL`.
"""

from __future__ import annotations

import sys
import threading
from dataclasses import dataclass

import numpy as np

from . import simulator
from .addsub import _check_witness, _fold, _unit, addsub_stage_gates
from .blockenc import BlockEncoding, _check_isometry, _factor, _write_dilation
from .circuits import GateList, block
from .errors import (
    CapacityError,
    ContractionError,
    InvalidInputError,
    NormalizationError,
    ShapeError,
)
from .linalg import as_matrix, as_vector, check_unit_norm, state_preparation
from .simulator import MAX_QUBITS, QuantumState, _check_normalized

CONTRACTION_TOL = 1e-10
UNIT_ROUNDING_TOL = 1e-12


def _private(a: np.ndarray) -> np.ndarray:
    """A read-only copy of a validated input, so a later write to the
    caller's array cannot reach a checked step or sequence."""
    a = a.copy()
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class AffineStep:
    """One stage x -> A x + weight * B.  A is a square matrix, or a 1-d
    array that is its diagonal: a diagonal step is checked and factored in
    O(N), and no N x N array is built for it.  B = None marks a zero
    translation.  B must be a unit vector within UNIT_NORM_TOL (else
    NormalizationError); one off by more than rounding is stored as B / |B|.
    The weight lies in [-1, 1] (else NormalizationError): the stage folds in
    weight * B / 2^(j-1) with a residual that keeps b~ a unit vector.  A
    and B are held as read-only copies (`_private`), as is a sequence's
    psi0."""

    A: np.ndarray
    B: np.ndarray | None = None
    weight: float = 1.0

    def __post_init__(self):
        a = as_vector(self.A) if np.ndim(self.A) == 1 else as_matrix(self.A)
        if a.ndim == 2 and a.shape[0] != a.shape[1]:
            raise ShapeError(f"step matrix must be square, got {a.shape}")
        object.__setattr__(self, "A", _private(a))
        if self.B is not None:
            b = as_vector(self.B)
            if b.shape[0] != a.shape[0]:
                raise ShapeError(
                    f"translation length {b.shape[0]} != matrix dimension {a.shape[0]}"
                )
            nrm = check_unit_norm(b, "translation")
            if abs(nrm - 1.0) > UNIT_ROUNDING_TOL:
                # the pipeline folds an accepted translation in as b / |b|;
                # store that, so the classical reference and the baseline
                # read the same B.  A norm within UNIT_ROUNDING_TOL of 1 is
                # rounding, and B is kept bit for bit there: renormalizing
                # is not idempotent, and problem files must round-trip.
                b = b / nrm
            object.__setattr__(self, "B", _private(b))
        w = float(self.weight)
        if not -1.0 <= w <= 1.0:
            raise NormalizationError(f"translation weight {w!r} outside [-1, 1]")
        object.__setattr__(self, "weight", w)


@dataclass(frozen=True, eq=False)
class AffineSequence:
    n: int
    psi0: np.ndarray
    steps: tuple[AffineStep, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ShapeError(f"base register needs n >= 1, got {self.n}")
        psi = as_vector(self.psi0)
        if psi.shape[0] != 1 << self.n:
            raise ShapeError(
                f"psi0 length {psi.shape[0]} != 2^{self.n}"
            )
        object.__setattr__(self, "psi0", _private(psi))
        steps = tuple(self.steps)
        if not steps:
            raise InvalidInputError("sequence needs at least one step")
        for j, step in enumerate(steps, start=1):
            if step.A.shape[0] != 1 << self.n:
                raise ShapeError(
                    f"step {j} matrix dimension {step.A.shape[0]} != 2^{self.n}"
                )
        object.__setattr__(self, "steps", steps)

    @property
    def k(self) -> int:
        return len(self.steps)


@dataclass(frozen=True, eq=False)
class PipelineResult:
    state: QuantumState
    k: int
    scale: int
    result_indices: np.ndarray
    circuit: GateList | None = None


def _translation_support(b, step_index: int, weight: float) -> tuple[np.ndarray, float]:
    """The nonzero entries of step j's b~: the head weight * beta / 2^(j-1),
    for beta = B / |B|, at its first N entries, and the residual
    sqrt(1 - weight^2 / 4^(j-1)) at its last index, which makes b~ a unit
    vector without touching any measured or branch-tracked index.  B = None
    (zero translation) leaves only the residual 1."""
    if b is None:
        return np.zeros(0, dtype=np.complex128), 1.0
    scale = weight / 2 ** (step_index - 1)
    # B is a unit vector (AffineStep), so the residual is exact from the scale alone
    return b / np.linalg.norm(b) * scale, float(np.sqrt(1.0 - scale**2))


def _step_dilation(m: np.ndarray, step_index: int, witness: GateList | None = None) -> BlockEncoding:
    """The factorization of a step's A, checked.  alpha must stay within
    CONTRACTION_TOL of 1 (A is divided by it there).  Given a witness, it
    is appended as a gate on a new ancilla, which builds and checks its U;
    its ancilla-0 columns are the blocks the state gets.  Otherwise those
    columns are checked alone."""
    f = _factor(m)
    if f.alpha > 1.0 + CONTRACTION_TOL:
        raise ContractionError(
            f"step {step_index}: spectral norm {f.alpha!r} exceeds 1 "
            f"(dilation would contract amplitudes by 1/{f.alpha:.6g})"
        )
    if witness is None:
        _check_isometry(f, f"step {step_index}")
    else:
        n = m.shape[0].bit_length() - 1  # A is 2^n x 2^n
        targets = (witness.qubit_count,) + tuple(range(n - 1, -1, -1))
        witness.gates.append(block(f, targets))
        witness.qubit_count += 1
    return f


def _stage(buf: np.ndarray, d: int, f: BlockEncoding, head: np.ndarray, residual: float) -> None:
    """One abstract stage in place, laid out as the module docstring says:
    rewrite buf[:4d] from the register in buf[:d], given the checked
    factorization and b~ on its support.  Both add/sub halves start as
    phi/2, for phi = [X A^T ; X R^T]; `_fold` adds +-b~/2."""
    x = buf[:d].reshape(-1, f.rs.shape[0])
    a_half, r_half = buf[2 * d : 3 * d], buf[d : 2 * d]
    _write_dilation(x, f, 0.5, a_half.reshape(x.shape), r_half.reshape(x.shape))
    _check_normalized(buf[d : 3 * d], scale=2.0)
    buf[:d] = a_half
    buf[3 * d : 4 * d] = r_half
    # b~ is a unit vector on its support; renormalized there as a dense b~ is
    support = as_vector(np.append(head, residual))
    support /= check_unit_norm(support, "b_tilde")
    _fold(buf, 2 * d, support[:-1], support[-1])


_kept = np.empty(0, dtype=np.complex128)  # the latest run's register buffer
_kept_lock = threading.Lock()


def _kept_refs() -> int:
    """References to the kept buffer: the slot's, this call's, and one more
    for each result, view or slice of it that is alive (numpy points every
    view, however derived, at the array that owns the memory)."""
    return sys.getrefcount(_kept)


_IDLE_REFS = _kept_refs()  # only the slot holds the buffer here


def _register(size: int) -> np.ndarray:
    """An uninitialized register of `size` amplitudes: a prefix view of the
    kept buffer when nothing but the slot refers to it and it holds at most
    4 * size amplitudes, else a new buffer that the slot keeps in its place.
    The old buffer is let go first, so two kept buffers never coexist."""
    global _kept
    with _kept_lock:
        if size <= _kept.shape[0] <= 4 * size and _kept_refs() == _IDLE_REFS:
            return _kept[:size]
        _kept = np.empty(0, dtype=np.complex128)  # frees an idle buffer first
        _kept = np.empty(size, dtype=np.complex128)
        return _kept


def run_pipeline(seq: AffineSequence, mode: str = "abstract") -> PipelineResult:
    """Run every step; the composed affine image is scale * amplitudes at
    result_indices, with scale exactly 2^k.

    Both modes run every stage in place in one buffer of 2^(n + 2k)
    amplitudes, taken from `_register`.  Physical mode also builds the gate
    witness and checks once, at the end, that it prepares the final
    register (PreconditionError)."""
    if mode not in ("abstract", "physical"):
        raise InvalidInputError(f"unknown pipeline mode {mode!r}")
    n, k = seq.n, seq.k
    if n + 2 * k > MAX_QUBITS:
        raise CapacityError(
            f"pipeline needs {n + 2 * k} qubits (n={n}, k={k}), cap is {MAX_QUBITS}"
        )
    buf = _register(1 << (n + 2 * k))
    d = 1 << n
    buf[:d] = simulator.init_amplitudes(seq.psi0).amplitudes
    witness: GateList | None = None
    if mode == "physical":
        witness = GateList(n, [block(state_preparation(buf[:d]), tuple(range(n - 1, -1, -1)))])
    for j, step in enumerate(seq.steps, start=1):
        f = _step_dilation(step.A, j, witness)
        head, resid = _translation_support(step.B, j, step.weight)
        _stage(buf, d, f, head, resid)
        if witness is not None:
            b_tilde = np.zeros(2 * d, dtype=np.complex128)
            b_tilde[: head.shape[0]] = head
            b_tilde[-1] = resid
            b_tilde = _unit(b_tilde, "b_tilde")
            witness.gates.extend(addsub_stage_gates(b_tilde, witness))
            witness.qubit_count += 1
        d *= 4
    if witness is not None:
        _check_witness(witness, buf)
    return PipelineResult(
        state=QuantumState(n + 2 * k, buf),
        k=k,
        scale=2**k,
        result_indices=np.arange(1 << n),
        circuit=witness,
    )


def extract_result(res: PipelineResult) -> np.ndarray:
    """De-scaled affine image: 2^k * amplitudes at the measured block."""
    return res.scale * res.state.amplitudes[res.result_indices]


def classical_affine_compose(seq: AffineSequence) -> np.ndarray:
    """Reference evaluation of the same sequence by plain matrix arithmetic.

    Deliberately independent of the quantum route; contraction constraints
    are not enforced here."""
    v = as_vector(seq.psi0)
    v = v / np.linalg.norm(v)
    for step in seq.steps:
        v = step.A * v if step.A.ndim == 1 else step.A @ v
        if step.B is not None:
            v = v + step.weight * step.B
    return v
