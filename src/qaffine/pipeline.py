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
all add/sub ancillas 0 carries (result)_i / 2^k.

The dilation ancilla starts in |0>, so only the ancilla-0 columns of the
2N x 2N dilation ever act: the stage writes [A psi ; R psi] with
R = sqrt(I - A^dag A), from the one factorization of A that every route
shares (`blockenc._factor`: one SVD of the coupled core, or O(N) for a
diagonal A).  Abstract mode never builds the 2N x 2N unitary; physical mode
builds it from the same factorization for its gate witness, so witness and
state apply one pair of blocks.

Both ancillas of a step are new most significant qubits, so the register
after step j is the prefix of the register after step j + 1: its d
amplitudes are the first d of the next register's 4d.  Abstract
`run_pipeline` therefore allocates one buffer of 2^(n + 2k) amplitudes and
runs each stage in place, rewriting buf[:4d] from buf[:d] in one pass
(`_stage`): the halved dilation blocks X (A/2)^T and X (R/2)^T go to
[2d, 3d) and [d, 2d), clear of the input, and are copied to [0, d) and
[3d, 4d); +-b~/2 is then folded in on b~'s support, its first N entries and
the garbage index 2d - 1.  No register-size translation vector is built.
The public `apply_affine_step` runs the same stage on a fresh 4d buffer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import simulator
from .addsub import _fold, hadamard_addsub_inplace
from .blockenc import _check_isometry, _Dilation, _factor, _write_dilation
from .circuits import GateList, block
from .errors import (
    CapacityError,
    ContractionError,
    InvalidInputError,
    MissingWitnessError,
    NormalizationError,
    ShapeError,
)
from .linalg import UNIT_NORM_TOL, as_matrix, as_vector, check_unit_norm, state_preparation
from .simulator import MAX_QUBITS, QuantumState, _check_normalized

CONTRACTION_TOL = 1e-10
UNIT_ROUNDING_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class AffineStep:
    """One stage x -> A x + B.  B = None marks a zero translation.  A B whose
    norm lies within UNIT_NORM_TOL of 1 is stored as the unit vector B / |B|."""

    A: np.ndarray
    B: np.ndarray | None = None

    def __post_init__(self):
        a = as_matrix(self.A)
        if a.shape[0] != a.shape[1]:
            raise ShapeError(f"step matrix must be square, got {a.shape}")
        object.__setattr__(self, "A", a)
        if self.B is not None:
            b = as_vector(self.B)
            if b.shape[0] != a.shape[0]:
                raise ShapeError(
                    f"translation length {b.shape[0]} != matrix dimension {a.shape[0]}"
                )
            nrm = float(np.linalg.norm(b))
            if UNIT_ROUNDING_TOL < abs(nrm - 1.0) <= UNIT_NORM_TOL:
                # the pipeline folds an accepted translation in as b / |b|;
                # store that, so the classical reference and the baseline
                # read the same B.  A norm within UNIT_ROUNDING_TOL of 1 is
                # rounding, and B is kept bit for bit there: renormalizing
                # is not idempotent, and problem files must round-trip.
                b = b / nrm
            object.__setattr__(self, "B", b)


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
        object.__setattr__(self, "psi0", psi)
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
class RescaledTranslation:
    b_tilde: np.ndarray
    step_index: int
    garbage_index: int


@dataclass(frozen=True, eq=False)
class PipelineResult:
    state: QuantumState
    k: int
    scale: int
    result_indices: np.ndarray
    circuit: GateList | None = None

    def branch_indices(self, bits) -> np.ndarray:
        """Basis indices of the branch selected by the add/sub ancilla bits
        (b_1, ..., b_k); bit 1 selects the difference half of that step."""
        bits = tuple(int(b) for b in bits)
        if len(bits) != self.k:
            raise ShapeError(f"expected {self.k} branch bits, got {len(bits)}")
        if any(b not in (0, 1) for b in bits):
            raise InvalidInputError(f"branch bits must be 0/1, got {bits}")
        n = self.result_indices.size.bit_length() - 1
        offset = 0
        for j, b in enumerate(bits, start=1):
            offset += b << (n + 2 * j - 1)
        return offset + np.arange(self.result_indices.size)


def _translation_support(b, step_index: int, target_dim: int, weight: float = 1.0) -> tuple[np.ndarray, float]:
    """The nonzero entries of rescale_translation's vector: the scaled head
    (its first N entries) and the residual at its last index."""
    j = int(step_index)
    if j < 1:
        raise InvalidInputError(f"step index must be >= 1, got {j}")
    target_dim = int(target_dim)
    if target_dim < 2 or target_dim & (target_dim - 1):
        raise ShapeError(f"target dimension {target_dim} is not a power of two")
    weight = float(weight)
    if not -1.0 <= weight <= 1.0:
        raise NormalizationError(f"translation weight {weight!r} outside [-1, 1]")
    if b is None:
        return np.zeros(0, dtype=np.complex128), 1.0
    v = as_vector(b)
    if v.shape[0] * 2 > target_dim:
        raise ShapeError(
            f"translation length {v.shape[0]} does not fit dimension {target_dim}"
        )
    scale = weight / 2 ** (j - 1)
    # B is renormalized, so the residual is exact from the scale alone
    return v / check_unit_norm(v, "translation") * scale, float(np.sqrt(1.0 - scale**2))


def rescale_translation(b, step_index: int, target_dim: int, weight: float = 1.0) -> RescaledTranslation:
    """Embed a translation vector into the register present at step j.

    The first N entries become weight * beta_i / 2^(j-1), for beta = B/|B|;
    a single residual sqrt(1 - weight^2 / 4^(j-1)) at the all-ones index makes
    the result a unit vector without touching any measured or branch-tracked
    index.  b = None (zero translation) yields the pure garbage vector.
    """
    head, resid = _translation_support(b, step_index, target_dim, weight)
    out = np.zeros(int(target_dim), dtype=np.complex128)
    out[: head.shape[0]] = head
    out[-1] = resid
    return RescaledTranslation(out, int(step_index), out.shape[0] - 1)


def _step_dilation(m: np.ndarray, step_index: int, witness: GateList | None = None) -> _Dilation:
    """The factorization of a step's A, checked.  alpha must stay within
    CONTRACTION_TOL of 1 (A is divided by it there).  Given a witness, the
    dilation U is built from the factorization, checked once in its
    BlockEncoding and appended on a new ancilla; its ancilla-0 columns are
    the blocks the state gets.  Otherwise those columns are checked alone."""
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
        witness.gates.append(block(f.encoding(), targets))
        witness.qubit_count += 1
    return f


def _stage(buf: np.ndarray, d: int, a: np.ndarray, r: np.ndarray, head: np.ndarray, residual: float) -> None:
    """One abstract stage in place, laid out as the module docstring says:
    rewrite buf[:4d] from the register in buf[:d], given the checked
    dilation blocks and b~ on its support.  Both add/sub halves start as
    phi/2, for phi = [X A^T ; X R^T]; `_fold` adds +-b~/2."""
    x = buf[:d].reshape(-1, a.shape[0])
    a_half, r_half = buf[2 * d : 3 * d], buf[d : 2 * d]
    _write_dilation(x, 0.5 * a, 0.5 * r, a_half.reshape(x.shape), r_half.reshape(x.shape))
    _check_normalized(buf[d : 3 * d], scale=2.0)
    buf[:d] = a_half
    buf[3 * d : 4 * d] = r_half
    # b~ is a unit vector on its support; renormalized there as a dense b~ is
    support = as_vector(np.append(head, residual))
    support /= check_unit_norm(support, "b_tilde")
    _fold(buf, 2 * d, support[:-1], support[-1])


def apply_affine_step(
    state: QuantumState,
    a,
    b,
    step_index: int,
    base_n: int,
    mode: str = "abstract",
    witness: GateList | None = None,
    translation_weight: float = 1.0,
) -> QuantumState:
    """One pipeline stage on an existing register: dilation ancilla + A_j,
    then add/sub ancilla + rescaled translation.  The input is not changed."""
    m = as_matrix(a)
    dim = 1 << base_n
    if m.shape != (dim, dim):
        raise ShapeError(f"step matrix shape {m.shape} != base dimension 2^{base_n}")
    if mode == "physical" and witness is None:
        raise MissingWitnessError("physical mode requires a circuit witness")
    if state.num_qubits + 2 > MAX_QUBITS:
        raise CapacityError(f"qubit count {state.num_qubits + 2} exceeds {MAX_QUBITS}")
    f = _step_dilation(m, step_index, witness)
    d = state.dim
    if mode == "abstract":
        buf = np.empty(4 * d, dtype=np.complex128)
        buf[:d] = state.amplitudes
        head, resid = _translation_support(b, step_index, 2 * d, translation_weight)
        _stage(buf, d, f.a, f.r, head, resid)
        return QuantumState(state.num_qubits + 2, buf)
    phi = np.empty(2 * d, dtype=np.complex128)
    x = state.amplitudes.reshape(-1, dim)
    _write_dilation(x, f.a, f.r, phi[:d].reshape(x.shape), phi[d:].reshape(x.shape))
    _check_normalized(phi)
    rt = rescale_translation(b, step_index, 2 * d, weight=translation_weight)
    return hadamard_addsub_inplace(QuantumState(state.num_qubits + 1, phi), rt.b_tilde, mode, witness)


def run_pipeline(seq: AffineSequence, mode: str = "abstract") -> PipelineResult:
    """Run every step; the composed affine image is scale * amplitudes at
    result_indices, with scale exactly 2^k.

    Abstract mode runs every stage in place in one buffer of 2^(n + 2k)
    amplitudes; physical mode runs `apply_affine_step` with its witness."""
    if mode not in ("abstract", "physical"):
        raise InvalidInputError(f"unknown pipeline mode {mode!r}")
    n, k = seq.n, seq.k
    if n + 2 * k > MAX_QUBITS:
        raise CapacityError(
            f"pipeline needs {n + 2 * k} qubits (n={n}, k={k}), cap is {MAX_QUBITS}"
        )
    state = simulator.init_amplitudes(seq.psi0)
    witness: GateList | None = None
    if mode == "physical":
        prep = block(state_preparation(state.amplitudes), tuple(range(n - 1, -1, -1)))
        witness = GateList(n, [prep])
        for j, step in enumerate(seq.steps, start=1):
            state = apply_affine_step(state, step.A, step.B, j, n, mode, witness)
    else:
        buf = np.empty(1 << (n + 2 * k), dtype=np.complex128)
        d = 1 << n
        buf[:d] = state.amplitudes
        for j, step in enumerate(seq.steps, start=1):
            f = _step_dilation(step.A, j)
            _stage(buf, d, f.a, f.r, *_translation_support(step.B, j, 2 * d))
            d *= 4
        state = QuantumState(n + 2 * k, buf)
    return PipelineResult(
        state=state,
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
        v = step.A @ v
        if step.B is not None:
            v = v + step.B
    return v
