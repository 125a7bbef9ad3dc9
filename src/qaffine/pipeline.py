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
R = sqrt(I - A^dag A), taken from one SVD of A (or elementwise, in O(N),
when A is diagonal).  Abstract mode never builds the 2N x 2N unitary.
Physical mode builds it with `block_encode` for its gate witness and
applies the same two blocks of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import simulator
from .addsub import hadamard_addsub_inplace
from .blockenc import UNITARY_TOL, block_encode
from .circuits import GateList, block
from .errors import (
    CapacityError,
    ContractionError,
    EncodingError,
    InvalidInputError,
    MissingWitnessError,
    NormalizationError,
    ShapeError,
)
from .linalg import as_matrix, as_vector, check_unit_norm, completion_unitary, max_abs
from .simulator import MAX_QUBITS, QuantumState, _check_normalized

CONTRACTION_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class AffineStep:
    """One stage x -> A x + B.  B = None marks a zero translation."""

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


def rescale_translation(b, step_index: int, target_dim: int, weight: float = 1.0) -> RescaledTranslation:
    """Embed a translation vector into the register present at step j.

    The first N entries become weight * beta_i / 2^(j-1); a single residual
    sqrt(1 - weight^2 * sum|beta_i|^2 / 4^(j-1)) at the all-ones index makes
    the result a unit vector without touching any measured or branch-tracked
    index.  b = None (zero translation) yields the pure garbage vector.
    """
    j = int(step_index)
    if j < 1:
        raise InvalidInputError(f"step index must be >= 1, got {j}")
    target_dim = int(target_dim)
    if target_dim < 2 or target_dim & (target_dim - 1):
        raise ShapeError(f"target dimension {target_dim} is not a power of two")
    weight = float(weight)
    if not -1.0 <= weight <= 1.0:
        raise NormalizationError(f"translation weight {weight!r} outside [-1, 1]")
    out = np.zeros(target_dim, dtype=np.complex128)
    garbage = target_dim - 1
    if b is None:
        out[garbage] = 1.0
        return RescaledTranslation(out, j, garbage)
    v = as_vector(b)
    if v.shape[0] * 2 > target_dim:
        raise ShapeError(
            f"translation length {v.shape[0]} does not fit dimension {target_dim}"
        )
    scaled = v / check_unit_norm(v, "translation") * (weight / 2 ** (j - 1))
    out[: v.shape[0]] = scaled
    resid_sq = 1.0 - float(np.sum(np.abs(scaled) ** 2))
    if resid_sq < -1e-12:
        raise NormalizationError(f"rescaled translation has norm^2 {1.0 - resid_sq!r} above 1")
    out[garbage] = np.sqrt(max(resid_sq, 0.0))
    return RescaledTranslation(out, j, garbage)


def _dilation_half(m: np.ndarray, step_index: int) -> tuple[np.ndarray, np.ndarray]:
    """Ancilla-0 columns [A; R] of the dilation of A, R = sqrt(I - A^dag A).

    Diagonal A (every off-diagonal entry zero) gives both blocks as their
    diagonals, in O(N); dense A gives N x N blocks from one SVD.  A is
    divided by sigma_max when that lies within CONTRACTION_TOL above 1."""
    diagonal = np.diagonal(m)
    if np.count_nonzero(m) == np.count_nonzero(diagonal):
        a, s = diagonal, np.abs(diagonal)
        sigma = float(s.max())
    else:
        _, s, vh = np.linalg.svd(m)
        a, sigma = m, float(s[0])
    if sigma > 1.0 + CONTRACTION_TOL:
        raise ContractionError(
            f"step {step_index}: spectral norm {sigma!r} exceeds 1 "
            f"(dilation would contract amplitudes by 1/{sigma:.6g})"
        )
    if sigma > 1.0:
        a, s = a / sigma, s / sigma  # numerical overshoot within tolerance
    r = np.sqrt(np.clip(1.0 - s**2, 0.0, None))
    if a.ndim == 2:
        r = (vh.conj().T * r) @ vh
    return a, r


def _check_isometry(a: np.ndarray, r: np.ndarray, step_index: int) -> None:
    """[A; R] must have orthonormal columns: A^dag A + R^dag R = I."""
    if a.ndim == 1:
        dev = max_abs(np.abs(a) ** 2 + r**2 - 1.0)
    else:
        dev = max_abs(a.conj().T @ a + r.conj().T @ r - np.eye(a.shape[0]))
    if dev > UNITARY_TOL:
        raise EncodingError(
            f"step {step_index}: dilation columns deviate from an isometry by {dev:.3e}"
        )


def _dilate(state: QuantumState, a: np.ndarray, r: np.ndarray) -> QuantumState:
    """Adjoin the dilation ancilla as new MSB and write [X A^T ; X R^T],
    where X holds the register as rows over the base index."""
    q = state.num_qubits + 1
    if q > MAX_QUBITS:
        raise CapacityError(f"qubit count {q} exceeds {MAX_QUBITS}")
    x = state.amplitudes.reshape(-1, a.shape[0])
    out = np.empty((2,) + x.shape, dtype=np.complex128)
    if a.ndim == 1:
        np.multiply(x, a, out=out[0])
        np.multiply(x, r, out=out[1])
    else:
        np.matmul(x, a.T, out=out[0])
        np.matmul(x, r.T, out=out[1])
    amps = out.reshape(-1)
    _check_normalized(amps)
    return QuantumState(q, amps)


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
    then add/sub ancilla + rescaled translation."""
    m = as_matrix(a)
    dim = 1 << base_n
    if m.shape != (dim, dim):
        raise ShapeError(f"step matrix shape {m.shape} != base dimension 2^{base_n}")
    if mode == "physical" and witness is None:
        raise MissingWitnessError("physical mode requires a circuit witness")
    a_blk, r_blk = _dilation_half(m, step_index)
    if witness is not None:
        # the witness carries the whole dilation; its ancilla-0 columns are
        # what the state gets, so the two agree even where block_encode
        # guards a norm that reads a few ulp above 1
        enc = block_encode(a_blk if a_blk.ndim == 2 else np.diag(a_blk))
        a_blk, r_blk = enc.U[:dim, :dim], enc.U[dim:, :dim]
        targets = (state.num_qubits,) + tuple(range(base_n - 1, -1, -1))
        witness.qubit_count += 1
        witness.gates.append(block(enc.U, targets))
    _check_isometry(a_blk, r_blk, step_index)
    st = _dilate(state, a_blk, r_blk)

    rt = rescale_translation(b, step_index, st.dim, weight=translation_weight)
    return hadamard_addsub_inplace(st, rt.b_tilde, mode, witness)


def run_pipeline(seq: AffineSequence, mode: str = "abstract") -> PipelineResult:
    """Run every step; the composed affine image is scale * amplitudes at
    result_indices, with scale exactly 2^k."""
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
        prep = block(completion_unitary(state.amplitudes), tuple(range(n - 1, -1, -1)))
        witness = GateList(n, [prep])
    for j, step in enumerate(seq.steps, start=1):
        state = apply_affine_step(state, step.A, step.B, j, n, mode, witness)
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
