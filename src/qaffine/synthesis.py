"""Exact synthesis of small unitaries into single-qubit gates + CNOTs, and
gate-count comparison of the sequential pipeline against the augmented
(homogeneous-coordinate) baseline.

The decomposition is the recursive cosine-sine route (quantum Shannon
style): split off the most significant qubit with a CSD, turn the central
cosine-sine factor into a multiplexed Ry, demultiplex the two block-diagonal
factors into a multiplexed Rz between smaller unitaries, and recurse.
Multiplexed rotations lower to rotation/CNOT ladders; near-zero rotation
angles are pruned, so structured inputs give compact programs.  Counts are a
pure function of the input matrix: the same unitary always lowers to the
same program.

The factorizations call LAPACK's `zuncsd` (CSD) and `zgees` (Schur) through
drivers cached per matrix size (four sizes each up to MAX_SYNTH_QUBITS):
each is fetched once, with the workspace its
own query asks for, and called with the arguments `scipy.linalg.cossin(u,
p=half, q=half, separate=True)` and `scipy.linalg.schur(m,
output="complex")` pass, so the factors are theirs bit for bit, without
their per-call validation and workspace query.  `synthesize` builds each
gate on the wires the input acts on, so a lowered block is built, and
checked, once.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .baseline import build_augmented, run_augmented
from .circuits import Gate, GateList, block, cnot, gatelist_matrix, single
from .errors import CapacityError, QAffineError, QubitIndexError, ShapeError, UnitarityError
from .linalg import as_matrix, as_vector, completion_unitary, is_unitary, max_abs
from .pipeline import AffineSequence, AffineStep, extract_result, run_pipeline
from .simulator import _as_ints

MAX_SYNTH_QUBITS = 5
ANGLE_PRUNE_TOL = 1e-12
AGREEMENT_TOL = 1e-8


@dataclass(frozen=True)
class GateCountReport:
    single_qubit: int
    multi_qubit: int
    total: int


def _ry(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=np.complex128)


def _rz(theta: float) -> np.ndarray:
    return np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])


def _mux_rot(angles: np.ndarray, controls: tuple[int, ...], target: int, axis: str) -> list[Gate]:
    """Multiplexed rotation: rotation angle angles[i] on the target when the
    control qubits (controls[0] most significant) hold the bits of i."""
    if not controls:
        theta = float(angles[0])
        if abs(theta) < ANGLE_PRUNE_TOL:
            return []
        return [single(_ry(theta) if axis == "y" else _rz(theta), target)]
    half = angles.shape[0] // 2
    a, b = angles[:half], angles[half:]
    if max_abs(a - b) / 2 < ANGLE_PRUNE_TOL:
        # both halves equal: the control is inert, CNOT pair cancels
        return _mux_rot((a + b) / 2, controls[1:], target, axis)
    return (
        _mux_rot((a + b) / 2, controls[1:], target, axis)
        + [cnot(controls[0], target)]
        + _mux_rot((a - b) / 2, controls[1:], target, axis)
        + [cnot(controls[0], target)]
    )


def _no_sort(x):
    """`zgees`'s eigenvalue selector, never called: the Schur forms here are
    unsorted (sort_t=0), as `scipy.linalg.schur`'s default."""
    return None


def _checked(info: int, driver: str) -> None:
    if info != 0:
        raise QAffineError(f"LAPACK {driver} failed with info = {info}")


@functools.cache
def _gees(n: int):
    """`zgees` for n x n matrices, with the workspace its own query asks for,
    as `scipy.linalg.schur` sizes it (the query reads only n)."""
    gees = scipy.linalg.get_lapack_funcs("gees", dtype=np.complex128)
    *_, work, info = gees(_no_sort, np.zeros((n, n), dtype=np.complex128), lwork=-1)
    _checked(info, "zgees workspace query")
    return functools.partial(gees, _no_sort, lwork=int(work[0].real), overwrite_a=False, sort_t=0)


@functools.cache
def _uncsd(m: int):
    """`zuncsd` for m x m unitaries split in half, with the workspaces its
    own query asks for, as `scipy.linalg.cossin` sizes them.  Its other
    arguments keep the defaults `cossin` passes: all four factors, no
    transpose, default signs."""
    csd, query = scipy.linalg.get_lapack_funcs(("uncsd", "uncsd_lwork"), dtype=np.complex128)
    work, rwork, info = query(m=m, p=m // 2, q=m // 2)
    _checked(info, "zuncsd workspace query")
    return functools.partial(csd, lwork=int(work.real), lrwork=int(rwork.real))


def _schur(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(T, Z) of `scipy.linalg.schur(m, output="complex")` for a complex
    square m.  m is a product of unitary factors of a checked input, so it
    is not scanned for finiteness; a non-finite factor would still fail
    `_lowered`'s reconstruction check."""
    t, _, _, z, _, info = _gees(m.shape[0])(m)
    _checked(info, "zgees")
    return t, z


def _cossin(u: np.ndarray):
    """((U1, U2), theta, (V1h, V2h)) of `scipy.linalg.cossin(u, p=half,
    q=half, separate=True)` for a complex 2h x 2h unitary u."""
    h = u.shape[0] // 2
    *_, theta, u1, u2, v1h, v2h, info = _uncsd(u.shape[0])(
        x11=u[:h, :h], x12=u[:h, h:], x21=u[h:, :h], x22=u[h:, h:]
    )
    _checked(info, "zuncsd")
    return (u1, u2), theta, (v1h, v2h)


def _demux(u1: np.ndarray, u2: np.ndarray, qs: tuple[int, ...]) -> list[Gate]:
    """Gates for the block-diagonal unitary u1 (+) u2 multiplexed on qs[0]."""
    m = u1 @ u2.conj().T
    t, z = _schur(m)
    d = np.exp(0.5j * np.angle(np.diagonal(t)))
    w = (z * d).conj().T @ u1  # (Z D)^dag u1 = D^dag Z^dag u1
    return (
        _synth(w, qs[1:])
        + _mux_rot(-2.0 * np.angle(d), qs[1:], qs[0], "z")
        + _synth(z, qs[1:])
    )


def _synth(u: np.ndarray, qs: tuple[int, ...]) -> list[Gate]:
    if len(qs) == 1:
        if max_abs(u - np.eye(2)) < ANGLE_PRUNE_TOL:
            return []
        return [single(u, qs[0])]
    (u1, u2), theta, (v1h, v2h) = _cossin(u)
    return (
        _demux(v1h, v2h, qs)
        + _mux_rot(2.0 * np.asarray(theta), qs[1:], qs[0], "y")
        + _demux(u1, u2, qs)
    )


def synthesize(u, wires) -> GateList:
    """Decompose a 2^q x 2^q unitary on q wires into single-qubit gates and
    CNOTs.

    `wires` are the qubits u acts on, most significant bit of its index
    first, as a gate's targets are: distinct non-negative integers, checked
    once here.  Every gate is built on them, so the program acts on
    max(wires) + 1 qubits and reproduces u there up to global phase.  The
    factorizations run through the cached LAPACK drivers `_uncsd` and
    `_gees`.
    """
    qs = _as_ints(wires)
    if len(set(qs)) != len(qs) or min(qs, default=0) < 0:
        raise QubitIndexError(f"synthesis wires must be distinct non-negative integers, got {qs}")
    qubits = len(qs)
    if qubits < 1:
        raise ShapeError("synthesis needs at least one wire")
    if qubits > MAX_SYNTH_QUBITS:
        raise CapacityError(f"synthesis supports at most {MAX_SYNTH_QUBITS} qubits")
    m = as_matrix(u)
    if m.shape != (1 << qubits, 1 << qubits):
        raise ShapeError(f"matrix shape {m.shape} does not act on {qubits} qubit(s)")
    if not is_unitary(m, 1e-9):
        raise UnitarityError("synthesis input is not unitary within 1e-9")
    return GateList(max(qs) + 1, _synth(m, qs))


def count_gates(gl: GateList) -> GateCountReport:
    """Exact tallies: single-qubit gates vs everything wider (CNOTs and any
    unlowered blocks)."""
    singles = sum(1 for g in gl.gates if g.kind == "single")
    multi = len(gl.gates) - singles
    return GateCountReport(singles, multi, len(gl.gates))


def lower(gl: GateList) -> GateList:
    """Expand every block gate into single-qubit gates + CNOTs.

    A controlled block is lowered by synthesizing the dense controlled
    unitary on its controls + targets, the wires its gates are built on."""
    out: list[Gate] = []
    for g in gl.gates:
        if g.kind != "block":
            out.append(g)
            continue
        t = len(g.targets)
        m = np.eye(1 << (len(g.controls) + t), dtype=np.complex128)
        offset = 0
        for v in g.control_values:
            offset = (offset << 1) | v
        offset <<= t
        m[offset : offset + (1 << t), offset : offset + (1 << t)] = np.asarray(g.matrix)
        out.extend(synthesize(m, g.controls + g.targets).gates)
    return GateList(gl.qubit_count, out)


def reconstruction_error(gl: GateList, u) -> float:
    """Max-entry deviation of the program's matrix product from u, after
    aligning the global phase.  u must be 2^q x 2^q for the program's q
    qubits."""
    target = as_matrix(u)
    dim = 1 << gl.qubit_count
    if target.shape != (dim, dim):
        raise ShapeError(f"target shape {target.shape} does not act on {gl.qubit_count} qubit(s)")
    m = gatelist_matrix(gl)
    tr = np.trace(target.conj().T @ m)
    phase = tr / abs(tr) if abs(tr) > 1e-12 else 1.0
    return max_abs(m * np.conj(phase) - target)


def _lowered(blocks: GateList, label: str) -> GateList:
    """Lower a block-level circuit; the result must reproduce its product."""
    out = lower(blocks)
    err = reconstruction_error(out, gatelist_matrix(blocks))
    if not err <= AGREEMENT_TOL:
        raise QAffineError(f"{label} circuit lowering error {err:.3e} exceeds 1e-8")
    return out


def compare_methods(a, b, psi) -> tuple[GateCountReport, GateCountReport]:
    """Gate-count comparison on the 4-qubit instance: sequential pipeline
    (k=1, physical mode) versus the augmented single-dilation baseline.

    Both circuits are fully lowered before counting; the lowered programs
    must reproduce their block-level products, and both routes must yield
    the same affine image.  Returns (pipeline report, augmented report).
    """
    m = as_matrix(a)
    if m.shape != (4, 4):
        raise ShapeError(f"comparison is defined for 4x4 matrices, got {m.shape}")
    bv = None if b is None else as_vector(b)
    p = as_vector(psi)

    res = run_pipeline(AffineSequence(2, p, (AffineStep(m, bv),)), mode="physical")
    ours = _lowered(res.circuit, "pipeline")
    aug = build_augmented(m, bv if bv is not None else np.zeros(4), p)
    prep = block(completion_unitary(aug.psi_tilde), (2, 1, 0))
    augl = _lowered(GateList(4, [prep, block(aug.enc, (3, 2, 1, 0))]), "augmented")

    diff = max_abs(extract_result(res) - run_augmented(aug))
    if not diff <= AGREEMENT_TOL:
        raise QAffineError(f"methods disagree by {diff:.3e} (tolerance 1e-8)")
    return count_gates(ours), count_gates(augl)
