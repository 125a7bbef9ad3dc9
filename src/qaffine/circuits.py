"""Gate programs: single-qubit unitaries, CNOTs, and multi-qubit unitary
blocks with optional (anti-)controls.

A GateList is both an executable program for the simulator and a dense
matrix product (later gates multiply on the left).  Blocks are place-holders
for structured unitaries; `qaffine.synthesis.lower` expands them into
single-qubit gates and CNOTs.

Gate matrices are checked once, when `single` or `block` builds the gate
(shape, and unitarity within 1e-9).  Gates derived from built gates
(`dagger`, `with_control`, lowering) are unitary by construction, so running
a program checks qubit indices and the output norm but not unitarity again.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import simulator
from .errors import InvalidInputError, ShapeError
from .simulator import QuantumState, _apply, _apply_gate, _validated_gate

SQRT2 = np.sqrt(2.0)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=np.complex128) / SQRT2
PAULI_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=np.complex128
)


def phase_gate(theta: float) -> np.ndarray:
    return np.array([[1, 0], [0, np.exp(1j * theta)]], dtype=np.complex128)


@dataclass(frozen=True, eq=False)
class Gate:
    kind: str  # "single" | "cnot" | "block"
    targets: tuple[int, ...]
    controls: tuple[int, ...] = ()
    control_values: tuple[int, ...] = ()
    matrix: np.ndarray | None = None


def single(matrix, target: int) -> Gate:
    return Gate("single", (int(target),), matrix=_validated_gate(matrix, 1))


def cnot(control: int, target: int) -> Gate:
    if control == target:
        raise InvalidInputError("cnot control and target must differ")
    return Gate("cnot", (int(target),), (int(control),), (1,), PAULI_X)


def block(matrix, targets, controls=(), control_values=()) -> Gate:
    ts = tuple(int(t) for t in targets)
    cs = tuple(int(c) for c in controls)
    vs = tuple(int(v) for v in control_values)
    if len(cs) != len(vs):
        raise ShapeError(f"{len(cs)} controls but {len(vs)} control values")
    return Gate("block", ts, cs, vs, _validated_gate(matrix, len(ts)))


@dataclass(eq=False)
class GateList:
    qubit_count: int
    gates: list[Gate] = field(default_factory=list)

    def copy(self) -> "GateList":
        return GateList(self.qubit_count, list(self.gates))


def dagger(g: Gate) -> Gate:
    return Gate(g.kind, g.targets, g.controls, g.control_values, g.matrix.conj().T)


def inverted(gates) -> list[Gate]:
    return [dagger(g) for g in reversed(list(gates))]


def with_control(g: Gate, control: int, value: int = 1) -> Gate:
    """Same gate with one more (anti-)control attached."""
    control = int(control)
    if control in g.targets or control in g.controls:
        raise InvalidInputError(f"control {control} already used by the gate")
    return Gate(
        "block",
        g.targets,
        g.controls + (control,),
        g.control_values + (int(value),),
        g.matrix,
    )


def apply_gate(state: QuantumState, g: Gate) -> QuantumState:
    return _apply_gate(state, g.matrix, g.targets, g.controls, g.control_values)


def apply_gates(state: QuantumState, gates) -> QuantumState:
    for g in gates:
        state = apply_gate(state, g)
    return state


def run_gatelist(gl: GateList) -> QuantumState:
    """Execute the program from |0...0>."""
    return apply_gates(simulator.init_basis(gl.qubit_count), gl.gates)


def gatelist_matrix(gl: GateList) -> np.ndarray:
    """Dense product of the whole program (application order): every gate
    evolves all columns of the identity at once."""
    q = gl.qubit_count
    mat = np.eye(1 << q, dtype=np.complex128)
    for g in gl.gates:
        cols = mat.reshape([2] * q + [1 << q])
        mat = _apply(cols, q, g.matrix, g.targets, g.controls, g.control_values).reshape(mat.shape)
    return mat
