"""Gate programs: single-qubit unitaries, CNOTs, and multi-qubit unitary
blocks with optional (anti-)controls.

A GateList is both an executable program for the simulator and a dense
matrix product (later gates multiply on the left).  Blocks are place-holders
for structured unitaries; `qaffine.synthesis.lower` expands them into
single-qubit gates and CNOTs.

A gate carries a dense 2^t x 2^t matrix, or, for a block, a
`linalg.Reflector`: a state preparation held as O(2^t) data, which the
simulator applies through `@` in O(2^t) per column and `dagger` inverts by
its `adjoint`.  Only lowering and `gatelist_matrix` densify it.

Gate matrices are checked once, when `single` or `block` builds the gate
(shape, and unitarity within 1e-9 by a dense product for a matrix).  `block`
also takes a Reflector or a checked `blockenc.BlockEncoding`, whose unitarity
was checked when it was built (in O(d) for a Reflector, at 1e-10 for a
dilation), and keeps their read-only data.  Gates derived from built gates
(`dagger`, `with_control`, lowering) are unitary by construction, so running
a program checks the output norm but not unitarity again.  Qubit indices and
control values must be integers.  `block` and `with_control` refuse a
qubit used twice and a control value that is not a bit when they build the
gate; the register width is checked once per distinct layout, whether a
program is run or multiplied out (`gatelist_matrix`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import simulator
from .errors import InvalidInputError
from .linalg import Reflector
from .simulator import QuantumState, _apply, _apply_gate, _as_ints, _check_wires, _validated_gate

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
    matrix: np.ndarray | Reflector | None = None


def single(matrix, target: int) -> Gate:
    return Gate("single", _as_ints((target,)), matrix=_validated_gate(matrix, 1))


def cnot(control: int, target: int) -> Gate:
    c, t = _as_ints((control, target))
    if c == t:
        raise InvalidInputError("cnot control and target must differ")
    return Gate("cnot", (t,), (c,), (1,), PAULI_X)


def block(matrix, targets, controls=(), control_values=()) -> Gate:
    ts, cs = _as_ints(targets), _as_ints(controls)
    vs = _as_ints(control_values, InvalidInputError, "control values")
    _check_wires(ts, cs, vs)
    return Gate("block", ts, cs, vs, _validated_gate(matrix, len(ts)))


@dataclass(eq=False)
class GateList:
    qubit_count: int
    gates: list[Gate] = field(default_factory=list)

    def copy(self) -> "GateList":
        return GateList(self.qubit_count, list(self.gates))


def dagger(g: Gate) -> Gate:
    m = g.matrix
    adj = m.adjoint() if isinstance(m, Reflector) else m.conj().T
    return Gate(g.kind, g.targets, g.controls, g.control_values, adj)


def inverted(gates) -> list[Gate]:
    return [dagger(g) for g in reversed(list(gates))]


def with_control(g: Gate, control: int, value: int = 1) -> Gate:
    """Same gate with one more (anti-)control attached."""
    (control,) = _as_ints((control,))
    (value,) = _as_ints((value,), InvalidInputError, "control values")
    controls, values = g.controls + (control,), g.control_values + (value,)
    _check_wires(g.targets, controls, values)
    return Gate("block", g.targets, controls, values, g.matrix)


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
        mat = _apply(mat, q, g.matrix, g.targets, g.controls, g.control_values)
    return mat
