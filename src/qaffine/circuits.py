"""Gate programs: single-qubit unitaries, CNOTs, and multi-qubit unitary
blocks with optional (anti-)controls.

A GateList is both an executable program for the simulator and a dense
matrix product (later gates multiply on the left).  Blocks are place-holders
for structured unitaries; `qaffine.synthesis.lower` expands them into
single-qubit gates and CNOTs.

A gate carries a dense 2^t x 2^t matrix, or, for a block, a
`linalg.Reflector` (a state preparation) or a `linalg.Diagonal` (a QFT's
phase layer): O(2^t) data, which the simulator applies through `@` in
O(2^t) per column and `dagger` inverts by its `adjoint`.  Only lowering and
`gatelist_matrix` densify it.

`Gate` lives next to the kernel, in `simulator`, and is re-exported here.
Building one is its only check (wiring, shape, and unitarity within 1e-9 by
a dense product for a matrix; a Reflector, a Diagonal or a
`blockenc.BlockEncoding`, whose U checks itself when read, is trusted by its
type), so `single` and `block` only build a gate.  Gates made from built
gates (`dagger`, `with_control`, `cnot` from one checked X) keep the checked
matrix and check only their new wiring; lowering builds each gate on its
final wires.
Running a program checks the output norm and, once per distinct layout, the
register width, whether the program is run or multiplied out
(`gatelist_matrix`), but not unitarity again.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import simulator
from .linalg import Diagonal, Reflector
from .simulator import Gate, QuantumState, _apply, _apply_gate

SQRT2 = np.sqrt(2.0)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=np.complex128) / SQRT2
PAULI_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=np.complex128
)


def single(matrix, target: int) -> Gate:
    return Gate("single", (target,), matrix=matrix)


def block(matrix, targets, controls=(), control_values=()) -> Gate:
    return Gate("block", targets, controls, control_values, matrix)


@functools.cache
def _x() -> Gate:
    """The one checked X every cnot carries.  It is built on first use, so
    that importing the package runs no BLAS product: the first one allocates
    BLAS buffers, and doing that at import made perfbench's `deep` ops,
    which build no gate, about 9% slower (2-core Xeon VM)."""
    return single(PAULI_X, 0)


def cnot(control: int, target: int) -> Gate:
    return _x()._derive("cnot", ((target,), (control,), (1,)))


@dataclass(eq=False)
class GateList:
    qubit_count: int
    gates: list[Gate] = field(default_factory=list)


def dagger(g: Gate) -> Gate:
    m = g.matrix
    if isinstance(m, (Reflector, Diagonal)):
        return g._derive(g.kind, matrix=m.adjoint())
    adj = m.conj().T
    adj.flags.writeable = False
    return g._derive(g.kind, matrix=adj)


def inverted(gates) -> list[Gate]:
    return [dagger(g) for g in reversed(list(gates))]


def with_control(g: Gate, control: int, value: int = 1) -> Gate:
    """Same gate with one more (anti-)control attached."""
    return g._derive("block", (g.targets, g.controls + (control,), g.control_values + (value,)))


def apply_gate(state: QuantumState, g: Gate) -> QuantumState:
    return _apply_gate(state, g)


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
        mat = _apply(mat, q, g)
    return mat
