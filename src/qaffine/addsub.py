"""Hadamard-supported elementwise addition/subtraction of amplitude vectors.

Sandwiching a conditional preparation between two Hadamards on a fresh
ancilla leaves (a_i + b_i)/2 on the ancilla=0 half of the register and
(a_i - b_i)/2 on the ancilla=1 half.  The ancilla is always adjoined as the
new most significant qubit, so the sum block sits at the low basis indices.

The in-place variant consumes the current register contents as the kept
operand and supports two modes:

* "abstract": the two halves (phi + b~)/2 and (phi - b~)/2 are written
  directly into the new register; no gate kernel runs.
* "physical": the same state is reached by gates alone.  The caller supplies
  the circuit that prepared |phi> from |0...0>; controlled on the new
  ancilla, that circuit is uncomputed and a preparation of b~ is applied (a
  linear-combination-of-unitaries construction), between the two Hadamards.

Both modes agree to numerical precision; "physical" exists to certify that
the abstract shortcut is realizable with gates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import simulator
from .circuits import (
    HADAMARD,
    Gate,
    GateList,
    apply_gates,
    block,
    inverted,
    run_gatelist,
    single,
    with_control,
)
from .errors import InvalidInputError, MissingWitnessError, PreconditionError, ShapeError
from .linalg import as_vector, check_unit_norm, completion_unitary, max_abs
from .simulator import QuantumState, _check_normalized

WITNESS_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class AddSubResult:
    state: QuantumState
    sum_indices: np.ndarray
    diff_indices: np.ndarray


def _unit(x, label: str) -> np.ndarray:
    v = as_vector(x)
    d = v.shape[0]
    if d < 2 or d & (d - 1):
        raise ShapeError(f"{label} length {d} is not a power of two >= 2")
    return v / check_unit_norm(v, label)


def hadamard_addsub_fresh(psi_a, psi_b) -> AddSubResult:
    """Build ((a+b)/2, (a-b)/2) on a fresh (n+1)-qubit register.

    Runs the actual circuit: H on the ancilla, preparation of a conditioned
    on ancilla=0 and of b on ancilla=1, then the closing H.
    """
    a = _unit(psi_a, "psi_a")
    b = _unit(psi_b, "psi_b")
    if a.shape != b.shape:
        raise ShapeError(f"operand lengths differ: {a.shape[0]} vs {b.shape[0]}")
    n = a.shape[0].bit_length() - 1
    anc = n
    base = tuple(range(n - 1, -1, -1))
    state = simulator.init_basis(n + 1)
    state = simulator.apply_unitary(state, HADAMARD, (anc,))
    state = simulator.apply_unitary(state, completion_unitary(a), base, (anc,), (0,))
    state = simulator.apply_unitary(state, completion_unitary(b), base, (anc,), (1,))
    state = simulator.apply_unitary(state, HADAMARD, (anc,))
    half = 1 << n
    return AddSubResult(state, np.arange(half), np.arange(half, 2 * half))


def addsub_stage_gates(b_tilde: np.ndarray, witness: GateList) -> list[Gate]:
    """Gate realization of one in-place stage on top of a prepared register.

    The new ancilla index equals witness.qubit_count (one past the current
    register).  Controlled on it: uncompute the witness, then prepare b~.
    """
    q = witness.qubit_count
    anc = q
    gates: list[Gate] = [single(HADAMARD, anc)]
    for g in inverted(witness.gates):
        gates.append(with_control(g, anc, 1))
    prep = block(
        completion_unitary(b_tilde),
        targets=tuple(range(q - 1, -1, -1)),
        controls=(anc,),
        control_values=(1,),
    )
    gates.append(prep)
    gates.append(single(HADAMARD, anc))
    return gates


def hadamard_addsub_inplace(
    state: QuantumState,
    b_tilde,
    mode: str = "abstract",
    circuit_so_far: GateList | None = None,
) -> QuantumState:
    """Adjoin an ancilla as new MSB and fold b~ into the register:
    (phi_i + b~_i)/2 lands on the ancilla=0 half, (phi_i - b~_i)/2 on the
    ancilla=1 half.

    In physical mode the stage's gates are appended to circuit_so_far, which
    then prepares the returned state (its qubit count grows by one)."""
    b = _unit(b_tilde, "b_tilde")
    if b.shape[0] != state.dim:
        raise ShapeError(f"b_tilde length {b.shape[0]} != register dimension {state.dim}")
    if mode == "abstract":
        phi = state.amplitudes
        out = np.empty((2, state.dim), dtype=np.complex128)
        np.add(phi, b, out=out[0])
        np.subtract(phi, b, out=out[1])
        out *= 0.5
        amps = out.reshape(-1)
        _check_normalized(amps)
        return QuantumState(state.num_qubits + 1, amps)
    if mode == "physical":
        if circuit_so_far is None:
            raise MissingWitnessError("physical mode requires the preparing circuit")
        if circuit_so_far.qubit_count != state.num_qubits:
            raise ShapeError(
                f"witness is on {circuit_so_far.qubit_count} qubits, "
                f"state has {state.num_qubits}"
            )
        rebuilt = run_gatelist(circuit_so_far)
        dev = max_abs(rebuilt.amplitudes - state.amplitudes)
        if dev > WITNESS_TOL:
            raise PreconditionError(
                f"witness does not reconstruct the state (max deviation {dev:.3e})"
            )
        gates = addsub_stage_gates(b, circuit_so_far)
        st = apply_gates(simulator.prepend_ancilla(state), gates)
        circuit_so_far.qubit_count += 1
        circuit_so_far.gates.extend(gates)
        return st
    raise InvalidInputError(f"unknown add/sub mode {mode!r}")
