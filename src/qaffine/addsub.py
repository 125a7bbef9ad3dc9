"""Hadamard-supported elementwise addition/subtraction of amplitude vectors.

Sandwiching a conditional preparation between two Hadamards on a fresh
ancilla leaves (a_i + b_i)/2 on the ancilla=0 half of the register and
(a_i - b_i)/2 on the ancilla=1 half.  The ancilla is always adjoined as the
new most significant qubit, so the sum block sits at the low basis indices.

The in-place variant consumes the current register contents as the kept
operand and supports two modes:

* "abstract": the two halves (phi + b~)/2 and (phi - b~)/2 are written
  directly into the new register; no gate kernel runs.  `_fold` writes
  them: both halves start as phi/2 and take +-b~/2 on b~'s support only.
  The abstract pipeline stage runs the same fold on its own buffer.
* "physical": the register is folded as in abstract mode, and the state is
  certified to be reachable by gates alone.  The caller supplies the circuit
  that prepared |phi> from |0...0>; the stage's gates (`addsub_stage_gates`)
  uncompute that circuit controlled on the new ancilla and apply a
  preparation of b~ (a linear-combination-of-unitaries construction),
  between the two Hadamards.  The circuit extended by these gates is
  replayed once (`_check_witness`) and must prepare the folded register, so
  the replay checks the stage gates as well as the caller's circuit.

Both modes return the same register bit for bit; "physical" exists to
certify that the abstract shortcut is realizable with gates.  The physical
pipeline runs the abstract stages and checks its whole witness once, in the
same way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import simulator
from .circuits import (
    HADAMARD,
    Gate,
    GateList,
    block,
    inverted,
    run_gatelist,
    single,
    with_control,
)
from .errors import InvalidInputError, MissingWitnessError, PreconditionError, ShapeError
from .linalg import as_vector, check_unit_norm, max_abs, state_preparation
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


def _fold(buf: np.ndarray, half: int, head: np.ndarray, residual=None) -> None:
    """Finish an abstract add/sub in place, where both halves of
    buf[:2 * half] hold phi/2: add b~/2 to the low half and subtract it from
    the high half, then check the norm.  b~ is given on its support: head on
    its first entries and, if given, residual at its last one (index
    half - 1); every other entry is an exact zero.  Halving is exact, so the
    halves equal (phi +- b~) * 0.5 bit for bit."""
    h = 0.5 * head
    m = h.shape[0]
    buf[:m] += h
    buf[half : half + m] -= h
    if residual is not None:
        g = 0.5 * residual
        buf[half - 1] += g
        buf[2 * half - 1] -= g
    _check_normalized(buf[: 2 * half])


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
    state = simulator.apply_unitary(state, state_preparation(a), base, (anc,), (0,))
    state = simulator.apply_unitary(state, state_preparation(b), base, (anc,), (1,))
    state = simulator.apply_unitary(state, HADAMARD, (anc,))
    half = 1 << n
    return AddSubResult(state, np.arange(half), np.arange(half, 2 * half))


def _check_witness(witness: GateList, amps: np.ndarray) -> None:
    """Replay the witness from |0...0>: it must prepare amps within WITNESS_TOL."""
    dev = max_abs(run_gatelist(witness).amplitudes - amps)
    if not dev <= WITNESS_TOL:
        raise PreconditionError(f"witness does not reconstruct the state (max deviation {dev:.3e})")


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
        state_preparation(b_tilde),
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

    Physical mode folds the register as abstract mode does, then replays
    circuit_so_far extended by the stage's gates once: it must prepare the
    folded register within WITNESS_TOL, else PreconditionError.  Only then
    are the gates appended to circuit_so_far (its qubit count grows by one),
    so a failed call leaves it as it was."""
    b = _unit(b_tilde, "b_tilde")
    if b.shape[0] != state.dim:
        raise ShapeError(f"b_tilde length {b.shape[0]} != register dimension {state.dim}")
    if mode not in ("abstract", "physical"):
        raise InvalidInputError(f"unknown add/sub mode {mode!r}")
    if mode == "physical":
        if circuit_so_far is None:
            raise MissingWitnessError("physical mode requires the preparing circuit")
        if circuit_so_far.qubit_count != state.num_qubits:
            raise ShapeError(
                f"witness is on {circuit_so_far.qubit_count} qubits, "
                f"state has {state.num_qubits}"
            )
    d = state.dim
    buf = np.empty(2 * d, dtype=np.complex128)
    np.multiply(state.amplitudes, 0.5, out=buf[:d])
    buf[d:] = buf[:d]
    _fold(buf, d, b)
    if mode == "physical":
        gates = addsub_stage_gates(b, circuit_so_far)
        _check_witness(GateList(state.num_qubits + 1, circuit_so_far.gates + gates), buf)
        circuit_so_far.qubit_count += 1
        circuit_so_far.gates.extend(gates)
    return QuantumState(state.num_qubits + 1, buf)
