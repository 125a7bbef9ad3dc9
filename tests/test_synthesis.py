import numpy as np
import pytest
import scipy.linalg
from conftest import embed_unitary_oracle, random_contraction, random_state_vector, random_unitary

import qaffine.synthesis as synthesis
from qaffine import (
    CapacityError,
    GateCountReport,
    GateList,
    HADAMARD,
    PAULI_X,
    QAffineError,
    QubitIndexError,
    ShapeError,
    UnitarityError,
    block,
    cnot,
    compare_methods,
    count_gates,
    gatelist_matrix,
    lower,
    reconstruction_error,
    single,
    synthesize,
)


def test_synthesize_single_qubit_is_exact():
    gl = synthesize(HADAMARD, (0,))
    assert reconstruction_error(gl, HADAMARD) <= 1e-12
    assert count_gates(gl).multi_qubit == 0


def test_synthesize_identity_is_empty():
    gl = synthesize(np.eye(4), (1, 0))
    assert gl.gates == []
    assert count_gates(gl) == GateCountReport(0, 0, 0)


def test_synthesize_random_unitaries():
    rng = np.random.default_rng(81)
    for q in (1, 2, 3, 4, 5):
        u = random_unitary(rng, 1 << q)
        gl = synthesize(u, tuple(range(q - 1, -1, -1)))
        assert reconstruction_error(gl, u) <= 1e-8
        rep = count_gates(gl)
        assert rep.total == rep.single_qubit + rep.multi_qubit
        # only elementary gates come out
        assert all(g.kind in ("single", "cnot") for g in gl.gates)


def test_synthesize_cnot_matrix():
    u = gatelist_matrix(GateList(2, [cnot(1, 0)]))
    gl = synthesize(u, (1, 0))
    assert reconstruction_error(gl, u) <= 1e-10


def test_synthesis_counts_are_deterministic():
    rng = np.random.default_rng(82)
    u = random_unitary(rng, 8)
    r1 = count_gates(synthesize(u, (2, 1, 0)))
    r2 = count_gates(synthesize(u, (2, 1, 0)))
    assert r1 == r2


def test_structured_input_prunes_gates():
    rng = np.random.default_rng(83)
    dense = count_gates(synthesize(random_unitary(rng, 8), (2, 1, 0))).total
    diag = count_gates(synthesize(np.kron(np.eye(4), HADAMARD), (2, 1, 0))).total
    assert diag < dense


def test_synthesize_validation():
    with pytest.raises(UnitarityError):
        synthesize(0.5 * np.eye(2), (0,))
    with pytest.raises(ShapeError):
        synthesize(np.eye(4), (0,))
    with pytest.raises(ShapeError):
        synthesize(np.eye(2), ())
    with pytest.raises(CapacityError):
        synthesize(np.eye(1 << 6), tuple(range(5, -1, -1)))


def test_synthesize_checks_its_wires():
    # on an identity too, which builds no gate that could check them
    for wires in ((1.0, 0), (1, 1), (0, -1), 2):
        with pytest.raises(QubitIndexError):
            synthesize(np.eye(4), wires)


def test_synthesize_builds_on_the_given_wires():
    rng = np.random.default_rng(90)
    u = random_unitary(rng, 4)
    gl = synthesize(u, (0, 3))
    assert gl.qubit_count == 4
    assert {q for g in gl.gates for q in g.targets + g.controls} == {0, 3}
    assert reconstruction_error(gl, embed_unitary_oracle(u, (0, 3), 4)) <= 1e-8


def test_cached_drivers_match_scipy():
    # every size synthesis factors up to MAX_SYNTH_QUBITS = 5: a CSD of the
    # whole matrix, a Schur form of a half; equal factors bit for bit guard
    # the cached workspace sizes against a change of scipy's own rule
    rng = np.random.default_rng(91)
    for d in (4, 8, 16, 32):
        u = random_unitary(rng, d)
        (u1, u2), theta, (v1h, v2h) = synthesis._cossin(u)
        (w1, w2), phi, (x1h, x2h) = scipy.linalg.cossin(u, p=d // 2, q=d // 2, separate=True)
        for ours, ref in zip((u1, u2, theta, v1h, v2h), (w1, w2, phi, x1h, x2h)):
            assert np.array_equal(ours, ref)
    for d in (2, 4, 8, 16):
        m = random_unitary(rng, d)
        for ours, ref in zip(synthesis._schur(m), scipy.linalg.schur(m, output="complex")):
            assert np.array_equal(ours, ref)


@pytest.mark.parametrize("driver", ["_gees", "_uncsd"])
def test_driver_failure_raises(monkeypatch, driver):
    real = getattr(synthesis, driver)

    def failing(n):
        def call(*args, **kwargs):
            *out, _ = real(n)(*args, **kwargs)
            return (*out, 1)

        return call

    monkeypatch.setattr(synthesis, driver, failing)
    with pytest.raises(QAffineError, match="info = 1"):
        synthesize(random_unitary(np.random.default_rng(92), 4), (1, 0))


def test_count_gates_tallies_kinds():
    gl = GateList(2, [single(HADAMARD, 0), cnot(0, 1), single(PAULI_X, 1)])
    assert count_gates(gl) == GateCountReport(2, 1, 3)


def _aligned(m, target):
    tr = np.trace(target.conj().T @ m)
    phase = tr / abs(tr) if abs(tr) > 1e-12 else 1.0
    return m * np.conj(phase) - target


def test_lower_plain_block():
    rng = np.random.default_rng(84)
    u = random_unitary(rng, 4)
    gl = GateList(3, [block(u, (2, 0))])
    low = lower(gl)
    assert all(g.kind in ("single", "cnot") for g in low.gates)
    assert np.max(np.abs(_aligned(gatelist_matrix(low), gatelist_matrix(gl)))) <= 1e-8


def test_lower_controlled_block():
    rng = np.random.default_rng(85)
    u = random_unitary(rng, 2)
    gl = GateList(3, [block(u, (0,), (2,), (1,)), block(u, (1,), (0,), (0,))])
    low = lower(gl)
    assert all(g.kind in ("single", "cnot") for g in low.gates)
    assert np.max(np.abs(_aligned(gatelist_matrix(low), gatelist_matrix(gl)))) <= 1e-8


def test_lower_keeps_elementary_gates():
    gl = GateList(2, [single(HADAMARD, 0), cnot(0, 1)])
    low = lower(gl)
    assert low.gates == gl.gates


def test_reconstruction_error_detects_mismatch():
    gl = GateList(1, [single(HADAMARD, 0)])
    assert reconstruction_error(gl, HADAMARD) <= 1e-14
    assert reconstruction_error(gl, np.eye(2)) > 0.1


def test_reconstruction_error_checks_the_target_shape():
    gl = GateList(1, [single(HADAMARD, 0)])
    for target in (np.eye(4), np.eye(2)[:, :1]):
        with pytest.raises(ShapeError):
            reconstruction_error(gl, target)


def test_reconstruction_error_ignores_global_phase():
    gl = GateList(1, [single(1j * HADAMARD, 0)])
    assert reconstruction_error(gl, HADAMARD) <= 1e-12


def test_compare_methods_reports():
    rng = np.random.default_rng(86)
    a = random_contraction(rng, 4, high=0.8)
    b = random_state_vector(rng, 4)
    psi = random_state_vector(rng, 4)
    ours, aug = compare_methods(a, b, psi)
    assert ours.total == ours.single_qubit + ours.multi_qubit
    assert aug.total == aug.single_qubit + aug.multi_qubit
    assert ours.total > 0 and aug.total > 0


def test_compare_methods_deterministic():
    rng = np.random.default_rng(87)
    a = random_contraction(rng, 4, high=0.8)
    b = random_state_vector(rng, 4)
    psi = random_state_vector(rng, 4)
    assert compare_methods(a, b, psi) == compare_methods(a, b, psi)


def test_compare_methods_zero_translation():
    rng = np.random.default_rng(88)
    a = random_contraction(rng, 4, high=0.8)
    psi = random_state_vector(rng, 4)
    ours, aug = compare_methods(a, None, psi)
    assert ours.total > 0 and aug.total > 0


def test_compare_methods_requires_4x4():
    with pytest.raises(ShapeError):
        compare_methods(np.eye(2), [1.0, 0.0], [1.0, 0.0])


def test_compare_methods_counts_are_stable_for_a_unitary_step():
    # a dense unitary reads its singular values a few ulp off 1; the
    # dilation reads them as exactly 1, so a 1e-15 relative change of A
    # leaves both lowered circuits, and their counts, as they were
    rng = np.random.default_rng(86)
    for i in range(10):
        a = random_unitary(rng, 4)
        b = random_state_vector(rng, 4) if i % 3 else None
        psi = random_state_vector(rng, 4)
        e = rng.uniform(-1.0, 1.0, (4, 4)) + 1j * rng.uniform(-1.0, 1.0, (4, 4))
        assert compare_methods(a * (1.0 + 1e-15 * e), b, psi) == compare_methods(a, b, psi)


def _golden_instance(kind: str, seed: int, with_b: bool):
    rng = np.random.default_rng(seed)
    if kind == "generic":
        a = random_contraction(rng, 4, high=0.8)
    elif kind == "diagonal":
        a = np.diag(rng.uniform(0.2, 0.9, 4) * np.exp(1j * rng.uniform(-np.pi, np.pi, 4)))
    elif kind == "unitary":
        a = random_unitary(rng, 4)
    else:  # a weighted permutation
        a = np.eye(4)[rng.permutation(4)] * rng.uniform(0.2, 0.9, 4)
    b = random_state_vector(rng, 4) if with_b else None
    return a, b, random_state_vector(rng, 4)


# (kind of A, seed, B given) -> (single, multi, total) of the pipeline and of
# the augmented circuit.  Counts flip under a 1e-15 change of A, so these
# pin the lowered arithmetic itself, not only its determinism.
GOLDEN_COUNTS = {
    ("generic", 211, True): ((247, 204, 451), (284, 252, 536)),
    ("generic", 210, False): ((297, 250, 547), (203, 174, 377)),
    ("diagonal", 213, True): ((212, 178, 390), (284, 252, 536)),
    ("diagonal", 212, False): ((264, 228, 492), (131, 120, 251)),
    ("unitary", 215, True): ((241, 192, 433), (284, 252, 536)),
    ("unitary", 214, False): ((289, 240, 529), (169, 142, 311)),
    ("permutation", 217, True): ((254, 214, 468), (284, 252, 536)),
    ("permutation", 216, False): ((281, 236, 517), (199, 166, 365)),
}


@pytest.mark.parametrize("instance", sorted(GOLDEN_COUNTS))
def test_compare_methods_golden_counts(instance):
    ours, aug = compare_methods(*_golden_instance(*instance))
    got = tuple((r.single_qubit, r.multi_qubit, r.total) for r in (ours, aug))
    assert got == GOLDEN_COUNTS[instance]
