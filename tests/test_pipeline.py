import sys
import threading
import tracemalloc

import numpy as np
import pytest
from conftest import broken_residual, count_calls, count_dense_builds, nan_at_largest, random_contraction, random_real_unit, random_state_vector

from qaffine import (
    AffineSequence,
    AffineStep,
    CapacityError,
    ContractionError,
    EncodingError,
    InvalidInputError,
    NormalizationError,
    PreconditionError,
    ShapeError,
    build_augmented,
    classical_affine_compose,
    extract_result,
    run_augmented,
    run_gatelist,
    run_pipeline,
)
from qaffine import pipeline
from qaffine.pipeline import _translation_support

X = np.array([[0, 1], [1, 0]], dtype=complex)


def random_weight(rng):
    """A translation weight: one of the edge values, or uniform on [-1, 1]."""
    if rng.random() < 0.5:
        return float(rng.choice([-1.0, -0.5, 0.0, 0.25, 1.0]))
    return float(rng.uniform(-1.0, 1.0))


def random_sequence(rng, n, k, weighted=False):
    dim = 1 << n
    steps = []
    for _ in range(k):
        b = random_state_vector(rng, dim) if rng.random() < 0.8 else None
        weight = random_weight(rng) if weighted else 1.0
        steps.append(AffineStep(random_contraction(rng, dim), b, weight))
    return AffineSequence(n, random_state_vector(rng, dim), tuple(steps))


# --- rescaled translations -------------------------------------------------


def support(b, j, weight=1.0):
    head, resid = _translation_support(None if b is None else np.asarray(b, dtype=complex), j, weight)
    return np.append(head, resid)


def test_rescale_first_step_keeps_entries():
    sup = support([1.0, 0.0], 1)
    assert sup[0] == pytest.approx(1.0)
    assert sup[-1] == pytest.approx(0.0, abs=1e-12)
    assert np.linalg.norm(sup) == pytest.approx(1.0, abs=1e-14)


def test_rescale_second_step_halves_entries():
    sup = support([1.0, 0.0], 2)
    assert sup[0] == pytest.approx(0.5)
    assert sup[-1] == pytest.approx(np.sqrt(0.75))
    assert np.count_nonzero(sup) == 2


def test_rescale_zero_translation_is_pure_garbage():
    assert support(None, 3).tolist() == [1.0]


def test_rescale_weight_scales_entries():
    sup = support([1.0, 0.0], 1, weight=0.5)
    assert sup[0] == pytest.approx(0.5)
    assert sup[-1] == pytest.approx(np.sqrt(0.75))


def test_rescale_always_unit_norm():
    rng = np.random.default_rng(61)
    for _ in range(30):
        dim = int(2 ** rng.integers(1, 4))
        j = int(rng.integers(1, 4))
        w = float(rng.uniform(-1, 1))
        sup = support(random_state_vector(rng, dim), j, weight=w)
        assert abs(np.linalg.norm(sup) - 1.0) <= 1e-12


def test_rescale_validation():
    # B and the weight are checked once, at the boundary, when the step is
    # built: an off-norm B, a weight outside [-1, 1] (or NaN)
    with pytest.raises(NormalizationError):
        AffineStep(np.eye(2), [1.0, 1.0])
    for weight in (1.5, np.nan):
        with pytest.raises(NormalizationError):
            AffineStep(np.eye(2), [1.0, 0.0], weight)


def test_rescale_residual_with_a_low_norm_reading_is_exactly_zero(monkeypatch):
    # a norm read 1e-9 low passes the 1e-8 check; the residual comes from
    # the step scale alone, so it is exactly 0 at step 1 and no error
    monkeypatch.setattr(np.linalg, "norm", lambda v: 1.0 - 1e-9)
    assert _translation_support(np.array([1.0, 0.0], dtype=complex), 1, 1.0)[1] == 0.0


def test_rescale_residual_is_exact_for_unit_translations():
    # at step 1 with |weight| 1 the residual is 0 in exact arithmetic; a sum
    # of the rescaled |entries|^2 rounds to 1 - ulp and left up to ~1.8e-8
    rng = np.random.default_rng(66)
    for _ in range(500):
        b = random_state_vector(rng, int(2 ** rng.integers(1, 6)))
        assert _translation_support(b, 1, 1.0)[1] == 0.0
        assert _translation_support(b, 1, -1.0)[1] == 0.0
        assert _translation_support(b, 2, -0.5)[1] == np.sqrt(1.0 - 1.0 / 16.0)


# --- step and sequence validation -------------------------------------------


def test_affine_step_validation():
    with pytest.raises(ShapeError):
        AffineStep(np.ones((2, 3)))
    with pytest.raises(ShapeError):
        AffineStep(np.eye(2), [1.0, 0.0, 0.0])


def test_affine_sequence_validation():
    with pytest.raises(ShapeError):
        AffineSequence(1, [1.0, 0.0, 0.0, 0.0], (AffineStep(np.eye(2)),))
    with pytest.raises(ShapeError):
        AffineSequence(1, [1.0, 0.0], (AffineStep(np.eye(4)),))
    with pytest.raises(InvalidInputError):
        AffineSequence(1, [1.0, 0.0], ())


# --- single worked examples --------------------------------------------------


def test_pipeline_identity_step():
    seq = AffineSequence(1, [1.0, 0.0], (AffineStep(np.eye(2), [0.0, 1.0]),))
    res = run_pipeline(seq)
    assert res.scale == 2
    assert np.allclose(extract_result(res), [1.0, 1.0], atol=1e-12)


def test_pipeline_bitflip_step():
    seq = AffineSequence(1, [1.0, 0.0], (AffineStep(X, [1.0, 0.0]),))
    res = run_pipeline(seq)
    got = extract_result(res)
    assert np.allclose(got, [1.0, 1.0], atol=1e-12)
    assert np.allclose(got, classical_affine_compose(seq), atol=1e-12)


def test_difference_branch_holds_a_psi_minus_b():
    rng = np.random.default_rng(62)
    a = random_contraction(rng, 4)
    b = random_state_vector(rng, 4)
    psi = random_state_vector(rng, 4)
    seq = AffineSequence(2, psi, (AffineStep(a, b),))
    res = run_pipeline(seq)
    # the add/sub ancilla of step 1 is qubit n + 1 = 3: its 1 half starts at 8
    diff = res.scale * res.state.amplitudes[8:12]
    assert np.max(np.abs(diff - (a @ psi - b))) <= 1e-12


def test_identity_chain_is_exact():
    rng = np.random.default_rng(63)
    psi = random_real_unit(rng, 4)
    steps = tuple(AffineStep(np.eye(4)) for _ in range(3))
    res = run_pipeline(AffineSequence(2, psi, steps))
    assert res.scale == 8
    assert isinstance(res.scale, int)
    assert np.max(np.abs(extract_result(res) - psi)) <= 1e-12


# --- random agreement with the classical oracle ------------------------------


def test_pipeline_matches_classical_composition():
    rng = np.random.default_rng(64)
    for _ in range(30):
        n = int(rng.integers(1, 4))
        k = int(rng.integers(1, 4))
        seq = random_sequence(rng, n, k, weighted=True)
        got = extract_result(run_pipeline(seq))
        want = classical_affine_compose(seq)
        assert np.max(np.abs(got - want)) <= 1e-10


def test_classical_compose_matches_nested_formula():
    # independent check of the oracle itself: evaluate the fully expanded
    # composition (A2 A1 psi + A2 B1 + B2) by explicit matrix algebra
    rng = np.random.default_rng(65)
    a1, a2 = random_contraction(rng, 4), random_contraction(rng, 4)
    b1, b2 = random_state_vector(rng, 4), random_state_vector(rng, 4)
    psi = random_state_vector(rng, 4)
    seq = AffineSequence(2, psi, (AffineStep(a1, b1), AffineStep(a2, b2)))
    want = a2 @ (a1 @ psi) + a2 @ b1 + b2
    assert np.max(np.abs(classical_affine_compose(seq) - want)) <= 1e-13


def test_pipeline_norm_is_preserved():
    rng = np.random.default_rng(66)
    seq = random_sequence(rng, 2, 3)
    res = run_pipeline(seq)
    assert abs(res.state.norm() - 1.0) <= 1e-10


# --- modes -------------------------------------------------------------------


def test_physical_mode_matches_abstract():
    rng = np.random.default_rng(67)
    for _ in range(5):
        seq = random_sequence(rng, 1, 2)
        res_a = run_pipeline(seq, mode="abstract")
        res_p = run_pipeline(seq, mode="physical")
        assert np.array_equal(res_a.state.amplitudes, res_p.state.amplitudes)
        assert res_p.circuit is not None and res_a.circuit is None


def test_physical_circuit_reconstructs_state():
    rng = np.random.default_rng(68)
    seq = random_sequence(rng, 2, 1)
    res = run_pipeline(seq, mode="physical")
    rebuilt = run_gatelist(res.circuit)
    assert np.max(np.abs(rebuilt.amplitudes - res.state.amplitudes)) <= 1e-10


def test_physical_stage_gates_are_built_once(monkeypatch):
    # one state preparation for psi0 and one for each translation stage: the
    # gates a stage runs are the ones appended to the witness
    calls = count_calls(monkeypatch, "state_preparation")
    rng = np.random.default_rng(69)
    for k in (1, 2, 3):
        calls.clear()
        res = run_pipeline(random_sequence(rng, 2, k), mode="physical")
        assert len(calls) == k + 1
        rebuilt = run_gatelist(res.circuit)
        assert np.max(np.abs(rebuilt.amplitudes - res.state.amplitudes)) <= 1e-9


def test_physical_checks_no_matrix_wider_than_the_dilation(monkeypatch):
    # state preparations are reflectors checked in O(d); the only dense
    # checks left are of the step dilations and the 2x2 gates
    calls = count_calls(monkeypatch, "is_unitary")
    rng = np.random.default_rng(70)
    for n, k in ((1, 3), (2, 3), (3, 2)):
        calls.clear()
        run_pipeline(random_sequence(rng, n, k), mode="physical")
        assert max(np.shape(args[0])[0] for args in calls) == 1 << (n + 1)


def test_physical_stage_factors_and_checks_its_dilation_once(monkeypatch):
    # one eigendecomposition, of the N x N Gram, and one build and unitarity
    # check of the 2N x 2N dilation U per dense step; the checked U covers
    # the isometry, so that check is skipped
    eigh_shapes = []
    eigh = np.linalg.eigh

    def recorded_eigh(m, *args, **kwargs):
        eigh_shapes.append(m.shape)
        return eigh(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recorded_eigh)
    checks = count_calls(monkeypatch, "is_unitary")
    isometry = count_calls(monkeypatch, "_check_isometry")
    builds = count_dense_builds(monkeypatch)
    rng = np.random.default_rng(79)
    for n, k in ((1, 3), (2, 2), (3, 1)):
        eigh_shapes.clear()
        checks.clear()
        builds.clear()
        run_pipeline(random_sequence(rng, n, k), mode="physical")
        assert eigh_shapes == [(1 << n, 1 << n)] * k
        assert len({id(f) for f in builds}) == len(builds) == k
        assert sum(np.shape(args[0])[0] == 2 << n for args in checks) == k
        assert isometry == []


def test_physical_run_applies_each_witness_gate_once(monkeypatch):
    # the stages run in place; the one replay of the witness is the only
    # gate-level work
    calls = count_calls(monkeypatch, "_apply_gate")
    rng = np.random.default_rng(80)
    for n, k in ((1, 3), (2, 4), (3, 2)):
        calls.clear()
        res = run_pipeline(random_sequence(rng, n, k), mode="physical")
        assert len(calls) == len(res.circuit.gates)


def test_only_gates_built_from_a_raw_matrix_are_checked(monkeypatch):
    # a gate is checked once, when it is built: a physical n=2 k=4 run
    # builds its two Hadamards per stage from a raw matrix, while its
    # preparations and dilations are trusted by their types and the
    # daggered, controlled copies of the witness keep their checked
    # matrices.  Lowering checks each single-qubit gate the synthesis
    # builds, but no relabelled copy of it and no CNOT
    import qaffine.simulator
    from qaffine import cnot, count_gates, lower

    cnot(0, 1)  # builds the one X every cnot shares, checked once
    checks = []
    is_unitary = qaffine.simulator.is_unitary
    monkeypatch.setattr(qaffine.simulator, "is_unitary", lambda m, tol: checks.append(m.shape) or is_unitary(m, tol))
    rng = np.random.default_rng(82)
    res = run_pipeline(random_sequence(rng, 2, 4), mode="physical")
    assert checks == [(2, 2)] * 8
    assert len(res.circuit.gates) > 10 * len(checks)  # most are derived
    res = run_pipeline(random_sequence(rng, 2, 1), mode="physical")
    checks.clear()
    lowered = lower(res.circuit)
    kept = sum(g.kind == "single" for g in res.circuit.gates)
    assert 0 < len(checks) == count_gates(lowered).single_qubit - kept


def test_physical_witness_checks_the_stage_gates(monkeypatch):
    # a stage realization without its closing Hadamard prepares another state
    import qaffine.pipeline

    stage_gates = qaffine.pipeline.addsub_stage_gates
    monkeypatch.setattr(qaffine.pipeline, "addsub_stage_gates", lambda b, w: stage_gates(b, w)[:-1])
    rng = np.random.default_rng(81)
    for k in (1, 2, 3):
        with pytest.raises(PreconditionError):
            run_pipeline(random_sequence(rng, 2, k), mode="physical")


def test_physical_witness_checks_the_abstract_stages(monkeypatch):
    # one amplitude of the last stage moved by 1e-6: the gates do not
    # prepare it, so the witness certifies the in-place arithmetic
    import qaffine.pipeline

    stage = qaffine.pipeline._stage

    def perturbed(buf, d, *args):
        stage(buf, d, *args)
        if 4 * d == buf.size:
            buf[0] += 1e-6

    monkeypatch.setattr(qaffine.pipeline, "_stage", perturbed)
    rng = np.random.default_rng(82)
    with pytest.raises(PreconditionError):
        run_pipeline(random_sequence(rng, 2, 2), mode="physical")


def test_unknown_mode_rejected():
    seq = AffineSequence(1, [1.0, 0.0], (AffineStep(np.eye(2)),))
    with pytest.raises(InvalidInputError):
        run_pipeline(seq, mode="noisy")


# --- constraint enforcement ---------------------------------------------------


def test_expansive_matrix_rejected():
    seq = AffineSequence(1, [1.0, 0.0], (AffineStep(1.5 * np.eye(2)),))
    with pytest.raises(ContractionError):
        run_pipeline(seq)


def test_contraction_slack_is_rescaled_not_rejected():
    # spectral norm 1 + 5e-11 sits inside the tolerance window
    seq = AffineSequence(1, [1.0, 0.0], (AffineStep((1 + 5e-11) * np.eye(2)),))
    res = run_pipeline(seq)
    assert np.allclose(extract_result(res), [1.0, 0.0], atol=1e-9)


def test_unnormalized_translation_rejected():
    with pytest.raises(NormalizationError):
        AffineStep(np.eye(2), [2.0, 0.0])


def test_capacity_limit():
    # n + 2k = 1 + 24 = 25 exceeds the 24-qubit cap
    steps = tuple(AffineStep(np.eye(2)) for _ in range(12))
    seq = AffineSequence(1, [1.0, 0.0], steps)
    with pytest.raises(CapacityError):
        run_pipeline(seq)


def test_refusal_one_qubit_over_the_cap_allocates_nothing():
    # a 25-qubit register would take 512 MiB; it is refused before anything
    # of its size exists
    seq = AffineSequence(1, [1.0, 0.0], tuple(AffineStep(0.5 * X) for _ in range(12)))
    tracemalloc.start()
    try:
        for mode in ("abstract", "physical"):
            with pytest.raises(CapacityError):
                run_pipeline(seq, mode=mode)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_pipeline_at_the_qubit_cap():
    # n + 2k = 2 + 22 = 24 qubits: one 256 MiB register buffer
    rng = np.random.default_rng(76)
    seq = random_sequence(rng, 2, 11)
    res = run_pipeline(seq)
    assert res.state.num_qubits == 24
    assert np.max(np.abs(extract_result(res) - classical_affine_compose(seq))) <= 1e-9


def test_abstract_pipeline_holds_one_register_buffer():
    rng = np.random.default_rng(77)
    seq = random_sequence(rng, 4, 7)
    run_pipeline(seq)  # lazy set-up outside the trace
    tracemalloc.start()
    try:
        res = run_pipeline(seq)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * res.state.amplitudes.nbytes
    assert np.max(np.abs(extract_result(res) - classical_affine_compose(seq))) <= 1e-9


def test_step_weight_parameter():
    # weight w folds w*B into the sum branch: result = A psi + w B
    rng = np.random.default_rng(69)
    a = random_contraction(rng, 2)
    b = random_state_vector(rng, 2)
    psi = random_state_vector(rng, 2)
    seq = AffineSequence(1, psi, (AffineStep(a, b, 0.25),))
    for mode in ("abstract", "physical"):
        got = extract_result(run_pipeline(seq, mode))
        assert np.max(np.abs(got - (a @ psi + 0.25 * b))) <= 1e-12


def test_dense_expansive_matrix_rejected():
    rng = np.random.default_rng(70)
    a = random_contraction(rng, 4, 1.0, 1.0) * (1 + 1e-6)
    seq = AffineSequence(2, random_state_vector(rng, 4), (AffineStep(a),))
    with pytest.raises(ContractionError):
        run_pipeline(seq)


def test_dense_contraction_slack_is_rescaled():
    rng = np.random.default_rng(71)
    a = random_contraction(rng, 4, 1.0, 1.0)
    psi = random_state_vector(rng, 4)
    seq = AffineSequence(2, psi, (AffineStep(a * (1 + 5e-11)),))
    assert np.max(np.abs(extract_result(run_pipeline(seq)) - a @ psi)) <= 1e-9


# --- structure of the abstract stage ------------------------------------------


def test_abstract_mode_never_builds_the_dilation(monkeypatch):
    builds = count_dense_builds(monkeypatch)
    rng = np.random.default_rng(72)
    seq = random_sequence(rng, 2, 3)
    got = extract_result(run_pipeline(seq))
    assert builds == []
    assert np.max(np.abs(got - classical_affine_compose(seq))) <= 1e-10


def test_diagonal_step_needs_no_svd(monkeypatch):
    # a*I and phased diagonals take the elementwise O(N) route; a phased
    # permutation is all singular pairs, and with a zero column its core is
    # one zero entry
    rng = np.random.default_rng(73)
    d = 0.9 * np.exp(2j * np.pi * rng.uniform(size=64))
    perm = np.diag(d)[rng.permutation(64)]
    holed = perm.copy()
    holed[:, 5] = 0.0
    psi = random_state_vector(rng, 64)
    b = random_state_vector(rng, 64)

    def refuse(*_args, **_kwargs):
        raise AssertionError("diagonal step ran a factorization")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    for a in (np.diag(d), -0.5 * np.eye(64), np.zeros((64, 64)), perm, holed):
        seq = AffineSequence(6, psi, (AffineStep(a, b),))
        for mode in ("abstract", "physical"):
            got = extract_result(run_pipeline(seq, mode))
            assert np.max(np.abs(got - (a @ psi + b))) <= 1e-12


def test_split_step_allocates_no_n_by_n_array():
    # a 1024 x 1024 phased permutation is all singular pairs: factoring,
    # checking and writing its stage hold O(N) blocks, so an abstract run's
    # traced peak stays below a quarter of A's bytes (the largest arrays are
    # `_split`'s one-byte masks of A's nonzeros)
    rng = np.random.default_rng(81)
    dim = 1024
    a = np.diag(0.9 * np.exp(2j * np.pi * rng.uniform(size=dim)))[rng.permutation(dim)]
    seq = AffineSequence(10, random_state_vector(rng, dim), (AffineStep(a, random_state_vector(rng, dim)),))
    run_pipeline(seq)  # lazy set-up outside the trace
    tracemalloc.start()
    try:
        res = run_pipeline(seq)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < a.nbytes / 4
    assert np.max(np.abs(extract_result(res) - classical_affine_compose(seq))) <= 1e-12


def test_broken_dilation_columns_raise_encoding_error(monkeypatch):
    # a factorization whose residual is zeroed, or holds a NaN (which a
    # `dev > tol` guard passes), where the block format keeps it: the pairs'
    # rs of a phased permutation and a diagonal, the core's R of a dense A.
    # The abstract stage fails its isometry check, the physical stage the
    # unitarity check of the U it builds from the same factorization
    import qaffine.pipeline

    factor = qaffine.pipeline._factor
    dense = random_contraction(np.random.default_rng(79), 2)
    for broken in (np.zeros_like, nan_at_largest):
        monkeypatch.setattr(qaffine.pipeline, "_factor", lambda m: broken_residual(factor(m), broken))
        for a in (0.5 * X, 0.5 * np.eye(2), dense):
            seq = AffineSequence(1, [1.0, 0.0], (AffineStep(a),))
            with pytest.raises(EncodingError):
                run_pipeline(seq)
            with pytest.raises(EncodingError):
                run_pipeline(seq, mode="physical")


def test_step_and_sequence_hold_private_copies():
    # complex128 inputs need no conversion, yet writes to the caller's
    # arrays after construction reach neither the run, the oracle nor the
    # baseline; a 1-d diagonal is copied as a 1-d array
    rng = np.random.default_rng(83)
    a = random_contraction(rng, 4)
    diag = 0.8 * np.exp(2j * np.pi * rng.uniform(size=4))
    b, psi = random_state_vector(rng, 4), random_state_vector(rng, 4)
    seq = AffineSequence(2, psi, (AffineStep(a, b), AffineStep(diag, b, 0.5)))

    def outputs():
        aug = build_augmented(seq.steps[0].A, seq.steps[0].B, seq.psi0)
        runs = [run_pipeline(seq, mode).state.amplitudes.copy() for mode in ("abstract", "physical")]
        return [*runs, classical_affine_compose(seq), run_augmented(aug)]

    before = outputs()
    a[0, 0], diag[0], b[0], psi[0] = 7.0, 7.0, 5.0, 5.0
    assert all(np.array_equal(x, y) for x, y in zip(outputs(), before))
    assert seq.steps[1].A.shape == (4,)
    for arr in (seq.psi0, *(x for step in seq.steps for x in (step.A, step.B))):
        assert not arr.flags.writeable


# --- the kept register buffer ----------------------------------------------------


def sized_sequence(rng, n, k):
    """A random sequence on 2^(n + 2k) amplitudes, its steps dense,
    diagonal and scalar by turns."""
    dim = 1 << n
    kinds = (lambda: random_contraction(rng, dim), lambda: 0.9 * np.exp(2j * np.pi * rng.uniform(size=dim)), lambda: 0.7 * np.eye(dim))
    steps = tuple(AffineStep(kinds[j % 3](), random_state_vector(rng, dim) if j % 2 == 0 else None) for j in range(k))
    return AffineSequence(n, random_state_vector(rng, dim), steps)


@pytest.mark.parametrize("mode", ["abstract", "physical"])
def test_held_results_are_never_written_by_later_runs(mode):
    # a held result, and a held slice of a dropped one, keep their buffer
    # from being reused: later runs of the same, smaller and larger sizes
    # leave them bit for bit as they were
    rng = np.random.default_rng(84)
    seq = sized_sequence(rng, 2, 3)
    held = run_pipeline(seq, mode)
    held_copy = held.state.amplitudes.copy()
    tail = run_pipeline(seq, mode).state.amplitudes[-40:]
    tail_copy = tail.copy()
    for n, k in ((2, 3), (2, 2), (1, 2), (2, 4), (2, 3)):
        other = sized_sequence(rng, n, k)
        res = run_pipeline(other, mode)
        assert np.max(np.abs(extract_result(res) - classical_affine_compose(other))) <= 1e-9
    assert np.array_equal(held.state.amplitudes, held_copy)
    assert np.array_equal(tail, tail_copy)
    assert np.max(np.abs(extract_result(held) - classical_affine_compose(seq))) <= 1e-9


@pytest.mark.parametrize("mode", ["abstract", "physical"])
def test_dropped_result_buffer_is_reused_within_4x(mode, monkeypatch):
    # once a result is dropped, a run of the same size or of up to 4x fewer
    # amplitudes takes a prefix of its buffer, the one the module keeps
    monkeypatch.setattr(pipeline, "_kept", np.empty(0, dtype=np.complex128))
    rng = np.random.default_rng(85)

    def data(n, k):
        amps = run_pipeline(sized_sequence(rng, n, k), mode).state.amplitudes
        assert np.shares_memory(amps, pipeline._kept)
        return amps.ctypes.data

    first = data(2, 3)
    assert pipeline._kept.shape == (1 << 8,)
    assert data(2, 3) == first
    assert data(2, 2) == first
    # 2^5 amplitudes are 8x below the kept 2^8: the module keeps a new
    # buffer of their size instead
    data(1, 2)
    assert pipeline._kept.shape == (1 << 5,)


def test_repeated_runs_keep_one_register_alive():
    # 18 qubits (4 MiB): after the first run the module keeps one register,
    # and the runs after it allocate none, so that one is all that is alive
    seq = sized_sequence(np.random.default_rng(86), 4, 7)
    nbytes = 16 << 18
    extract_result(run_pipeline(seq))
    tracemalloc.start()
    try:
        for _ in range(3):
            extract_result(run_pipeline(seq))
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < nbytes / 2 and current < nbytes / 2
    assert nbytes <= pipeline._kept.nbytes <= 4 * nbytes


@pytest.mark.parametrize("mode", ["abstract", "physical"])
def test_concurrent_runs_share_no_buffer(mode):
    # more threads than cores, each running pipelines of several sizes with
    # a short switch interval: every register matches its single-threaded
    # run bit for bit, and every result the oracle
    rng = np.random.default_rng(87)
    seqs = [sized_sequence(rng, n, k) for n, k in ((2, 3), (2, 2), (1, 3), (2, 4))]
    expected = [run_pipeline(seq, mode).state.amplitudes.copy() for seq in seqs]
    failures = []

    def work(offset):
        try:
            for i in range(12):
                j = (i + offset) % len(seqs)
                res = run_pipeline(seqs[j], mode)
                if not np.array_equal(res.state.amplitudes, expected[j]):
                    failures.append(("register", j))
                if not np.max(np.abs(extract_result(res) - classical_affine_compose(seqs[j]))) <= 1e-9:
                    failures.append(("oracle", j))
        except Exception as exc:  # reported through `failures`, read below
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == []
