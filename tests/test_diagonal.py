"""A diagonal step given as its 1-d diagonal.

`AffineStep` takes a 1-d A as the diagonal of A; it is checked once, there,
and `blockenc._factor` takes it as all singular pairs without scanning an
N x N array.  The arithmetic is that of the same diagonal given densely, so
the registers are bit for bit those of `np.diag(d)`, in both modes, and the
errors are the same.  The 1-d form is what makes steps too large to write
out densely possible at all.
"""

import tracemalloc

import numpy as np
import pytest
from conftest import random_state_vector
from hypothesis import given, settings
from hypothesis import strategies as st

from qaffine import (
    AffineSequence,
    AffineStep,
    InvalidInputError,
    QAffineError,
    ShapeError,
    SignalSpec,
    classical_affine_compose,
    extract_result,
    run_pipeline,
    signal_filter,
)


def _diagonal(rng, kind: str, dim: int) -> np.ndarray:
    phases = np.exp(2j * np.pi * rng.uniform(size=dim))
    if kind == "zero":
        return np.zeros(dim, dtype=complex)
    if kind == "some_zero":
        return phases * rng.uniform(0.0, 1.0, dim) * (rng.uniform(size=dim) < 0.5)
    if kind == "unit":
        return phases
    if kind == "real_unit":
        return rng.choice([-1.0, 1.0], dim)
    if kind == "above_one":
        d = phases * rng.uniform(0.0, 1.0, dim)
        d[int(rng.integers(dim))] *= 1.0 + rng.uniform(1e-9, 0.5)
        return d
    return phases * rng.uniform(0.0, 1.0, dim)


KINDS = ["generic", "zero", "some_zero", "unit", "real_unit", "above_one"]


def _outcome(seq, mode):
    try:
        return run_pipeline(seq, mode)
    except QAffineError as exc:
        return type(exc)


@settings(max_examples=40)
@given(
    kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=3),
    n=st.integers(1, 6),
    mode=st.sampled_from(["abstract", "physical"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_diagonal_step_is_its_dense_form_bit_for_bit(kinds, n, mode, seed):
    rng = np.random.default_rng(seed)
    dim = 1 << n
    diags = [_diagonal(rng, kind, dim) for kind in kinds]
    bs = [random_state_vector(rng, dim) if rng.uniform() < 0.7 else None for _ in kinds]
    weights = [float(rng.uniform(-1.0, 1.0)) for _ in kinds]
    psi = random_state_vector(rng, dim)
    seqs = [
        AffineSequence(n, psi, tuple(AffineStep(form(d), b, w) for d, b, w in zip(diags, bs, weights)))
        for form in (lambda d: d, np.diag)
    ]
    got, want = (_outcome(seq, mode) for seq in seqs)
    if isinstance(want, type):
        assert got is want
        return
    assert np.array_equal(got.state.amplitudes, want.state.amplitudes)
    # the reference multiplies a 1-d A elementwise, independently of the route
    ref, dense_ref = (classical_affine_compose(seq) for seq in seqs)
    assert np.max(np.abs(ref - dense_ref)) <= 1e-14
    assert np.max(np.abs(extract_result(got) - ref)) <= 1e-9


def test_a_diagonal_step_too_large_to_write_out_densely():
    # a dense A would be 2^32 entries (64 GiB) here; the register is 2^20
    rng = np.random.default_rng(19)
    n, dim = 16, 1 << 16
    steps = tuple(
        AffineStep(np.exp(2j * np.pi * rng.uniform(size=dim)) * rng.uniform(0.0, 1.0, dim), random_state_vector(rng, dim))
        for _ in range(2)
    )
    seq = AffineSequence(n, random_state_vector(rng, dim), steps)
    assert np.max(np.abs(extract_result(run_pipeline(seq)) - classical_affine_compose(seq))) <= 1e-9


@pytest.mark.parametrize(
    "a, error",
    [
        (np.array([0.5, np.nan]), InvalidInputError),
        (np.array([0.5, np.inf]), InvalidInputError),
        (np.zeros(0), ShapeError),
        (np.ones(4) * 0.5, ShapeError),  # the sequence is on n = 1
    ],
    ids=["nan", "inf", "empty", "wrong-length"],
)
def test_a_bad_diagonal_is_refused_at_the_boundary(a, error):
    with pytest.raises(error):
        AffineSequence(1, [1.0, 0.0], (AffineStep(a),))


def test_signal_filter_builds_no_length_squared_array():
    # a dense a I alone is 256 MiB at L = 4096
    rng = np.random.default_rng(20)
    spec = SignalSpec(rng.standard_normal(4096), 0.7, 0.2)
    tracemalloc.start()
    try:
        quantum, classical = signal_filter(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20
    assert np.max(np.abs(quantum - classical)) <= 1e-9
