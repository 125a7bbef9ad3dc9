import tracemalloc

import numpy as np
import pytest
from conftest import random_contraction, random_state_vector, random_unitary
from hypothesis import given
from hypothesis import strategies as st

from qaffine import (
    GateList,
    InvalidInputError,
    NormalizationError,
    ShapeError,
    UnitarityError,
    apply_gate,
    block,
    completion_unitary,
    dagger,
    gatelist_matrix,
    init_amplitudes,
    is_unitary,
)
from qaffine.linalg import UNITARY_ATOL, Diagonal, Reflector, max_abs, state_preparation
from qaffine.simulator import apply_unitary


def test_is_unitary():
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    assert is_unitary(h, 1e-12)
    assert not is_unitary(0.999 * h, 1e-10)
    with pytest.raises(ShapeError):
        is_unitary(np.zeros((2, 3)), 1e-10)
    with pytest.raises(ShapeError):
        is_unitary(np.ones(4), 1e-10)
    # its callers validated the entries; a NaN reads as not unitary
    assert not is_unitary(np.where(np.eye(2) == 1, np.nan, 0.0), 1e-10)


def test_is_unitary_random():
    rng = np.random.default_rng(13)
    for dim in (2, 4, 8):
        assert is_unitary(random_unitary(rng, dim), 1e-10)
        assert not is_unitary(random_contraction(rng, dim, high=0.9), 1e-10)


def test_completion_unitary_first_column():
    rng = np.random.default_rng(14)
    for dim in (2, 3, 8, 16):
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        v /= np.linalg.norm(v)
        u = completion_unitary(v)
        # the first column is the renormalized input, pinned bit-for-bit
        assert np.array_equal(u[:, 0], v / np.linalg.norm(v))
        assert np.max(np.abs(u[:, 0] - v)) <= 1e-15
        assert is_unitary(u, 1e-12)


def test_completion_unitary_basis_vector():
    u = completion_unitary([0, 0, 1, 0])
    assert is_unitary(u, 1e-12)
    assert np.max(np.abs(u[:, 0] - np.array([0, 0, 1, 0]))) == 0.0


def test_completion_unitary_rejects_zero_vector():
    with pytest.raises(NormalizationError):
        completion_unitary(np.zeros(4))


def test_completion_unitary_runs_no_qr(monkeypatch):
    def no_qr(*args, **kwargs):
        raise AssertionError("completion_unitary called np.linalg.qr")

    monkeypatch.setattr(np.linalg, "qr", no_qr)
    rng = np.random.default_rng(15)
    u = completion_unitary(rng.normal(size=8) + 1j * rng.normal(size=8))
    assert is_unitary(u, 1e-12)


def _basis(dim, j):
    return np.eye(dim)[j]


def _zero_first(rng, dim):
    """Complex vector whose first entry is exactly 0 (for dim > 1)."""
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    if dim > 1:
        v[0] = 0.0
    return v


COMPLETION_INPUTS = {
    "complex": lambda rng, d: rng.normal(size=d) + 1j * rng.normal(size=d),
    "real_negative_first": lambda rng, d: np.concatenate([[-abs(rng.normal()) - 0.1], rng.normal(size=d - 1)]),
    "zero_first": _zero_first,
    "e0": lambda rng, d: _basis(d, 0),
    "e_j": lambda rng, d: _basis(d, int(rng.integers(d))),
    "e_last": lambda rng, d: _basis(d, d - 1),
    "near_basis": lambda rng, d: _basis(d, int(rng.integers(d))) + 1e-9 * rng.normal(size=d),
    "minus_e0": lambda rng, d: -_basis(d, 0),
}


COMPLETION_DIMS = st.one_of(st.integers(1, 64), st.sampled_from([100, 255, 256, 1000, 1024, 2047, 2048]))


def _completion_input(kind, dim, off, seed):
    rng = np.random.default_rng(seed)
    x = COMPLETION_INPUTS[kind](rng, dim).astype(complex)
    return rng, x / np.linalg.norm(x) * (1.0 + off)


@given(
    kind=st.sampled_from(sorted(COMPLETION_INPUTS)),
    dim=COMPLETION_DIMS,
    off=st.floats(-1e-8, 1e-8),
    seed=st.integers(0, 2**32 - 1),
)
def test_completion_unitary_properties(kind, dim, off, seed):
    _, x = _completion_input(kind, dim, off, seed)
    u = completion_unitary(x)
    assert np.array_equal(u[:, 0], x / np.linalg.norm(x))
    assert is_unitary(u, 1e-12)


@given(
    kind=st.sampled_from(sorted(COMPLETION_INPUTS)),
    dim=COMPLETION_DIMS,
    off=st.floats(-1e-8, 1e-8),
    seed=st.integers(0, 2**32 - 1),
)
def test_state_preparation_matches_its_dense_form(kind, dim, off, seed):
    rng, x = _completion_input(kind, dim, off, seed)
    r = state_preparation(x)
    u = np.asarray(r)
    # the dense form is completion_unitary, whose first column is pinned to x
    assert np.array_equal(u[:, 1:], completion_unitary(x)[:, 1:])
    assert max_abs(u[:, 0] - x / np.linalg.norm(x)) <= 1e-14
    # the O(d) check reads what the dense (d^3) product reads
    assert abs(r.deviation() - max_abs(u.conj().T @ u - np.eye(dim))) <= 1e-14

    cols = rng.normal(size=(dim, 3)) + 1j * rng.normal(size=(dim, 3))
    assert max_abs(r @ cols - u @ cols) <= 1e-12
    assert max_abs(r @ cols[:, 0] - u @ cols[:, 0]) <= 1e-12
    assert max_abs(r.adjoint() @ cols - u.conj().T @ cols) <= 1e-12

    q = dim.bit_length() - 1
    if dim >= 2 and dim == 1 << q:
        # controlled on a new top qubit: the dense oracle acts on that half
        base = tuple(range(q - 1, -1, -1))
        psi = rng.normal(size=2 * dim) + 1j * rng.normal(size=2 * dim)
        state = init_amplitudes(psi / np.linalg.norm(psi))
        for value in (0, 1):
            want = state.amplitudes.reshape(2, dim).copy()
            want[value] = u @ want[value]
            got = apply_unitary(state, r, base, (q,), (value,))
            assert max_abs(got.amplitudes - want.ravel()) <= 1e-12
        if dim <= 64:
            # every basis column at once: the batch axis of the kernel
            def program(m):
                return GateList(q + 1, [block(m, base, (q,), (1,)), dagger(block(m, base))])

            assert max_abs(gatelist_matrix(program(r)) - gatelist_matrix(program(u))) <= 1e-12

    # |u|^2 = 2 + 1e-6: a dense check of U would read >= 1e-6 (|u_0|^2 >= 1)
    with pytest.raises(UnitarityError):
        Reflector(r.u * np.sqrt(1.0 + 5e-7), r.p)


def test_reflector_checks_its_input_and_stays_as_checked():
    r = state_preparation([0.6, 0.8j])
    with pytest.raises(UnitarityError):
        Reflector(r.u, 1.001 * r.p)
    with pytest.raises(InvalidInputError):
        Reflector(r.u, complex("nan"))
    with pytest.raises(InvalidInputError):
        Reflector([np.inf, 0.0], -1.0)
    # the checked operator cannot change afterwards, through it or its input
    u = r.u.copy()
    s = Reflector(u, r.p)
    u[0] = 3.0
    assert s.u[0] == r.u[0]
    with pytest.raises(ValueError):
        s.u[0] = 3.0
    with pytest.raises(AttributeError):
        s.p = 1.0


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_reflector_makes_one_operand_sized_array():
    # U x once copied x and then built an outer-product temporary of the same
    # size: a peak of two operands.  Besides its result it may hold only a
    # few O(d + batch) vectors and numpy's ufunc buffers, and x, which the kernel
    # passes as a view of a state, is not written
    rng = np.random.default_rng(41)
    r = state_preparation(random_state_vector(rng, 1024))
    x = rng.normal(size=(1024, 256)) + 1j * rng.normal(size=(1024, 256))
    x.flags.writeable = False
    slack = 2 * np.getbufsize() * 16 + 4 * (1024 + 256) * 16
    assert _traced_peak(lambda: r @ x) <= x.nbytes + slack
    assert max_abs(r @ x - np.asarray(r) @ x) <= 1e-13
    assert max_abs(r @ x[:, 3] - np.asarray(r) @ x[:, 3]) <= 1e-13

    # as a gate: no higher than the dense gate on the same layout (on the
    # top qubits the kernel moves no axis, so the operator's arrays show)
    q = 16
    state = init_amplitudes(random_state_vector(rng, 1 << q))
    for targets in ((15, 14, 13, 12), (3, 2, 1, 0), (5, 12, 0)):
        d = 1 << len(targets)
        r = state_preparation(random_state_vector(rng, d))
        peaks = []
        for m in (r, np.asarray(r)):
            g = block(m, targets)
            apply_gate(state, g)  # its layout is cached outside the trace
            peaks.append(_traced_peak(lambda: apply_gate(state, g)))
        assert peaks[0] <= peaks[1] + 2 * np.getbufsize() * 16 + 4 * (d + (1 << q) // d) * 16, targets


def test_diagonal_checks_each_phase_modulus_against_unitary_atol():
    # max | |p_i|^2 - 1 | is max |D^dag D - I|, so the O(d) check refuses
    # and accepts where the dense check of diag(p) does
    over = [1.0, 1j * np.sqrt(1.0 + 1.5 * UNITARY_ATOL), -1.0, 1.0]
    under = [1.0, 1j * np.sqrt(1.0 + 0.5 * UNITARY_ATOL), -1.0, 1.0]
    with pytest.raises(UnitarityError):
        Diagonal(over)
    assert not is_unitary(np.diag(over), UNITARY_ATOL)
    assert np.array_equal(np.asarray(Diagonal(under)), np.diag(under))
    assert is_unitary(np.diag(under), UNITARY_ATOL)


@pytest.mark.parametrize(
    "p, error",
    [
        ([1.0, np.nan], InvalidInputError),
        ([1.0, np.inf * 1j], InvalidInputError),
        (np.eye(2), ShapeError),
    ],
)
def test_diagonal_refuses_bad_phases(p, error):
    with pytest.raises(error):
        Diagonal(p)


def test_diagonal_stays_as_checked():
    p = np.exp(1j * np.arange(4.0))
    d = Diagonal(p)
    p[0] = 3.0
    assert d.p[0] == 1.0
    with pytest.raises(ValueError):
        d.p[0] = 3.0
    with pytest.raises(AttributeError):
        d.p = p


def test_diagonal_applies_inverts_and_writes_out_its_phases():
    rng = np.random.default_rng(17)
    p = np.exp(2j * np.pi * rng.uniform(size=8))
    d = Diagonal(p)
    assert d.shape == (8, 8)
    assert np.array_equal(np.asarray(d), np.diag(p))
    assert np.array_equal(np.asarray(d.adjoint()), np.diag(p.conj()))
    x = random_state_vector(rng, 8)
    assert np.array_equal(d @ x, p * x)
    xs = rng.normal(size=(8, 3)) + 1j * rng.normal(size=(8, 3))
    assert np.array_equal(d @ xs, p[:, None] * xs)
    assert max_abs(d.adjoint() @ (d @ xs) - xs) <= 1e-15


def test_diagonal_gate_checks_its_shape_and_inverts_by_its_adjoint():
    rng = np.random.default_rng(18)
    d = Diagonal(np.exp(2j * np.pi * rng.uniform(size=4)))
    with pytest.raises(ShapeError):
        block(d, (0,))
    with pytest.raises(ShapeError):
        block(d, (2, 1, 0))
    g = block(d, (2, 0), (1,), (0,))
    inv = dagger(g)
    assert isinstance(inv.matrix, Diagonal)
    assert np.array_equal(inv.matrix.p, d.p.conj())
    assert max_abs(gatelist_matrix(GateList(3, [g, inv])) - np.eye(8)) <= 1e-15
