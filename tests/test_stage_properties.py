"""Property-based differential tests of the pipeline stage.

The stage writes the ancilla-0 columns of the dilation directly.  Here
`run_pipeline` on sequences of one to three weighted steps is compared with
the route it replaced, applied step by step: the full 2N x 2N `block_encode`
dilation through `apply_unitary` on the register padded with an ancilla in
|0>, then the add/sub ancilla with a b~ built here from its formula, on the
whole register, garbage half included.

R = sqrt(I - A^dag A) is ill-conditioned at singular values equal to 1: an
ulp in s moves sqrt(1 - s^2) by about 1.5e-8.  Where a singular value is 1
in exact arithmetic but not in floating point (a dense unitary, a dense
sigma_max = 1 matrix, unit-modulus phases on a diagonal), R along those
directions would be rounding noise, and two correct computations of it would
differ by that much.  The one factorization every route shares
(`blockenc._factor`) reads singular values within ONE_TOL of 1 as exactly 1,
so R is exactly 0 there, and every kind is compared on the whole register at
STRICT_TOL.
"""

import numpy as np
import pytest
from conftest import random_state_vector, random_unitary
from hypothesis import given
from hypothesis import strategies as st

from qaffine import (
    AffineSequence,
    AffineStep,
    apply_unitary,
    block_encode,
    classical_affine_compose,
    extract_result,
    init_amplitudes,
    run_pipeline,
)
from qaffine.circuits import HADAMARD
from qaffine.simulator import QuantumState

STRICT_TOL = 1e-12
MODE_TOL = 1e-9


def _householder(rng, dim):
    w = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    w /= np.linalg.norm(w)
    return np.eye(dim) - 2.0 * np.outer(w, w.conj())


def with_singular_values(rng, s):
    """H1 diag(s) H2 with random Householder reflectors."""
    dim = s.shape[0]
    return _householder(rng, dim) @ np.diag(s.astype(complex)) @ _householder(rng, dim)


def _phases(rng, dim):
    return np.exp(2j * np.pi * rng.uniform(size=dim))


def _near_diagonal(rng, d):
    """Diagonal except for one entry A_ij: not the diagonal route, and the
    factorization splits off every other entry as a singular pair, leaving
    rows and columns {i, j} as a 2 x 2 core."""
    a = np.diag(_phases(rng, d) * rng.uniform(0.0, 0.6, d))
    i, j = rng.choice(d, size=2, replace=False)
    a[i, j] = 0.3 * _phases(rng, 1)[0]
    return a


def _permuted_blocks(rng, d):
    """Row and column permutations of (dense core + phased monomial): a
    core of random size, with a zero row and column half the time when it
    has two or more, and entries alone in their rows and columns, half of
    them of unit modulus."""
    c = int(rng.integers(0, d + 1))
    a = np.zeros((d, d), dtype=complex)
    if c:
        a[:c, :c] = with_singular_values(rng, rng.uniform(0.0, 0.95, c))
    if c > 1 and rng.uniform() < 0.5:
        a[int(rng.integers(c)), :c] = 0.0
        a[:c, int(rng.integers(c))] = 0.0
    moduli = np.where(rng.uniform(size=d - c) < 0.5, 1.0, rng.uniform(0.0, 1.0, d - c))
    a[c:, c:] = np.diag(_phases(rng, d - c) * moduli)
    return a[rng.permutation(d)][:, rng.permutation(d)]


MATRICES = {
    "generic": lambda rng, d: with_singular_values(rng, rng.uniform(0.0, 0.95, d)),
    "sigma_one_dense": lambda rng, d: with_singular_values(
        rng, np.concatenate([[1.0], rng.uniform(0.0, 1.0, d - 1)])
    ),
    # a permutation with phases 1, -1, i, -i times a diagonal holding 1.0:
    # sigma_max is exactly 1 in floating point too
    "sigma_one_exact": lambda rng, d: (
        np.eye(d)[rng.permutation(d)]
        @ np.diag(rng.choice(np.array([1, -1, 1j, -1j]), d) * np.concatenate([[1.0], rng.uniform(0, 1, d - 1)]))
    ),
    "singular": lambda rng, d: with_singular_values(
        rng, np.where(np.arange(d) < d // 2, 0.0, rng.uniform(0.2, 0.9, d))
    ),
    "zero": lambda rng, d: np.zeros((d, d), dtype=complex),
    "unitary": random_unitary,
    "diagonal_phases": lambda rng, d: np.diag(_phases(rng, d) * rng.uniform(0.0, 1.0, d)),
    "diagonal_unit_phases": lambda rng, d: np.diag(_phases(rng, d)),
    "scalar": lambda rng, d: rng.uniform(-1.0, 1.0) * np.exp(2j * np.pi * rng.uniform()) * np.eye(d),
    "identity": lambda rng, d: np.eye(d, dtype=complex),
    "near_diagonal": _near_diagonal,
    "permuted_blocks": _permuted_blocks,
}


def old_route(state, a, b, step_index, base_n, weight):
    """The stage as it was built before: the whole 2N x 2N dilation through
    the gate kernel, then the add/sub ancilla through a Hadamard gate.  That
    route asserted alpha == 1, which block_encode gives for every A / sigma.
    b~ is weight * B / 2^(j-1) on the first N entries, with the residual
    sqrt(1 - weight^2 / 4^(j-1)) at the last index."""
    m = np.asarray(a, dtype=complex)
    sigma = np.linalg.norm(m, 2)
    if sigma > 1.0:
        m = m / sigma
    enc = block_encode(m)
    assert enc.alpha == 1.0
    st_ = QuantumState(state.num_qubits + 1, np.concatenate([state.amplitudes, np.zeros_like(state.amplitudes)]))
    targets = (st_.num_qubits - 1,) + tuple(range(base_n - 1, -1, -1))
    st_ = apply_unitary(st_, enc.U, targets)
    scale = weight / 2 ** (step_index - 1)
    b_tilde = np.zeros(st_.dim, dtype=complex)
    if b is not None:
        b_tilde[: b.shape[0]] = scale * b
    b_tilde[-1] = np.sqrt(1.0 - scale**2) if b is not None else 1.0
    amps = np.concatenate([st_.amplitudes, b_tilde]) / np.sqrt(2.0)
    return apply_unitary(QuantumState(st_.num_qubits + 1, amps), HADAMARD, (st_.num_qubits,)), b_tilde


def off_by(rng, v, scale=1e-8):
    """v with its norm moved off 1 by up to `scale`."""
    return v * (1.0 + rng.uniform(-scale, scale))


WEIGHTS = st.sampled_from([-1.0, -0.5, 0.0, 0.25, 1.0]) | st.floats(-1.0, 1.0)


@given(
    steps=st.lists(st.tuples(st.sampled_from(sorted(MATRICES)), st.booleans(), WEIGHTS), min_size=1, max_size=3),
    n=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_stage_matches_full_dilation_route(steps, n, seed):
    rng = np.random.default_rng(seed)
    dim = 1 << n
    steps = tuple(
        AffineStep(MATRICES[kind](rng, dim), random_state_vector(rng, dim) if with_b else None, weight)
        for kind, with_b, weight in steps
    )
    psi = off_by(rng, random_state_vector(rng, dim))
    got_prev = want = init_amplitudes(psi)
    for j, step in enumerate(steps, start=1):
        # each prefix of the sequence is the register after step j
        got = run_pipeline(AffineSequence(n, psi, steps[:j])).state.amplitudes
        assert abs(np.linalg.norm(got) - 1.0) <= 1e-10

        want, b_tilde = old_route(want, step.A, step.B, j, n, step.weight)
        # dilation-ancilla-0 rows hold A applied to every row of the register
        x = got_prev.amplitudes.reshape(-1, dim)
        low = got_prev.dim
        assert np.max(np.abs(got[:low] - ((x @ step.A.T).ravel() + b_tilde[:low]) / 2)) <= STRICT_TOL
        assert np.max(np.abs(got[2 * low : 3 * low] - ((x @ step.A.T).ravel() - b_tilde[:low]) / 2)) <= STRICT_TOL

        # the whole register, dilation-ancilla-1 (garbage) rows included
        assert np.max(np.abs(got - want.amplitudes)) <= STRICT_TOL
        got_prev = QuantumState(n + 2 * j, got)


@given(
    kinds=st.lists(st.sampled_from(sorted(MATRICES)), min_size=1, max_size=3),
    n=st.integers(1, 2),
    seed=st.integers(0, 2**32 - 1),
)
def test_abstract_matches_physical_on_whole_state(kinds, n, seed):
    """Both modes apply the ancilla-0 columns of one factorization of each
    step, so they agree on the whole register, garbage rows included."""
    rng = np.random.default_rng(seed)
    dim = 1 << n
    steps = tuple(
        AffineStep(
            MATRICES[k](rng, dim),
            random_state_vector(rng, dim) if rng.uniform() < 0.7 else None,
            float(rng.choice([-1.0, -0.5, 0.0, 0.25, 1.0])) if rng.uniform() < 0.5 else rng.uniform(-1.0, 1.0),
        )
        for k in kinds
    )
    seq = AffineSequence(n, off_by(rng, random_state_vector(rng, dim)), steps)
    res_a = run_pipeline(seq, "abstract")
    res_p = run_pipeline(seq, "physical")
    assert np.max(np.abs(res_a.state.amplitudes - res_p.state.amplitudes)) <= MODE_TOL
    want = classical_affine_compose(seq)
    for res in (res_a, res_p):
        assert np.max(np.abs(extract_result(res) - want)) <= MODE_TOL


@pytest.mark.parametrize("seed", [1, 7])
def test_sigma_one_dense_matrices_give_verified_results(seed):
    """H1 diag(s) H2 with the largest s exactly 1.0, N = 4..64.  Their
    computed norm lands a few ulp on either side of 1.  Before the stage took
    sigma_max from its own SVD, some of them ended in an AssertionError: at
    seed 1 the N=16 matrix in both modes, at seed 7 the N=4 matrix in both
    modes and two N=64 matrices in abstract mode (OpenBLAS, x86-64)."""
    rng = np.random.default_rng(seed)
    read_above_one = 0
    for i in range(24):
        n = 2 + i % 5
        dim = 1 << n
        s = rng.uniform(0.0, 1.0, dim)
        s[int(rng.integers(dim))] = 1.0
        a = with_singular_values(rng, s)
        read_above_one += np.linalg.norm(a, 2) > 1.0
        seq = AffineSequence(n, random_state_vector(rng, dim), (AffineStep(a, random_state_vector(rng, dim)),))
        want = classical_affine_compose(seq)
        for mode in ("abstract", "physical") if n <= 4 else ("abstract",):
            got = extract_result(run_pipeline(seq, mode))
            assert np.max(np.abs(got - want)) <= 1e-10, (i, mode)
    assert read_above_one > 0  # the data exercises the norm-above-1 reading
