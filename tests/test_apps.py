import itertools
import math

import numpy as np
import pytest
from conftest import dft_matrix, embed_controlled_oracle, embed_unitary_oracle, random_state_vector
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import bdtr, bdtrc

from qaffine import (
    CapacityError,
    ContractionError,
    InvalidInputError,
    NormalizationError,
    PortfolioSpec,
    QubitIndexError,
    ShapeError,
    SignalSpec,
    init_amplitudes,
    portfolio_circuit,
    portfolio_closed_form,
    portfolio_estimate,
    sample,
    portfolio_alternate_form,
    qft,
    random_two_tone,
    signal_filter,
    two_tone_samples,
)
from qaffine.apps import _qft_ladder
from qaffine.circuits import HADAMARD, SWAP
from qaffine.linalg import Diagonal


def random_portfolio(rng, m):
    assets = np.empty(1 << m)
    g = rng.standard_normal(2)
    assets[0:2] = g / np.linalg.norm(g)
    for r in range(1, m):
        g = rng.standard_normal(1 << r)
        assets[1 << r : 2 << r] = g / np.linalg.norm(g)
    return PortfolioSpec(assets, m)


# --- portfolio ---------------------------------------------------------------


def test_portfolio_worked_example():
    p = PortfolioSpec([0.8, 0.6, 0.6, 0.8], 2)
    st = portfolio_circuit(p)
    assert np.allclose(st.amplitudes, [0.7, 0.7, 0.1, -0.1], atol=1e-14)


def test_portfolio_closed_form_matches_circuit():
    rng = np.random.default_rng(91)
    for m in range(1, 7):
        p = random_portfolio(rng, m)
        st = portfolio_circuit(p)
        for bits in itertools.product((0, 1), repeat=m):
            index = sum(b << r for r, b in enumerate(bits))
            assert st.amplitudes[index].real == pytest.approx(
                portfolio_closed_form(p, bits), abs=1e-12
            )


def test_portfolio_alternate_form_m2_same_magnitudes():
    p = PortfolioSpec([0.8, 0.6, 0.6, 0.8], 2)
    circuit_amps = sorted(
        abs(portfolio_closed_form(p, bits)) for bits in itertools.product((0, 1), repeat=2)
    )
    alternate_amps = sorted(
        abs(portfolio_alternate_form(p, bits)) for bits in itertools.product((0, 1), repeat=2)
    )
    assert np.allclose(circuit_amps, alternate_amps, atol=1e-12)


def test_portfolio_from_raw_sorts_and_normalizes():
    p = PortfolioSpec.from_raw([3.0, 1.0, 4.0, 2.0])
    assert p.m == 2
    # descending order within the original values
    assert p.assets[0] > p.assets[1]
    assert np.linalg.norm(p.group(0)) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(p.group(1)) == pytest.approx(1.0, abs=1e-12)
    # group 0 keeps the two largest raw values (4, 3), group 1 the rest (2, 1)
    assert p.assets[0] / p.assets[1] == pytest.approx(4.0 / 3.0)
    assert p.group(1)[0] / p.group(1)[1] == pytest.approx(2.0 / 1.0)


def test_portfolio_estimate_tracks_probabilities():
    rng = np.random.default_rng(92)
    p = PortfolioSpec([0.8, 0.6, 0.6, 0.8], 2)
    st = portfolio_circuit(p)
    shots = 200_000
    freq = portfolio_estimate(p, shots, seed=7)
    for bits in itertools.product((0, 1), repeat=2):
        index = sum(b << r for r, b in enumerate(bits))
        prob = abs(st.amplitudes[index]) ** 2
        sigma = np.sqrt(prob * (1 - prob) / shots)
        assert abs(freq.get(bits, 0.0) - prob) <= 5 * sigma + 1e-12


@pytest.mark.parametrize("seed", [7, 1234, 2**31 - 1])
def test_m10_portfolio_histogram_passes_the_exact_binomial_tail(seed):
    # the whole-histogram check of a 10^6-shot m = 10 portfolio: the
    # smallest exact binomial tail of any of the 1,024 bins, times the bin
    # count, must not fall below a one-sided 5-sigma normal tail
    shots, m = 10**6, 10
    p = random_portfolio(np.random.default_rng(94), m)
    probs = np.abs(portfolio_circuit(p).amplitudes) ** 2
    counts = np.zeros(1 << m)
    for bits, f in portfolio_estimate(p, shots, seed).items():
        counts[sum(b << r for r, b in enumerate(bits))] = round(f * shots)
    assert counts.sum() == shots
    below = bdtr(counts, shots, probs)
    above = np.where(counts > 0, bdtrc(counts - 1, shots, probs), 1.0)
    assert np.min(np.minimum(below, above)) * (1 << m) >= 0.5 * math.erfc(5.0 / math.sqrt(2.0))


def test_portfolio_estimate_matches_its_per_bin_loop():
    # the bit tuples are built with numpy; the per-bin loop they replaced is
    # the reference, and the dict must equal it, order included
    rng = np.random.default_rng(90)
    for m in (1, 3, 7):
        p = random_portfolio(rng, m)
        hist = sample(portfolio_circuit(p), 3000, 11)
        want = {tuple((i >> r) & 1 for r in range(m)): c / 3000 for i, c in hist.counts.items()}
        got = portfolio_estimate(p, 3000, 11)
        assert list(got.items()) == list(want.items())
        assert all(type(b) is int for bits in got for b in bits)


def test_portfolio_estimate_deterministic():
    p = PortfolioSpec([0.8, 0.6, 0.6, 0.8], 2)
    assert portfolio_estimate(p, 1000, seed=3) == portfolio_estimate(p, 1000, seed=3)


def test_portfolio_validation():
    with pytest.raises(ShapeError):
        PortfolioSpec([1.0, 0.0, 0.0], 2)
    with pytest.raises(NormalizationError):
        PortfolioSpec([1.0, 1.0], 1)
    with pytest.raises(InvalidInputError):
        PortfolioSpec([np.inf, 0.0], 1)
    with pytest.raises(ShapeError):
        PortfolioSpec.from_raw([1.0, 2.0, 3.0])


def test_portfolio_capacity():
    rng = np.random.default_rng(93)
    p = PortfolioSpec.from_raw(rng.uniform(1.0, 2.0, size=1 << 11))
    assert p.m == 11
    with pytest.raises(CapacityError):
        portfolio_circuit(p)


# --- Fourier transform --------------------------------------------------------


def test_qft_matches_dft_matrix():
    rng = np.random.default_rng(94)
    for n in (1, 2, 3, 6):
        dim = 1 << n
        psi = random_state_vector(rng, dim)
        st = qft(init_amplitudes(psi), tuple(range(n - 1, -1, -1)))
        want = dft_matrix(dim, sign=+1) @ psi
        assert np.max(np.abs(st.amplitudes - want)) <= 1e-12


def test_qft_inverse_is_conjugate_transform():
    rng = np.random.default_rng(95)
    dim = 8
    psi = random_state_vector(rng, dim)
    st = qft(init_amplitudes(psi), (2, 1, 0), inverse=True)
    want = dft_matrix(dim, sign=-1) @ psi
    assert np.max(np.abs(st.amplitudes - want)) <= 1e-12


def test_qft_round_trip():
    rng = np.random.default_rng(96)
    for n in (4, 8):
        base = tuple(range(n - 1, -1, -1))
        psi = random_state_vector(rng, 1 << n)
        st = qft(init_amplitudes(psi), base)
        assert abs(st.norm() - 1.0) <= 1e-12
        st = qft(st, base, inverse=True)
        assert np.max(np.abs(st.amplitudes - psi)) <= 1e-12


def test_qft_on_sub_register():
    rng = np.random.default_rng(97)
    psi = random_state_vector(rng, 8)
    st = qft(init_amplitudes(psi), (2, 1))
    want = embed_unitary_oracle(dft_matrix(4, sign=+1), (2, 1), 3) @ psi
    assert np.max(np.abs(st.amplitudes - want)) <= 1e-12
    with pytest.raises(ShapeError):
        qft(init_amplitudes(psi), ())


def test_qft_ladder_is_built_once_per_call_shape():
    # the ladder is cached by (targets, inverse) on integer targets: a float
    # index must not hit the cached ladder of its integer twin, and applying
    # a cached ladder still checks the register width
    rng = np.random.default_rng(89)
    psi = random_state_vector(rng, 4)
    first = qft(init_amplitudes(psi), (1, 0))
    assert np.array_equal(qft(init_amplitudes(psi), [np.int64(1), 0]).amplitudes, first.amplitudes)
    with pytest.raises(QubitIndexError):
        qft(init_amplitudes(psi), (1.0, 0))
    with pytest.raises(QubitIndexError):
        qft(init_amplitudes(psi), (0, 0))
    qft(init_amplitudes(random_state_vector(rng, 8)), (2, 1, 0))
    with pytest.raises(QubitIndexError):
        qft(init_amplitudes(psi), (2, 1, 0))


def _dft_on_targets(psi, targets, sign):
    """The unitary DFT on the target qubits (targets[0] most significant) of
    a register, by basis-index arithmetic: out[i] = sum_l F[l(i), l] psi[j(i, l)]
    with l(i) the targets' bits of i and j(i, l) i with those bits set to l."""
    t = len(targets)
    i = np.arange(psi.shape[0])
    local = sum(((i >> q) & 1) << (t - 1 - pos) for pos, q in enumerate(targets))
    cleared = i & ~sum(1 << q for q in targets)
    lj = np.arange(1 << t)
    spread = sum(((lj >> (t - 1 - pos)) & 1) << q for pos, q in enumerate(targets))
    f = dft_matrix(1 << t, sign)
    return np.einsum("ij,ij->i", f[local], psi[cleared[:, None] | spread[None, :]])


@st.composite
def _qft_targets(draw):
    q = draw(st.integers(1, 8))
    t = draw(st.integers(1, min(6, q)))
    return q, tuple(draw(st.permutations(range(q)))[:t])


@given(case=_qft_targets(), inverse=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_qft_matches_dft_on_any_targets(case, inverse, seed):
    # distinct targets in any order, contiguous or not, inside a register of
    # up to 8 qubits: the merged phase layers act on ts[i:] wherever they lie
    q, targets = case
    psi = random_state_vector(np.random.default_rng(seed), 1 << q)
    got = qft(init_amplitudes(psi), targets, inverse=inverse).amplitudes
    want = _dft_on_targets(psi, targets, -1 if inverse else +1)
    assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("inverse", [False, True])
def test_each_qft_layer_is_its_controlled_phases_merged(inverse):
    # the layer after H(ts[i]) on ts[i:] (local qubit t-1-i is ts[i]) is the
    # product of the controlled phases e^{2 pi i / 2^(j-i+1)} on ts[i] by
    # ts[j] = 1, j > i, that the textbook ladder applies one by one
    for t in range(1, 9):
        ts = tuple(range(t - 1, -1, -1))
        layers = [g for g in _qft_ladder(ts, inverse) if isinstance(g.matrix, Diagonal)]
        if inverse:
            layers.reverse()
        assert len(layers) == t - 1
        for i, g in enumerate(layers):
            m = t - i
            assert g.targets == ts[i:] and g.controls == ()
            want = np.eye(1 << m, dtype=complex)
            for j in range(i + 1, t):
                phase = np.diag([1.0, np.exp(2j * np.pi / (1 << (j - i + 1)))])
                want = embed_controlled_oracle(phase, (m - 1,), (m - 1 - (j - i),), (1,), m) @ want
            if inverse:
                want = want.conj()
            assert np.max(np.abs(np.asarray(g.matrix) - want)) <= 1e-15, (t, i)


@pytest.mark.parametrize("t", [1, 2, 3, 6, 10])
def test_qft_ladder_has_one_phase_layer_per_qubit_but_the_last(t):
    # t Hadamards, t - 1 diagonal layers and t // 2 bit-reversal swaps: 24
    # gates at t = 10, where one controlled phase per pair made 60
    ts = tuple(range(t - 1, -1, -1))
    for inverse in (False, True):
        gates = _qft_ladder(ts, inverse)
        hadamards = [g for g in gates if g.kind == "single" and np.array_equal(g.matrix, HADAMARD)]
        layers = [g for g in gates if isinstance(g.matrix, Diagonal)]
        swaps = [g for g in gates if g.kind == "block" and np.array_equal(g.matrix, SWAP)]
        assert (len(hadamards), len(layers), len(swaps)) == (t, t - 1, t // 2)
        assert len(gates) == 2 * t - 1 + t // 2


# --- signal filtering -----------------------------------------------------------


def test_two_tone_samples_shape():
    x = two_tone_samples(16, 2, 5)
    assert x.shape == (16,)
    assert np.isrealobj(x)


def test_random_two_tone_reproducible():
    assert np.array_equal(random_two_tone(32, 5), random_two_tone(32, 5))
    with pytest.raises(ShapeError):
        random_two_tone(4, 0)
    with pytest.raises(InvalidInputError):
        random_two_tone(32, -1)


def test_identity_filter_returns_input():
    x = two_tone_samples(32, 3, 7)
    quantum, classical = signal_filter(SignalSpec(x, 1.0, 0.0))
    xn = x / np.linalg.norm(x)
    assert np.max(np.abs(quantum - xn)) <= 1e-10
    assert np.max(np.abs(classical - xn)) <= 1e-10


def test_filter_quantum_matches_classical():
    rng = np.random.default_rng(98)
    for length in (8, 16, 64):
        x = random_two_tone(length, int(rng.integers(1 << 30)))
        a = float(rng.uniform(-1, 1))
        b = float(rng.uniform(-1, 1))
        quantum, classical = signal_filter(SignalSpec(x, a, b))
        assert np.max(np.abs(quantum - classical)) <= 1e-10


def test_filter_with_custom_bias_vector():
    rng = np.random.default_rng(99)
    x = random_two_tone(16, 11)
    v = random_state_vector(rng, 16)
    quantum, classical = signal_filter(SignalSpec(x, 0.5, 0.3, bias_vector=v))
    assert np.max(np.abs(quantum - classical)) <= 1e-10


def test_bias_only_filter_is_flat_in_frequency():
    # a = 0 erases the signal; output is the inverse transform of b*v
    x = two_tone_samples(8, 1, 3)
    v = np.zeros(8)
    v[0] = 1.0  # frequency-domain impulse at DC
    quantum, classical = signal_filter(SignalSpec(x, 0.0, 0.5, bias_vector=v))
    want = 0.5 * np.ones(8) / np.sqrt(8)
    assert np.max(np.abs(quantum - want)) <= 1e-10
    assert np.max(np.abs(classical - want)) <= 1e-10


def test_signal_validation():
    x = two_tone_samples(8, 1, 3)
    with pytest.raises(ContractionError):
        signal_filter(SignalSpec(x, 1.5, 0.0))
    with pytest.raises(NormalizationError):
        signal_filter(SignalSpec(x, 0.5, 1.5))
    with pytest.raises(NormalizationError):
        signal_filter(SignalSpec(x, 0.5, np.nan))
    with pytest.raises(InvalidInputError):
        signal_filter(SignalSpec(x, np.nan, 0.5))
    with pytest.raises(NormalizationError):
        signal_filter(SignalSpec(np.zeros(8), 0.5, 0.0))
    with pytest.raises(ShapeError):
        SignalSpec(x[:5], 1.0, 0.0)
    with pytest.raises(ShapeError):
        SignalSpec(x, 1.0, 0.0, bias_vector=np.ones(4) / 2.0)
    with pytest.raises(NormalizationError):
        SignalSpec(x, 1.0, 0.0, bias_vector=np.ones(8))
    with pytest.raises(InvalidInputError):
        SignalSpec(np.array([np.nan] * 8), 1.0, 0.0)
    with pytest.raises(ContractionError):
        signal_filter(SignalSpec(x, np.full(8, 0.5) + np.eye(8)[3], 0.0))
    with pytest.raises(InvalidInputError):
        SignalSpec(x, np.full(8, np.nan), 0.0)
    with pytest.raises(InvalidInputError):
        SignalSpec(x, np.full(8, np.inf), 0.0)
    with pytest.raises(ShapeError):
        SignalSpec(x, np.full(4, 0.5), 0.0)
    with pytest.raises(ShapeError):
        SignalSpec(x, np.full((8, 8), 0.5), 0.0)


def _fft_filter(x, gain, b, v):
    """The filter written out on numpy's FFT alone."""
    xn = x / np.linalg.norm(x)
    length = x.shape[0]
    freq = np.fft.fft(xn) / np.sqrt(length)
    return np.fft.ifft(gain * freq + b * v) * np.sqrt(length)


def test_gain_vector_filters_match_the_fft():
    rng = np.random.default_rng(88)
    length = 64
    x = random_two_tone(length, 17)
    v = random_state_vector(rng, length)
    k = np.fft.fftfreq(length, 1.0 / length)
    low_pass = (np.abs(k) <= 8).astype(float)
    # a delay of a quarter period: its phases are powers of -i, modulus 1
    # exactly; a delay of 3 computes some |g_i| an ulp above 1, which the
    # step reads as a unit gain
    delay = length // 4
    phase_shift = np.exp(-2j * np.pi * k * delay / length)
    assert np.max(np.abs(phase_shift)) == 1.0
    shift_3 = np.exp(-2j * np.pi * k * 3 / length)
    assert np.max(np.abs(shift_3)) == np.nextafter(1.0, 2.0)
    damped_shift = 0.999 * shift_3
    for gain, b in ((low_pass, 0.2), (phase_shift, 0.0), (shift_3, 0.3), (damped_shift * low_pass, -0.5)):
        quantum, classical = signal_filter(SignalSpec(x, gain, b, v))
        want = _fft_filter(x, gain, b, v)
        assert np.max(np.abs(quantum - want)) <= 1e-9
        assert np.max(np.abs(classical - want)) <= 1e-9
    for gain, shift in ((phase_shift, delay), (shift_3, 3)):
        delayed, _ = signal_filter(SignalSpec(x, gain, 0.0))
        assert np.max(np.abs(delayed - np.roll(x / np.linalg.norm(x), shift))) <= 1e-9


def test_scalar_scale_is_the_constant_gain_bit_for_bit():
    rng = np.random.default_rng(87)
    for length in (8, 64, 512):
        x = random_two_tone(length, int(rng.integers(1 << 30)))
        a, b = float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1))
        scalar = signal_filter(SignalSpec(x, a, b))
        vector = signal_filter(SignalSpec(x, np.full(length, a), b))
        assert all(np.array_equal(s, g) for s, g in zip(scalar, vector))
