import itertools

import numpy as np
import pytest
from conftest import dft_matrix, embed_unitary_oracle, random_state_vector

from qaffine import (
    CapacityError,
    ContractionError,
    InvalidInputError,
    NormalizationError,
    PortfolioSpec,
    ShapeError,
    SignalSpec,
    init_amplitudes,
    portfolio_circuit,
    portfolio_closed_form,
    portfolio_estimate,
    portfolio_alternate_form,
    qft,
    random_two_tone,
    signal_filter,
    two_tone_samples,
)


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