"""Worked applications of the affine pipeline.

Portfolio superposition: all 2^m signed combinations of grouped asset values
in one register.  The asset list is consumed in blocks Psi = (a_1, a_2),
B_1 = (a_3, a_4), B_2 = next four, ..., B_{m-1} = last 2^{m-1}; every block
must be unit-norm on its own.  Each add/sub stage doubles the register, and
because every matrix stage is the identity no dilation ancilla is needed:
the final amplitude at bits (i_0, ..., i_{m-1}) is the iterated
(phi +/- b)/2 combination

    amp(bits) = Psi[i_0] / 2^(m-1)
                + sum_r (-1)^(i_r) * B_r[int(i_{r-1}..i_0)] / 2^(m-r).

The groups are checked once, where the spec is built (it keeps a read-only
copy of the assets), and the stages then run in one 2^m register, as the
abstract pipeline runs its stages; `portfolio_estimate` reads the sampled
counts as arrays and keys them by bit tuples built once per m.

Signal filtering: frequency-domain gain-and-bias.  A forward transform
moves the normalized samples to frequency space, one weighted pipeline run
applies X -> g * X + b*v elementwise (the diagonal step A = diag(g), given
as its diagonal g, B = v a unit bias vector, weight b; |g_i| <= 1,
|b| <= 1), and the inverse transform returns to the time domain, compared
against a plain FFT reference.  A scalar scale a is the gain g = a 1.
The transform is the textbook QFT ladder (Nielsen & Chuang 5.1) with the
controlled phases that follow each qubit's Hadamard merged into one
diagonal layer, as state-vector simulators fuse diagonal gates (Haener &
Steiger, SC 2017): 2t - 1 + t // 2 gates on t qubits, not
t + t(t-1)/2 + t // 2.  The ladder for a given target tuple and direction
is built, and its gates checked, once per process (`_qft_ladder`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import simulator
from .addsub import _fold
from .circuits import HADAMARD, SWAP, Gate, apply_gates, block, inverted, single
from .errors import (
    CapacityError,
    InvalidInputError,
    NormalizationError,
    ShapeError,
)
from .linalg import Diagonal, as_vector, check_unit_norm
from .pipeline import AffineSequence, AffineStep, _private, run_pipeline
from .simulator import QuantumState, _as_ints, _draw

MAX_GROUP_LEVELS = 10
QFT_CACHE_SIZE = 64  # ladders kept, one per (targets, inverse); `apps` perfbench cycles use 4


@dataclass(frozen=True, eq=False)
class PortfolioSpec:
    """Grouped asset values; assets has length 2^m and every group is
    unit-norm (use from_raw to sort/group/normalize arbitrary values).
    The checked assets are held as a read-only float64 copy, so a later
    write to the caller's array cannot reach the spec."""

    assets: np.ndarray
    m: int

    def __post_init__(self):
        a = np.asarray(self.assets, dtype=np.float64)
        if a.ndim != 1:
            raise ShapeError(f"assets must be a flat list, got shape {a.shape}")
        if not np.isfinite(a).all():
            raise InvalidInputError("asset values must be finite")
        if self.m < 1 or a.shape[0] != 1 << self.m:
            raise ShapeError(f"need 2^m assets for m={self.m}, got {a.shape[0]}")
        object.__setattr__(self, "assets", _private(a))
        for r in range(self.m):
            check_unit_norm(self.group(r), f"group {r}")

    @classmethod
    def from_raw(cls, values) -> "PortfolioSpec":
        """Sort descending, partition into blocks of 2, 2, 4, ..., 2^(m-1),
        and normalize each block.  Non-finite values, and a block whose norm
        is zero or overflows, raise InvalidInputError before any division."""
        v = np.asarray(values, dtype=np.float64)
        if v.ndim != 1 or v.shape[0] < 2 or v.shape[0] & (v.shape[0] - 1):
            raise ShapeError(f"need a power-of-two count of values, got {v.shape}")
        if not np.isfinite(v).all():
            raise InvalidInputError("asset values must be finite")
        v = np.sort(v)[::-1].copy()
        m = v.shape[0].bit_length() - 1
        for r, g in enumerate([v[0:2]] + [v[1 << r : 2 << r] for r in range(1, m)]):
            with np.errstate(over="ignore"):  # an overflowing norm reads inf
                nrm = float(np.linalg.norm(g))
            if not 0.0 < nrm < np.inf:
                raise InvalidInputError(f"group {r} norm is {nrm!r}, not a positive finite number")
            g /= nrm
        return cls(v, m)

    def group(self, r: int) -> np.ndarray:
        """Group 0 is Psi (first two assets); group r >= 1 is B_r."""
        if r == 0:
            return self.assets[0:2]
        return self.assets[1 << r : 2 << r]


def portfolio_circuit(p: PortfolioSpec) -> QuantumState:
    """m-qubit state holding all signed combinations.

    Every matrix stage is the identity, so the block-encoding ancilla is
    skipped entirely and each step is a bare add/sub with the next group,
    run in one 2^m register: stage r halves buf[:d], copies it to
    buf[d:2d] and folds +-B_r/2 in (`addsub._fold`), whose norm check at
    NORM_ATOL stays.  The spec has checked every group, so a group is
    only divided by its norm, as `hadamard_addsub_inplace` divides b~, and
    the register equals that stage-by-stage route bit for bit.
    """
    if p.m > MAX_GROUP_LEVELS:
        raise CapacityError(f"portfolio supports at most {MAX_GROUP_LEVELS} levels")
    buf = np.empty(1 << p.m, dtype=np.complex128)
    buf[:2] = _unit_group(p, 0)
    for r in range(1, p.m):
        d = 1 << r
        buf[:d] *= 0.5
        buf[d : 2 * d] = buf[:d]
        _fold(buf, d, _unit_group(p, r))
    return QuantumState(p.m, buf)


def _unit_group(p: PortfolioSpec, r: int) -> np.ndarray:
    """Group r as complex128 divided by its norm, both as an unchecked
    `addsub._unit` computes them."""
    g = p.group(r).astype(np.complex128)
    return g / np.linalg.norm(g)


def _check_bits(bits, m: int) -> tuple[int, ...]:
    bits = tuple(int(b) for b in bits)
    if len(bits) != m:
        raise ShapeError(f"expected {m} bits, got {len(bits)}")
    if any(b not in (0, 1) for b in bits):
        raise InvalidInputError(f"bits must be 0/1, got {bits}")
    return bits


def portfolio_closed_form(p: PortfolioSpec, bits) -> float:
    """Amplitude at (i_0, ..., i_{m-1}) from the iterated-halving recursion;
    i_0 is the data qubit, i_r the add/sub ancilla of stage r."""
    bits = _check_bits(bits, p.m)
    amp = p.assets[bits[0]] / 2 ** (p.m - 1)
    idx = bits[0]
    for r in range(1, p.m):
        amp += (-1) ** bits[r] * p.group(r)[idx] / 2 ** (p.m - r)
        idx |= bits[r] << r
    return float(amp)


def portfolio_alternate_form(p: PortfolioSpec, bits) -> float:
    """Alternative signed-sum convention: sign on the leading asset and
    bit-reversed group offsets.  Matches the recursion for m = 2 up to
    per-branch sign; exposed for comparison only."""
    bits = _check_bits(bits, p.m)
    f = (-1) ** bits[0] * p.assets[bits[0]]
    for r in range(1, p.m):
        offset = 0
        for s in range(r):
            offset += bits[s] << (r - 1 - s)
        f += (-1) ** bits[r] * p.assets[(1 << r) + offset]
    return float(f / 2 ** (p.m - 1))


def portfolio_estimate(p: PortfolioSpec, shots: int, seed: int) -> dict[tuple[int, ...], float]:
    """Empirical branch frequencies from sampling the circuit: the bits
    (i_0, ..., i_{m-1}) of each basis state hit, in ascending index order,
    map to count / shots.  The draw is `sample`'s, with its checks, taken
    as arrays (`simulator._draw`); the bit tuples are built once per m."""
    index, counts = _draw(portfolio_circuit(p), shots, seed)
    keys = _bit_tuples(p.m)
    return {keys[i]: c / shots for i, c in zip(index.tolist(), counts.tolist())}


@functools.lru_cache(maxsize=MAX_GROUP_LEVELS)
def _bit_tuples(m: int) -> tuple[tuple[int, ...], ...]:
    """Entry i: the m bits of i, least significant first, as Python ints."""
    bits = (np.arange(1 << m)[:, None] >> np.arange(m)) & 1  # row i: bit r of i in column r
    return tuple(map(tuple, bits.tolist()))


def qft(state: QuantumState, targets, inverse: bool = False) -> QuantumState:
    """Quantum Fourier transform on the target qubits (targets[0] most
    significant): a Hadamard on each target, each followed by one diagonal
    phase layer on it and the targets after it, then the bit-reversal
    swaps, so output indices are in natural order.  Matrix entries are
    e^{2 pi i jk / M} / sqrt(M); inverse runs the inverted gate list, the
    adjoint."""
    # ints before the cache lookup: (1.0, 0) hashes as (1, 0) does
    return apply_gates(state, _qft_ladder(_as_ints(targets), bool(inverse)))


@functools.lru_cache(maxsize=QFT_CACHE_SIZE)
def _qft_ladder(ts: tuple[int, ...], inverse: bool) -> tuple[Gate, ...]:
    """The gates of `qft` on integer targets, built and so checked once;
    gates are immutable, and applying them still checks the register width.
    A call that raises is not cached.

    The layer after H(ts[i]) is the product of the controlled phases
    e^{i pi 2^-(j-i)} on ts[i] by each ts[j], j > i, which are diagonal and
    commute.  On ts[i:] its local index is 2^(t-1-i) * bit(ts[i]) + r, with r
    holding the later targets' bits, ts[i+1] the most significant, so
    sum_j bit(ts[j]) 2^-(j-i) = r / 2^(t-1-i) and the phase is
    e^{i pi r / 2^(t-1-i)} where bit(ts[i]) is 1, and 1 elsewhere."""
    if not ts:
        raise ShapeError("qft needs at least one target")
    t = len(ts)
    gates = []
    for i in range(t):
        gates.append(single(HADAMARD, ts[i]))
        if i < t - 1:
            h = 1 << (t - 1 - i)
            phases = np.concatenate((np.ones(h), np.exp(1j * np.pi * (np.arange(h) / h))))
            gates.append(block(Diagonal(phases), ts[i:]))
    gates += [block(SWAP, (ts[i], ts[t - 1 - i])) for i in range(t // 2)]
    return tuple(inverted(gates) if inverse else gates)


@dataclass(frozen=True, eq=False)
class SignalSpec:
    """Real samples (power-of-two length), a frequency-domain scale a or a
    gain vector g of the samples' length (|a|, |g_i| <= 1, checked by the
    pipeline step `signal_filter` runs), bias weight |b| <= 1 on a unit
    bias vector (uniform when omitted).  The checked samples (float64), a
    gain vector and the normalized bias vector (complex128) are held as
    read-only copies, so a later write to the caller's arrays cannot reach
    the spec."""

    samples: np.ndarray
    scale_a: float | np.ndarray
    bias_b: float
    bias_vector: np.ndarray | None = None

    def __post_init__(self):
        x = np.asarray(self.samples, dtype=np.float64)
        if x.ndim != 1 or x.shape[0] < 2 or x.shape[0] & (x.shape[0] - 1):
            raise ShapeError(f"sample count must be a power of two >= 2, got {x.shape}")
        if not np.isfinite(x).all():
            raise InvalidInputError("samples must be finite")
        object.__setattr__(self, "samples", _private(x))
        if np.ndim(self.scale_a):
            g = as_vector(self.scale_a)
            if g.shape != x.shape:
                raise ShapeError(f"gain vector length {g.shape[0]} != sample count {x.shape[0]}")
            object.__setattr__(self, "scale_a", _private(g))
        if self.bias_vector is not None:
            v = as_vector(self.bias_vector)
            if v.shape[0] != x.shape[0]:
                raise ShapeError(
                    f"bias vector length {v.shape[0]} != sample count {x.shape[0]}"
                )
            object.__setattr__(self, "bias_vector", _private(v / check_unit_norm(v, "bias vector")))


def two_tone_samples(length: int, f1: int, f2: int, a1: float = 1.0, a2: float = 0.5) -> np.ndarray:
    """Sum of two sampled sine tones on a uniform grid."""
    t = np.arange(length) / length
    return a1 * np.sin(2 * np.pi * f1 * t) + a2 * np.sin(2 * np.pi * f2 * t)


def random_two_tone(length: int, seed: int) -> np.ndarray:
    """Random distinct tones below Nyquist with random amplitudes."""
    if length < 8:
        raise ShapeError(f"need at least 8 samples for two tones, got {length}")
    if seed < 0:
        raise InvalidInputError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    f1, f2 = rng.choice(np.arange(1, length // 2), size=2, replace=False)
    a1, a2 = rng.uniform(0.5, 1.5, size=2)
    return two_tone_samples(length, int(f1), int(f2), a1, a2)


def signal_filter(spec: SignalSpec) -> tuple[np.ndarray, np.ndarray]:
    """Frequency-domain affine filter, both ways.

    Quantum path: forward transform (DFT sign) of the normalized samples,
    one weighted pipeline run X -> g * X + b v from those amplitudes, its
    diagonal step given as the gain g itself (a scalar a as g = a 1), so no
    L x L array is built; inverse transform on the base register of its
    result, de-scaled by the run's ledger of 2.  Classical path: the same
    arithmetic on top of numpy's FFT.  Returns (quantum, classical) outputs
    on the normalized-input scale.  The step decides whether max |g_i| is
    at most 1, by its own rule: a unit-modulus gain an ulp above 1 runs,
    and a gain beyond `pipeline.CONTRACTION_TOL` above 1 raises
    `ContractionError`.
    """
    x = spec.samples
    nrm = np.linalg.norm(x)
    if nrm < 1e-12:
        raise NormalizationError("signal norm is (near-)zero")
    xn = x / nrm
    big_m = x.shape[0]
    n = big_m.bit_length() - 1
    v = spec.bias_vector
    if v is None:
        v = np.ones(big_m, dtype=np.complex128) / np.sqrt(big_m)
    base = tuple(range(n - 1, -1, -1))

    # the forward filter step uses the DFT sign e^{-2 pi i jk/M}, i.e. the
    # conjugate of the qft base convention
    freq_state = qft(simulator.init_amplitudes(xn), base, inverse=True)
    gain = spec.scale_a if np.ndim(spec.scale_a) else np.full(big_m, spec.scale_a, dtype=np.complex128)
    step = AffineStep(gain, v, spec.bias_b)
    res = run_pipeline(AffineSequence(n, freq_state.amplitudes, (step,)))
    quantum = res.scale * qft(res.state, base, inverse=False).amplitudes[:big_m]

    freq = np.fft.fft(xn) / np.sqrt(big_m)
    filtered = spec.scale_a * freq + spec.bias_b * v
    classical = np.fft.ifft(filtered) * np.sqrt(big_m)
    return quantum, classical
