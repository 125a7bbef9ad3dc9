"""Shared test helpers: random inputs and independent dense oracles.

The oracles here deliberately avoid the package's reshape/moveaxis
machinery: gate embeddings are built entry-by-entry from basis-index
arithmetic so simulator bugs cannot cancel out in the checks.
"""

from __future__ import annotations

import sys

import numpy as np
from hypothesis import settings
from scipy.stats import unitary_group

# Property tests draw the same examples on every run and never time out, so
# a loaded machine cannot make them flaky.
settings.register_profile("qaffine", derandomize=True, deadline=None, max_examples=60, database=None)
settings.load_profile("qaffine")


def random_state_vector(rng, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_real_unit(rng, dim: int) -> np.ndarray:
    v = rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_unitary(rng, dim: int) -> np.ndarray:
    return unitary_group.rvs(dim, random_state=rng)


def random_contraction(rng, dim: int, low: float = 0.2, high: float = 1.0) -> np.ndarray:
    """Random matrix with spectral norm drawn from [low, high]."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return g * (rng.uniform(low, high) / np.linalg.norm(g, 2))


def local_index(i: int, qubits: tuple[int, ...]) -> int:
    """Index formed by the listed qubit bits of i, first qubit most significant."""
    out = 0
    for q in qubits:
        out = (out << 1) | ((i >> q) & 1)
    return out


def set_local_bits(i: int, qubits: tuple[int, ...], value: int) -> int:
    """Replace the listed qubit bits of i with the bits of value."""
    for pos, q in enumerate(qubits):
        bit = (value >> (len(qubits) - 1 - pos)) & 1
        i = (i & ~(1 << q)) | (bit << q)
    return i


def embed_unitary_oracle(u: np.ndarray, targets, q: int) -> np.ndarray:
    """Dense 2^q expansion of u acting on the target qubits."""
    ts = tuple(targets)
    dim = 1 << q
    t = len(ts)
    full = np.zeros((dim, dim), dtype=np.complex128)
    for i in range(dim):
        li = local_index(i, ts)
        for lj in range(1 << t):
            j = set_local_bits(i, ts, lj)
            full[i, j] = u[li, lj]
    return full


def embed_controlled_oracle(u: np.ndarray, targets, controls, values, q: int) -> np.ndarray:
    """Dense 2^q expansion of a controlled unitary."""
    ts, cs, vs = tuple(targets), tuple(controls), tuple(values)
    dim = 1 << q
    full = np.zeros((dim, dim), dtype=np.complex128)
    for i in range(dim):
        if all(((i >> c) & 1) == v for c, v in zip(cs, vs)):
            li = local_index(i, ts)
            for lj in range(1 << len(ts)):
                j = set_local_bits(i, ts, lj)
                full[i, j] = u[li, lj]
        else:
            full[i, i] = 1.0
    return full


def count_calls(monkeypatch, name: str) -> list:
    """Count calls of the package function `name`, wrapped under every
    qaffine module that holds it; the returned list grows by one per call."""
    calls: list = []
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "qaffine" and callable(getattr(mod, name, None)):

            def wrapper(*args, _fn=getattr(mod, name), **kwargs):
                calls.append(None)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(mod, name, wrapper)
    return calls


def dft_matrix(dim: int, sign: int = +1) -> np.ndarray:
    """Unitary DFT matrix with entries e^{sign * 2 pi i jk / dim} / sqrt(dim)."""
    jk = np.outer(np.arange(dim), np.arange(dim))
    return np.exp(sign * 2j * np.pi * jk / dim) / np.sqrt(dim)
