"""Seeded inputs, op schedules and independent correctness checks.

A workload is a fixed cycle of ops.  Every op instance in the cycle is built
once, during set-up, from a numpy Generator seeded by ``--seed``; the timed
phase replays whole cycles, so the mix of op kinds, and with it the median
and tail of op times, does not depend on where the clock runs out.

The package only ever receives the generated arrays (or a problem file
written from them).  Each op's output is checked by code in this file, or
against ``classical_affine_compose``, which is the package's oracle and
stays independent of the quantum route.
"""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.special import bdtr, bdtrc

import qaffine.addsub
import qaffine.apps
import qaffine.baseline
import qaffine.cli
import qaffine.pipeline
from qaffine.apps import PortfolioSpec, SignalSpec
from qaffine.pipeline import AffineSequence, AffineStep

PIPELINE_TOL = 1e-9
FRESH_TOL = 1e-12
SIGNAL_TOL = 1e-9
PORTFOLIO_AMP_TOL = 1e-12
PORTFOLIO_SIGMAS = 5.0
PORTFOLIO_TAIL = 0.5 * math.erfc(PORTFOLIO_SIGMAS / math.sqrt(2.0))  # one side, 2.9e-7
PORTFOLIO_SHOTS = 10**6


class CheckFailed(Exception):
    """An op returned, but its output is wrong."""


@dataclass
class Op:
    """One op instance: ``run`` is the timed call into the package and
    ``check`` turns its output into a deviation, raising CheckFailed when a
    non-numeric property (an exit code, a repeated gate count) is wrong."""

    kind: str
    run: Callable[[], object]
    check: Callable[[object], float]
    tol: float


@dataclass
class Workload:
    cycle: list[Op]
    warmup: list[Op]
    # percentile reported as op_tail_s: with whole cycles it sits at a fixed
    # place in the op mix, inside one group of same-size ops, with at least
    # ten ops beyond it in a run of the usual cycle count
    tail_pct: float
    # first counts of each distinct `gates compare` instance, filled by checks
    gate_counts: dict[str, tuple[int, int, int, int]] = field(default_factory=dict)


# ----------------------------------------------------------------- generators


def unit_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def _reflect_left(w: np.ndarray, m: np.ndarray) -> np.ndarray:
    """(I - 2 w w^dag) m in O(N^2)."""
    return m - 2.0 * np.outer(w, w.conj() @ m)


def _reflect_right(m: np.ndarray, w: np.ndarray) -> np.ndarray:
    """m (I - 2 w w^dag) in O(N^2)."""
    return m - 2.0 * np.outer(m @ w, w.conj())


def with_singular_values(rng: np.random.Generator, s: np.ndarray) -> np.ndarray:
    """Dense matrix H1 diag(s) H2 with random Householder reflectors H1, H2,
    so its singular values are exactly |s| in exact arithmetic."""
    dim = s.shape[0]
    a = _reflect_left(unit_vector(rng, dim), np.diag(s.astype(np.complex128)))
    return _reflect_right(a, unit_vector(rng, dim))


def sigma_one(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Matrix with sigma_max exactly 1, in floating point too: a permutation
    with phases 1, -1, i, -i times a diagonal whose largest entry is 1.0.
    Its singular values are the diagonal's moduli, which are stored exactly,
    and its computed norm never read above 1 in 7,100 draws at N=4..256."""
    s = rng.uniform(0.0, 1.0, dim)
    s[int(rng.integers(dim))] = 1.0
    a = np.zeros((dim, dim), dtype=np.complex128)
    a[rng.permutation(dim), np.arange(dim)] = s * rng.choice(np.array([1, -1, 1j, -1j]), size=dim)
    return a


def sigma_one_dense(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Dense matrix with sigma_max exactly 1 in exact arithmetic only.

    Its computed norm lands a few ulp on either side of 1, and some of these
    matrices trip the bare `assert enc.alpha == 1.0` in `apply_affine_step`
    (see perfbench/README.md).  They are what `defect_probe` runs.
    """
    s = rng.uniform(0.0, 1.0, dim)
    s[int(rng.integers(dim))] = 1.0
    return with_singular_values(rng, s)


def rank_deficient(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Dense singular contraction: half of the singular values are zero."""
    s = rng.uniform(0.2, 0.9, dim)
    s[rng.permutation(dim)[: dim // 2]] = 0.0
    return with_singular_values(rng, s)


def generic(rng: np.random.Generator, dim: int) -> np.ndarray:
    return with_singular_values(rng, rng.uniform(0.0, 0.95, dim))


def scalar(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.uniform(0.3, 1.0) * np.exp(2j * np.pi * rng.uniform())
    return a * np.eye(dim, dtype=np.complex128)


def identity(rng: np.random.Generator, dim: int) -> np.ndarray:
    return np.eye(dim, dtype=np.complex128)


def sequence(rng, n: int, kinds, with_b) -> AffineSequence:
    """Sequence on n base qubits, one step per entry of `kinds` (matrix
    generators); with_b[j] False makes step j's translation B = None."""
    dim = 1 << n
    steps = tuple(
        AffineStep(make(rng, dim), unit_vector(rng, dim) if b else None)
        for make, b in zip(kinds, with_b)
    )
    return AffineSequence(n, unit_vector(rng, dim), steps)


# ---------------------------------------------------------------- op builders


def _max_dev(x, y) -> float:
    return float(np.max(np.abs(np.asarray(x) - np.asarray(y))))


def pipeline_op(seq: AffineSequence) -> Op:
    def run():
        res = qaffine.pipeline.run_pipeline(seq)
        return qaffine.pipeline.extract_result(res)

    def check(out):
        return _max_dev(out, qaffine.pipeline.classical_affine_compose(seq))

    return Op(f"pipeline n={seq.n} k={seq.k}", run, check, PIPELINE_TOL)


def baseline_op(seq: AffineSequence) -> Op:
    """Single-step homogeneous-coordinate route with its 4N dilation."""
    (step,) = seq.steps
    b = step.B if step.B is not None else np.zeros(1 << seq.n, dtype=np.complex128)

    def run():
        aug = qaffine.baseline.build_augmented(step.A, b, seq.psi0)
        return qaffine.baseline.run_augmented(aug)

    def check(out):
        return _max_dev(out, qaffine.pipeline.classical_affine_compose(seq))

    return Op(f"baseline n={seq.n}", run, check, PIPELINE_TOL)


def fresh_op(rng, n: int) -> Op:
    a, b = unit_vector(rng, 1 << n), unit_vector(rng, 1 << n)

    def run():
        return qaffine.addsub.hadamard_addsub_fresh(a, b)

    def check(res):
        amps = res.state.amplitudes
        half = 1 << n
        return max(_max_dev(amps[:half], (a + b) / 2), _max_dev(amps[half:], (a - b) / 2))

    return Op("addsub fresh", run, check, FRESH_TOL)


def _pairs(v) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in v]


def write_problem(path: Path, seq: AffineSequence) -> None:
    """Problem file in the CLI's version-1 format.  json writes floats with
    repr, so the CLI parses back exactly these arrays."""
    doc = {
        "version": 1,
        "n": seq.n,
        "psi": _pairs(seq.psi0),
        "steps": [
            {"A": [_pairs(row) for row in s.A], "B": "zero" if s.B is None else _pairs(s.B)}
            for s in seq.steps
        ],
    }
    path.write_text(json.dumps(doc))


def _cli(argv: list[str]) -> int:
    """cli.main in-process, with its progress lines kept off our stdout."""
    sink = io.StringIO()
    with redirect_stdout(sink), redirect_stderr(sink):
        return qaffine.cli.main(argv)


def _expect_exit_zero(code: int, argv: list[str]) -> None:
    if code != 0:
        raise CheckFailed(f"`qaffine {' '.join(argv[:2])}` exited with {code}")


def cli_physical_op(seq: AffineSequence, workdir: Path) -> Op:
    workdir.mkdir(parents=True, exist_ok=True)
    problem = workdir / "problem.json"
    write_problem(problem, seq)
    argv = ["run", str(problem), "--mode", "physical", "--verify", "--out-dir", str(workdir)]

    def run():
        return _cli(argv)

    def check(code):
        _expect_exit_zero(code, argv)
        doc = json.loads((workdir / "result.json").read_text())
        out = np.array([complex(re, im) for re, im in doc["extracted"]])
        return _max_dev(out, qaffine.pipeline.classical_affine_compose(seq))

    return Op(f"cli run physical n={seq.n} k={seq.k}", run, check, PIPELINE_TOL)


def cli_compare_op(seq: AffineSequence, workdir: Path, seen: dict) -> Op:
    """`qaffine gates compare`.  The counts are a pure function of the input,
    so a repeat that reports other counts than the first run is a failure;
    `seen` maps each instance's directory name to its first counts."""
    workdir.mkdir(parents=True, exist_ok=True)
    problem = workdir / "problem.json"
    write_problem(problem, seq)
    argv = ["gates", "compare", str(problem), "--out-dir", str(workdir)]

    def run():
        return _cli(argv)

    def check(code):
        _expect_exit_zero(code, argv)
        doc = json.loads((workdir / "gatecounts.json").read_text())
        ours, aug = doc["ours"], doc["augmented"]
        for rep in (ours, aug):
            if rep["single_qubit"] + rep["multi_qubit"] != rep["total"]:
                raise CheckFailed(f"gate tallies do not add up: {rep}")
        counts = (ours["total"], ours["multi_qubit"], aug["total"], aug["multi_qubit"])
        first = seen.setdefault(workdir.name, counts)
        if counts != first:
            raise CheckFailed(f"gate counts changed on repeat: {first} then {counts}")
        return 0.0

    return Op("cli gates compare", run, check, 0.0)


def signal_op(rng, length: int) -> Op:
    """Two random tones below Nyquist, random scale and bias, and a random
    bias vector on half of the instances (uniform otherwise)."""
    t = np.arange(length) / length
    f1, f2 = rng.choice(np.arange(1, length // 2), size=2, replace=False)
    x = rng.uniform(0.5, 1.5) * np.sin(2 * np.pi * f1 * t) + rng.uniform(0.5, 1.5) * np.sin(
        2 * np.pi * f2 * t
    )
    a, b = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
    v = unit_vector(rng, length) if rng.uniform() < 0.5 else None
    spec = SignalSpec(x, a, b, v)

    # the filter's own arithmetic, written out on numpy.fft
    xn = x / np.linalg.norm(x)
    bias = v if v is not None else np.ones(length) / np.sqrt(length)
    freq = np.fft.fft(xn) / np.sqrt(length)
    reference = np.fft.ifft(a * freq + b * bias) * np.sqrt(length)

    def run():
        quantum, _classical = qaffine.apps.signal_filter(spec)
        return quantum

    def check(quantum):
        return _max_dev(quantum, reference)

    return Op(f"signal_filter L={length}", run, check, SIGNAL_TOL)


def portfolio_amplitudes(assets: np.ndarray, m: int) -> np.ndarray:
    """Closed form of the portfolio register, vectorized over basis index i
    (bit r of i is stage r's add/sub ancilla, bit 0 the data qubit)."""
    i = np.arange(1 << m)
    amp = assets[i & 1] / 2.0 ** (m - 1)
    for r in range(1, m):
        sign = 1 - 2 * ((i >> r) & 1)
        amp = amp + sign * assets[(1 << r) + (i & ((1 << r) - 1))] / 2.0 ** (m - r)
    return amp


def portfolio_op(rng, m: int) -> Op:
    assets = rng.uniform(0.1, 1.0, 1 << m)
    assets[0:2] /= np.linalg.norm(assets[0:2])
    for r in range(1, m):
        assets[1 << r : 2 << r] /= np.linalg.norm(assets[1 << r : 2 << r])
    spec = PortfolioSpec(assets, m)
    sample_seed = int(rng.integers(2**31))
    amps = portfolio_amplitudes(assets, m)
    probs = np.clip(amps**2, 0.0, 1.0)

    def run():
        state = qaffine.apps.portfolio_circuit(spec)
        freq = qaffine.apps.portfolio_estimate(spec, PORTFOLIO_SHOTS, sample_seed)
        return state, freq

    def check(out):
        state, freq = out
        counts = np.zeros(1 << m)
        for bits, f in freq.items():
            counts[sum(b << r for r, b in enumerate(bits))] = round(f * PORTFOLIO_SHOTS)
        # "Within 5 binomial sigma" as an exact binomial tail, for the whole
        # histogram: the smallest per-bin tail, times the number of bins,
        # must not fall below the tail of a 5-sigma normal deviation.  The
        # normal form fails bins expecting under one count (a single hit
        # there reads as "8 sigma" but is common), and a per-bin 5-sigma test
        # over 2^m bins rejects a correct sampler about once per 300 seeds.
        below = bdtr(counts, PORTFOLIO_SHOTS, probs)
        above = np.where(counts > 0, bdtrc(counts - 1, PORTFOLIO_SHOTS, probs), 1.0)
        tails = np.minimum(below, above)
        worst = int(np.argmin(tails))
        if tails[worst] * (1 << m) < PORTFOLIO_TAIL:
            raise CheckFailed(
                f"basis state {worst}: {int(counts[worst])} of {PORTFOLIO_SHOTS} shots, "
                f"expected {probs[worst] * PORTFOLIO_SHOTS:.3g}, beyond {PORTFOLIO_SIGMAS:g} sigma"
            )
        return _max_dev(state.amplitudes, amps)

    return Op(f"portfolio m={m}", run, check, PORTFOLIO_AMP_TOL)


# ------------------------------------------------------------------ workloads


def wide(rng, workdir: Path) -> Workload:
    """Dense N=512..1024 pipelines and 4N baseline dilations at n=8.

    Per cycle: 1 op at n=10 k=1, 1 at n=9 k=2, 6 at n=9 k=1 and 14
    baselines, about 14 s, so a run is two cycles.  The median op is a
    baseline and the 75th percentile an n=9 k=1 pipeline.  Four of the
    pipelines take a sigma_max=1 step."""
    cycle = [
        pipeline_op(sequence(rng, 10, [sigma_one], [True])),
        pipeline_op(sequence(rng, 9, [rank_deficient, sigma_one], [False, True])),
    ]
    one_step = ((rank_deficient, False), (generic, True), (sigma_one, True), (generic, False),
                (sigma_one, False), (rank_deficient, True))
    cycle += [pipeline_op(sequence(rng, 9, [make], [b])) for make, b in one_step]
    cycle += [baseline_op(sequence(rng, 8, [generic], [j % 7 != 6])) for j in range(14)]
    warm = [
        pipeline_op(sequence(rng, 2, [generic], [True])),
        baseline_op(sequence(rng, 2, [generic], [True])),
    ]
    return Workload(cycle, warm, tail_pct=75.0)


def deep(rng, workdir: Path) -> Workload:
    """n=3..4, k=8..9: 20-22 qubit states, at most 16x16 SVDs.  Steps cycle
    through dense, identity, scalar and rank-deficient A; every other step
    has B = None."""

    def op(n, k):
        kinds = [(generic, identity, scalar, rank_deficient, generic, scalar)[j % 6] for j in range(k)]
        return pipeline_op(sequence(rng, n, kinds, [j % 2 == 0 for j in range(k)]))

    cycle = [op(n, k) for _ in range(2) for n, k in ((3, 9), (4, 8), (4, 9))]
    # about 0.6 s a cycle: the median is an n=3 k=9 op, p90 an n=4 k=9 op
    warm = [pipeline_op(sequence(rng, 2, [identity, scalar], [True, False]))]
    return Workload(cycle, warm, tail_pct=90.0)


def physical(rng, workdir: Path) -> Workload:
    """Gate-level paths through the CLI, plus fresh add/sub pairs.

    Per cycle: physical runs once at n=2 k=5, n=3 k=3 and n=2 k=3 and 14
    times at n=2 k=4; two `gates compare` instances; two fresh pairs; about
    7 s.  The k=4 runs hold both the median and the 80th percentile: the
    small CLI ops vary by up to 50% from run to run, the k=4 runs by 15%."""
    w = Workload([], [], tail_pct=80.0)
    mixed = (rank_deficient, identity, generic, scalar)

    def run_op(n, k, tag):
        kinds = [mixed[int(j)] for j in rng.integers(len(mixed), size=k)]
        seq = sequence(rng, n, kinds, [j % 2 == 0 for j in range(k)])
        return cli_physical_op(seq, workdir / tag)

    def compare_op(tag, with_b=True):
        seq = sequence(rng, 2, [generic], [with_b])
        return cli_compare_op(seq, workdir / tag, w.gate_counts)

    w.cycle.append(run_op(2, 5, "k5"))
    w.cycle += [run_op(2, 4, f"k4-{i}") for i in range(14)]
    w.cycle += [run_op(3, 3, "n3k3"), run_op(2, 3, "k3")]
    w.cycle += [compare_op("cmp-0"), compare_op("cmp-1", with_b=False)]
    w.cycle += [fresh_op(rng, int(rng.integers(1, 7))) for _ in range(2)]
    w.warmup = [run_op(2, 1, "warm-run"), fresh_op(rng, 1)]
    w.warmup.append(cli_compare_op(sequence(rng, 2, [generic], [True]), workdir / "warm-cmp", {}))
    return w


def apps(rng, workdir: Path) -> Workload:
    """Scalar-A signal filters (QFT ladders) and sampled portfolios.

    Per cycle: one filter at L=1024, three at L=512, and three portfolio
    instances (m=8, 9, 10) twice each, about 5 s.  The m=10 portfolios hold
    the median op and the L=512 filters the 75th percentile."""
    cycle = [signal_op(rng, 1024)] + [signal_op(rng, 512) for _ in range(3)]
    portfolios = [portfolio_op(rng, m) for m in (8, 9, 10)]
    cycle += portfolios + portfolios
    warm = [signal_op(rng, 8), portfolio_op(rng, 2)]
    return Workload(cycle, warm, tail_pct=75.0)


BUILDERS = {"wide": wide, "deep": deep, "physical": physical, "apps": apps}


def build(name: str, seed: int, workdir: Path) -> Workload:
    return BUILDERS[name](np.random.default_rng(seed), workdir)


def defect_probe(seed: int) -> list[Op]:
    """Pipelines whose one step is a dense `sigma_one_dense` matrix: the
    known alpha-assert defect (ROADMAP item 5), measured apart from the
    workloads.  Their failures are counted on their own, never as the
    workload's failed ops; once the defect is fixed they all pass."""
    rng = np.random.default_rng([seed, 1])
    return [pipeline_op(sequence(rng, 4 + i % 3, [sigma_one_dense], [True])) for i in range(96)]
