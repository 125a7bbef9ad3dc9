"""Command-line front end.

Subcommands: run, baseline, gates compare, demo portfolio, demo signal.
Problem files are versioned JSON (see parse_problem); complex numbers are
[re, im] pairs.  Exit codes: 0 success, 1 verification failure, 2 malformed
problem file, 3 violated engine precondition, 4 capacity exceeded (a
MemoryError included).  The QAFFINE_SEED environment variable supplies the
default sampling seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .apps import (
    PortfolioSpec,
    SignalSpec,
    portfolio_circuit,
    portfolio_closed_form,
    portfolio_estimate,
    random_two_tone,
    signal_filter,
)
from .baseline import build_augmented, run_augmented
from .errors import CapacityError, InvalidInputError, QAffineError, SchemaError, ShapeError
from .linalg import max_abs
from .pipeline import (
    AffineSequence,
    AffineStep,
    classical_affine_compose,
    extract_result,
    run_pipeline,
)
from .simulator import MAX_QUBITS

MODES = ("abstract", "physical")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _pair(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def _complex_from_pair(node, where: str) -> complex:
    if (
        not isinstance(node, (list, tuple))
        or len(node) != 2
        or not all(isinstance(p, (int, float)) and not isinstance(p, bool) for p in node)
    ):
        raise SchemaError(f"{where}: expected a [re, im] number pair, got {node!r}")
    return complex(node[0], node[1])


def _vector_from_json(node, where: str) -> np.ndarray:
    if not isinstance(node, list) or not node:
        raise SchemaError(f"{where}: expected a non-empty list of [re, im] pairs")
    return np.array(
        [_complex_from_pair(p, f"{where}[{i}]") for i, p in enumerate(node)],
        dtype=np.complex128,
    )


def _matrix_from_json(node, where: str) -> np.ndarray:
    if not isinstance(node, list) or not node:
        raise SchemaError(f"{where}: expected a non-empty list of rows")
    rows = [_vector_from_json(r, f"{where}[{i}]") for i, r in enumerate(node)]
    width = rows[0].shape[0]
    if any(r.shape[0] != width for r in rows):
        raise SchemaError(f"{where}: ragged rows")
    return np.vstack(rows)


def parse_problem(path: str | Path) -> tuple[AffineSequence, str]:
    """Load a problem file:

    {"version": 1, "n": <int>, "psi": [[re,im],...],
     "steps": [{"A": [[[re,im],...],...], "B": [[re,im],...] | "zero"}, ...],
     "mode": "abstract" | "physical"}   (mode optional)
    """
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read problem file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"problem file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise SchemaError("problem file must hold a JSON object")
    if data.get("version") != 1:
        raise SchemaError(f"unsupported problem version {data.get('version')!r}")
    n = data.get("n")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise SchemaError(f"'n' must be a positive integer, got {n!r}")
    psi = _vector_from_json(data.get("psi"), "psi")
    raw_steps = data.get("steps")
    if not isinstance(raw_steps, list) or not raw_steps:
        raise SchemaError("'steps' must be a non-empty list")
    steps = []
    for i, node in enumerate(raw_steps):
        if not isinstance(node, dict):
            raise SchemaError(f"steps[{i}] must be an object")
        a = _matrix_from_json(node.get("A"), f"steps[{i}].A")
        b_node = node.get("B")
        if b_node == "zero":
            b = None
        else:
            b = _vector_from_json(b_node, f"steps[{i}].B")
        steps.append((a, b))
    mode = data.get("mode", "abstract")
    if mode not in MODES:
        raise SchemaError(f"'mode' must be one of {MODES}, got {mode!r}")
    try:
        seq = AffineSequence(n, psi, tuple(AffineStep(a, b) for a, b in steps))
    except (ShapeError, InvalidInputError) as exc:
        raise SchemaError(f"problem file dimensions are inconsistent: {exc}") from exc
    return seq, mode


def _default_seed(value) -> int:
    if value is not None:
        return int(value)
    env = os.environ.get("QAFFINE_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise SchemaError(f"QAFFINE_SEED must be an integer, got {env!r}") from exc
    return 0


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_extracted_csv(path: Path, values: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("index,re,im\n")
        for i, z in enumerate(values):
            fh.write(f"{i},{_fmt(z.real)},{_fmt(z.imag)}\n")


def _write_result_json(path: Path, extracted: np.ndarray, scale, meta: dict,
                       raw: np.ndarray | None = None) -> None:
    bundle = {
        "extracted": [_pair(z) for z in extracted],
        "scale": scale,
        "metadata": meta,
    }
    if raw is not None:
        bundle["raw_amplitudes"] = [_pair(z) for z in raw]
    with open(path, "w") as fh:
        json.dump(bundle, fh, indent=2)
        fh.write("\n")


def _verify(args, seq: AffineSequence, values: np.ndarray) -> int:
    """--verify: compare against the classical reference; exit code 1 when
    the deviation exceeds --tolerance."""
    if not args.verify:
        return 0
    dev = max_abs(values - classical_affine_compose(seq))
    print(f"max deviation vs classical reference: {dev:.3e}")
    if not dev <= args.tolerance:
        print(
            f"verification failed: {dev:.3e} exceeds tolerance {args.tolerance:g}",
            file=sys.stderr,
        )
        return 1
    return 0


def _write_outputs(args, seq: AffineSequence, values, scale, meta: dict, summary: str, raw=None) -> int:
    """Write extracted.csv and result.json (metadata: k, n, the given
    entries, seed, tool version), print the summary, then run --verify."""
    out = _out_dir(args)
    _write_extracted_csv(out / "extracted.csv", values)
    meta = {"k": seq.k, "n": seq.n, **meta, "seed": _default_seed(args.seed), "tool_version": __version__}
    _write_result_json(out / "result.json", values, scale, meta, raw)
    print(summary)
    print(f"wrote {out / 'extracted.csv'} and {out / 'result.json'}")
    return _verify(args, seq, values)


def cmd_affine_run(args) -> int:
    seq, file_mode = parse_problem(args.problem)
    mode = args.mode or file_mode
    res = run_pipeline(seq, mode=mode)
    raw = res.state.amplitudes if args.raw_amplitudes else None
    summary = f"ran {res.k} step(s) on {seq.n} base qubit(s); scale ledger {res.scale}"
    return _write_outputs(args, seq, extract_result(res), res.scale, {"mode": mode}, summary, raw)


def cmd_baseline(args) -> int:
    seq, _ = parse_problem(args.problem)
    if seq.k != 1:
        raise SchemaError(f"baseline takes a single-step problem, got k={seq.k}")
    step = seq.steps[0]
    b = step.B if step.B is not None else np.zeros(1 << seq.n)
    aug = build_augmented(step.A, b, seq.psi0)
    meta = {"mode": "augmented", "alpha": aug.enc.alpha}
    summary = f"augmented dilation dimension: {2 * aug.A_tilde.shape[0]}"
    return _write_outputs(args, seq, run_augmented(aug), aug.enc.alpha, meta, summary)


def cmd_gates_compare(args) -> int:
    from .synthesis import compare_methods  # loads scipy.linalg: only here

    seq, _ = parse_problem(args.problem)
    if seq.n != 2 or seq.k != 1:
        raise SchemaError(
            f"gate comparison takes a single-step problem on n=2, got n={seq.n}, k={seq.k}"
        )
    step = seq.steps[0]
    ours, augmented = compare_methods(step.A, step.B, seq.psi0)
    out = _out_dir(args)
    payload = {
        "ours": vars(ours),
        "augmented": vars(augmented),
        "note": "multi-qubit tally counts CNOTs after lowering every block",
    }
    with open(out / "gatecounts.json", "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"{'method':<12} {'single-qubit':>12} {'multi-qubit':>12} {'total':>8}")
    print(f"{'sequential':<12} {ours.single_qubit:>12} {ours.multi_qubit:>12} {ours.total:>8}")
    print(
        f"{'augmented':<12} {augmented.single_qubit:>12} "
        f"{augmented.multi_qubit:>12} {augmented.total:>8}"
    )
    print(f"wrote {out / 'gatecounts.json'}")
    return 0


def cmd_demo_portfolio(args) -> int:
    if args.assets:
        try:
            values = [float(tok) for tok in args.assets.split(",")]
        except ValueError as exc:
            raise SchemaError(f"--assets must be comma-separated numbers: {exc}") from exc
        try:
            if args.raw:
                spec = PortfolioSpec.from_raw(values)
            else:
                spec = PortfolioSpec(np.asarray(values), max(len(values).bit_length() - 1, 1))
        except QAffineError as exc:
            raise SchemaError(f"--assets is not a valid portfolio: {exc}") from exc
    else:
        spec = PortfolioSpec(np.array([0.8, 0.6, 0.6, 0.8]), 2)
    seed = _default_seed(args.seed)
    state = portfolio_circuit(spec)
    freq = portfolio_estimate(spec, args.shots, seed)
    bits = [tuple((i >> r) & 1 for r in range(spec.m)) for i in range(state.dim)]
    closed = [portfolio_closed_form(spec, b) for b in bits]
    out = _out_dir(args)
    path = out / "portfolio.csv"
    with open(path, "w", newline="") as fh:
        fh.write("bits,amplitude,probability,empirical_frequency\n")
        for index, (b, amp) in enumerate(zip(bits, closed)):
            prob = float(np.abs(state.amplitudes[index]) ** 2)
            label = "".join(str(x) for x in b)
            fh.write(f"{label},{_fmt(amp)},{_fmt(prob)},{_fmt(freq.get(b, 0.0))}\n")
    dev = max_abs(state.amplitudes - np.array(closed))
    print(f"{spec.m}-level portfolio, {args.shots} shots, seed {seed}")
    print(f"circuit vs closed form max deviation: {dev:.3e}")
    print(f"wrote {path}")
    return 0


def cmd_demo_signal(args) -> int:
    # the filter is one pipeline step on log2(length) base qubits, which adds two
    longest = 1 << (MAX_QUBITS - 2)
    if args.length > longest:
        raise CapacityError(f"signal length {args.length} exceeds {longest}, the longest one filter step can run")
    seed = _default_seed(args.seed)
    samples = random_two_tone(args.length, seed)
    spec = SignalSpec(samples, args.scale_a, args.bias_b)
    quantum, classical = signal_filter(spec)
    xn = samples / np.linalg.norm(samples)
    out = _out_dir(args)
    path = out / "signal.csv"
    with open(path, "w", newline="") as fh:
        fh.write("t,input,quantum_out,classical_out\n")
        for t in range(args.length):
            fh.write(
                f"{t},{_fmt(xn[t])},{_fmt(quantum[t].real)},{_fmt(classical[t].real)}\n"
            )
    dev = max_abs(quantum - classical)
    print(
        f"two-tone signal of length {args.length}, a={args.scale_a}, "
        f"b={args.bias_b}, seed {seed}"
    )
    print(f"quantum vs classical max deviation: {dev:.3e}")
    print(f"wrote {path}")
    return 0


@functools.cache  # parsing leaves the parser as it was, so one serves every call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qaffine",
        description="Sequential affine transformations on statevector amplitudes.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_mode=False, with_verify=False):
        p.add_argument("--out-dir", default=".", help="directory for output files")
        p.add_argument("--seed", type=int, default=None,
                       help="sampling seed (default: QAFFINE_SEED or 0)")
        if with_mode:
            p.add_argument("--mode", choices=MODES, default=None,
                           help="override the problem file's add/sub mode")
        if with_verify:
            p.add_argument("--verify", action="store_true",
                           help="compare against the classical reference")
            p.add_argument("--tolerance", type=float, default=1e-9,
                           help="verification tolerance (default 1e-9)")

    p_run = sub.add_parser("run", help="run a multi-step affine problem")
    p_run.add_argument("problem", help="problem JSON file")
    p_run.add_argument("--raw-amplitudes", action="store_true",
                       help="include the full statevector in result.json")
    common(p_run, with_mode=True, with_verify=True)
    p_run.set_defaults(func=cmd_affine_run)

    p_base = sub.add_parser("baseline", help="run a single-step problem via the "
                            "homogeneous-coordinate dilation")
    p_base.add_argument("problem", help="problem JSON file (one step)")
    common(p_base, with_verify=True)
    p_base.set_defaults(func=cmd_baseline)

    p_gates = sub.add_parser("gates", help="gate-level analyses")
    gsub = p_gates.add_subparsers(dest="gates_command", required=True)
    p_cmp = gsub.add_parser("compare", help="count gates: sequential vs augmented")
    p_cmp.add_argument("problem", help="problem JSON file (n=2, one step)")
    common(p_cmp)
    p_cmp.set_defaults(func=cmd_gates_compare)

    p_demo = sub.add_parser("demo", help="worked applications")
    dsub = p_demo.add_subparsers(dest="demo_command", required=True)

    p_port = dsub.add_parser("portfolio", help="signed asset-combination register")
    p_port.add_argument("--assets", default=None,
                        help="comma-separated values (per-group normalized unless --raw)")
    p_port.add_argument("--raw", action="store_true",
                        help="sort/group/normalize the given values first")
    p_port.add_argument("--shots", type=int, default=100000)
    common(p_port)
    p_port.set_defaults(func=cmd_demo_portfolio)

    p_sig = dsub.add_parser("signal", help="frequency-domain affine filter")
    p_sig.add_argument("--length", type=int, default=64)
    p_sig.add_argument("--scale-a", type=float, default=0.7)
    p_sig.add_argument("--bias-b", type=float, default=0.1)
    common(p_sig)
    p_sig.set_defaults(func=cmd_demo_signal)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"{exc.name}: {exc}", file=sys.stderr)
        return 2
    except (CapacityError, MemoryError) as exc:
        print(f"{CapacityError.name}: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 4
    except QAffineError as exc:
        print(f"{exc.name}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
