"""qaffine benchmark: time to a verified affine image, closed loop.

    python3 perfbench/run.py --workload {wide,deep,physical,apps} \
        --seed N --seconds S --trace {0,1}

One client in one process replays the workload's op cycle (see
workloads.py): each op starts when the previous one has finished, and every
output is checked against an independent reference.  Whole cycles run until
S seconds have passed.  A failing op (it raises, or misses its tolerance)
is counted and the run goes on.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced cycles and prints the per-layer split taken from the traced ones
(values per traced cycle), plus the tracing overhead.  The last stdout line
is one JSON object; results and spans go to perfbench/out/.
"""

from __future__ import annotations

import os
import sys
import time

SETUP_START = time.perf_counter()

# BLAS threads are pinned before numpy is imported: one fixed count,
# never more than the machine has.
BLAS_THREADS = min(2, os.cpu_count() or 1)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import LAYERS, Tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
WORKLOADS = ("wide", "deep", "physical", "apps")
# set-ups per run, this process included; setup_s is their median, because
# one set-up alone varied by 35% (quartile spread) over ten `wide` runs, and
# the median of three still moved by 25% between two sets of ten
SETUP_REPEATS = 5


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up time and exit (used for the repeats)")
    return p.parse_args(argv)


def set_up(args, workdir: Path):
    """Import, input generation from the seed, and warm-up."""
    sys.path.insert(0, str(SRC))
    import numpy as np

    import qaffine  # noqa: F401  (all package modules load here)
    import qaffine.cli  # noqa: F401
    import workloads

    # start the BLAS thread pool and LAPACK's lazy state outside the ops
    m = np.random.default_rng(0).normal(size=(256, 256))
    np.linalg.svd(m @ m)
    np.linalg.qr(m)
    wl = workloads.build(args.workload, args.seed, workdir)
    for op in wl.warmup:
        rec = run_op(op)
        if not rec["ok"]:
            print(f"warm-up {op.kind} failed: {rec['error']}", file=sys.stderr)
    return wl


def run_op(op, tracer=None, op_id=-1) -> dict:
    """Time one op, then check it outside the timed region.  In a traced
    cycle only the op's run() has the span wrappers in, so the checks count
    as harness time."""
    rec = {"kind": op.kind, "ok": False, "dev": None, "error": None, "traced": tracer is not None}
    if tracer is not None:
        tracer.op_id = op_id
        tracer.install()
    t0 = time.perf_counter_ns()
    try:
        out = op.run()
    except Exception as exc:  # the loop must go on: the failure is counted
        rec["error"] = _describe(exc)
    finally:
        rec["run_ns"] = time.perf_counter_ns() - t0
        if tracer is not None:
            tracer.uninstall()
    rec["seconds"] = rec["run_ns"] / 1e9
    if rec["error"] is None:
        try:
            rec["dev"] = op.check(out)
            rec["ok"] = rec["dev"] <= op.tol
            if not rec["ok"]:
                rec["error"] = f"deviation {rec['dev']:.3e} exceeds {op.tol:g}"
        except Exception as exc:
            rec["error"] = _describe(exc)
    return rec


def _describe(exc: Exception) -> str:
    return "".join(traceback.format_exception_only(exc)).strip()


def run_cycle(wl, records, tracer=None) -> float:
    t0 = time.perf_counter()
    for op in wl.cycle:
        rec = run_op(op, tracer, len(records))
        if rec["error"] is not None:
            print(f"op {len(records)} ({rec['kind']}) failed: {rec['error']}", file=sys.stderr)
        records.append(rec)
    return time.perf_counter() - t0


def repeat_setup(args) -> list[float]:
    """Set-up time of fresh processes; each waits for the previous."""
    times = []
    for _ in range(SETUP_REPEATS - 1):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def defect_probe(seed: int) -> tuple[int, int]:
    """Untimed, untraced: how many of the known-defect probe ops fail, of
    how many."""
    import workloads

    ops = workloads.defect_probe(seed)
    return sum(not run_op(op)["ok"] for op in ops), len(ops)


def tail(times: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile, and how many ops lie beyond it."""
    ordered = sorted(times)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def machine_facts() -> dict:
    import numpy as np
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
    }


def end_to_end(records, elapsed, setup_times, tail_pct) -> tuple[dict, dict]:
    times = [r["seconds"] for r in records]
    passed = sum(r["ok"] for r in records)
    tail_s, beyond = tail(times, tail_pct)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (passed / elapsed, "1/s"),
        "op_p50_s": (statistics.median(times), "s"),
        "op_tail_s": (tail_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "pass_ratio": (passed / len(records), "ratio"),
    }
    notes = {"op_tail_percentile": tail_pct, "op_tail_samples_beyond": beyond, "ops": len(records),
             "timed_s": elapsed, "setup_samples_s": setup_times}
    return metrics, notes


PER_FUNCTION = {
    # name: which of calls / self_s to report
    "blockenc.block_encode": ("calls", "self_s"),
    "linalg.spectral_norm": ("calls", "self_s"),
    "linalg.is_unitary": ("calls", "self_s"),
    "linalg.completion_unitary": ("calls", "self_s"),
    "simulator.apply_unitary": ("calls", "self_s"),
    "simulator.apply_controlled": ("calls", "self_s"),
    "simulator.prepend_ancilla": ("self_s",),
    "simulator.sample": ("self_s",),
    "addsub.hadamard_addsub_inplace": ("calls", "self_s"),
    "addsub.hadamard_addsub_fresh": ("calls", "self_s"),
    "circuits.run_gatelist": ("calls", "self_s"),
    "circuits.apply_gate": ("calls",),
    "circuits.gatelist_matrix": ("self_s",),
    "pipeline.run_pipeline": ("calls", "self_s"),
    "pipeline.apply_affine_step": ("self_s",),
    "pipeline.rescale_translation": ("self_s",),
    "pipeline.classical_affine_compose": ("self_s",),
    "baseline.build_augmented": ("self_s",),
    "baseline.run_augmented": ("self_s",),
    "synthesis.compare_methods": ("self_s",),
    "synthesis.lower": ("self_s",),
    "synthesis.synthesize": ("calls",),
    "synthesis.reconstruction_error": ("self_s",),
    "apps.qft": ("calls", "self_s"),
    "apps.signal_filter": ("self_s",),
    "apps.portfolio_circuit": ("self_s",),
    "apps.portfolio_estimate": ("self_s",),
    "cli.parse_problem": ("self_s",),
    "cli.main": ("self_s",),
}
COUNTERS = {
    "blockenc.dilation_bytes": "B/cycle",
    "linalg.completion_dim_sum": "dim/cycle",
    "simulator.amps_touched": "amps/cycle",
    "simulator.bytes_computed": "B/cycle",
    "simulator.flops_computed": "flop/cycle",
}


def per_layer(tracer, records, traced_s, untraced_s, cycles, gate_counts) -> tuple[dict, dict]:
    """Per-layer metrics, per traced cycle."""
    s = tracer.summary()
    metrics = {}
    for name, kinds in PER_FUNCTION.items():
        if "calls" in kinds:
            metrics[f"{name}.calls"] = (s["calls"].get(name, 0) / cycles, "calls/cycle")
        if "self_s" in kinds:
            metrics[f"{name}.self_s"] = (s["self_s"].get(name, 0.0) / cycles, "s/cycle")
    for name, unit in COUNTERS.items():
        metrics[name] = (s["counters"].get(name, 0) / cycles, unit)
    final = s["counters"].get("circuits.final_gates", 0)
    executed = s["calls"].get("circuits.apply_gate", 0)
    metrics["circuits.replay_ratio"] = (executed / final if final else 0.0, "ratio")
    counts = list(gate_counts.values())
    for i, label in enumerate(("seq_gates_total", "seq_gates_multi", "aug_gates_total", "aug_gates_multi")):
        metrics[f"synthesis.{label}"] = (sum(c[i] for c in counts), "gates")
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (s["layer_self_s"][layer] / cycles, "s/cycle")
    # Harness time is what no package span covers.  Most of it is measured
    # by the harness's own clock: the traced cycles' time outside the ops'
    # run() calls (checks, installing the wrappers).  The rest is the glue
    # inside run() (closures, CLI output redirection) around the package's
    # root spans.
    traced = {i: r["run_ns"] for i, r in enumerate(records) if r["traced"]}
    outside_s = traced_s - sum(traced.values()) / 1e9
    glue_ns = {i: ns - s["root_ns_by_op"].get(i, 0) for i, ns in traced.items()}
    # properly nested spans have no negative self time, and an op's root
    # spans fit inside its run() call; spans outside any op are a leak
    overfull = [i for i, ns in glue_ns.items() if ns < 0]
    stray = set(s["root_ns_by_op"]) - set(traced)
    if s["negative_self"] or overfull or stray:
        raise RuntimeError(
            f"span accounting is inconsistent: {s['negative_self']} spans with negative self "
            f"time, {len(overfull)} ops with more span time than run time, spans of ops {sorted(stray)}"
        )
    harness_s = outside_s + sum(glue_ns.values()) / 1e9
    metrics["harness.self_s"] = (harness_s / cycles, "s/cycle")
    metrics["trace.wall_s"] = (traced_s / cycles, "s/cycle")
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    metrics["trace.raised"] = (sum(s["raised"].values()) / cycles, "calls/cycle")
    passing = [r["dev"] for r in records if r["ok"]]
    metrics["verify.max_dev"] = (max(passing) if passing else 0.0, "abs")
    metrics["fail_ratio"] = (sum(not r["ok"] for r in records) / len(records), "ratio")

    largest = max(LAYERS, key=lambda k: s["layer_self_s"][k])
    accounted = sum(s["layer_self_s"].values()) + harness_s
    notes = {
        "largest_self_layer": largest,
        "largest_self_share": s["layer_self_s"][largest] / traced_s,
        "self_plus_harness_s": accounted,
        "harness_outside_run_s": outside_s,
        "harness_glue_s": harness_s - outside_s,
        "traced_wall_s": traced_s,
        "raised_by_function": s["raised"],
        "calls": s["calls"],
        "self_s": s["self_s"],
    }
    return metrics, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qaffine" / "__init__.py").is_file():
        print(f"qaffine sources not found under {SRC}", file=sys.stderr)
        return 2
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    try:
        wl = set_up(args, workdir)
        setup_s = time.perf_counter() - SETUP_START
        if args.setup_only:
            print(repr(setup_s))
            return 0
        # set-up time is an end-to-end metric, so a traced run skips the repeats
        setup_times = [setup_s] + ([] if args.trace else repeat_setup(args))
        return measure(args, wl, setup_times, tag)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, wl, setup_times, tag) -> int:
    tracer = Tracer() if args.trace else None
    records: list[dict] = []
    cycle_s = {False: [], True: []}
    start = time.perf_counter()
    while True:
        # in a traced run, odd cycles are traced and even ones are not
        traced = bool(args.trace) and len(cycle_s[False]) > len(cycle_s[True])
        cycle_s[traced].append(run_cycle(wl, records, tracer if traced else None))
        elapsed = time.perf_counter() - start
        if elapsed >= args.seconds and (not args.trace or len(cycle_s[True]) == len(cycle_s[False])):
            break

    attempted = len(records)
    failed = sum(not r["ok"] for r in records)
    e2e, notes = end_to_end(records, elapsed, setup_times, wl.tail_pct)
    probe_failed, probe_ops = defect_probe(args.seed)
    notes["sigma_one_probe_failed"] = [probe_failed, probe_ops]
    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine_facts(), "end_to_end": e2e, "notes": notes,
              "gate_counts": wl.gate_counts}
    by_kind: dict[str, list[float]] = {}
    for r in records:
        by_kind.setdefault(r["kind"], []).append(r["seconds"])
    result["op_p50_by_kind_s"] = {k: statistics.median(v) for k, v in by_kind.items()}

    report = [f"workload {args.workload}, seed {args.seed}, {len(cycle_s[False]) + len(cycle_s[True])} cycles "
              f"of {len(wl.cycle)} ops, {attempted} ops in {elapsed:.2f} s, {failed} failed"]
    report += [f"  {k:<28} p50 {v:.4f} s" for k, v in result["op_p50_by_kind_s"].items()]
    report.append(f"  known defect: {probe_failed} of {probe_ops} dense sigma_max=1 probe steps fail, "
                  "not counted in this run's ops (perfbench/README.md)")
    if args.trace:
        layer, lnotes = per_layer(tracer, records, sum(cycle_s[True]), sum(cycle_s[False]),
                                  len(cycle_s[True]), wl.gate_counts)
        layer["pipeline.sigma_one_probe_fail_ratio"] = (probe_failed / probe_ops, "ratio")
        result["per_layer"], result["trace_notes"] = layer, lnotes
        shown = layer
        report.append(f"  largest self time: {lnotes['largest_self_layer']} "
                      f"({100 * lnotes['largest_self_share']:.1f}% of traced wall)")
        report.append(f"  layer self + harness = {lnotes['self_plus_harness_s']:.4f} s, "
                      f"traced wall = {lnotes['traced_wall_s']:.4f} s; harness = "
                      f"{lnotes['harness_outside_run_s']:.4f} s outside op calls (own clock) + "
                      f"{lnotes['harness_glue_s']:.4f} s of glue inside them")
        if lnotes["raised_by_function"]:
            report.append(f"  raised: {lnotes['raised_by_function']}")
    else:
        shown = e2e
        report.append(f"  op_tail_s is p{notes['op_tail_percentile']:g} with "
                      f"{notes['op_tail_samples_beyond']} ops beyond it")
    report += [f"  {k:<40} {v:.6g} {u}" for k, (v, u) in shown.items()]
    report.append("  machine: " + ", ".join(f"{k}={v}" for k, v in result["machine"].items()))

    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"result-{tag}.json", "w") as fh:
        json.dump(result, fh, indent=1, default=str)
    if args.trace:
        tracer.write(OUT / f"spans-{tag}.jsonl")
    print("\n".join(report))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
