"""Span tracing of the qaffine package from outside it.

Every public module-level function of the package is wrapped in a span.  A
function is patched under every name that refers to it in any package
module, so `from .linalg import is_unitary` in `simulator` is traced as
`linalg.is_unitary` too.  Spans live in memory while the run lasts:

    [name, parent span index or -1, start_ns, end_ns, op id, child_ns]

child_ns sums the durations of the span's direct children, so a span's self
time is (end - start) - child_ns.  Counters of computed work (bytes, flops,
gates) are taken at the same boundaries from the call arguments and results.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

PACKAGE = "qaffine"
LAYERS = (
    "linalg", "simulator", "blockenc", "addsub", "circuits",
    "pipeline", "baseline", "synthesis", "apps", "cli",
)


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _count_gate(counters, args, kwargs, result, controls: bool):
    """Work of one gate application on a D-amplitude state with t targets
    and c controls: the gate acts on D/2^c amplitudes (8 real flops per
    complex multiply-add of a 2^t-row matrix), and the pure function reads
    the whole input state and writes a whole new one (computed, 16 B each)."""
    dim = _arg(args, kwargs, 0, "state").dim
    t = len(_arg(args, kwargs, 2, "targets"))
    c = len(_arg(args, kwargs, 3, "controls")) if controls else 0
    counters["simulator.amps_touched"] += dim >> c
    counters["simulator.flops_computed"] += 8 * (1 << t) * (dim >> c)
    counters["simulator.bytes_computed"] += 32 * dim


def _count_dilation(counters, args, kwargs, result):
    n = np.shape(_arg(args, kwargs, 0, "a"))[0]
    counters["blockenc.dilation_bytes"] += 16 * (2 * n) ** 2


def _count_completion(counters, args, kwargs, result):
    counters["linalg.completion_dim_sum"] += len(_arg(args, kwargs, 0, "v"))


def _count_final_gates(counters, args, kwargs, result):
    if result.circuit is not None:
        counters["circuits.final_gates"] += len(result.circuit.gates)


HOOKS = {
    "simulator.apply_unitary": lambda c, a, k, r: _count_gate(c, a, k, r, False),
    "simulator.apply_controlled": lambda c, a, k, r: _count_gate(c, a, k, r, True),
    "blockenc.block_encode": _count_dilation,
    "linalg.completion_unitary": _count_completion,
    "pipeline.run_pipeline": _count_final_gates,
}


class Tracer:
    """Wraps the package's public functions; `install` and `uninstall`
    switch the wrappers in and out, so untraced code (plain cycles, and the
    checks) runs the original functions with no overhead."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op_id = -1
        self.counters: Counter = Counter()
        self.raised: Counter = Counter()
        modules = [m for k, m in sorted(sys.modules.items()) if k == PACKAGE or k.startswith(PACKAGE + ".")]
        wrappers = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            if layer not in LAYERS:
                continue
            for attr, fn in vars(mod).items():
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not attr.startswith("_"):
                    name = f"{layer}.{attr}"
                    wrappers[fn] = self._wrap(fn, name, HOOKS.get(name))
        self._patches = [
            (mod, attr, fn, wrappers[fn])
            for mod in modules
            for attr, fn in list(vars(mod).items())
            if inspect.isfunction(fn) and fn in wrappers
        ]

    def _wrap(self, fn, name, hook):
        spans, stack, raised, counters = self.spans, self.stack, self.raised, self.counters
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, parent, 0, 0, self.op_id, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised[name] += 1
                raise
            finally:
                rec[3] = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent][5] += rec[3] - rec[2]
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for mod, attr, _fn, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, fn, _wrapper in self._patches:
            setattr(mod, attr, fn)

    def summary(self) -> dict:
        """Per-function calls and self time, per-layer self time, the
        duration of root spans (everything the package did) per op, and how
        many spans have a negative self time (a nesting error)."""
        calls: Counter = Counter()
        self_ns: Counter = Counter()
        root_ns_by_op: Counter = Counter()
        negative_self = 0
        for name, parent, start, end, op, child in self.spans:
            calls[name] += 1
            self_ns[name] += end - start - child
            negative_self += end - start < child
            if parent < 0:
                root_ns_by_op[op] += end - start
        layer_ns: dict[str, int] = defaultdict(int)
        for name, ns in self_ns.items():
            layer_ns[name.split(".", 1)[0]] += ns
        return {
            "calls": dict(calls),
            "self_s": {k: v / 1e9 for k, v in self_ns.items()},
            "layer_self_s": {k: layer_ns.get(k, 0) / 1e9 for k in LAYERS},
            "root_ns_by_op": dict(root_ns_by_op),
            "negative_self": negative_self,
            "counters": dict(self.counters),
            "raised": dict(self.raised),
        }

    def write(self, path: Path) -> None:
        """Spans as JSON lines, one per span, in start order."""
        with open(path, "w") as fh:
            for i, (name, parent, start, end, op, child) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "parent": parent, "name": name, "op": op,
                                     "start_ns": start, "end_ns": end, "self_ns": end - start - child}))
                fh.write("\n")
