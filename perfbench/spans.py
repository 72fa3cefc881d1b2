"""Span tracing around calls into hypq's layers, installed from outside the package.

A Tracer keeps every span in memory (name, start, end, parent, op id) in flat
arrays and a few counters recorded at the same boundaries.  ``install``
replaces each hooked function at every hypq module that binds it (found by
identity, so ``from .quad import _adaptive`` aliases are covered too) and
returns a handle whose ``restore`` puts the originals back.  Hooks whose
target no longer exists are skipped and listed, so the tracer degrades
instead of failing when the package is refactored.  Not thread-safe: the
workloads run single-threaded.
"""
from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter

import numpy as np

KERNEL_EVAL = "kernels.eval"

# (module, attribute, hook kind, span name)
HOOKS = (
    ("hypq.special", "complex_gamma", "span", "special.complex_gamma"),
    ("hypq.special", "double_sine", "span", "special.double_sine"),
    ("hypq.quad", "_adaptive", "span", "quad.adaptive"),
    ("hypq.quad", "_eval_batch", "eval_batch", "quad.integrand"),
    ("hypq.operators", "pair_transform", "pair_transform", "operators.pair_transform"),
    ("hypq.operators", "apply_Q", "apply_Q", "operators.apply_Q"),
    ("hypq.operators", "qq_convolution_kernel", "span", "operators.qq_convolution_kernel"),
    ("hypq.operators", "apply_Lambda", "span", "operators.apply_Lambda"),
    ("hypq.wavefn", "psi_hr", "span", "wavefn.psi_hr"),
    ("hypq.wavefn", "psi_mb", "span", "wavefn.psi_mb"),
    # real-axis and pointwise kernel/measure evaluators
    ("hypq.kernels", "kernel_K", "kernel_eval", KERNEL_EVAL),
    ("hypq.kernels", "kernel_K_complex", "kernel_eval", KERNEL_EVAL),
    ("hypq.kernels", "kernel_hatK", "kernel_eval", KERNEL_EVAL),
    ("hypq.kernels", "kernel_Kg", "kernel_eval", KERNEL_EVAL),
    ("hypq.kernels", "ln_cosh", "kernel_eval", KERNEL_EVAL),
    ("hypq.kernels", "_hatK_vec", "kernel_eval", KERNEL_EVAL),
    ("hypq.kernels", "_hatK_real_vec", "kernel_eval", KERNEL_EVAL),
    ("hypq.kernels", "measure_hyperbolic", "kernel_eval", KERNEL_EVAL),
    ("hypq.kernels", "measure_gamma", "kernel_eval", KERNEL_EVAL),
    ("hypq.kernels", "measure_relativistic", "kernel_eval", KERNEL_EVAL),
    ("hypq.kernels", "ln_measure_hyperbolic", "kernel_eval", KERNEL_EVAL),
    ("hypq.kernels", "ln_measure_gamma", "kernel_eval", KERNEL_EVAL),
    ("hypq.kernels", "ln_measure_relativistic", "kernel_eval", KERNEL_EVAL),
    # Chebyshev proxies: factories return evaluators, lookups hit or build
    ("hypq.kernels", "hatK_ln_evaluator", "proxy_lookup_factory", "kernels.proxy.lookup"),
    ("hypq.kernels", "_kg_real_tables", "proxy_lookup", "kernels.proxy.lookup"),
    ("hypq.kernels", "kg_ln_evaluator", "factory", KERNEL_EVAL),
    ("hypq.kernels", "kg_real_evaluator", "factory", KERNEL_EVAL),
    ("hypq.kernels", "_PiecewiseCheb", "proxy_build", "kernels.proxy.build"),
)


class Tracer:
    """In-memory span store plus counters, one per traced process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op_counts: Counter = Counter()
        self.ops: list[str] = ["setup"]
        self.current_op = 0

    # -- recording ---------------------------------------------------------

    def begin_op(self, label: str) -> int:
        """Start a new op: later spans carry its id until the next op."""
        self.ops.append(label)
        self.current_op = len(self.ops) - 1
        return self.current_op

    def begin(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.current_op)
        self.end.append(float("nan"))
        self.stack.append(idx)
        self.start.append(self.clock())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self.stack.pop()

    def inside(self, name: str) -> bool:
        """True if the innermost open span has this name."""
        return bool(self.stack) and self.names[self.name[self.stack[-1]]] == name

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] += n
        self.op_counts[(self.current_op, key)] += n

    # -- analysis ----------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
        }

    def by_name(self) -> dict[str, dict]:
        """calls, total and self seconds per span name."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        own = self_times(a["start"], a["end"], a["parent"])
        out = {}
        for nid, nm in enumerate(self.names):
            sel = a["name"] == nid
            out[nm] = {
                "calls": int(sel.sum()),
                "total_s": float(dur[sel].sum()),
                "self_s": float(own[sel].sum()),
            }
        return out

    def op_totals(self, span_name: str) -> dict[str, float]:
        """Summed duration of the named root spans, keyed by op label."""
        a = self.arrays()
        nid = self._name_ids.get(span_name)
        out: dict[str, float] = {}
        if nid is None:
            return out
        for i in np.flatnonzero(a["name"] == nid):
            label = self.ops[a["op"][i]]
            out[label] = out.get(label, 0.0) + float(a["end"][i] - a["start"][i])
        return out

    def op_count_totals(self, key: str) -> dict[str, int]:
        out: dict[str, int] = {}
        for (op, k), n in self.op_counts.items():
            if k == key:
                label = self.ops[op]
                out[label] = out.get(label, 0) + n
        return out

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names, dtype=str),
            ops=np.array(self.ops, dtype=str),
            **self.arrays(),
        )


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the part of it that its children cover.

    Child intervals are clipped to the parent and merged, so overlapping
    children are not subtracted twice.
    """
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    parent = np.asarray(parent)
    own = end - start
    kids = np.flatnonzero(parent >= 0)
    if kids.size == 0:
        return own
    order = kids[np.lexsort((start[kids], parent[kids]))]
    cur_parent, cur_lo, cur_hi = -1, 0.0, 0.0
    for k in order.tolist():
        p = int(parent[k])
        lo = max(start[k], start[p])
        hi = min(end[k], end[p])
        if p != cur_parent:
            if cur_parent >= 0:
                own[cur_parent] -= cur_hi - cur_lo
            cur_parent, cur_lo, cur_hi = p, lo, max(lo, hi)
        elif lo > cur_hi:
            own[p] -= cur_hi - cur_lo
            cur_lo, cur_hi = lo, max(lo, hi)
        else:
            cur_hi = max(cur_hi, hi)
    own[cur_parent] -= cur_hi - cur_lo
    return own


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------


def _span(t: Tracer, fn, name: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = t.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            t.finish(idx)

    return wrapper


def _apply_q(t: Tracer, fn, name: str):
    @functools.wraps(fn)
    def wrapper(spec, *args, **kwargs):
        idx = t.begin(f"{name}.n{spec.arity}")
        try:
            return fn(spec, *args, **kwargs)
        finally:
            t.finish(idx)

    return wrapper


def _pair_transform(t: Tracer, fn, name: str):
    @functools.wraps(fn)
    def wrapper(kind, c_kernel, delta, v, *args, **kwargs):
        t.count("operators.pair_transform.v_points", int(np.size(v)))
        idx = t.begin(name)
        try:
            return fn(kind, c_kernel, delta, v, *args, **kwargs)
        finally:
            t.finish(idx)

    return wrapper


def _kernel_eval(t: Tracer, fn, name: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        # points are counted once, at the outermost evaluator
        if args and not t.inside(name):
            t.count("kernels.eval.points", int(np.size(args[0])))
        idx = t.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            t.finish(idx)

    return wrapper


def _factory(t: Tracer, fn, name: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return _kernel_eval(t, fn(*args, **kwargs), KERNEL_EVAL)

    return wrapper


def _proxy_lookup(t: Tracer, fn, name: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        builds = t.counts["kernels.proxy.builds"]
        idx = t.begin(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            t.finish(idx)
        t.count("kernels.proxy.lookups")
        if t.counts["kernels.proxy.builds"] == builds:
            t.count("kernels.proxy.hits")
        return out

    return wrapper


def _proxy_lookup_factory(t: Tracer, fn, name: str):
    return _factory(t, _proxy_lookup(t, fn, name), KERNEL_EVAL)


def _proxy_build(t: Tracer, cls, name: str):
    def __init__(self, *args, **kwargs):
        idx = t.begin(name)
        try:
            cls.__init__(self, *args, **kwargs)
        finally:
            t.finish(idx)
        t.count("kernels.proxy.builds")

    return type(cls.__name__, (cls,), {"__init__": __init__, "__module__": cls.__module__})


def _eval_batch(t: Tracer, fn, name: str):
    @functools.wraps(fn)
    def wrapper(f, x, *args, **kwargs):
        calls = 0

        def counted(v):
            nonlocal calls
            calls += 1
            return f(v)

        idx = t.begin(name)
        try:
            y = fn(counted, x, *args, **kwargs)
        finally:
            t.finish(idx)
        n = int(np.size(x))
        t.count("quad.nodes", n)
        t.count("quad.batches")
        if calls > 1:  # the array call failed and each node was evaluated alone
            t.count("quad.scalar_nodes", n)
        return y

    return wrapper


_KINDS = {
    "span": _span,
    "apply_Q": _apply_q,
    "pair_transform": _pair_transform,
    "kernel_eval": _kernel_eval,
    "factory": _factory,
    "proxy_lookup": _proxy_lookup,
    "proxy_lookup_factory": _proxy_lookup_factory,
    "proxy_build": _proxy_build,
    "eval_batch": _eval_batch,
}


class Installed:
    """Handle for installed wrappers; ``restore`` undoes every replacement."""

    def __init__(self):
        self.patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def restore(self) -> None:
        for mod, attr, original in reversed(self.patches):
            setattr(mod, attr, original)
        self.patches.clear()


def hypq_modules() -> list:
    return [
        m
        for name, m in sorted(sys.modules.items())
        if m is not None and (name == "hypq" or name.startswith("hypq."))
    ]


def install(t: Tracer, hooks=HOOKS) -> Installed:
    """Wrap every hooked function at every hypq module that binds it."""
    handle = Installed()
    modules = hypq_modules()
    for mod_name, attr, kind, span_name in hooks:
        home = sys.modules.get(mod_name)
        original = getattr(home, attr, None) if home is not None else None
        if original is None:
            handle.missing.append(f"{mod_name}.{attr}")
            continue
        wrapped = _KINDS[kind](t, original, span_name)
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is original:
                    handle.patches.append((mod, key, val))
                    setattr(mod, key, wrapped)
    return handle


def layer_metrics(t: Tracer, check_names=()) -> dict[str, float]:
    """Per-layer metrics from one traced run (names as in BENCHMARK.json)."""
    spans = t.by_name()

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def own(name):
        return spans.get(name, {}).get("self_s", 0.0)

    m: dict[str, float] = {
        "quad.adaptive.calls": calls("quad.adaptive"),
        "quad.adaptive.self_s": own("quad.adaptive"),
        "quad.integrand_s": own("quad.integrand"),
        "quad.nodes": t.counts["quad.nodes"],
        "quad.batches": t.counts["quad.batches"],
        "quad.scalar_nodes": t.counts["quad.scalar_nodes"],
        "operators.pair_transform.v_points": t.counts["operators.pair_transform.v_points"],
    }
    for op in (
        "operators.pair_transform",
        "operators.apply_Q.n1",
        "operators.apply_Q.n2",
        "operators.qq_convolution_kernel",
        "operators.apply_Lambda",
        "special.complex_gamma",
        "special.double_sine",
        "wavefn.psi_hr",
        "wavefn.psi_mb",
    ):
        m[f"{op}.calls"] = calls(op)
        m[f"{op}.self_s"] = own(op)
    lookups = t.counts["kernels.proxy.lookups"]
    m.update(
        {
            "kernels.eval.points": t.counts["kernels.eval.points"],
            "kernels.eval_s": own(KERNEL_EVAL),
            "kernels.proxy.builds": t.counts["kernels.proxy.builds"],
            "kernels.proxy.lookups": lookups,
            "kernels.proxy.hits": t.counts["kernels.proxy.hits"],
            "kernels.proxy.hit_ratio": t.counts["kernels.proxy.hits"] / lookups if lookups else 0.0,
            "kernels.proxy.build_s": spans.get("kernels.proxy.build", {}).get("total_s", 0.0),
        }
    )
    per_check = t.op_totals("suite.check")
    nodes = t.op_count_totals("quad.nodes")
    for name in check_names:
        m[f"suite.check.{name}.s"] = per_check.get(name, 0.0)
        m[f"suite.check.{name}.nodes"] = nodes.get(name, 0)
    return m
