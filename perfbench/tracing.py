"""Per-layer spans recorded from outside the program.

The tracer replaces the public functions of each ``routegame`` module by
recording wrappers at every module attribute that binds them (for
example ``routegame.analysis.solve_equilibrium`` as well as
``routegame.equilibrium.solve_equilibrium``), so calls between layers are
seen without editing the source. Spans (name, start, end, parent, op id)
are kept in memory; only calls made while an operation is active are
recorded, so set-up and correctness checks leave no spans.
"""

from __future__ import annotations

import importlib
import statistics
import sys
from time import perf_counter
from typing import Optional

# layer (module) -> traced public functions
TRACED = {
    "cli": ("main", "parse_network_file", "gen_random_parallel"),
    "netmodel": ("validate_network", "enumerate_paths"),
    "calculus": ("check_conditions",),
    "equilibrium": ("solve_equilibrium", "wardrop_residual"),
    "sysopt": ("solve_system_optimum",),
    "analysis": ("sweep_alpha", "detect_critical_share",
                 "monotonicity_report"),
}


def _counts(name: str, result) -> Optional[dict]:
    """Hardware-independent counts taken from a layer's return value (or
    from the result a NotConverged error carries)."""
    if name == "equilibrium.solve_equilibrium" and result is not None:
        return {"iterations": int(result.iterations),
                "converged": bool(result.converged)}
    if name == "netmodel.enumerate_paths" and result is not None:
        return {"paths": int(result.n_paths)}
    return None


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "counts")

    def __init__(self, name: str, parent: int, op: int):
        self.name = name
        self.parent = parent
        self.op = op
        self.start = self.end = 0.0
        self.counts: Optional[dict] = None

    def to_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "op": self.op, "counts": self.counts}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op: Optional[int] = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        originals = {}
        for layer, names in TRACED.items():
            module = importlib.import_module(f"routegame.{layer}")
            for name in names:
                fn = getattr(module, name)
                originals[id(fn)] = self._wrap(f"{layer}.{name}", fn)
        for mod_name, module in list(sys.modules.items()):
            if mod_name.split(".")[0] != "routegame":
                continue
            for attr, value in list(vars(module).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            stack = tracer._stack
            span = Span(name, stack[-1] if stack else -1, tracer.op)
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            result = None
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                result = getattr(exc, "result", None)
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
                span.counts = _counts(name, result)

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced


def layer_metrics(spans: list[Span], n_ops: int,
                  anchors: dict[str, int]) -> dict[str, tuple[float, str]]:
    """Busy time, self time (span minus its direct children) and counts per
    traced function, plus the derived ratios, as (value, unit); ``anchors``
    maps an anchor name to the op id whose solve iterations it reports."""
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child[span.parent] += span.end - span.start
    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    own: dict[str, float] = {}
    for i, span in enumerate(spans):
        dur = span.end - span.start
        calls[span.name] = calls.get(span.name, 0) + 1
        busy[span.name] = busy.get(span.name, 0.0) + dur
        own[span.name] = own.get(span.name, 0.0) + dur - child[i]

    eq = "equilibrium.solve_equilibrium"
    solves = [s for s in spans if s.name == eq]
    iters = [s.counts["iterations"] for s in solves if s.counts]
    converged = sum(1 for s in solves if s.counts and s.counts["converged"])
    bisection = sum(
        1 for s in solves
        if s.parent >= 0
        and spans[s.parent].name == "analysis.detect_critical_share")
    paths = sum(s.counts["paths"] for s in spans
                if s.name == "netmodel.enumerate_paths" and s.counts)

    def n_calls(name: str) -> tuple[float, str]:
        return float(calls.get(name, 0)), "count"

    def busy_s(name: str) -> tuple[float, str]:
        return busy.get(name, 0.0), "s"

    def self_s(name: str) -> tuple[float, str]:
        return own.get(name, 0.0), "s"

    def ratio(num: float, den: float) -> tuple[float, str]:
        return (num / den if den else 0.0), "ratio"

    cc = "calculus.check_conditions"
    wr = "equilibrium.wardrop_residual"
    so = "sysopt.solve_system_optimum"
    m = {
        "cli.main.calls": n_calls("cli.main"),
        "cli.main.self_s": self_s("cli.main"),
        "cli.parse_network_file.busy_s": busy_s("cli.parse_network_file"),
        "cli.gen_random_parallel.busy_s": busy_s("cli.gen_random_parallel"),
        "netmodel.validate_network.busy_s":
            busy_s("netmodel.validate_network"),
        "netmodel.enumerate_paths.busy_s": busy_s("netmodel.enumerate_paths"),
        "netmodel.enumerate_paths.paths": (float(paths), "count"),
        f"{cc}.calls": n_calls(cc),
        f"{cc}.busy_s": busy_s(cc),
        f"{cc}.calls_per_op": ratio(calls.get(cc, 0), n_ops),
        f"{eq}.calls": n_calls(eq),
        f"{eq}.busy_s": busy_s(eq),
        f"{eq}.self_s": self_s(eq),
        "equilibrium.iterations": (float(sum(iters)), "count"),
        "equilibrium.iterations_p50":
            (float(statistics.median(iters)) if iters else 0.0, "count"),
        "equilibrium.s_per_iter":
            (busy.get(eq, 0.0) / sum(iters) if sum(iters) else 0.0, "s"),
        "equilibrium.converged_ratio": ratio(converged, len(solves)),
        f"{wr}.calls": n_calls(wr),
        f"{wr}.busy_s": busy_s(wr),
        f"{so}.calls": n_calls(so),
        f"{so}.busy_s": busy_s(so),
        "analysis.sweep_alpha.self_s": self_s("analysis.sweep_alpha"),
        "analysis.detect_critical_share.self_s":
            self_s("analysis.detect_critical_share"),
        "analysis.detect_critical_share.solves": (float(bisection), "count"),
        "analysis.monotonicity_report.busy_s":
            busy_s("analysis.monotonicity_report"),
    }
    for anchor, op in anchors.items():
        m[f"equilibrium.iterations.{anchor}"] = (float(sum(
            s.counts["iterations"] for s in solves
            if s.op == op and s.counts)), "count")
    return m
