"""Closed-loop load generator: one client in one process, the next command
sent only when the previous one has returned.

Commands run in-process through ``routegame.cli.main(argv)`` with stdout
and stderr captured in memory; a command's time runs from the call with
its argv to its exit code. Checks, repeat comparisons and bookkeeping run
between commands, outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from time import perf_counter
from typing import Callable, Optional

import numpy as np

import routegame.cli

import checks
from checks import Outcome
from tracing import Tracer, layer_metrics
from workloads import ANCHORS, Op, Probe, Workload

TAIL_BEYOND = 10        # samples beyond the reported tail percentile
SETUP_SAMPLES = 8       # fresh interpreters timed for setup_s, per group
REPLAY_SHARE = 1 / 3    # share of the run spent on the untraced replay


def invoke(argv: tuple[str, ...]) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    rc: Optional[int] = None
    exc: Optional[str] = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            rc = routegame.cli.main(list(argv))
        except SystemExit as stop:  # argparse usage errors
            rc = stop.code if isinstance(stop.code, int) else 1
        except Exception as error:  # counted as a failed command
            exc = f"{type(error).__name__}: {error}"
        t1 = perf_counter()
    return Outcome(rc, exc, out.getvalue(), err.getvalue(), t1 - t0)


_CHILD = ("import sys; from routegame.cli import main; "
          "sys.exit(main(sys.argv[1:]))")


def _child_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def run_probe(probe: Probe, src: str) -> Outcome:
    if probe.timeout is None:
        return invoke(probe.argv)
    t0 = perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-c", _CHILD, *probe.argv],
            env=_child_env(src), capture_output=True, text=True,
            timeout=probe.timeout)
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        return Outcome(None, f"no exit within {probe.timeout:g} s", "", "",
                       perf_counter() - t0)
    stderr = proc.stderr
    exc = None
    if "Traceback (most recent call last)" in stderr:
        exc = stderr.strip().splitlines()[-1]
    return Outcome(proc.returncode, exc, proc.stdout, stderr,
                   perf_counter() - t0)


_IMPORT = ("from time import perf_counter as now; t0 = now(); "
           "import routegame.cli; print(now() - t0)")


def measure_setup(src: str, warm: bool = True) -> list[float]:
    """Wall time of ``import routegame.cli`` in a fresh interpreter, timed
    inside it: the interpreter's own start-up is not the program's and
    varies with host load twice as much. An untimed start first writes the
    bytecode caches."""
    env = _child_env(src)
    cmd = [sys.executable, "-c", _IMPORT]
    if warm:
        subprocess.run(cmd, env=env, check=True, capture_output=True)
    return [float(subprocess.run(cmd, env=env, check=True,
                                 capture_output=True, text=True).stdout)
            for _ in range(SETUP_SAMPLES)]


class Ledger:
    """Counts attempts, failures and certified work, compares repeated
    commands byte for byte, and keeps the results of the known-defect
    probes apart from the counts."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.work = 0.0
        self.known: Counter = Counter()
        self.probes: list[dict] = []
        self.examples: list[dict] = []
        self._seen: dict[tuple, tuple] = {}

    def reference(self, op, out: Outcome) -> None:
        """Keep an unmeasured run's output as the reference for repeats."""
        self._seen.setdefault(op.argv, (out.rc, out.stdout))

    def record(self, op, out: Outcome) -> None:
        self.attempted += 1
        reason = checks.run_check(op.check, out)
        if reason is None:
            key = (out.rc, out.stdout)
            if self._seen.setdefault(op.argv, key) != key:
                reason = "output differs from an earlier run of the command"
        if reason is None:
            self.work += op.work
            return
        self.failed += 1
        if len(self.examples) < 20:
            self.examples.append(
                {"kind": op.kind, "argv": list(op.argv), "reason": reason})

    def probe(self, probe: Probe, out: Outcome) -> None:
        """A probe that fails its check shows its known defect; one that
        passes shows the defect fixed."""
        reason = checks.run_check(probe.check, out)
        if reason is not None:
            self.known[probe.known_defect] += 1
        self.probes.append({"defect": probe.known_defect,
                            "argv": list(probe.argv), "reason": reason})

    @property
    def correct(self) -> bool:
        return self.failed == 0


def command_times(samples) -> dict[tuple, float]:
    """Median time of each distinct command across its runs, by argv.
    Statistics over these do not depend on how many passes a run made, and
    a burst of load from elsewhere on the host moves them only if it lasts
    for half the run."""
    runs: dict[tuple, list[float]] = {}
    for op, out in samples:
        runs.setdefault(op.argv, []).append(out.seconds)
    return {argv: statistics.median(v) for argv, v in runs.items()}


def tail(times: list[float]) -> tuple[float, float]:
    """Highest percentile with TAIL_BEYOND samples beyond it, no lower than
    the median: (value, percentile)."""
    ordered = sorted(times)
    n = len(ordered)
    k = n - TAIL_BEYOND - 1
    if k < n // 2:
        return statistics.median(ordered), 50.0
    return ordered[k], 100.0 * (n - TAIL_BEYOND) / n


def run_loop(wl: Workload, seconds: float, ledger: Ledger,
             between: Callable[[], None], tracer: Optional[Tracer] = None
             ) -> tuple[list[tuple[Op, Outcome]], int]:
    """Whole passes over the workload's operations, with ``between``
    called after each. The first pass always runs; another starts only if
    the passes are expected to end within ``seconds`` in all. Returns the
    samples and the pass count."""
    samples: list[tuple[Op, Outcome]] = []
    busy = 0.0
    passes = 0
    while True:
        p0 = perf_counter()
        for op in wl.ops:
            if tracer is not None:
                tracer.op = len(samples)
            out = invoke(op.argv)
            if tracer is not None:
                tracer.op = None
            samples.append((op, out))
            ledger.record(op, out)
        passes += 1
        last = perf_counter() - p0
        busy += last
        between()
        if busy + last > seconds:
            return samples, passes


def _machine() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy has no dict form
        blas = "unknown"
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "platform": platform.platform(),
        "loadavg_start": list(os.getloadavg()),
    }


def _per_kind(samples) -> dict:
    kinds: dict[str, list[float]] = {}
    for op, out in samples:
        kinds.setdefault(op.kind, []).append(out.seconds)
    return {k: {"n": len(v), "p50_s": statistics.median(v), "total_s": sum(v)}
            for k, v in sorted(kinds.items())}


def run(wl: Workload, seed: int, seconds: float, trace: bool, src: str,
        record_path: Optional[str] = None) -> dict:
    machine = _machine()
    # set-up is sampled before the loop and after each pass, so that its
    # median spans the run's drift in host load
    setup = measure_setup(src)

    def sample_setup() -> None:
        setup.extend(measure_setup(src, warm=False))

    ledger = Ledger()
    # untimed warm-up; its output is the reference for later runs
    ledger.reference(wl.warmup, invoke(wl.warmup.argv))

    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
        try:
            samples, passes = run_loop(wl, seconds, ledger, sample_setup,
                                       tracer)
        finally:
            tracer.uninstall()
    else:
        samples, passes = run_loop(wl, seconds, ledger, sample_setup)

    for probe in wl.probes:
        ledger.probe(probe, run_probe(probe, src))
    if ledger.known:
        print("known defects seen: " + ", ".join(
            f"{k} x{n}" for k, n in sorted(ledger.known.items())),
            file=sys.stderr)

    total_s = sum(out.seconds for _, out in samples)
    medians = command_times(samples)
    times = list(medians.values())
    p50 = statistics.median(times)
    # a pass with every command at its median time
    pass_s = sum(medians[op.argv] for op in wl.ops)
    tail_s, tail_pct = tail(times)
    record = {
        "workload": wl.name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "machine": machine,
        "setup_samples_s": setup,
        "ops": len(samples), "passes": passes,
        "op_time_total_s": total_s,
        "pass_median_s": pass_s,
        "distinct_commands": len(times),
        "tail": {"percentile": tail_pct, "samples": len(times),
                 "beyond": sum(1 for t in times if t > tail_s)},
        "work": ledger.work, "work_unit": wl.work_unit,
        "attempted": ledger.attempted, "failed": ledger.failed,
        "known_defects": dict(ledger.known),
        "probes": ledger.probes,
        "failure_examples": ledger.examples,
        "per_kind": _per_kind(samples),
    }

    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "op_s_p50": (p50, "s"),
            "op_s_tail": (tail_s, "s"),
            "work_per_s": (ledger.work / passes / pass_s, "1/s"),
            "ok_frac": ((ledger.attempted - ledger.failed) / ledger.attempted,
                        "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
        }
    else:
        metrics = _traced_metrics(samples, tracer, seconds)
        record["spans"] = len(tracer.spans)
        if record_path:
            with open(record_path + ".spans.jsonl", "x",
                      encoding="utf-8") as fh:
                for span in tracer.spans:
                    fh.write(json.dumps(span.to_dict()) + "\n")
    record["metrics"] = {k: {"value": v, "unit": u}
                         for k, (v, u) in metrics.items()}
    if record_path:
        with open(record_path, "x", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
    return {
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": record["metrics"],
    }


def _traced_metrics(samples, tracer: Tracer, seconds: float) -> dict:
    # an anchor's first run; anchors the workload does not run report 0
    anchors = dict.fromkeys(ANCHORS, -1)
    for i, (op, _) in reversed(list(enumerate(samples))):
        if op.anchor:
            anchors[op.anchor] = i
    metrics = layer_metrics(tracer.spans, len(samples), anchors)

    # tracing overhead: replay the first commands untraced, compare medians
    traced, plain = [], []
    budget = seconds * REPLAY_SHARE
    t0 = perf_counter()
    for op, out in samples:
        if perf_counter() - t0 >= budget and plain:
            break
        traced.append(out.seconds)
        plain.append(invoke(op.argv).seconds)
    metrics["trace.op_s_p50"] = (
        statistics.median(command_times(samples).values()), "s")
    metrics["trace.overhead_s"] = (
        statistics.median(traced) - statistics.median(plain), "s")
    return metrics
