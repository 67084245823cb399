"""Per-operation correctness checks.

Every check takes the ``Outcome`` of one CLI command and returns ``None``
when the output is correct, else a one-line reason. Checks never raise:
``run_check`` turns an exception inside a check into a failure reason, so
a malformed output counts as a failed operation instead of stopping the
run. Checks run outside the timed region.

Ground truth comes from outside the solver: closed forms of the bundled
fixtures, the brute-force optimum oracle, and certificates recomputed
from the emitted flows (Wardrop residual, VI gap, Frank-Wolfe gap, flow
conservation).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from routegame.calculus import FlowProfile
from routegame.equilibrium import vi_gap, wardrop_residual
from routegame.oracle import brute_force_optimum

# Output is printed with 12 significant digits; certificates recomputed
# from rounded flows may exceed the solver's stopping rule by this much,
# relative to the cost scale.
ROUNDING_SLACK = 1e-9
# The optimum solver stops at a Frank-Wolfe gap of 1e-9 * (1 + T).
FW_TOL = 1e-9
CLOSED_FORM_TOL = 1e-9
CRITICAL_SHARE_TOL = 1e-4


@dataclass
class Outcome:
    """What one CLI command did: exit code (None when it raised), the
    exception text, captured stdout and stderr, and its wall time."""

    rc: Optional[int]
    exc: Optional[str]
    stdout: str
    stderr: str
    seconds: float


Check = Callable[[Outcome], Optional[str]]


def run_check(check: Check, out: Outcome) -> Optional[str]:
    try:
        return check(out)
    except Exception as exc:  # a garbled output must count, not crash
        return f"output not checkable: {type(exc).__name__}: {exc}"


def _exit(out: Outcome, expected: int) -> Optional[str]:
    if out.exc is not None:
        return f"uncaught exception: {out.exc}"
    if out.rc != expected:
        return f"exit code {out.rc}, expected {expected}"
    return None


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def solve_check(net, inc, alpha: float, tol: float = 1e-8) -> Check:
    """Converged, and the Wardrop residual and VI gap recomputed from the
    emitted path flows meet the solver's stopping rule."""
    ods = tuple(od.with_share(alpha) for od in net.od_pairs)
    demand = net.total_demand()

    def check(out: Outcome) -> Optional[str]:
        bad = _exit(out, 0)
        if bad:
            return bad
        doc = json.loads(out.stdout)
        if doc["converged"] is not True:
            return "not converged"
        z = FlowProfile(
            zS=np.array([p["zS"] for p in doc["paths"]], dtype=float),
            zC=np.array([p["zC"] for p in doc["paths"]], dtype=float),
        )
        fTH = sum(l["fS"] * l["d"] + l["fC"] * l["m"] for l in doc["links"])
        slack = ROUNDING_SLACK * (1.0 + abs(doc["mu"]))
        wr = wardrop_residual(net, inc, ods, z)
        gap = vi_gap(net, inc, ods, z)
        if not wr <= tol + slack:
            return f"Wardrop residual {wr:.3e} above {tol:.1e}"
        if not gap <= tol * (1.0 + fTH) + slack * max(demand, 1.0):
            return f"VI gap {gap:.3e} above the stopping rule"
        return None

    return check


# ---------------------------------------------------------------------------
# sweep, critical-share, monotonicity
# ---------------------------------------------------------------------------


def parse_sweep_csv(text: str, n_links: int, grid: int) -> list[list[str]]:
    """Rows of a sweep CSV after checking its shape; raises ValueError."""
    lines = text.splitlines()
    width = 6 + 5 * n_links
    if len(lines) != grid + 1:
        raise ValueError(f"{len(lines) - 1} rows, expected {grid}")
    header = lines[0].split(",")
    if len(header) != width or header[:2] != ["alpha", "poa"]:
        raise ValueError("bad header")
    rows = [line.split(",") for line in lines[1:]]
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ValueError(f"row {i} has {len(row)} fields")
        if row[5] not in ("true", "false"):
            raise ValueError(f"row {i}: bad converged field {row[5]!r}")
        values = [float(v) for v in row[:5] + row[6:]]
        if not all(math.isfinite(v) for v in values):
            raise ValueError(f"row {i}: non-finite value")
    return rows


def sweep_check(n_links: int, fixture: str, grid: int = 101) -> Check:
    """Every row converged on the expected alpha grid, with the closed-form
    PoA of ``case_a`` (8/7 at alpha 0) and ``case_b`` (24/23 up to 1/2)."""
    alphas = np.linspace(0.0, 1.0, grid)

    def check(out: Outcome) -> Optional[str]:
        bad = _exit(out, 0)
        if bad:
            return bad
        try:
            rows = parse_sweep_csv(out.stdout, n_links, grid)
        except ValueError as exc:
            return f"corrupt sweep CSV: {exc}"
        for row, alpha in zip(rows, alphas):
            if float(row[0]) != float(f"{alpha:.12g}"):
                return f"alpha {row[0]} off the grid"
            if row[5] != "true":
                return f"sweep point alpha={row[0]} not converged"
        poa = [float(row[1]) for row in rows]
        if fixture == "case_a" and abs(poa[0] - 8.0 / 7.0) > CLOSED_FORM_TOL:
            return f"case_a PoA(0) = {poa[0]!r}, expected 8/7"
        if fixture == "case_b":
            for p, alpha in zip(poa, alphas):
                if alpha <= 0.5 and abs(p - 24.0 / 23.0) > CLOSED_FORM_TOL:
                    return f"case_b PoA({alpha:g}) = {p!r}, expected 24/23"
        return None

    return check


# closed-form critical shares of the bundled fixtures
CRITICAL_SHARES = {"case_a": 0.0, "case_b": 0.5, "example1": 0.25}


def critical_share_check(fixture: str) -> Check:
    def check(out: Outcome) -> Optional[str]:
        bad = _exit(out, 0)
        if bad:
            return bad
        doc = json.loads(out.stdout)
        if doc["poa_flat_ok"] is not True:
            return "PoA not flat below the critical share"
        expected = CRITICAL_SHARES.get(fixture)
        if expected is not None:
            if abs(doc["alpha_tilde"] - expected) > CRITICAL_SHARE_TOL:
                return (f"alpha~ = {doc['alpha_tilde']!r}, "
                        f"expected {expected}")
        return None

    return check


_MONOTONE_FLAGS = ("poa_nonincreasing", "theta_nonincreasing",
                   "mu_nondecreasing", "fS_link_nonincreasing",
                   "fC_link_nondecreasing", "support_nesting_ok")


def monotonicity_check(exploratory: bool) -> Check:
    """All checks hold on parallel networks; exploratory runs on general
    networks record observations, so only their form is checked."""

    def check(out: Outcome) -> Optional[str]:
        bad = _exit(out, 0)
        if bad:
            return bad
        doc = json.loads(out.stdout)
        if doc["exploratory"] is not exploratory:
            return "wrong exploratory flag"
        if not exploratory:
            failed = [k for k in _MONOTONE_FLAGS if doc[k] is not True]
            if failed:
                return f"monotonicity fails: {', '.join(failed)}"
        return None

    return check


# ---------------------------------------------------------------------------
# certify: gen, validate, check, optimum, malformed files
# ---------------------------------------------------------------------------


def gen_check(expected_text: str) -> Check:
    def check(out: Outcome) -> Optional[str]:
        bad = _exit(out, 0)
        if bad:
            return bad
        if out.stdout != expected_text:
            return "gen output differs from the same command at set-up"
        return None

    return check


def validate_ok_check(out: Outcome) -> Optional[str]:
    bad = _exit(out, 0)
    if bad:
        return bad
    if json.loads(out.stdout) != {"valid": True, "violations": []}:
        return "valid network reported invalid"
    return None


def conditions_ok_check(out: Outcome) -> Optional[str]:
    bad = _exit(out, 0)
    if bad:
        return bad
    doc = json.loads(out.stdout)
    if not (doc["convexity_ok"] and doc["strong_mono_ok"]):
        return "conditions not certified on a certifiable network"
    if not (doc["c"] > 0.0 and doc["Q"] >= doc["c"]):
        return f"bad constants c={doc['c']!r} Q={doc['Q']!r}"
    return None


def _poly(coeffs: np.ndarray, F: np.ndarray, order: int) -> np.ndarray:
    a0, a1, a2, a3 = coeffs.T
    if order == 0:
        return a0 + F * (a1 + F * (a2 + F * a3))
    return a1 + F * (2.0 * a2 + F * 3.0 * a3)


def _min_path_cost(doc: dict, cost: dict, origin: str, dest: str) -> float:
    """Cheapest origin-destination path under link costs (Bellman-Ford;
    costs are positive, so simple and general paths agree)."""
    dist = {node: math.inf for node in doc["nodes"]}
    dist[origin] = 0.0
    for _ in range(len(doc["nodes"])):
        changed = False
        for link in doc["links"]:
            alt = dist[link["tail"]] + cost[link["id"]]
            if alt < dist[link["head"]]:
                dist[link["head"]] = alt
                changed = True
        if not changed:
            break
    return dist[dest]


def optimum_check(doc: dict, net=None, inc=None) -> Check:
    """Flow conservation, the reported total delay, and the Frank-Wolfe gap
    recomputed from the emitted link loads. On two-link networks
    (``net``/``inc`` given) the optimum must also be no worse than the
    brute-force grid optimum."""
    (od,) = doc["od_pairs"]
    demand = float(od["demand"])
    coeffs = np.array([link["delay"] for link in doc["links"]], dtype=float)
    oracle_T = None
    if net is not None:
        _, oracle_T = brute_force_optimum(net, inc, demand)

    def check(out: Outcome) -> Optional[str]:
        bad = _exit(out, 0)
        if bad:
            return bad
        res = json.loads(out.stdout)
        ids = [link["id"] for link in doc["links"]]
        if [link["id"] for link in res["links"]] != ids:
            return "link list differs from the input"
        F = np.array([link["F"] for link in res["links"]], dtype=float)
        T = float(res["total_delay_min"])
        scale = max(demand, 1.0)
        if F.min(initial=0.0) < -1e-12 * scale:
            return "negative link load"
        balance = {node: 0.0 for node in doc["nodes"]}
        for link, f in zip(doc["links"], F):
            balance[link["tail"]] -= f
            balance[link["head"]] += f
        balance[od["origin"]] += demand
        balance[od["destination"]] -= demand
        if max(abs(v) for v in balance.values()) > 1e-9 * scale:
            return "flow conservation violated"
        T_re = float(np.sum(F * _poly(coeffs, F, 0)))
        if abs(T_re - T) > 1e-9 * (1.0 + T):
            return f"total delay {T!r} does not match the loads ({T_re!r})"
        t = _poly(coeffs, F, 0) + F * _poly(coeffs, F, 1)
        cost = dict(zip(ids, t))
        gap = float(F @ t) - demand * _min_path_cost(
            doc, cost, od["origin"], od["destination"])
        if gap > (FW_TOL + ROUNDING_SLACK) * (1.0 + T):
            return f"Frank-Wolfe gap {gap:.3e} above the stopping rule"
        if oracle_T is not None and T > oracle_T + 1e-9 * (1.0 + T):
            return f"optimum {T!r} worse than the grid oracle {oracle_T!r}"
        return None

    return check


def rejected_check(command: str, semantic: bool) -> Check:
    """A malformed file exits 3 with no traceback. ``check`` explains on a
    single stderr line; ``validate`` of a file that parses but breaks an
    invariant reports the violations as JSON on stdout instead."""

    def check(out: Outcome) -> Optional[str]:
        bad = _exit(out, 3)
        if bad:
            return bad
        if command == "validate" and semantic:
            if json.loads(out.stdout).get("valid") is not False:
                return "violations not reported"
            return None
        lines = out.stderr.splitlines()
        if len(lines) != 1 or not lines[0].startswith("error:"):
            return f"message is {len(lines)} lines, expected one"
        return None

    return check
