"""Command-line front end.

Reads network description files (strict JSON: nodes, links with 4-vector
delay coefficients, OD pairs), dispatches the solver and analysis runs,
and emits machine-readable results: CSV for sweeps, JSON mirroring the
report types otherwise. The sweep-based commands (sweep, critical-share,
monotonicity) solve all fleet shares of the grid in lock-step. All
floating-point output uses 12 significant digits, so identical inputs
produce byte-identical outputs. Progress and diagnostics go to standard
error only.

Exit codes: 0 success, 1 assumption violation (e.g. monotonicity on a
non-parallel network without --exploratory, failed operator conditions,
more paths than explicit enumeration allows, or oracle-compare beyond one
OD pair, three paths or the oracle's grid size), 2 solver
non-convergence (also when any share of a sweep did not converge), 3 usage
error, I/O, parse or validation failure, explained on a single stderr
line.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from typing import Optional, Sequence

import numpy as np

from . import analysis, oracle
from .calculus import (
    check_conditions,
    coefficient_table,
    link_costs,
    total_delay,
)
from .equilibrium import (
    ConditionsUnverified,
    NotConverged,
    solve_equilibrium,
)
from .netmodel import (
    DelayPoly,
    IncidenceStructure,
    Link,
    Network,
    OdSpec,
    PathCountExceeded,
    enumerate_paths,
    validate_network,
)
from .sysopt import solve_system_optimum

EXIT_OK = 0
EXIT_ASSUMPTION = 1
EXIT_NOT_CONVERGED = 2
EXIT_IO = 3


class NetworkFormatError(ValueError):
    """Malformed or invalid network description file."""


# ---------------------------------------------------------------------------
# network file format
# ---------------------------------------------------------------------------

_TOP_KEYS = {"name", "nodes", "links", "od_pairs"}
_LINK_KEYS = {"id", "tail", "head", "delay"}
_OD_KEYS = {"origin", "destination", "demand", "fleet_share"}


def parse_network_file(path: str) -> Network:
    """Strict parse of a network description file, then full validation.

    Unknown fields are rejected; any validation violation aborts with the
    report attached to the error message.
    """
    net = _parse_structure(path)
    report = validate_network(net)
    if report:
        raise NetworkFormatError(_invalid_message(path, report))
    return net


def _invalid_message(path: str, report: list[str]) -> str:
    return f"{path}: invalid network: " + "; ".join(report)


def _parse_structure(path: Optional[str]) -> Network:
    if not path:
        raise NetworkFormatError("no network file given (use --network)")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise NetworkFormatError(
            f"{path}: syntax error at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}"
        ) from exc
    except UnicodeDecodeError as exc:
        raise NetworkFormatError(f"{path}: not UTF-8 text: {exc}") from exc

    if not isinstance(raw, dict):
        raise NetworkFormatError(f"{path}: top level must be an object")
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise NetworkFormatError(
            f"{path}: unknown fields {sorted(unknown)}")
    for key in ("nodes", "links", "od_pairs"):
        if key not in raw:
            raise NetworkFormatError(f"{path}: missing field '{key}'")
        if not isinstance(raw[key], list):
            raise NetworkFormatError(f"{path}: '{key}' must be a list")

    links = []
    for i, entry in enumerate(raw["links"]):
        if not isinstance(entry, dict):
            raise NetworkFormatError(f"{path}: link {i}: must be an object")
        unknown = set(entry) - _LINK_KEYS
        if unknown:
            raise NetworkFormatError(
                f"{path}: link {i}: unknown fields {sorted(unknown)}")
        missing = _LINK_KEYS - set(entry)
        if missing:
            raise NetworkFormatError(
                f"{path}: link {i}: missing fields {sorted(missing)}")
        delay = entry["delay"]
        if not isinstance(delay, list) or len(delay) != 4:
            raise NetworkFormatError(
                f"{path}: link {i}: delay must have 4 coefficients")
        links.append(Link(
            id=str(entry["id"]), tail=str(entry["tail"]),
            head=str(entry["head"]),
            delay=DelayPoly(tuple(
                _number(c, f"{path}: link {i}: delay") for c in delay)),
        ))

    ods = []
    for i, entry in enumerate(raw["od_pairs"]):
        if not isinstance(entry, dict):
            raise NetworkFormatError(
                f"{path}: od pair {i}: must be an object")
        unknown = set(entry) - _OD_KEYS
        if unknown:
            raise NetworkFormatError(
                f"{path}: od pair {i}: unknown fields {sorted(unknown)}")
        for key in ("origin", "destination", "demand"):
            if key not in entry:
                raise NetworkFormatError(
                    f"{path}: od pair {i}: missing field '{key}'")
        ods.append(OdSpec(
            origin=str(entry["origin"]),
            destination=str(entry["destination"]),
            demand_total=_number(entry["demand"],
                                 f"{path}: od pair {i}: demand"),
            fleet_share=_number(entry.get("fleet_share", 0.0),
                                f"{path}: od pair {i}: fleet_share"),
        ))

    return Network(
        nodes=tuple(str(n) for n in raw["nodes"]),
        links=tuple(links),
        od_pairs=tuple(ods),
        name=str(raw.get("name", "")),
    )


def _number(value, where: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise NetworkFormatError(f"{where}: {exc}") from exc


def network_to_dict(net: Network) -> dict:
    return {
        "name": net.name,
        "nodes": list(net.nodes),
        "links": [
            {"id": link.id, "tail": link.tail, "head": link.head,
             "delay": [_num(c) for c in link.delay.coefficients]}
            for link in net.links
        ],
        "od_pairs": [
            {"origin": od.origin, "destination": od.destination,
             "demand": _num(od.demand_total),
             "fleet_share": _num(od.fleet_share)}
            for od in net.od_pairs
        ],
    }


def gen_random_parallel(seed: int, n_links: int, D: float) -> Network:
    """Random valid parallel network from a seeded PCG64 generator.

    Coefficients are uniform draws a0 in [0, 2], a1 in [0.1, 2],
    a2 in [0, 0.5], a3 in [0, 0.1] per link. Every draw is valid and
    satisfies the operator conditions, since a1 >= 0.1 exceeds
    ``calculus.STRICTNESS_TOL``.
    """
    if n_links < 2:
        raise ValueError("a parallel instance needs at least 2 links")
    if not (math.isfinite(D) and D >= 0.0):
        raise ValueError("demand must be finite and non-negative")
    rng = np.random.default_rng(seed)
    links = []
    for i in range(n_links):
        coeffs = (rng.uniform(0.0, 2.0), rng.uniform(0.1, 2.0),
                  rng.uniform(0.0, 0.5), rng.uniform(0.0, 0.1))
        links.append(Link(id=f"l{i + 1}", tail="o", head="d",
                          delay=DelayPoly(coeffs)))
    return Network(
        nodes=("o", "d"), links=tuple(links),
        od_pairs=(OdSpec("o", "d", float(D), 0.5),),
        name=f"parallel-s{seed}-n{n_links}",
    )


# ---------------------------------------------------------------------------
# deterministic formatting
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def _num(x: float) -> float:
    """Round-trip a float through the 12-significant-digit form so JSON
    output is byte-identical across runs."""
    return float(_fmt(x))


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, frozenset):
        return sorted(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        return _num(float(obj))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(payload: dict, out: Optional[str]) -> None:
    _emit(json.dumps(_jsonable(payload), indent=2) + "\n", out)


def _log(message: str) -> None:
    print(message, file=sys.stderr)


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------


def _load(args: argparse.Namespace) -> tuple[Network, IncidenceStructure]:
    net = parse_network_file(args.network_path)
    return net, enumerate_paths(net)


def _ods_with_alpha(net: Network, alpha: Optional[float]):
    if alpha is None:
        return net.od_pairs
    if not 0.0 <= alpha <= 1.0:
        raise NetworkFormatError("alpha must lie in [0, 1]")
    return tuple(od.with_share(alpha) for od in net.od_pairs)


def _solve_payload(net, inc, result) -> dict:
    F = result.f_star.F
    d, m = link_costs(coefficient_table(net), result.f_star.fS,
                      result.f_star.fC)
    return {
        "theta": result.theta,
        "mu": result.mu,
        "total_delay": total_delay(net, result.f_star),
        "wardrop_residual": result.wardrop_residual,
        "vi_gap": result.vi_gap,
        "iterations": result.iterations,
        "converged": result.converged,
        "links": [
            {"id": link.id, "fS": result.f_star.fS[l],
             "fC": result.f_star.fC[l], "F": F[l], "d": d[l], "m": m[l]}
            for l, link in enumerate(net.links)
        ],
        "paths": [
            {"links": [net.links[l].id for l in path],
             "zS": result.z_star.zS[p], "zC": result.z_star.zC[p]}
            for p, path in enumerate(inc.paths)
        ],
    }


def _sweep_csv(net: Network, records) -> str:
    header = ["alpha", "poa", "total_delay", "theta", "mu", "converged"]
    for link in net.links:
        header.extend(
            f"{q}_{link.id}" for q in ("fS", "fC", "F", "d", "m"))
    lines = [",".join(header)]
    coeffs = coefficient_table(net)
    for rec in records:
        F = rec.f_star.F
        d, m = link_costs(coeffs, rec.f_star.fS, rec.f_star.fC)
        row = [_fmt(rec.alpha), _fmt(rec.poa), _fmt(rec.total_delay),
               _fmt(rec.theta), _fmt(rec.mu),
               "true" if rec.converged else "false"]
        for l in range(net.n_links):
            row.extend(_fmt(v) for v in
                       (rec.f_star.fS[l], rec.f_star.fC[l], F[l], d[l], m[l]))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _run_sweep(args: argparse.Namespace, net, inc):
    """Sweep records over the configured grid and the exit code: 2, with
    one warning line, when some share did not converge."""
    grid_n = args.grid if args.grid else 101
    grid = np.linspace(0.0, 1.0, grid_n)
    records = analysis.sweep_alpha(
        net, inc, grid=grid, tol=args.tol, max_iters=args.max_iters)
    if all(rec.converged for rec in records):
        return records, EXIT_OK
    _log("warning: some sweep points did not converge")
    return records, EXIT_NOT_CONVERGED


def _cmd_validate(args: argparse.Namespace) -> int:
    net = _parse_structure(args.network_path)
    report = validate_network(net)
    _emit_json({"valid": not report, "violations": report}, args.out)
    if report:
        _log(f"error: {_invalid_message(args.network_path, report)}")
        return EXIT_IO
    return EXIT_OK


def _cmd_check(args: argparse.Namespace) -> int:
    net = parse_network_file(args.network_path)
    D = net.total_demand()
    report = check_conditions(net, D if D > 0 else 1.0)
    payload = dataclasses.asdict(report)
    _emit_json(payload, args.out)
    ok = report.convexity_ok and report.strong_mono_ok
    return EXIT_OK if ok else EXIT_ASSUMPTION


def _cmd_solve(args: argparse.Namespace) -> int:
    net, inc = _load(args)
    ods = _ods_with_alpha(net, args.alpha)
    try:
        result = solve_equilibrium(
            net, inc, ods, tol=args.tol, max_iters=args.max_iters)
    except NotConverged as exc:
        _emit_json(_solve_payload(net, inc, exc.result), args.out)
        return EXIT_NOT_CONVERGED
    _emit_json(_solve_payload(net, inc, result), args.out)
    return EXIT_OK


def _cmd_optimum(args: argparse.Namespace) -> int:
    net, inc = _load(args)
    F, T = solve_system_optimum(net, inc, net.od_pairs)
    payload = {
        "total_delay_min": T,
        "links": [{"id": link.id, "F": F[l]}
                  for l, link in enumerate(net.links)],
    }
    _emit_json(payload, args.out)
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    net, inc = _load(args)
    records, code = _run_sweep(args, net, inc)
    _emit(_sweep_csv(net, records), args.out)
    return code


def _cmd_critical_share(args: argparse.Namespace) -> int:
    net, inc = _load(args)
    records, code = _run_sweep(args, net, inc)
    if code != EXIT_OK:
        return code
    report = analysis.detect_critical_share(
        net, inc, records, solver_tol=args.tol)
    _emit_json(dataclasses.asdict(report), args.out)
    return EXIT_OK


def _cmd_monotonicity(args: argparse.Namespace) -> int:
    net, inc = _load(args)
    records, code = _run_sweep(args, net, inc)
    if code != EXIT_OK:
        return code
    report = analysis.monotonicity_report(
        records, net, slack=10.0 * args.tol,
        exploratory=args.exploratory)
    payload = dataclasses.asdict(report)
    payload.pop("witnesses", None)
    _emit_json(payload, args.out)
    return EXIT_OK


def _cmd_oracle_compare(args: argparse.Namespace) -> int:
    net, inc = _load(args)
    ods = _ods_with_alpha(net, args.alpha)
    if len(ods) != 1 or inc.n_paths > oracle.MAX_PATHS:
        raise analysis.AssumptionViolated(
            f"oracle-compare needs one OD pair and at most {oracle.MAX_PATHS} "
            f"paths (the network has {inc.n_paths} paths over {len(ods)} "
            "OD pair(s))")
    grid_n = args.grid if args.grid else 2001
    cells = oracle.grid_cells(inc.n_paths, ods[0], grid_n)
    if cells > oracle.MAX_GRID_CELLS:
        raise analysis.AssumptionViolated(
            f"oracle-compare grid of {cells} cells exceeds the oracle's "
            f"limit of {oracle.MAX_GRID_CELLS} (use a smaller --grid)")
    result = solve_equilibrium(
        net, inc, ods, tol=args.tol, max_iters=args.max_iters)
    oracle_load, certificate = oracle.brute_force_equilibrium(
        net, inc, ods, grid_n)
    F_opt, T_opt = solve_system_optimum(net, inc, ods)
    F_oracle, T_oracle = oracle.brute_force_optimum(
        net, inc, net.total_demand(), grid_n)
    load_delta = float(np.max(np.abs(
        result.f_star.stacked() - oracle_load.stacked())))
    payload = {
        "grid_n": grid_n,
        "grid_step": net.total_demand() / (grid_n - 1),
        "equilibrium_load_delta": load_delta,
        "oracle_certificate": certificate,
        "optimum_delta": abs(T_opt - T_oracle),
        "total_delay_solver": T_opt,
        "total_delay_oracle": T_oracle,
    }
    _emit_json(payload, args.out)
    return EXIT_OK


def _cmd_gen(args: argparse.Namespace) -> int:
    seed = args.seed if args.seed is not None else 0
    try:
        net = gen_random_parallel(seed, args.links, args.demand)
    except ValueError as exc:
        raise NetworkFormatError(f"gen: {exc}") from exc
    _emit_json(network_to_dict(net), args.out)
    return EXIT_OK


_COMMANDS = {
    "validate": _cmd_validate,
    "check": _cmd_check,
    "solve": _cmd_solve,
    "optimum": _cmd_optimum,
    "sweep": _cmd_sweep,
    "critical-share": _cmd_critical_share,
    "monotonicity": _cmd_monotonicity,
    "oracle-compare": _cmd_oracle_compare,
    "gen": _cmd_gen,
}


def run(args: argparse.Namespace) -> int:
    """Dispatch parsed command-line arguments; returns the process exit
    code."""
    try:
        return _COMMANDS[args.command](args)
    except (NetworkFormatError, OSError) as exc:
        _log(f"error: {exc}")
        return EXIT_IO
    except (analysis.AssumptionViolated, ConditionsUnverified,
            PathCountExceeded) as exc:
        _log(f"assumption violated: {exc}")
        return EXIT_ASSUMPTION
    except NotConverged as exc:
        _log(f"not converged: {exc}")
        return EXIT_NOT_CONVERGED


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit 3 with one stderr line;
    argparse's own exit code 2 would read as non-convergence."""

    def error(self, message: str):
        self.exit(EXIT_IO, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="routegame",
        description="Two-class routing game solver and analysis toolkit",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--network", dest="network_path")
    parser.add_argument("--alpha", type=float, default=None,
                        help="fleet share override in [0, 1]")
    parser.add_argument("--grid", type=int, default=None,
                        help="sweep grid points (default 101) or oracle "
                             "grid density (default 2001)")
    parser.add_argument("--tol", type=float, default=1e-8)
    parser.add_argument("--max-iters", type=int, default=200_000)
    parser.add_argument("--out", default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--links", type=int, default=3,
                        help="link count for gen")
    parser.add_argument("--demand", type=float, default=1.0,
                        help="total demand for gen")
    parser.add_argument("--exploratory", action="store_true")
    return parser


def config_from_args(
    argv: Optional[Sequence[str]] = None,
) -> argparse.Namespace:
    """Parse the command line; usage errors exit 3 with one stderr line."""
    args = build_parser().parse_args(argv)
    if args.grid is not None and args.grid < 2:
        build_parser().error("--grid must be at least 2")
    # a tolerance that is not positive and finite can never be met
    if not (math.isfinite(args.tol) and args.tol > 0.0):
        build_parser().error("--tol must be positive and finite")
    if args.max_iters < 1:
        build_parser().error("--max-iters must be at least 1")
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    return run(config_from_args(argv))


if __name__ == "__main__":
    sys.exit(main())
