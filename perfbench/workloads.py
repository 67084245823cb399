"""Seeded inputs and operation lists of the three workloads.

Everything here runs at set-up, before the timed region. Generated
networks are written once, into fresh files of a run-private directory;
operations then only read them. The bundled fixtures under ``networks/``
stay fixed. For ``certify``, instance seeds, sizes, demands and fleet
shares are drawn from the run seed, so the same seed gives the same
inputs. ``solve`` runs a fixed set of catalogue instances in an order
drawn from the seed: its median command lies between two instances whose
costs differ by about a fifth, so which members of the middle strata a seed
drew would move ``op_s_p50`` by more than the host's noise does.

A workload is one pass: a list of operations. The harness runs whole
passes, so every run measures the same mix of commands whatever its
length. Passes are kept to about a third of a run, so that every command
is timed several times and its median time shrugs off short bursts of
load from other tenants of the host.

No timed operation is expected to fail. Commands that expose a known
defect run once per run as probes, outside the timed region; their
results go to the run record and stderr, not into the counts.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

import routegame.cli as cli
from routegame.netmodel import DelayPoly, Link, Network, OdSpec, enumerate_paths

import checks
from checks import Check

FIXTURES = ("case_a", "case_b", "example1", "golden_parallel_seed1")
# ROADMAP baseline instances whose solve iterations the traced run reports
ANCHORS = ("example2_a0.3", "gen7_n20_d10_a0.3")
DEFAULT_GRID = 101

# Generated solve instances and grid networks come from a fixed catalogue
# cut into strata of equal size by baseline cost (see build_catalogue.py);
# a run draws one instance per stratum.
CATALOGUE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "catalogue.json")
STRATUM_SIZE = 3
# solve takes the cheaper half of the catalogue's strata (0.05 to
# 1.05 s a solve), so that a pass with the anchors takes about 9 s
SOLVE_STRATA = 12

# sweep: the golden fixture and the exploratory run on example2 take 8 to
# 10 s on the default grids, so they run on these smaller grids
GOLDEN_GRID = 11
EXPLORATORY_GRID = 3

# certify: file sets per pass, sized so that a pass takes about 8 s and
# four fit in a run; link-count ranges of the parallel instances (two
# 2-link instances so the brute-force oracle applies) and grid sizes of
# each set. Each range's link counts and demands are stratified across the
# sets; each grid size has one catalogue stratum per set, spaced evenly
# over the catalogue's strata.
CERTIFY_SETS = 7
CERTIFY_LINK_RANGES = ((2, 2), (2, 2), (3, 4), (5, 8), (9, 16), (17, 32),
                       (33, 64), (65, 128))
CERTIFY_GRIDS = (3, 4, 5, 6, 7)
CERTIFY_DEMAND = (1.0, 10.0)

# Malformed inputs and the known defects they expose; these commands run
# as probes, once per run. Keys are (kind, command).
KNOWN_DEFECTS = {
    ("nan", "validate"): "nan-accepted",
    ("nan", "check"): "nan-accepted",
    ("string", "validate"): "string-coefficient-traceback",
    ("string", "check"): "string-coefficient-traceback",
    ("negative", "check"): "multiline-message",
}
MALFORMED = ("syntax", "missing-field", "unknown-field", "negative", "nan",
             "string")
# kinds that parse but break a validator invariant
SEMANTIC = ("negative", "nan")

# optimum on a NaN file spins for about 12 s and exits 2 with no message;
# its probe runs in a child process with a time limit
NAN_OPTIMUM_DEFECT = "nan-optimum-spins"
PROBE_TIMEOUT_S = 2.0


@dataclass
class Op:
    """One CLI command, its correctness check, and the work it certifies."""

    kind: str
    argv: tuple[str, ...]
    check: Check
    work: float = 0.0
    anchor: Optional[str] = None


@dataclass
class Probe:
    """A command that exposes a known defect, run once per run outside the
    timed region. With a ``timeout`` it runs in a child process with that
    time limit, for commands known to hang."""

    kind: str
    argv: tuple[str, ...]
    check: Check
    known_defect: str
    timeout: Optional[float] = None


@dataclass
class Workload:
    name: str
    ops: list[Op]
    warmup: Op
    work_unit: str
    probes: tuple[Probe, ...] = ()


class InputDir:
    """Run-private directory of generated network files."""

    def __init__(self, path: str):
        os.makedirs(path)
        self.path = path
        self._count = 0

    def write(self, stem: str, text: str) -> str:
        self._count += 1
        path = os.path.join(self.path, f"{self._count:04d}-{stem}.json")
        with open(path, "x", encoding="utf-8") as fh:
            fh.write(text)
        return path


def capture_cli(argv: list[str]) -> str:
    """Stdout of one CLI command run at set-up; it must succeed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"set-up command {argv} exited {rc}")
    return out.getvalue()


def to_network(doc: dict) -> Network:
    return Network(
        nodes=tuple(doc["nodes"]),
        links=tuple(Link(l["id"], l["tail"], l["head"],
                         DelayPoly(tuple(l["delay"])))
                    for l in doc["links"]),
        od_pairs=tuple(OdSpec(od["origin"], od["destination"],
                              float(od["demand"]), float(od["fleet_share"]))
                       for od in doc["od_pairs"]),
        name=doc["name"],
    )


def stratified(rng: np.random.Generator, n: int) -> np.ndarray:
    """n draws on [0, 1), one per equal-width stratum, in random order."""
    return (rng.permutation(n) + rng.uniform(size=n)) / n


def draw_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _catalogue(part: str):
    with open(CATALOGUE, encoding="utf-8") as fh:
        return json.load(fh)[part]


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def solve_workload(seed: int, inputs: InputDir, tiny: bool = False) -> Workload:
    """One ``solve --alpha a`` per operation: the two ROADMAP anchors
    (example2 and gen seed 7 with 20 links at D=10, both at alpha 0.3)
    plus the middle instance of each of the cheaper ``SOLVE_STRATA``
    catalogue strata; the seed sets the order. The tiny variant takes the
    two cheapest strata."""
    rng = np.random.default_rng(seed)
    strata = _catalogue("solve")[:2 if tiny else SOLVE_STRATA]
    drawn = [stratum[len(stratum) // 2] for stratum in strata]

    instances = []  # (path, alpha text, anchor)
    if not tiny:
        instances.append((os.path.join("networks", "example2.json"), "0.3",
                          ANCHORS[0]))
        text = capture_cli(["gen", "--seed", "7", "--links", "20",
                            "--demand", "10"])
        instances.append((inputs.write("gen7", text), "0.3",
                          ANCHORS[1]))
    for entry in drawn:
        text = capture_cli(["gen", *entry["gen"]])
        instances.append((inputs.write("parallel", text), entry["alpha"],
                          None))

    ops = []
    for path, alpha, anchor in instances:
        net = cli.parse_network_file(path)
        ops.append(Op(
            kind="solve", argv=("solve", "--alpha", alpha, "--network", path),
            check=checks.solve_check(net, enumerate_paths(net), float(alpha)),
            work=1.0, anchor=anchor,
        ))
    # warm up on the instance of the cheapest stratum
    warmup = ops[len(ops) - len(drawn)]
    order = rng.permutation(len(ops))
    return Workload("solve", [ops[i] for i in order], warmup,
                    "certified equilibria/s")


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def sweep_workload(seed: int, inputs: InputDir, tiny: bool = False) -> Workload:
    """``sweep``, ``critical-share`` and ``monotonicity`` (default 101-point
    grid, default warm path) on the small parallel fixtures, ``sweep`` and
    ``monotonicity`` on ``golden_parallel_seed1`` on an 11-point grid, and
    an exploratory 3-point monotonicity run on example2. The seed sets the
    order."""
    rng = np.random.default_rng(seed)
    ops = []
    for fx in ("case_b",) if tiny else FIXTURES:
        path = os.path.join("networks", f"{fx}.json")
        n_links = cli.parse_network_file(path).n_links
        if fx == "golden_parallel_seed1":
            grid = ("--grid", str(GOLDEN_GRID))
            ops += [
                Op(f"sweep:{fx}", ("sweep", *grid, "--network", path),
                   checks.sweep_check(n_links, fx, GOLDEN_GRID),
                   work=GOLDEN_GRID),
                Op(f"monotonicity:{fx}",
                   ("monotonicity", *grid, "--network", path),
                   checks.monotonicity_check(False), work=GOLDEN_GRID),
            ]
            continue
        ops += [
            Op(f"sweep:{fx}", ("sweep", "--network", path),
               checks.sweep_check(n_links, fx), work=DEFAULT_GRID),
            Op(f"critical-share:{fx}", ("critical-share", "--network", path),
               checks.critical_share_check(fx), work=DEFAULT_GRID),
            Op(f"monotonicity:{fx}", ("monotonicity", "--network", path),
               checks.monotonicity_check(False), work=DEFAULT_GRID),
        ]
    if not tiny:
        path = os.path.join("networks", "example2.json")
        ops.append(Op("monotonicity:example2",
                      ("monotonicity", "--exploratory",
                       "--grid", str(EXPLORATORY_GRID), "--network", path),
                      checks.monotonicity_check(True),
                      work=EXPLORATORY_GRID))
    warmup = next(op for op in ops if op.kind == "monotonicity:case_b")
    order = rng.permutation(len(ops))
    return Workload("sweep", [ops[i] for i in order], warmup,
                    "certified fleet shares/s")


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------


def _delay(rng: np.random.Generator) -> list[float]:
    """Coefficient ranges of ``routegame gen``."""
    return [rng.uniform(0.0, 2.0), rng.uniform(0.1, 2.0),
            rng.uniform(0.0, 0.5), rng.uniform(0.0, 0.1)]


def grid_network(rng: np.random.Generator, n: int, demand: float,
                 share: float) -> dict:
    """n x n grid, links pointing right and down, one OD pair from the top
    left to the bottom right corner: binomial(2n - 2, n - 1) paths. With
    the coefficient ranges of ``gen`` the operator conditions hold on every
    catalogue entry; the ``check`` operations verify that they do."""
    links = []
    for i in range(n):
        for j in range(n):
            for di, dj in ((0, 1), (1, 0)):
                if i + di < n and j + dj < n:
                    links.append({
                        "id": f"e{len(links) + 1}", "tail": f"v{i}_{j}",
                        "head": f"v{i + di}_{j + dj}", "delay": _delay(rng),
                    })
    return {"name": f"grid-{n}x{n}",
            "nodes": [f"v{i}_{j}" for i in range(n) for j in range(n)],
            "links": links,
            "od_pairs": [{"origin": "v0_0", "destination": f"v{n-1}_{n-1}",
                          "demand": demand, "fleet_share": share}]}


def malformed_text(kind: str, doc: dict) -> str:
    bad = json.loads(json.dumps(doc))
    delay = bad["links"][0]["delay"]
    if kind == "syntax":
        return json.dumps(doc)[:-3]
    if kind == "missing-field":
        del bad["links"][0]["head"]
    elif kind == "unknown-field":
        bad["links"][0]["capacity"] = 1.0
    elif kind == "negative":
        delay[0] = -1.0
    elif kind == "nan":
        delay[1] = float("nan")
    elif kind == "string":
        delay[1] = "fast"
    else:
        raise ValueError(kind)
    return json.dumps(bad, indent=2)


def _certify_set(rng: np.random.Generator, inputs: InputDir,
                 parallel, grids) -> tuple[list[Op], list[Probe], dict]:
    """One file per (link count, demand) of ``parallel`` and per grid
    catalogue entry of ``grids``, plus one file per malformed kind, in
    random order; the commands on malformed files that hit a known defect
    are returned as probes."""
    files: list[list[Op]] = []
    base = None
    for L, D in parallel:
        gen_argv = ("gen", "--seed", str(draw_seed(rng)), "--links", str(L),
                    "--demand", f"{D:.3f}")
        text = capture_cli(list(gen_argv))
        path = inputs.write(f"parallel{L}", text)
        doc = json.loads(text)
        base = base or doc
        oracle = {}
        if L == 2:
            net = to_network(doc)
            oracle = {"net": net, "inc": enumerate_paths(net)}
        files.append([
            Op("gen:parallel", gen_argv, checks.gen_check(text)),
            Op("validate:parallel", ("validate", "--network", path),
               checks.validate_ok_check),
            Op("check:parallel", ("check", "--network", path),
               checks.conditions_ok_check),
            Op("optimum:parallel", ("optimum", "--network", path),
               checks.optimum_check(doc, **oracle), work=1.0),
        ])
    for entry in grids:
        n = entry["n"]
        doc = grid_network(np.random.default_rng(entry["seed"]), n,
                           entry["demand"], entry["share"])
        path = inputs.write(f"grid{n}", json.dumps(doc, indent=2))
        files.append([
            Op("validate:grid", ("validate", "--network", path),
               checks.validate_ok_check),
            Op("check:grid", ("check", "--network", path),
               checks.conditions_ok_check),
            Op("optimum:grid", ("optimum", "--network", path),
               checks.optimum_check(doc), work=1.0),
        ])
    probes = []
    for kind in MALFORMED:
        path = inputs.write(f"malformed-{kind}", malformed_text(kind, base))
        chain = []
        for command in ("validate", "check"):
            argv = (command, "--network", path)
            check = checks.rejected_check(command, kind in SEMANTIC)
            defect = KNOWN_DEFECTS.get((kind, command))
            if defect:
                probes.append(Probe(f"{command}:malformed", argv, check,
                                    defect))
            else:
                chain.append(Op(f"{command}:malformed", argv, check,
                                work=1.0 if command == "check" else 0.0))
        files.append(chain)
    order = rng.permutation(len(files))
    return [op for i in order for op in files[i]], probes, base


def certify_workload(seed: int, inputs: InputDir,
                     tiny: bool = False) -> Workload:
    """``gen``, ``validate``, ``check`` and ``optimum`` on generated parallel
    instances (2 to 128 links) and grid networks (3x3 to 7x7, up to 924
    paths), plus malformed files through ``validate`` and ``check`` only.
    No equilibrium is solved. A pass holds several sets of files of the
    same strata. The commands that hit a known defect, those on the first
    set's malformed files and ``optimum`` on a NaN file, are probes."""
    rng = np.random.default_rng(seed)
    ranges = CERTIFY_LINK_RANGES[:3] if tiny else CERTIFY_LINK_RANGES
    grids = CERTIFY_GRIDS[:1] if tiny else CERTIFY_GRIDS
    sets = 1 if tiny else CERTIFY_SETS
    lo, hi = CERTIFY_DEMAND
    # per link range, (link count, demand) of each set
    parallel = [list(zip(l_lo + (rng.permutation(sets) * (l_hi - l_lo + 1))
                         // sets,
                         lo + (hi - lo) * stratified(rng, sets)))
                for l_lo, l_hi in ranges]
    catalogue = _catalogue("grids")
    grid_entries = []  # per grid size, one catalogue entry per set
    for n in grids:
        strata = catalogue[str(n)]
        picked = [strata[k * (len(strata) - 1) // max(sets - 1, 1)]
                  for k in range(sets)]
        drawn = [st[rng.integers(len(st))] for st in picked]
        grid_entries.append([drawn[i] for i in rng.permutation(sets)])
    ops: list[Op] = []
    probes: list[Probe] = []
    base = None
    for k in range(sets):
        set_ops, set_probes, doc = _certify_set(
            rng, inputs, [pairs[k] for pairs in parallel],
            [entries[k] for entries in grid_entries])
        ops += set_ops
        probes = probes or set_probes
        base = base or doc
    nan_path = inputs.write("probe-nan", malformed_text("nan", base))
    probes.append(Probe("optimum:malformed",
                        ("optimum", "--network", nan_path),
                        checks.rejected_check("optimum", False),
                        NAN_OPTIMUM_DEFECT, PROBE_TIMEOUT_S))
    return Workload("certify", ops, ops[0], "network files/s", tuple(probes))


BUILDERS = {
    "solve": solve_workload,
    "sweep": sweep_workload,
    "certify": certify_workload,
}
