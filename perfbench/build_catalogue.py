"""Build ``catalogue.json``, the instance strata of the solve and certify
workloads.

Generated instances differ in cost by up to two orders of magnitude, so
a run that drew its instances freely would measure a different work mix
on every seed. Instead, a fixed catalogue of instances is sorted by the
cost of one command and cut into strata of equal size; a run draws one
member per stratum, so every run measures the same mix of easy and hard
instances.

* ``solve``: parallel instances with link count, demand and fleet share
  stratified over 4-20 links, demand 2-10 and share 0-1, ordered by the
  wall time of one ``solve`` (iteration count times a cost per iteration
  that grows with the link count).
* ``grids``: for each grid size, grid networks with stratified demand,
  ordered by the wall time of one ``optimum``.

Wall times come from the machine that built the file and only set the
order; the iteration count of each solve is kept for reference.

The file is data of the benchmark: rebuilding it changes the workloads.
Run from the checkout root (about two minutes):

    PYTHONPATH=src:perfbench python3 perfbench/build_catalogue.py
"""

from __future__ import annotations

import json
import os
import shutil
from time import perf_counter

import numpy as np

from workloads import (CATALOGUE, CERTIFY_DEMAND, CERTIFY_GRIDS,
                       STRATUM_SIZE, InputDir, capture_cli, draw_seed,
                       grid_network, stratified)

CATALOGUE_SEED = 2024
SOLVE_STRATA = 24
SOLVE_LINKS = (4, 20)
SOLVE_DEMAND = (2.0, 10.0)
GRID_STRATA = 13


def _cut(entries: list[dict], key: str) -> list[list[dict]]:
    entries = sorted(entries, key=lambda e: e[key])
    return [entries[i:i + STRATUM_SIZE]
            for i in range(0, len(entries), STRATUM_SIZE)]


def solve_strata(rng: np.random.Generator, inputs: InputDir) -> list:
    n = SOLVE_STRATA * STRATUM_SIZE
    lo, hi = SOLVE_LINKS
    links = lo + (rng.permutation(n) * (hi - lo + 1)) // n
    demands = SOLVE_DEMAND[0] + np.diff(SOLVE_DEMAND)[0] * stratified(rng, n)
    alphas = stratified(rng, n)
    entries = []
    for L, D, a in zip(links, demands, alphas):
        gen = ["--seed", str(draw_seed(rng)), "--links", str(int(L)),
               "--demand", f"{D:.3f}"]
        path = inputs.write("instance", capture_cli(["gen", *gen]))
        t0 = perf_counter()
        solved = json.loads(capture_cli(
            ["solve", "--alpha", f"{a:.3f}", "--network", path]))
        entries.append({"gen": gen, "alpha": f"{a:.3f}",
                        "solve_s": round(perf_counter() - t0, 4),
                        "iterations": solved["iterations"]})
        print(entries[-1], flush=True)
    return _cut(entries, "solve_s")


def grid_strata(rng: np.random.Generator, inputs: InputDir) -> dict:
    n_entries = GRID_STRATA * STRATUM_SIZE
    lo, hi = CERTIFY_DEMAND
    out = {}
    for n in CERTIFY_GRIDS:
        entries = []
        for D in lo + (hi - lo) * stratified(rng, n_entries):
            entry = {"n": n, "seed": draw_seed(rng),
                     "demand": round(float(D), 3),
                     "share": round(float(rng.uniform()), 3)}
            doc = grid_network(np.random.default_rng(entry["seed"]), n,
                               entry["demand"], entry["share"])
            path = inputs.write(f"grid{n}", json.dumps(doc))
            t0 = perf_counter()
            capture_cli(["optimum", "--network", path])
            entry["optimum_s"] = round(perf_counter() - t0, 4)
            entries.append(entry)
            print(entry, flush=True)
        out[str(n)] = _cut(entries, "optimum_s")
    return out


def main() -> None:
    rng = np.random.default_rng(CATALOGUE_SEED)
    inputs = InputDir(os.path.join(".perfbench", f"catalogue-{os.getpid()}"))
    try:
        catalogue = {"seed": CATALOGUE_SEED,
                     "solve": solve_strata(rng, inputs),
                     "grids": grid_strata(rng, inputs)}
    finally:
        shutil.rmtree(inputs.path)
    with open(CATALOGUE, "w", encoding="utf-8") as fh:
        json.dump(catalogue, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
