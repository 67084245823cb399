"""routegame benchmark: end-to-end CLI workloads with per-layer tracing.

Run from the root of a routegame checkout (the package is imported from
``src/``; nothing needs installing):

    python3 perfbench/run.py --workload solve --seed 1 --seconds 36 --trace 0

Workloads (see ``workloads.py``):

* ``solve``   one ``solve --alpha a`` per command: example2 and gen seed 7
  (20 links, D=10) at alpha 0.3, plus one generated parallel instance from
  each of the 12 cheaper strata of ``catalogue.json`` (its middle one).
* ``sweep``   ``sweep``, ``critical-share`` and ``monotonicity`` on the
  small parallel fixtures, ``sweep`` and ``monotonicity`` on the golden
  fixture on an 11-point grid, plus an exploratory 3-point monotonicity
  run on example2.
* ``certify`` ``gen``, ``validate``, ``check`` and ``optimum`` on generated
  parallel and grid networks, and malformed files through ``validate``
  and ``check``.

Commands that hit a known defect (``workloads.KNOWN_DEFECTS`` and
``optimum`` on a NaN file) are not timed operations: they run once per
run as probes, outside the timed region, and the defects they show go to
stderr and the run record.

A run measures whole passes over its command list: the first pass always,
another only if it is expected to end within ``--seconds``. Command-time
percentiles are taken over the median time of each distinct command.
With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it records spans around each layer's public functions and
reports per-layer busy time, self time and counts instead. The last line
of stdout is the result as JSON: ``correct``, ``attempted``, ``failed`` and
``metrics``; ``correct`` is false when any timed command fails. A run
record (machine, seed, per-command sample counts, probe results, and for
traced runs the spans) is written under ``.perfbench/runs/``.

BLAS runs on one thread (the matrices are small), so that the process
never has more busy threads than the cores of a small shared host.

Tests of the benchmark itself: ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("solve", "sweep", "certify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "routegame", "cli.py")):
        print("error: run from the root of a routegame checkout "
              "(src/routegame not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    # before numpy is first imported; set-up children inherit it
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"

    import harness
    from workloads import BUILDERS, InputDir

    base = os.path.join(root, ".perfbench")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    runs = os.path.join(base, "runs")
    os.makedirs(runs, exist_ok=True)
    inputs = InputDir(os.path.join(base, "inputs", tag))
    try:
        workload = BUILDERS[args.workload](args.seed, inputs)
        result = harness.run(workload, args.seed, args.seconds,
                             bool(args.trace), src,
                             record_path=os.path.join(runs, tag + ".json"))
    finally:
        shutil.rmtree(inputs.path, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
