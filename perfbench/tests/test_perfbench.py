"""Tests of the benchmark itself: tiny runs of every workload emit every
metric named in BENCHMARK.json with its unit, and the correctness checker
counts wrong outputs as failures instead of crashing."""

import json
import os

import pytest

import checks
import harness
import workloads
from checks import Outcome

from conftest import ROOT, SRC


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _tiny_run(name, tmp_path, trace):
    inputs = workloads.InputDir(str(tmp_path / f"inputs-{name}-{trace}"))
    wl = workloads.BUILDERS[name](3, inputs, tiny=True)
    return harness.run(wl, 3, 0.2, trace, SRC)


@pytest.mark.parametrize("name", ["solve", "sweep", "certify"])
def test_tiny_run_emits_every_metric_with_its_unit(name, tmp_path, at_root):
    spec = _spec()
    assert name in {w["name"] for w in spec["workloads"]}
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        result = _tiny_run(name, tmp_path, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in spec[section]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == expected
        for value in result["metrics"].values():
            assert isinstance(value["value"], float)
        if not trace:
            for m in ("setup_s", "op_s_p50", "op_s_tail", "work_per_s",
                      "ok_frac", "peak_rss_mb"):
                assert result["metrics"][m]["value"] > 0.0


def test_same_seed_gives_same_inputs(tmp_path, at_root):
    def inputs_of(tag):
        inputs = workloads.InputDir(str(tmp_path / tag))
        workloads.certify_workload(5, inputs, tiny=True)
        return [open(os.path.join(inputs.path, f), encoding="utf-8").read()
                for f in sorted(os.listdir(inputs.path))]

    assert inputs_of("a") == inputs_of("b")


def test_checker_flags_wrong_exit_code():
    ok = Outcome(0, None, '{\n  "valid": true,\n  "violations": []\n}\n', "",
                 0.001)
    assert checks.validate_ok_check(ok) is None
    wrong = Outcome(1, None, ok.stdout, "", 0.001)
    assert "exit code 1" in checks.validate_ok_check(wrong)
    raised = Outcome(None, "ValueError: boom", "", "", 0.001)
    assert "uncaught exception" in checks.validate_ok_check(raised)


def test_checker_flags_corrupted_csv_row(at_root):
    out = harness.invoke(("sweep", "--network", "networks/case_b.json"))
    check = checks.sweep_check(2, "case_b")
    assert checks.run_check(check, out) is None

    lines = out.stdout.splitlines(keepends=True)
    fields = lines[10].split(",")
    corruptions = {
        "dropped field": ",".join(fields[:-1]) + "\n",
        "garbled number": ",".join(["0.09", "x"] + fields[2:]),
        "not converged": ",".join(fields[:5] + ["false"] + fields[6:]),
        "wrong PoA": ",".join(fields[:1] + ["1.5"] + fields[2:]),
    }
    for what, row in corruptions.items():
        bad = Outcome(0, None, "".join(lines[:10] + [row] + lines[11:]), "",
                      out.seconds)
        assert checks.run_check(check, bad) is not None, what


def test_ledger_counts_failures_and_keeps_probes_apart():
    ledger = harness.Ledger()
    good = workloads.Op("validate", ("validate",), checks.validate_ok_check,
                        work=1.0)
    ok = Outcome(0, None, '{"valid": true, "violations": []}', "", 0.001)
    ledger.record(good, ok)
    probe = workloads.Probe("validate", ("validate", "nan"),
                            checks.rejected_check("validate", True),
                            "nan-accepted")
    ledger.probe(probe, ok)
    ledger.probe(probe, Outcome(3, None, '{"valid": false}', "", 0.001))
    assert (ledger.attempted, ledger.failed, ledger.work) == (1, 0, 1.0)
    assert ledger.known == {"nan-accepted": 1} and ledger.correct
    assert [p["reason"] is None for p in ledger.probes] == [False, True]
    ledger.record(good, Outcome(3, None, "", "error: x\n", 0.001))
    assert ledger.failed == 1 and not ledger.correct


def test_repeated_command_must_give_identical_output():
    ledger = harness.Ledger()
    op = workloads.Op("gen", ("gen",), lambda out: None)
    ledger.record(op, Outcome(0, None, "a\n", "", 0.001))
    ledger.record(op, Outcome(0, None, "b\n", "", 0.001))
    assert ledger.failed == 1 and not ledger.correct


def test_malformed_file_needs_one_line_message():
    check = checks.rejected_check("check", semantic=False)
    assert check(Outcome(3, None, "", "error: f: bad\n", 0.001)) is None
    assert check(Outcome(3, None, "", "error: f:\n  detail\n", 0.001))
    assert check(Outcome(0, None, "{}", "", 0.001))


def test_tail_has_ten_samples_beyond():
    times = [float(i) for i in range(100)]
    value, pct = harness.tail(times)
    assert sum(t > value for t in times) == 10 and pct == 90.0
    value, pct = harness.tail(times[:15])
    assert pct == 50.0 and value == 7.0
