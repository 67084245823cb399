from __future__ import annotations

import contextlib
import io
import json
import math
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from routegame.cli import (
    EXIT_ASSUMPTION,
    EXIT_IO,
    EXIT_NOT_CONVERGED,
    EXIT_OK,
    NetworkFormatError,
    gen_random_parallel,
    main,
    network_to_dict,
    parse_network_file,
)
from routegame.netmodel import DelayPoly, Link, Network, OdSpec, enumerate_paths

REPO = Path(__file__).resolve().parents[1]
NETWORKS = REPO / "networks"

CASE_B_TEXT = """
{ "name": "caseB",
  "nodes": ["o","d"],
  "links": [
    {"id":"l1","tail":"o","head":"d","delay":[0.0,1.0,0.0,0.0]},
    {"id":"l2","tail":"o","head":"d","delay":[1.0,1.0,0.0,0.0]} ],
  "od_pairs": [ {"origin":"o","destination":"d","demand":2.0,"fleet_share":0.25} ] }
"""


@pytest.fixture
def case_b_file(tmp_path):
    path = tmp_path / "case_b.json"
    path.write_text(CASE_B_TEXT, encoding="utf-8")
    return str(path)


class TestParsing:
    def test_documented_format(self, case_b_file):
        net = parse_network_file(case_b_file)
        assert net.n_links == 2
        assert len(net.od_pairs) == 1
        assert net.od_pairs[0].fleet_share == 0.25

    def test_delay_length_rejected(self, tmp_path):
        raw = json.loads(CASE_B_TEXT)
        raw["links"][0]["delay"] = [0.0, 1.0, 0.0]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(NetworkFormatError, match="4 coefficients"):
            parse_network_file(str(path))

    def test_out_of_range_share_rejected(self, tmp_path):
        raw = json.loads(CASE_B_TEXT)
        raw["od_pairs"][0]["fleet_share"] = 1.5
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(NetworkFormatError, match="fleet_share"):
            parse_network_file(str(path))

    def test_unknown_field_rejected(self, tmp_path):
        raw = json.loads(CASE_B_TEXT)
        raw["links"][0]["capacity"] = 100
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(NetworkFormatError, match="unknown fields"):
            parse_network_file(str(path))

    def test_syntax_error_reports_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{ not json }")
        with pytest.raises(NetworkFormatError, match="line 1"):
            parse_network_file(str(path))

    def test_round_trip_all_bundled_fixtures(self, tmp_path):
        for name in ("case_a", "case_b", "example1", "example2",
                     "golden_parallel_seed1"):
            net = parse_network_file(str(NETWORKS / f"{name}.json"))
            out = tmp_path / f"{name}.json"
            out.write_text(json.dumps(network_to_dict(net)))
            again = parse_network_file(str(out))
            assert again == net


class TestGen:
    def test_deterministic(self):
        a = gen_random_parallel(7, 4, 2.0)
        b = gen_random_parallel(7, 4, 2.0)
        assert a == b

    def test_matches_golden_file(self):
        generated = network_to_dict(gen_random_parallel(1, 3, 2.0))
        golden = json.loads(
            (NETWORKS / "golden_parallel_seed1.json").read_text())
        # round-trip floats to the emitter's 12 significant digits
        from routegame.cli import _jsonable
        assert _jsonable(generated) == golden

    def test_always_valid(self):
        from routegame.calculus import check_conditions
        from routegame.netmodel import validate_network
        for seed in range(5):
            net = gen_random_parallel(seed, 2 + seed % 4, 4.0)
            assert validate_network(net) == []
            report = check_conditions(net, 4.0)
            assert report.convexity_ok and report.strong_mono_ok
            assert enumerate_paths(net).n_paths == 2 + seed % 4

    def test_rejects_single_link(self):
        with pytest.raises(ValueError):
            gen_random_parallel(0, 1, 1.0)

    @pytest.mark.parametrize("demand", ["nan", "inf", "-1"])
    def test_rejects_bad_demand(self, demand, capsys):
        with pytest.raises(ValueError):
            gen_random_parallel(0, 3, float(demand))
        code = main(["gen", "--links", "3", "--demand", demand])
        assert code == EXIT_IO
        assert capsys.readouterr().err.startswith("error: gen: demand")


class TestCommands:
    def test_sweep_csv_schema(self, case_b_file, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--network", case_b_file, "--grid", "5",
                     "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 6
        assert lines[0] == ("alpha,poa,total_delay,theta,mu,converged,"
                            "fS_l1,fC_l1,F_l1,d_l1,m_l1,"
                            "fS_l2,fC_l2,F_l2,d_l2,m_l2")
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[1]) == pytest.approx(24 / 23, abs=1e-9)
        last = lines[-1].split(",")
        assert float(last[1]) == pytest.approx(1.0, abs=1e-9)

    def test_sweep_byte_identical_across_runs(self, case_b_file, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        main(["sweep", "--network", case_b_file, "--grid", "7",
              "--out", str(out1)])
        main(["sweep", "--network", case_b_file, "--grid", "7",
              "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_solve_json(self, case_b_file, tmp_path, capsys):
        code = main(["solve", "--network", case_b_file, "--alpha", "0.25"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["converged"] is True
        assert payload["theta"] == pytest.approx(1.5)
        assert payload["mu"] == pytest.approx(1.75)

    def test_solve_uses_file_share_without_alpha(self, case_b_file, capsys):
        code = main(["solve", "--network", case_b_file])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["mu"] == pytest.approx(1.75)

    def test_check_reports_conditions(self, case_b_file, capsys):
        code = main(["check", "--network", case_b_file])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["convexity_ok"] is True
        assert payload["strong_mono_ok"] is True
        assert payload["Q"] >= payload["c"] > 0

    def test_validate_reports_violations(self, tmp_path, capsys):
        raw = json.loads(CASE_B_TEXT)
        raw["links"][1]["delay"] = [1.0, 0.0, 0.0, 0.0]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        code = main(["validate", "--network", str(path)])
        assert code == EXIT_IO
        payload = json.loads(capsys.readouterr().out)
        assert payload["valid"] is False
        assert any("a1" in v for v in payload["violations"])

    def test_exit_code_nonconvergence(self, case_b_file, capsys):
        code = main(["solve", "--network", case_b_file, "--max-iters", "2"])
        assert code == EXIT_NOT_CONVERGED
        payload = json.loads(capsys.readouterr().out)
        assert payload["converged"] is False

    def test_exit_code_missing_file(self, capsys):
        assert main(["solve", "--network", "/nonexistent.json"]) == EXIT_IO

    def test_sweep_flags_nonconvergence_but_completes(self, case_b_file,
                                                      tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--network", case_b_file, "--grid", "3",
                     "--max-iters", "1", "--out", str(out)])
        assert code == EXIT_NOT_CONVERGED
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 4
        assert all(row.split(",")[5] == "false" for row in lines[1:])

    def test_monotonicity_gate_on_nonparallel(self, capsys):
        path = str(NETWORKS / "example2.json")
        code = main(["monotonicity", "--network", path, "--grid", "5"])
        assert code == EXIT_ASSUMPTION
        code = main(["monotonicity", "--network", path, "--grid", "5",
                     "--exploratory"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["exploratory"] is True

    def test_monotonicity_parallel(self, case_b_file, capsys):
        code = main(["monotonicity", "--network", case_b_file,
                     "--grid", "11"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["poa_nonincreasing"] is True
        assert payload["support_nesting_ok"] is True

    @pytest.mark.parametrize("command", ["critical-share", "monotonicity"])
    def test_analysis_exit_code_nonconvergence(self, command, case_b_file,
                                               capsys):
        code = main([command, "--network", case_b_file, "--max-iters", "3"])
        assert code == EXIT_NOT_CONVERGED
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "warning: some sweep points did not converge\n"

    def test_critical_share_command(self, case_b_file, capsys):
        code = main(["critical-share", "--network", case_b_file,
                     "--grid", "21"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["alpha_tilde"] - 0.5) <= 1e-4
        assert payload["poa_flat_ok"] is True

    def test_optimum_command(self, case_b_file, capsys):
        code = main(["optimum", "--network", case_b_file])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["total_delay_min"] == pytest.approx(2.875)

    def test_oracle_compare_command(self, case_b_file, capsys):
        code = main(["oracle-compare", "--network", case_b_file,
                     "--alpha", "0.5", "--grid", "501"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["equilibrium_load_delta"] <= 2 * payload["grid_step"]
        assert payload["optimum_delta"] <= 1e-4

    def test_oracle_compare_rejects_many_paths_before_solving(
            self, monkeypatch, capsys):
        def unexpected_solve(*args, **kwargs):
            raise AssertionError("solved before checking the path count")

        monkeypatch.setattr("routegame.cli.solve_equilibrium",
                            unexpected_solve)
        code = main(["oracle-compare", "--network",
                     str(NETWORKS / "example2.json"), "--grid", "11"])
        captured = capsys.readouterr()
        assert code == EXIT_ASSUMPTION
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1, captured.err
        assert lines[0].startswith("assumption violated: oracle-compare")

    @pytest.mark.parametrize("grid", [[], ["--grid", "201"]])
    def test_oracle_compare_rejects_large_grid_before_solving(
            self, grid, monkeypatch, capsys):
        def unexpected_solve(*args, **kwargs):
            raise AssertionError("solved before checking the grid size")

        monkeypatch.setattr("routegame.cli.solve_equilibrium",
                            unexpected_solve)
        code = main(["oracle-compare", "--network",
                     str(NETWORKS / "example1.json"), "--alpha", "0.5", *grid])
        captured = capsys.readouterr()
        assert code == EXIT_ASSUMPTION
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1, captured.err
        assert lines[0].startswith("assumption violated: oracle-compare grid")

    @pytest.mark.parametrize("command", [
        "validate", "check", "solve", "optimum", "sweep"])
    def test_delay_overflow_exits_3_with_one_line(self, command, tmp_path,
                                                  capsys):
        raw = json.loads(CASE_B_TEXT)
        raw["links"][0]["delay"] = [0.0, 1e308, 1e308, 1e308]
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(raw))
        code = main([command, "--network", str(path)])
        lines = capsys.readouterr().err.splitlines()
        assert code == EXIT_IO
        assert len(lines) == 1 and lines[0].startswith("error:"), lines
        assert "delay not finite on the demand box" in lines[0]

    @pytest.fixture
    def grid_9x9_file(self, tmp_path):
        # links point right and down; corner to corner there are
        # C(16, 8) = 12,870 paths, over the enumeration cap
        n = 9
        links = [
            Link(f"e{i}_{j}_{di}", f"v{i}_{j}", f"v{i + di}_{j + 1 - di}",
                 DelayPoly((1.0, 1.0, 0.0, 0.0)))
            for i in range(n) for j in range(n) for di in (0, 1)
            if i + di < n and j + 1 - di < n
        ]
        net = Network(
            nodes=tuple(f"v{i}_{j}" for i in range(n) for j in range(n)),
            links=tuple(links),
            od_pairs=(OdSpec("v0_0", f"v{n - 1}_{n - 1}", 1.0, 0.5),),
            name="grid-9x9",
        )
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(network_to_dict(net)))
        return str(path)

    def test_check_needs_no_path_enumeration(self, grid_9x9_file, capsys):
        code = main(["check", "--network", grid_9x9_file])
        captured = capsys.readouterr()
        assert code == EXIT_OK
        assert json.loads(captured.out)["strong_mono_ok"] is True
        assert captured.err == ""

    @pytest.mark.parametrize("command", ["solve", "optimum", "sweep"])
    def test_too_many_paths_exits_1_with_one_line(self, command,
                                                  grid_9x9_file, capsys):
        code = main([command, "--network", grid_9x9_file])
        captured = capsys.readouterr()
        assert code == EXIT_ASSUMPTION
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1, captured.err
        assert lines[0].startswith("assumption violated: path enumeration")

    def test_gen_command_deterministic(self, tmp_path):
        out1 = tmp_path / "g1.json"
        out2 = tmp_path / "g2.json"
        main(["gen", "--seed", "3", "--links", "4", "--demand", "2",
              "--out", str(out1)])
        main(["gen", "--seed", "3", "--links", "4", "--demand", "2",
              "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()
        net = parse_network_file(str(out1))
        assert net.n_links == 4


def _malformed(kind: str) -> bytes:
    raw = json.loads(CASE_B_TEXT)
    if kind == "not-utf8":
        return CASE_B_TEXT.encode("utf-16")
    if kind == "string-coefficient":
        raw["links"][0]["delay"][1] = "fast"
    elif kind == "non-object-link":
        raw["links"][1] = 5
    elif kind == "nodes-not-a-list":
        raw["nodes"] = 5
    elif kind == "nan-coefficient":
        raw["links"][0]["delay"][1] = float("nan")
    elif kind == "infinite-demand":
        raw["od_pairs"][0]["demand"] = float("inf")
    elif kind == "negative-coefficient":
        raw["links"][0]["delay"][0] = -1.0
    else:
        raise ValueError(kind)
    return json.dumps(raw).encode()


@pytest.mark.parametrize("command", ["validate", "check"])
@pytest.mark.parametrize("kind", [
    "not-utf8", "string-coefficient", "non-object-link", "nodes-not-a-list",
    "nan-coefficient", "infinite-demand", "negative-coefficient",
])
def test_malformed_input_exits_3_with_one_line(kind, command, tmp_path,
                                               capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(_malformed(kind))
    code = main([command, "--network", str(path)])
    err = capsys.readouterr().err
    assert code == EXIT_IO
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err


@pytest.mark.parametrize("argv", [
    ["sweep", "--network", str(NETWORKS / "case_b.json"), "--grid", "1"],
    ["frobnicate"],
    ["solve", "--network", str(NETWORKS / "case_b.json"), "--alpha", "abc"],
])
def test_usage_error_exits_3_with_one_line(argv, capsys):
    # argparse's default exit code 2 is the code for non-convergence
    with pytest.raises(SystemExit) as stop:
        main(argv)
    err = capsys.readouterr().err
    assert stop.value.code == EXIT_IO
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err


@pytest.mark.parametrize("option, value", [
    ("--max-iters", "-3"), ("--max-iters", "0"), ("--tol", "nan"),
    ("--tol", "-1"), ("--tol", "0"), ("--tol", "inf"),
])
def test_solver_option_that_cannot_work_exits_3(option, value, capsys):
    # a negative count was printed as the iterations of a failed solve, and
    # an unreachable tolerance ran every iteration before exiting 2
    with pytest.raises(SystemExit) as stop:
        main(["solve", "--network", str(NETWORKS / "case_b.json"),
              option, value])
    captured = capsys.readouterr()
    assert stop.value.code == EXIT_IO
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {option} "), \
        captured.err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["--help"])
    assert stop.value.code == EXIT_OK
    assert capsys.readouterr().out.startswith("usage: routegame")


# ---------------------------------------------------------------------------
# fuzzed network files
# ---------------------------------------------------------------------------

_FUZZ_FIXTURES = ("case_b", "example1", "example2")
_FUZZ_KEYS = sorted({"name", "nodes", "links", "od_pairs", "id", "tail",
                     "head", "delay", "origin", "destination", "demand",
                     "fleet_share"})
_FUZZ_VALUES = st.one_of(
    st.text(max_size=4),
    st.none(),
    st.booleans(),
    st.lists(st.lists(st.floats(), max_size=2), max_size=2),
    st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, 0.0,
                     -1.0, 10**400, {}]),
    st.floats(),
)


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def _mutate(doc, data) -> None:
    """Walk from the root to a random entry, then drop it, rename its key
    or replace its value."""
    node = doc
    while True:
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        if not keys:
            return
        key = data.draw(st.sampled_from(keys))
        child = node[key]
        if isinstance(child, (dict, list)) and child and data.draw(
                st.booleans()):
            node = child
            continue
        action = data.draw(st.sampled_from(["drop", "rename", "replace"]))
        if action == "drop":
            del node[key]
        elif action == "rename" and isinstance(node, dict):
            new_key = data.draw(st.one_of(st.sampled_from(_FUZZ_KEYS),
                                          st.text(max_size=4)))
            node[new_key] = node.pop(key)
        else:
            node[key] = data.draw(_FUZZ_VALUES)
        return


@settings(max_examples=200, deadline=None)
@given(data=st.data(), fixture=st.sampled_from(_FUZZ_FIXTURES),
       command=st.sampled_from(["validate", "check"]))
def test_fuzzed_network_file_exits_cleanly(data, fixture, command,
                                           tmp_path_factory):
    doc = json.loads((NETWORKS / f"{fixture}.json").read_text())
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(doc, data)
    text = json.dumps(doc)
    if data.draw(st.integers(0, 4)) == 0:
        text = text[:data.draw(st.integers(0, len(text)))]
    path = tmp_path_factory.mktemp("fuzz") / "net.json"
    path.write_text(text, encoding="utf-8")

    out, err = io.StringIO(), io.StringIO()
    # a warning would print a second stderr line: make it an error here
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main([command, "--network", str(path)])

    assert code in (EXIT_OK, EXIT_ASSUMPTION, EXIT_IO)
    if code == EXIT_IO:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), lines
    else:
        json.loads(out.getvalue(), parse_constant=_reject_constant)
