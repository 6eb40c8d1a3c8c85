import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import ddlkit
from ddlkit import cli
from ddlkit.cli import main
from ddlkit.export import to_thf_problem
from ddlkit.model import save_model
from ddlkit.syntax import parse
from helpers import mk_model

VALID_MODEL = mk_model(2, av=[[1], [1]], pv=[[0, 1], [1]], ob=[],
                       val={"p": [1]})


def _cli_process(*argv, timeout=120):
    """Run the CLI in a new process, as a user would."""
    env = {**os.environ, "PYTHONPATH": str(Path(ddlkit.__file__).parents[1])}
    return subprocess.run([sys.executable, "-m", "ddlkit.cli", *argv],
                          capture_output=True, text=True, env=env,
                          timeout=timeout)


def write_model(tmp_path, m, name="model.json"):
    path = tmp_path / name
    path.write_bytes(save_model(m))
    return str(path)


def test_check_all_worlds(tmp_path, capsys):
    path = write_model(tmp_path, VALID_MODEL)
    assert main(["check", "--model", path, "--formula", "[a]p -> p"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"0": False, "1": True}


def test_check_single_world(tmp_path, capsys):
    path = write_model(tmp_path, VALID_MODEL)
    assert main(["check", "--model", path, "--formula", "p", "--world",
                 "1"]) == 0
    assert capsys.readouterr().out.strip() == "true"


EXAMPLE_MODEL = str(Path(__file__).parents[1] / "docs" / "example-model.json")


@pytest.mark.parametrize("world,out", [([], '{"0":true,"1":true}\n'),
                                       (["--world", "0"], "true\n")],
                         ids=["all", "world"])
def test_check_prints_a_warning_as_one_line(capsys, world, out):
    assert main(["check", "--model", EXAMPLE_MODEL, "--formula",
                 "~~~x | x", *world]) == 0
    assert capsys.readouterr() == (out, "warning: atom 'x' has no "
                                   "valuation, defaulting to the empty set\n")


def test_model_warning_is_one_line(tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"worlds": 1, "av": [[0]], "pv": [[0]],
                                "ob": [{"context": [0], "members": [[], [0]]}],
                                "val": {"p": [0]}}))
    assert main(["validate-model", str(path)]) == 0
    assert capsys.readouterr() == ("valid\n", "warning: empty trace dropped: "
                                   "member {} of ob({0}) does not meet its "
                                   "context\n")


def test_validate_model_ok(tmp_path, capsys):
    path = write_model(tmp_path, VALID_MODEL)
    assert main(["validate-model", path]) == 0
    assert capsys.readouterr().out.strip() == "valid"


def test_validate_model_violations(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"worlds": 1, "av": [[]], "pv": [[0]],
                               "ob": [], "val": {}}))
    assert main(["validate-model", str(bad)]) == 2
    assert "av-nonempty" in capsys.readouterr().out


def test_check_rejects_invalid_model_without_flag(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"worlds": 1, "av": [[]], "pv": [[0]],
                               "ob": [], "val": {}}))
    assert main(["check", "--model", str(bad), "--formula", "T"]) == 2
    assert main(["check", "--model", str(bad), "--formula", "T",
                 "--allow-invalid"]) == 0


def test_valid_no_counterexample(capsys):
    assert main(["valid", "--formula", "[p]p -> p"]) == 0
    assert capsys.readouterr().out.strip() \
        == "no counterexample up to 3 worlds"


def test_valid_bounded_wording(capsys):
    assert main(["valid", "--formula", "~p|p", "--max-worlds", "2",
                 "--samples", "10"]) == 0
    assert "up to 2 worlds" in capsys.readouterr().out


def test_valid_countermodel_json(capsys):
    assert main(["valid", "--formula", "[a]p -> p"]) == 3
    out = json.loads(capsys.readouterr().out)
    assert set(out) == {"world", "model"}
    assert out["model"]["worlds"] <= 2


def test_valid_countermodel_line_is_pinned(capsys):
    assert main(["valid", "--formula", "Oa p -> Op p"]) == 3
    assert capsys.readouterr().out == (
        '{"world":2,"model":{"worlds":3,"av":[[0],[1],[0,1]],'
        '"pv":[[0],[1],[0,1,2]],"ob":[{"context":[0],"members":[[0]]},'
        '{"context":[1],"members":[[1]]},'
        '{"context":[0,1],"members":[[0],[1],[0,1]]},'
        '{"context":[2],"members":[[2]]},'
        '{"context":[0,2],"members":[[2],[0,2]]},'
        '{"context":[1,2],"members":[[2],[1,2]]},'
        '{"context":[0,1,2],"members":[[2],[0,2],[1,2],[0,1,2]]}],'
        '"val":{"p":[0]}}}\n')


def test_valid_reproducible(capsys):
    assert main(["valid", "--formula", "O(p/q)", "--seed", "4"]) == 3
    first = capsys.readouterr().out
    assert main(["valid", "--formula", "O(p/q)", "--seed", "4"]) == 3
    assert capsys.readouterr().out == first


def test_embed_prints_named_term(capsys):
    assert main(["embed", "--formula", "O(p/q)"]) == 0
    assert capsys.readouterr().out.strip() == "λX:i. ob q p"


def test_embed_writes_thf(tmp_path, capsys):
    out = tmp_path / "problem.p"
    assert main(["embed", "--formula", "[p]p -> p", "--thf", str(out)]) == 0
    assert out.read_text() == to_thf_problem(parse("[p]p -> p")).text()
    # '-' goes to stdout
    assert main(["embed", "--formula", "[p]p -> p", "--thf", "-"]) == 0
    assert capsys.readouterr().out == out.read_text()


def test_faithfulness_ok(capsys):
    assert main(["faithfulness", "--samples", "40", "--seed", "7"]) == 0
    assert capsys.readouterr().out.strip() == "OK samples=40"


def test_axioms_listing(capsys):
    assert main(["axioms"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("AV: ")
    assert len(out.strip().splitlines()) == 8


def test_axioms_thf(tmp_path):
    out = tmp_path / "axioms.p"
    assert main(["axioms", "--thf", str(out)]) == 0
    text = out.read_text()
    assert text.count("thf(") == 11  # 3 declarations + 8 axioms


@pytest.mark.parametrize("command", ["validate-model", "check"])
def test_model_above_world_cap_is_a_one_line_error(tmp_path, capsys, command):
    # one ob entry on 26 worlds once kept validation running for minutes
    big = tmp_path / "big.json"
    big.write_text(json.dumps({
        "worlds": 26, "av": [[s] for s in range(26)],
        "pv": [[s] for s in range(26)],
        "ob": [{"context": [0], "members": [[0]]}], "val": {}}))
    argv = ([command, str(big)] if command == "validate-model"
            else [command, "--model", str(big), "--formula", "p"])
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: worlds:")


@pytest.mark.parametrize("command", ["validate-model", "check"])
def test_too_deeply_nested_model_json_is_a_model_error(tmp_path, capsys,
                                                       command):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    argv = ([command, str(deep)] if command == "validate-model"
            else [command, "--model", str(deep), "--formula", "p"])
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: not valid JSON: nested too deeply"]


@pytest.mark.parametrize("argv", [
    ["valid", "--formula", "av | p"],
    ["embed", "--formula", "av", "--thf", "-"],
    ["embed", "--formula", "p & O(not / q)"],
], ids=["valid", "embed-thf", "embed"])
def test_signature_name_as_atom_is_a_one_line_error(argv, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "is reserved for a signature constant" in err[0]


def test_model_with_signature_name_as_atom_is_a_one_line_error(tmp_path,
                                                                capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"worlds": 1, "av": [[0]], "pv": [[0]],
                                "ob": [], "val": {"ob": [0]}}))
    assert main(["check", "--model", str(path), "--formula", "p"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: val.ob:")


def test_usage_errors_exit_one(capsys):
    assert main([]) == 1
    assert main(["nonsense"]) == 1
    assert main(["valid"]) == 1  # missing --formula
    capsys.readouterr()


def test_parse_error_exit_one(capsys):
    assert main(["valid", "--formula", "p |"]) == 1
    assert "error" in capsys.readouterr().err


def test_missing_file_exit_one(capsys):
    assert main(["check", "--model", "/nonexistent.json",
                 "--formula", "p"]) == 1
    assert capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["valid", "--formula", "~" * 2000 + "p"],
    ["embed", "--thf", "-", "--formula", "~" * 600 + "p"],
], ids=["valid", "embed-thf"])
def test_deep_nesting_is_a_one_line_error(argv):
    proc = _cli_process(*argv)
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == ["error: formula nested too deeply"]


def test_embed_past_the_node_bound_is_a_one_line_error():
    # 25 nested `<->` have 11 * 2**25 - 10 nodes once unshared
    start = time.perf_counter()
    proc = _cli_process("embed", "--thf", "-", "--formula",
                        "p <-> (" * 25 + "p" + ")" * 25)
    elapsed = time.perf_counter() - start
    assert (proc.returncode, proc.stdout) == (1, "")
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error: formula too large to embed")
    assert elapsed < 1.0


def test_main_reuses_one_parser(monkeypatch, capsys):
    runs = [["embed", "--formula", "O(p/q)"], ["embed"],
            ["embed", "--formula", "O(p/q)"]]
    first = []
    for argv in runs:
        first.append((main(argv), *capsys.readouterr()))

    def no_new_parser(*args, **kwargs):
        raise AssertionError("main built an argument parser")

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", no_new_parser)
    for argv, expected in zip(runs, first):
        assert (main(argv), *capsys.readouterr()) == expected
    assert first[0] == first[2] and first[0][0] == 0
    assert first[1][0] == 1 and "--formula" in first[1][2]


@pytest.mark.parametrize("max_worlds,k,code", [
    ("3", 6, 0), ("3", 7, 1), ("4", 4, 0), ("4", 5, 1),
])
def test_valid_atom_bound(capsys, max_worlds, k, code):
    # lanes are 2**(worlds * atoms) bits wide; past 18 bits the search
    # refuses before building any
    x = "(" + " | ".join(f"a{i}" for i in range(k)) + ")"
    start = time.perf_counter()
    rc = main(["valid", "--formula", f"~{x} | {x}",
               "--max-worlds", max_worlds])
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    assert rc == code
    if code == 0:
        assert out == f"no counterexample up to {max_worlds} worlds\n"
    else:
        assert out == "" and len(err.splitlines()) == 1
        assert err.startswith(f"error: {k} atoms") and elapsed < 1.0


def test_unexpected_exception_is_a_one_line_internal_error(monkeypatch,
                                                           capsys):
    def broken(args):
        raise RuntimeError("boom\nsecond line")

    monkeypatch.setitem(cli._COMMANDS, "valid", broken)
    assert main(["valid", "--formula", "p"]) == 1
    assert capsys.readouterr().err.splitlines() \
        == ["error: internal: RuntimeError: boom second line"]


@pytest.mark.parametrize("formula,code,out", [
    ("~" * 494 + "(p | ~p)", 0, "no counterexample up to 3 worlds\n"),
    ("[a]" * 494 + "p", 3,
     '{"world":0,"model":{"worlds":1,"av":[[0]],"pv":[[0]],"ob":[],'
     '"val":{"p":[]}}}\n'),
], ids=["negations", "actual-boxes"])
def test_valid_answers_at_depth_494(formula, code, out):
    proc = _cli_process("valid", "--formula", formula)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, "")


def test_valid_answers_inside_250_parentheses():
    # each parenthesis level costs the parser two stack frames
    proc = _cli_process("valid", "--formula", "(" * 250 + "p" + ")" * 250)
    assert (proc.returncode, proc.stderr) == (3, "")


@pytest.mark.parametrize("d,code,out", [
    (40, 3, '{"world":0,"model":{"worlds":1,"av":[[0]],"pv":[[0]],"ob":[],'
            '"val":{"p":[]}}}\n'),
    (41, 0, "no counterexample up to 3 worlds\n"),
], ids=["refuted-40", "valid-41"])
def test_valid_answers_on_a_long_iff_chain(d, code, out):
    # the parser shares the operands of each `<->`: 9d+1 nodes but about
    # 2**d paths, and every walk of `valid` visits each node once
    start = time.perf_counter()
    proc = _cli_process("valid", "--formula", "p <-> (" * d + "p" + ")" * d,
                        timeout=60)
    elapsed = time.perf_counter() - start
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, "")
    assert elapsed < 2.0
