import pytest

from ddlkit import faithful
from ddlkit.henkin import TRUE, eval_term
from ddlkit.cli import main
from ddlkit.faithful import Mismatch, check_faithfulness
from ddlkit.model import load_model
from ddlkit.syntax import parse
from helpers import mk_model

MINIMAL = mk_model(1, av=[[0]], pv=[[0]], ob=[], val={"p": [0]})


def test_check_faithfulness_clean_and_deterministic():
    rep = check_faithfulness(n_max=2, samples=60, seed=9)
    assert rep.ok and rep.samples == 60
    assert rep.render() == check_faithfulness(n_max=2, samples=60,
                                              seed=9).render()
    assert rep.render().endswith("OK samples=60")


@pytest.fixture
def negated_route(monkeypatch):
    # the embedded route answers wrongly, at every world and model-wide
    # (the direct route reads both answers off one truth set, so no
    # wrong set could be wrong on both)
    monkeypatch.setattr(faithful, "eval_term",
                        lambda h, t, free=None: TRUE - eval_term(h, t, free))


def test_check_faithfulness_reports_both_kinds_of_mismatch(
        negated_route):
    rep = check_faithfulness(n_max=2, samples=5, seed=0)
    assert not rep.ok
    assert [mm.kind for mm in rep.mismatches] == ["world", "validity"] * 5
    lines = rep.render().splitlines()
    assert all(line.startswith("MISMATCH model={") for line in lines[:-1])
    assert lines[-1] == "FAIL samples=5 mismatches=10"


def test_faithfulness_command_fails_on_a_mismatch(negated_route,
                                                   capsys):
    assert main(["faithfulness", "--samples", "5"]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 11
    assert all(line.startswith("MISMATCH ") for line in lines[:-1])
    assert lines[-1] == "FAIL samples=5 mismatches=10"


def test_check_faithfulness_bounds():
    with pytest.raises(ValueError):
        check_faithfulness(n_max=5, samples=1, seed=0)


def test_mismatch_line_format():
    mm = Mismatch(MINIMAL, 0, parse("p"), "world")
    line = mm.render()
    assert line.startswith("MISMATCH model={")
    assert "world=0" in line and "formula=p" in line
    assert Mismatch(MINIMAL, None, parse("p"), "validity").render().count(
        "world=all") == 1


def test_every_mismatch_line_replays_its_sample(negated_route):
    # a reported line alone gives back the sampled model, world and
    # formula: the model JSON has no spaces, so the formula is the rest
    rep = check_faithfulness(n_max=3, samples=20, seed=5)
    lines = rep.render().splitlines()[:-1]
    assert len(lines) == len(rep.mismatches) == 40
    for mm, line in zip(rep.mismatches, lines):
        tag, model, world, formula = line.split(" ", 3)
        assert tag == "MISMATCH"
        assert model.startswith("model=")
        assert load_model(model.removeprefix("model=")) == mm.model
        assert world == ("world=all" if mm.kind == "validity"
                         else f"world={mm.world}")
        assert mm.kind == "validity" or mm.world < mm.model.n
        assert formula.startswith("formula=")
        assert parse(formula.removeprefix("formula=")) == mm.formula
