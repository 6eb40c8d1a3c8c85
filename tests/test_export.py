import random
from pathlib import Path

import pytest

from ddlkit.export import (ExportError, ThfProblem, axioms_problem,
                           thf_type, to_thf_problem, to_thf_term)
from ddlkit.hol import (I, TAU, Arrow, Free, O, axioms, beta_eta_normalize,
                        embed, vld)
from ddlkit.syntax import MAX_NESTING, Atom, Or, parse, random_formula
from helpers import check_thf_problem_text, oracle_thf_problem, thf_tokens

GOLDEN = Path(__file__).parent / "golden"
GOLDEN_CASES = {
    "boxp_reflexive.p": "[p]p -> p",
    "excluded_middle.p": "~p | p",
    "obligation_rigid.p": "O(p/q) -> []O(p/q)",
}


def test_type_rendering():
    assert thf_type(I) == "$i"
    assert thf_type(O) == "$o"
    assert thf_type(TAU) == "$i > $o"
    assert thf_type(Arrow(TAU, Arrow(TAU, O))) == "($i > $o) > ($i > $o) > $o"


def test_av_axiom_rendering():
    assert to_thf_term(dict(axioms())["AV"]) \
        == "![V0:$i]: ?[V1:$i]: ((av @ V0) @ V1)"


def test_atom_renders_bare():
    assert to_thf_term(embed(parse("p"))) == "p"


def test_vld_of_atom_eta_expands_quantifier():
    goal = beta_eta_normalize(vld(embed(parse("p"))))
    assert to_thf_term(goal) == "![V0:$i]: (p @ V0)"


def test_conjecture_for_excluded_middle():
    prob = to_thf_problem(parse("~p | p"))
    conjecture = [c for _, role, c in prob.entries if role == "conjecture"]
    assert conjecture == ["![V0:$i]: (~(p @ V0) | (p @ V0))"]


def test_problem_layout():
    prob = to_thf_problem(parse("O(p/q)"))
    roles = [role for _, role, _ in prob.entries]
    assert roles == ["type"] * 5 + ["axiom"] * 8 + ["conjecture"]
    names = [name for name, _, _ in prob.entries]
    assert names[:5] == ["av_type", "pv_type", "ob_type", "p_type", "q_type"]
    assert names[5:13] == ["av", "pv1", "pv2", "ob1", "ob2", "ob3", "ob4",
                           "ob5"]
    assert names[13] == "goal"
    assert prob.text().count("thf(") == 14


def test_deterministic_bytes():
    a = to_thf_problem(parse("[a]p -> <a>p")).text()
    b = to_thf_problem(parse("[a]p -> <a>p")).text()
    assert a == b
    assert axioms_problem().text() == axioms_problem().text()


@pytest.mark.parametrize("fname,formula", sorted(GOLDEN_CASES.items()))
def test_golden_files(fname, formula):
    expected = (GOLDEN / fname).read_bytes()
    assert to_thf_problem(parse(formula)).text().encode("utf-8") == expected


@pytest.mark.parametrize("fname", sorted(GOLDEN_CASES))
def test_golden_files_tokenize(fname):
    check_thf_problem_text((GOLDEN / fname).read_text())


def test_rendering_totality_on_random_formulas():
    rng = random.Random(88)
    for _ in range(100):
        f = random_formula(rng, 5)
        text = to_thf_problem(f).text()
        check_thf_problem_text(text)


def test_axioms_problem_has_no_conjecture():
    prob = axioms_problem()
    assert all(role != "conjecture" for _, role, _ in prob.entries)
    assert sum(role == "axiom" for _, role, _ in prob.entries) == 8
    check_thf_problem_text(prob.text())


def test_reserved_symbol_collision_rejected():
    # the parser already refuses these atoms, so build them directly
    with pytest.raises(ExportError):
        to_thf_problem(Or(Atom("ob"), Atom("p")))
    with pytest.raises(ExportError):
        to_thf_problem(Atom("av"))


def test_unrenderable_terms_rejected():
    with pytest.raises(ExportError):
        to_thf_term(Free("x", I))
    from ddlkit.hol import NOT
    with pytest.raises(ExportError):
        to_thf_term(NOT)  # bare connective


def test_lambda_argument_is_delimited():
    text = to_thf_term(dict(axioms())["OB1"])
    assert "@ (^[V1:$i]:" in text
    tokens = thf_tokens(text)
    assert tokens.count("(") == tokens.count(")")


def test_problem_str_matches_text():
    prob = to_thf_problem(parse("p"))
    assert str(prob) == prob.text()
    assert isinstance(prob, ThfProblem)


def test_rendering_matches_the_oracle_renderer():
    rng = random.Random(14)
    formulas = [random_formula(rng, rng.randint(1, 8), ("p", "q", "r"))
                for _ in range(2000)]
    # the deepest formulas test_cli.py feeds `embed --thf` at the cap
    formulas += [parse("(" * MAX_NESTING + "p" + ")" * MAX_NESTING),
                 parse("<>" * MAX_NESTING + "p" + " & p" * MAX_NESTING)]
    for f in formulas:
        assert to_thf_problem(f).text() == oracle_thf_problem(f).text()
