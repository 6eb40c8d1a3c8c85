import random
from dataclasses import replace

import pytest

from ddlkit import henkin
from ddlkit.checker import eval_formula, valid_in_model
from ddlkit.cli import main
from ddlkit.henkin import (FALSE, TRUE, AxiomCheckError, DomainBudgetError,
                           EvalError, HenkinModel, Mismatch, build_henkin,
                           check_axioms, check_faithfulness, domain_size,
                           enumerate_domain, eval_term, extract_model)
from ddlkit.hol import (I, NOT, OR, TAU, Abs, App, Arrow, Bound, Free, O,
                        atom_const, axioms, embed, eq_const, equals, exists,
                        false_term, forall, land, leibniz_eq, liff, limp, lor,
                        neg, pi_const, pretty_term, true_term, vld)
from ddlkit.model import _valid_ob_tables, random_model, validate
from ddlkit.syntax import parse, pretty, random_formula
from helpers import (interpreted_frame_failures, mk_model, oracle_eval_term,
                     random_term)

MINIMAL = mk_model(1, av=[[0]], pv=[[0]], ob=[], val={"p": [0]})


def random_models(count, n_max=3, seed=21, atoms=("p", "q")):
    rng = random.Random(seed)
    for _ in range(count):
        yield random_model(rng.randint(1, n_max), atoms, rng.getrandbits(63),
                           rng.choice((0.0, 0.2, 0.4, 0.6)))


def test_truth_constants_evaluate():
    for m in random_models(5):
        h = build_henkin(m)
        assert eval_term(h, true_term()) == TRUE
        assert eval_term(h, false_term()) == FALSE


def test_universal_over_worlds_fails_on_partial_atom():
    m = mk_model(2, av=[[0], [1]], pv=[[0], [1]], ob=[], val={"p": [0]})
    h = build_henkin(m)
    sentence = forall(I, App(atom_const("p"), Bound(0)), "S")
    assert eval_term(h, sentence) == FALSE
    m_full = mk_model(2, av=[[0], [1]], pv=[[0], [1]], ob=[],
                      val={"p": [0, 1]})
    assert eval_term(build_henkin(m_full), sentence) == TRUE


def test_build_henkin_rejects_atoms_named_like_signature_constants():
    # `av` would overwrite the av table: av | p would come out valid
    with pytest.raises(ValueError, match="'av' is reserved"):
        build_henkin(random_model(2, ["av", "p"], seed=4))
    with pytest.raises(ValueError, match="'not' is reserved"):
        build_henkin(mk_model(1, av=[[0]], pv=[[0]], ob=[], val={"not": []}))


def test_build_henkin_minimal_av_table():
    h = build_henkin(MINIMAL)
    assert h.n == 1
    assert h.interp["av"] & 1 == TRUE
    assert h.interp["p"] & 1 == TRUE


def test_axioms_hold_on_built_interpretations():
    for m in random_models(30):
        assert check_axioms(build_henkin(m)) is None


def test_frame_conditions_hold_on_built_interpretations():
    for m in random_models(20):
        assert interpreted_frame_failures(build_henkin(m)) == []


def test_per_world_agreement_with_direct_semantics():
    rng = random.Random(31)
    for m in random_models(40, seed=32, atoms=("p", "q", "r")):
        f = random_formula(rng, 5)
        h = build_henkin(m)
        t = App(embed(f), Free("S", I))
        for s in range(m.n):
            got = eval_term(h, t, {"S": s}) == TRUE
            assert got == eval_formula(m, s, f), (pretty(f), s)


def test_validity_agreement_with_direct_semantics():
    rng = random.Random(33)
    for m in random_models(40, seed=34, atoms=("p", "q", "r")):
        f = random_formula(rng, 5)
        h = build_henkin(m)
        assert (eval_term(h, vld(embed(f))) == TRUE) == valid_in_model(m, f)


def test_extract_round_trips_build():
    for m in random_models(25, seed=35):
        assert extract_model(build_henkin(m), m.val.keys()) == m


def test_extract_round_trips_every_valid_ob_table():
    frame = mk_model(3, av=[[1], [0, 2], [2]], pv=[[0, 1], [0, 1, 2], [2]],
                     ob=[], val={"p": [0, 2]})
    for table in _valid_ob_tables(3):
        m = replace(frame, ob=table)
        assert extract_model(build_henkin(m), m.val.keys()) == m


def test_extract_rejects_av_violation():
    h = build_henkin(MINIMAL)
    broken = HenkinModel(1, {**h.interp, "av": 0})
    with pytest.raises(AxiomCheckError) as e:
        extract_model(broken, ["p"])
    assert e.value.axiom == "AV"
    assert "av" in interpreted_frame_failures(broken)


def test_extract_validates_result():
    for m in random_models(10, seed=36):
        out = extract_model(build_henkin(m), m.val.keys())
        assert validate(out).ok


def test_leibniz_equality_in_standard_models():
    m = mk_model(2, av=[[0], [1]], pv=[[0], [1]], ob=[], val={"p": [0]})
    h = build_henkin(m)
    w0 = Free("a", I)
    w1 = Free("b", I)
    same = {"a": 1, "b": 1}
    diff = {"a": 0, "b": 1}
    t = leibniz_eq(w0, w1)
    assert eval_term(h, t, same) == TRUE
    # the full function space contains the discriminating predicate
    assert eval_term(h, t, diff) == FALSE
    assert eval_term(h, equals(I, w0, w1), diff) == FALSE


def test_standardness_domain_sizes():
    for n in (2, 3):
        assert len(enumerate_domain(n, O)) == 2
        assert len(enumerate_domain(n, I)) == n
        for a, b in ((I, O), (O, O), (TAU, O)):
            ab = Arrow(a, b)
            expected = len(enumerate_domain(n, b)) ** len(enumerate_domain(n, a))
            assert len(enumerate_domain(n, ab)) == expected
            assert domain_size(n, ab) == expected


def test_domain_budget_error_names_type_and_size():
    with pytest.raises(DomainBudgetError) as e:
        enumerate_domain(4, Arrow(TAU, TAU))
    msg = str(e.value)
    assert "(i>o)>i>o" in msg and str(16 ** 16) in msg


def test_eval_unassigned_free_variable():
    from ddlkit.henkin import EvalError

    h = build_henkin(MINIMAL)
    with pytest.raises(EvalError):
        eval_term(h, Free("nope", I))


def test_eval_free_variable_outside_its_domain():
    from ddlkit.henkin import EvalError

    h = build_henkin(MINIMAL)
    for name, ty, value in (("S", I, 5), ("S", I, 1), ("S", I, -1),
                            ("a", O, 2), ("P", TAU, 2)):
        with pytest.raises(EvalError):
            eval_term(h, Free(name, ty), {name: value})


def test_unapplied_logical_constants_match_applied_clauses():
    # a table is the number sum(f(x) * |D(res)|**x for x in D(arg)); the
    # applied clauses fix every digit
    a, b = Free("a", O), Free("b", O)
    for m in random_models(6, seed=48):
        h = build_henkin(m)
        n, worlds = m.n, range(m.n)
        assert eval_term(h, NOT) == 1
        assert eval_term(h, OR) == 14
        for va in (FALSE, TRUE):
            assert eval_term(h, App(OR, a), {"a": va}) == \
                sum(eval_term(h, lor(a, b), {"a": va, "b": vb}) << vb
                    for vb in (FALSE, TRUE))
        eq_table = eval_term(h, eq_const(I))
        x, y = Free("x", I), Free("y", I)
        assert eq_table == sum(
            eval_term(h, equals(I, x, y), {"x": vx, "y": vy}) << (vx * n + vy)
            for vx in worlds for vy in worlds)
        pi_table = eval_term(h, pi_const(I))
        p = Free("P", TAU)
        assert pi_table == sum(
            eval_term(h, forall(I, App(p, Bound(0))), {"P": vp}) << vp
            for vp in enumerate_domain(n, TAU))
        # the tables apply like any other function value
        f = Free("f", Arrow(I, TAU))
        assert eval_term(h, App(App(f, x), y), {"f": eq_table, "x": 0,
                                                "y": 0}) == TRUE
        assert eval_term(h, Abs(TAU, App(pi_const(I), Bound(0)))) == \
            pi_table


def test_application_reads_a_digit_in_a_base_that_is_no_power_of_two():
    # at 3 worlds a function of type i>i is a 3-digit number in base 3
    h = build_henkin(mk_model(3, av=[[0], [1], [2]], pv=[[0, 1, 2]] * 3,
                              ob=[], val={}))
    f, x = Free("f", Arrow(I, I)), Free("x", I)
    for vf in range(27):
        for vx in range(3):
            assert eval_term(h, App(f, x), {"f": vf, "x": vx}) \
                == vf // 3 ** vx % 3


def test_connective_clauses_on_random_values():
    rng = random.Random(44)
    a, b = Free("a", O), Free("b", O)
    for m in random_models(10, seed=45):
        h = build_henkin(m)
        for _ in range(10):
            va, vb = int(rng.random() < 0.5), int(rng.random() < 0.5)
            g = {"a": va, "b": vb}
            assert eval_term(h, neg(a), g) == int(va != TRUE)
            assert eval_term(h, lor(a, b), g) == int(va == TRUE or vb == TRUE)
            assert eval_term(h, land(a, b), g) == int(va == TRUE and vb == TRUE)
            assert eval_term(h, limp(a, b), g) == int(va != TRUE or vb == TRUE)
            assert eval_term(h, liff(a, b), g) == int(va == vb)


def test_quantifier_clauses_against_tables():
    rng = random.Random(46)
    pred = Free("P", TAU)
    for m in random_models(10, seed=47):
        h = build_henkin(m)
        dom = enumerate_domain(m.n, TAU)
        table = rng.choice(dom)
        g = {"P": table}
        all_true = all(table >> s & 1 for s in range(m.n))
        some_true = any(table >> s & 1 for s in range(m.n))
        assert eval_term(h, forall(I, App(pred, Bound(0))),
                         g) == int(all_true)
        assert eval_term(h, exists(I, App(pred, Bound(0))),
                         g) == int(some_true)


def test_check_faithfulness_clean_and_deterministic():
    rep = check_faithfulness(n_max=2, samples=60, seed=9)
    assert rep.ok and rep.samples == 60
    assert rep.render() == check_faithfulness(n_max=2, samples=60,
                                              seed=9).render()
    assert rep.render().endswith("OK samples=60")


@pytest.fixture
def negated_direct_route(monkeypatch):
    # the direct route answers wrongly, at every world and model-wide
    monkeypatch.setattr(henkin, "eval_formula",
                        lambda m, s, f: not eval_formula(m, s, f))
    monkeypatch.setattr(henkin, "valid_in_model",
                        lambda m, f: not valid_in_model(m, f))


def test_check_faithfulness_reports_both_kinds_of_mismatch(
        negated_direct_route):
    rep = check_faithfulness(n_max=2, samples=5, seed=0)
    assert not rep.ok
    assert [mm.kind for mm in rep.mismatches] == ["world", "validity"] * 5
    lines = rep.render().splitlines()
    assert all(line.startswith("MISMATCH model={") for line in lines[:-1])
    assert lines[-1] == "FAIL samples=5 mismatches=10"


def test_faithfulness_command_fails_on_a_mismatch(negated_direct_route,
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


# --- the compiled evaluator against the earlier compiler ----------------


def _outcome(evaluate, h, t, free=None):
    """The value, or the error's type and message."""
    try:
        return evaluate(h, t, free)
    except EvalError as e:
        return type(e).__name__, str(e)


def _flipped(h, rng):
    """The interpretation with one random bit of ob, av or pv flipped."""
    name = rng.choice(("ob", "av", "pv"))
    bits = (1 << 2 * h.n) if name == "ob" else h.n * h.n
    return HenkinModel(h.n, {**h.interp,
                             name: h.interp[name] ^ 1 << rng.randrange(bits)})


def _free_vars(t, out):
    if isinstance(t, Free):
        out[t.name] = t.ty
    for attr in ("fn", "arg", "body"):
        if hasattr(t, attr):
            _free_vars(getattr(t, attr), out)
    return out


def test_axioms_match_the_earlier_compiler_on_built_and_flipped_images():
    rng = random.Random(91)
    failing = set()
    for n, count in ((1, 6), (2, 6), (3, 4)):
        for _ in range(count):
            m = random_model(n, ("p", "q"), rng.getrandbits(63),
                             rng.choice((0.0, 0.15, 0.3, 0.5)))
            h = build_henkin(m)
            for image in (h, _flipped(h, rng), _flipped(h, rng),
                          _flipped(h, rng)):
                for name, term in axioms():
                    got = eval_term(image, term)
                    assert got == oracle_eval_term(image, term), (name, m)
                    if got == FALSE:
                        failing.add(name)
    # the flips reach the failing side of every ob axiom and of AV, PV2
    assert failing >= {"AV", "PV2", "OB1", "OB2", "OB3", "OB4", "OB5"}


def test_random_terms_match_the_earlier_compiler():
    rng = random.Random(92)
    for m in random_models(1000, seed=93):
        h = build_henkin(m)
        t = random_term(rng, depth=6)
        free = {name: rng.randrange(domain_size(m.n, ty))
                for name, ty in _free_vars(t, {}).items()}
        assert _outcome(eval_term, h, t, free) == \
            _outcome(oracle_eval_term, h, t, free), (pretty_term(t), free)


def test_embedded_formulas_match_the_earlier_compiler():
    rng = random.Random(94)
    for m in random_models(60, seed=95, atoms=("p", "q", "r")):
        h = build_henkin(m)
        t = embed(random_formula(rng, 6, ("p", "q", "r")))
        at_world = App(t, Free("S", I))
        for s in range(m.n):
            assert eval_term(h, at_world, {"S": s}) == \
                oracle_eval_term(h, at_world, {"S": s})
        assert eval_term(h, vld(t)) == oracle_eval_term(h, vld(t))


@pytest.mark.parametrize("evaluate", [eval_term, oracle_eval_term],
                         ids=["compiled", "oracle"])
def test_domain_budget_error_is_raised_only_where_a_quantifier_runs(
        evaluate):
    h = build_henkin(mk_model(4, av=[[0], [1], [2], [3]],
                              pv=[[0, 1, 2, 3]] * 4, ob=[], val={}))
    big = forall(Arrow(TAU, TAU), true_term())
    for reached in (big, lor(false_term(), big), limp(true_term(), big),
                    land(true_term(), big)):
        with pytest.raises(DomainBudgetError) as e:
            evaluate(h, reached)
        assert str(e.value) == (f"domain for type (i>o)>i>o has {16 ** 16} "
                                f"elements, exceeding the budget of "
                                f"{henkin.DOMAIN_BUDGET}")
    assert evaluate(h, lor(true_term(), big)) == TRUE
    assert evaluate(h, limp(false_term(), big)) == TRUE
    assert evaluate(h, land(false_term(), big)) == FALSE
