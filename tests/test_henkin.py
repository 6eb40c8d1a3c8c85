import random
import sys
import threading
from dataclasses import replace

import pytest

from ddlkit import henkin
from ddlkit.checker import eval_formula, valid_in_model
from ddlkit.henkin import (FALSE, TRUE, AxiomCheckError, DomainBudgetError,
                           EvalError, ExtractionError, HenkinModel,
                           build_henkin, check_axioms, domain_size,
                           enumerate_domain, eval_term, extract_model)
from ddlkit.hol import (AV, I, NOT, OB, OR, PI_NAME, PV, TAU, Abs, App, Arrow,
                        Bound, Const, Free, O, atom_const, axioms,
                        beta_eta_normalize, embed, eq_const, equals, exists,
                        false_term, forall, land, liff, limp, lor, neg,
                        pi_const, pretty_term, true_term, vld)
from ddlkit.model import (CJModel, _valid_ob_tables, full_mask, ideal_ob,
                          ideal_of, ideal_sets, ob_member, random_model,
                          validate)
from ddlkit.syntax import parse, pretty, random_formula
from helpers import (all_candidate_ob_tables, interpreted_frame_failures,
                     leibniz_eq, mk_model, oracle_eval_term, random_term)

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


def pairwise_ob_image(m: CJModel) -> int:
    """The ob table of an interpretation, one `ob_member` per pair."""
    dom = range(1 << m.n)
    return sum(ob_member(m, x, y) << (x << m.n) + y for x in dom for y in dom)


def test_ob_image_is_the_pairwise_image_of_every_valid_table():
    for n in range(1, 5):
        for table in _valid_ob_tables(n):
            m = CJModel(n, tuple(1 << s for s in range(n)),
                        tuple(1 << s for s in range(n)), table, {})
            image = henkin._ob_image(n, ideal_of(table, n))
            assert image == pairwise_ob_image(m)
            assert build_henkin(m).interp["ob"] == image


def test_build_henkin_refuses_an_invalid_ob_table():
    m = CJModel(2, (1, 2), (1, 3), {1: frozenset({1})}, {"p": 1})
    assert not validate(m).ok
    with pytest.raises(ValueError, match="^ob table is not valid$"):
        build_henkin(m)


def test_extract_reads_ob_only_off_the_image_of_a_valid_table(monkeypatch):
    # with the axiom check passing anything, the image of every trace
    # table on two worlds: the valid ones come back, and no other gives
    # a model
    monkeypatch.setattr(henkin, "check_axioms", lambda h: None)
    base = build_henkin(CJModel(2, (1, 2), (1, 3), {}, {"p": 1}))
    refused = 0
    for table in all_candidate_ob_tables(2):
        m = CJModel(2, (1, 2), (1, 3), table, {"p": 1})
        h = HenkinModel(2, {**base.interp, "ob": pairwise_ob_image(m)})
        if validate(m).ok:
            assert h == build_henkin(m)
            assert extract_model(h, ["p"]) == m
        else:
            with pytest.raises(ExtractionError, match="^table of 'ob' is not "
                                                      "the image of a valid"):
                extract_model(h, ["p"])
            refused += 1
    assert refused == 27


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


def test_extract_refuses_what_no_model_gives_back():
    h = build_henkin(MINIMAL)
    # atoms named like signature constants: build_henkin rejects them
    with pytest.raises(ExtractionError, match="'av' is reserved"):
        extract_model(h, ["av", "pv"])
    # an atom's table past the worlds
    with pytest.raises(ExtractionError, match="'p' has bits past entry 0"):
        extract_model(HenkinModel(1, {**h.interp, "p": 0b10}), ["p"])
    # no worlds: its tables pass, but a model has at least one world
    with pytest.raises(ExtractionError, match="has 0 worlds"):
        extract_model(HenkinModel(0, {"av": 0, "pv": 0, "ob": 0}), [])
    # bits of av, pv or ob past their domain
    m = random_model(2, ("p",), 3)
    h = build_henkin(m)
    for name, size in (("av", 4), ("pv", 4), ("ob", 16)):
        bad = HenkinModel(2, {**h.interp, name: h.interp[name] | 1 << size})
        with pytest.raises(ExtractionError, match=f"'{name}' has bits past "
                                                  f"entry {size - 1}$"):
            extract_model(bad, m.val.keys())
    assert extract_model(h, m.val.keys()) == m


def test_four_worlds_round_trip_and_axioms_match_frame_conditions():
    rng = random.Random(99)
    named = set()
    for density in (0.0, 0.2, 0.4):
        m = random_model(4, ("p",), rng.getrandbits(63), density)
        h = build_henkin(m)
        assert check_axioms(h) is None
        assert extract_model(h, m.val.keys()) == m
        for _ in range(3):
            image = _flipped(h, rng)
            failing = check_axioms(image)
            frame = interpreted_frame_failures(image)
            assert (failing is None) == (frame == []), (failing, frame)
            if failing is not None:
                assert failing.lower() in frame, (failing, frame)
                named.add(failing)
    assert named  # the flips reach the failing side


@pytest.mark.parametrize("n", [5, 8])
def test_axioms_past_four_worlds_are_refused_before_any_runs(monkeypatch, n):
    # OB3's ∀B : (i>o)>o is past the budget from 5 worlds: the check
    # refuses at once, naming the type, not after AV..OB2 have run
    m = random_model(n, ("p",), 3)
    assert validate(m).ok
    h = build_henkin(m)
    runs = [0]
    monkeypatch.setattr(henkin, "_AXIOMS", {})
    monkeypatch.setattr(
        henkin._Compiled, "run", lambda self, *a, run=henkin._Compiled.run:
        runs.__setitem__(0, runs[0] + 1) or run(self, *a))
    with pytest.raises(DomainBudgetError) as e:
        extract_model(h, m.val.keys())
    assert str(e.value) == (f"domain for type (i>o)>o has {2 ** 2 ** n} "
                            f"elements, exceeding the budget of "
                            f"{henkin.DOMAIN_BUDGET}")
    assert runs[0] == 0 and henkin._AXIOMS == {}


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


def test_power_towers_are_refused_before_their_size_is_built():
    h = HenkinModel(3, {})
    b = Arrow(TAU, O)  # 256 elements at n = 3
    tower = forall(Arrow(Arrow(b, O), O), true_term())
    with pytest.raises(DomainBudgetError) as e:
        eval_term(h, tower)
    assert str(e.value) == (f"domain for type (((i>o)>o)>o)>o has more than "
                            f"2**{henkin.DOMAIN_BUDGET} elements, exceeding "
                            f"the budget of {henkin.DOMAIN_BUDGET}")
    # the binder is still lazy: a short circuit never runs it
    assert eval_term(h, lor(true_term(), tower)) == TRUE
    # a tower in the result type: D(b) has 2**16 elements at n = 4, so
    # D(b>b>o) has (2**2**16)**2**16 = 2**2**32
    with pytest.raises(DomainBudgetError) as e:
        domain_size(4, Arrow(b, Arrow(b, O)))
    assert "type ((i>o)>o)>((i>o)>o)>o has more than" in str(e.value)
    with pytest.raises(EvalError, match="not a type"):
        domain_size(3, "o")


def test_a_negative_world_count_is_refused():
    # every domain is sized through domain_size, so no caller builds a
    # domain from 2 ** -1, and ∀X:i. F does not hold vacuously
    h = HenkinModel(-1, {})
    for run in (lambda: eval_term(h, forall(TAU, false_term())),
                lambda: eval_term(h, forall(I, false_term())),
                lambda: check_axioms(h), lambda: domain_size(-1, O)):
        with pytest.raises(EvalError) as e:
            run()
        assert type(e.value) is EvalError
        assert str(e.value) == "a model has 0 or more worlds, not -1"
    # no worlds: D(i) is empty and D(i>o) holds one function
    h = HenkinModel(0, {})
    assert eval_term(h, forall(I, false_term())) == TRUE
    assert eval_term(h, forall(TAU, false_term())) == FALSE


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
        # Pi f is Pi (λx. f x), for a predicate f that is no λ
        assert eval_term(h, App(pi_const(I), pred), g) == int(all_true)
        free = {"w": rng.randrange(m.n)}
        for t in (App(pi_const(I), atom_const("p")),
                  App(pi_const(I), App(AV, Free("w", I)))):
            assert eval_term(h, t, free) == oracle_eval_term(h, t, free)


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


def _nest(form, d):
    """The formula `form`, (before, innermost, after), nested d deep."""
    before, inner, after = form
    return parse(before * d + inner + after * d)


# nests of world binders that read their variable through `ob (av V)`
# inside Oa or Op, which has no lane code: a lift of such a binder would
# fail, and the whole term would be compiled again with none lifted.
# World binders are never lifted, so the term compiles once, each body
# as a loop; in the last, the [a] inside each box reads that box's world
FAILED_LIFTS = (("[](", "q", " | Oa q)"), ("[a](", "q", " | Oa q)"),
                ("[](", "q", " | [](q) | Oa q)"),
                ("[a](Op q -> ", "<p>p", ")"),
                ("[](", "[a]([a](q | Oa q))", " | Oa q)"))


def test_embedded_formulas_match_the_earlier_compiler():
    rng = random.Random(94)
    fixed = [_nest(form, d) for form in FAILED_LIFTS for d in range(1, 5)]
    for k, m in enumerate(random_models(60, seed=95, atoms=("p", "q", "r"))):
        h = build_henkin(m)
        formulas = [random_formula(rng, 6, ("p", "q", "r"))]
        if k % 4 == 0:
            formulas += fixed
        for f in formulas:
            t = embed(f)
            at_world = App(t, Free("S", I))
            for s in range(m.n):
                assert eval_term(h, at_world, {"S": s}) == \
                    oracle_eval_term(h, at_world, {"S": s}), (pretty(f), s)
            assert eval_term(h, vld(t)) == oracle_eval_term(h, vld(t)), \
                pretty(f)


def _predicate_nest(d):
    """∀X:i>o. (inner ∧ X = X) nested d deep around ∀x:i. p x: the
    outermost ∀X is lifted, with every ∀X inside it looping in its lanes,
    and fails at its own X = X (equality at i>o has no lane code), the
    last node compiled; the whole term is then compiled again with no
    binder lifted."""
    t = forall(I, App(atom_const("p"), Bound(0)))
    for _ in range(d):
        t = forall(TAU, land(t, equals(TAU, Bound(0), Bound(0))))
    return t


_WORLDS_3 = mk_model(3, av=[[0], [1], [2]], pv=[[0, 1, 2]] * 3, ob=[],
                     val={"q": [1]})
_WORLDS_2 = mk_model(2, av=[[0], [1]], pv=[[0, 1]] * 2, ob=[],
                     val={"p": [0, 1]})


@pytest.mark.parametrize("m, nest, d", [
    (_WORLDS_2, _predicate_nest, 4),
    *((_WORLDS_3, lambda d, form=form: vld(embed(_nest(form, d))), 8)
      for form in FAILED_LIFTS[:3])],
    ids=["forall X. (... & X = X)"]
    + [form[0] + "..." + form[2] for form in FAILED_LIFTS[:3]])
def test_compile_stays_linear_when_a_lift_fails_late(monkeypatch, m, nest,
                                                     d):
    # the outermost ∀X compiles its body in its own lanes and fails at
    # its X = X; `_compile_term` then compiles the whole term once more
    # with no binder lifted, so a failed lift doubles the compiles once per
    # term, not once per level.  The world nests never lift and compile
    # each body once
    calls = [0]
    monkeypatch.setattr(
        henkin, "_compile", lambda *a, run=henkin._compile:
        calls.__setitem__(0, calls[0] + 1) or run(*a))
    h = build_henkin(m)
    counts = []
    for depth in (d, 2 * d):
        calls[0] = 0
        eval_term(h, nest(depth))
        counts.append(calls[0])
    assert counts[1] <= 2.25 * counts[0], counts


def test_no_lift_is_retried_on_the_embedded_routes_terms(monkeypatch):
    # only the outermost predicate quantifiers are lifted, and every one
    # in the axioms has lane code for its whole body, so none raises
    # _Unlifted and no term is compiled twice.  Embedded formulas quantify
    # over worlds only, so they lift no binder at all
    raised = [0]
    monkeypatch.setattr(henkin._Unlifted, "__init__",
                        lambda self, *a: raised.__setitem__(0, raised[0] + 1))
    rng = random.Random(99)
    for n in (1, 2, 3, 4):
        h = build_henkin(random_model(n, ("p",), rng.getrandbits(63), 0.3))
        for name, term in axioms():
            eval_term(h, term)
            assert raised[0] == 0, (name, n)
    built = _count_builds(monkeypatch, ("_lifted",))
    formulas = [_nest(form, d) for form in FAILED_LIFTS for d in (1, 3)]
    formulas += [random_formula(rng, 6, ("p", "q")) for _ in range(30)]
    for k, f in enumerate(formulas):
        m = random_model(1 + k % 3, ("p", "q"), rng.getrandbits(63), 0.3)
        h, t = build_henkin(m), embed(f)
        eval_term(h, vld(t))
        for s in range(m.n):
            eval_term(h, App(t, Free("S", I)), {"S": s})
        assert raised[0] == 0, pretty(f)
    assert built["_lifted"] == 0


@pytest.mark.parametrize("evaluate", [eval_term, oracle_eval_term],
                         ids=["compiled", "oracle"])
def test_domain_budget_error_is_raised_only_where_a_quantifier_runs(
        evaluate):
    m = mk_model(4, av=[[0], [1], [2], [3]], pv=[[0, 1, 2, 3]] * 4, ob=[],
                 val={"q": [1], "r": []})
    h = build_henkin(m)
    big = forall(Arrow(TAU, TAU), true_term())
    for reached in (big, lor(false_term(), big), limp(true_term(), big),
                    land(true_term(), big)):
        with pytest.raises(DomainBudgetError) as e:
            evaluate(h, reached)
        assert str(e.value) == (f"domain for type (i>o)>i>o has {16 ** 16} "
                                f"elements, exceeding the budget of "
                                f"{henkin.DOMAIN_BUDGET}")
    if evaluate is eval_term:
        # Pi f is Pi (λx. f x), a binder over f's domain like any other;
        # the oracle compares f's table with a mask of 16**16 bits
        alpha = Arrow(TAU, TAU)
        f = App(eq_const(alpha), Abs(TAU, Abs(I, true_term())))
        with pytest.raises(DomainBudgetError):
            evaluate(h, App(pi_const(alpha), f))
    assert evaluate(h, lor(true_term(), big)) == TRUE
    assert evaluate(h, limp(false_term(), big)) == TRUE
    assert evaluate(h, land(false_term(), big)) == FALSE
    # under a binder the loop stops at the first world, where q V → big
    # holds without running big and r V fails; lanes would run big, so a
    # binder past the budget under a lifted one makes the compiler
    # compile the whole term again with none lifted
    q, r = atom_const("q"), atom_const("r")
    assert evaluate(h, forall(I, land(limp(App(q, Bound(0)), big),
                                      App(r, Bound(0))))) == FALSE
    h_q = build_henkin(replace(m, val={"q": 0b1111}))
    assert evaluate(h_q, forall(I, lor(App(q, Bound(0)), big))) == TRUE


def test_logical_heads_check_their_operand_types():
    # a mistyped operand of ¬, ∨ or Pi is refused when the term is
    # compiled, as for any other constant, before any value is computed;
    # so is a mistyped argument of a syntactic λ, and a quantifier
    # constant of a type other than (α>o)>o, applied or not
    h = build_henkin(mk_model(2, av=[[0], [1]], pv=[[0], [1]], ob=[],
                              val={"p": [0, 1]}))
    p, q = atom_const("p"), atom_const("q")
    applying = "cannot apply a value of type "
    for t, message in (
            (App(NOT, p), applying + "o>o to one of type i>o"),
            (App(App(OR, p), p), applying + "o>o>o to one of type i>o"),
            (App(pi_const(I), AV), applying + "(i>o)>o to one of type i>i>o"),
            (App(pi_const(I), Abs(TAU, App(Bound(0), Bound(0)))),
             applying + "i>o to one of type i>o"),
            # a lifted quantifier's body is typed like any other, and
            # so is each quantifier's head in a lifted block
            (App(pi_const(TAU), Abs(TAU, Bound(0))),
             applying + "((i>o)>o)>o to one of type (i>o)>i>o"),
            (forall(TAU, forall(TAU, Bound(0))),
             applying + "((i>o)>o)>o to one of type (i>o)>i>o"),
            (forall(TAU, App(pi_const(I), Abs(TAU, true_term()))),
             applying + "(i>o)>o to one of type (i>o)>o"),
            (App(Abs(I, Bound(0)), p),
             "cannot apply a λ over i to a value of type i>o"),
            (App(Abs(O, Bound(0)), q),
             "cannot apply a λ over o to a value of type i>o"),
            (App(Const(PI_NAME, Arrow(O, O)), true_term()),
             "logical constant Pi cannot have type o>o"),
            (App(Const(PI_NAME, Arrow(TAU, I)), Abs(I, true_term())),
             "logical constant Pi cannot have type (i>o)>i"),
            (App(Const(PI_NAME, Arrow(Arrow(I, TAU), O)), AV),
             "logical constant Pi cannot have type (i>i>o)>o"),
            (Const(PI_NAME, I), "logical constant Pi cannot have type i"),
            (App(Const(PI_NAME, Arrow(TAU, Arrow(O, O))), p),
             "logical constant Pi cannot have type (i>o)>o>o")):
        with pytest.raises(EvalError) as e:
            henkin._compile(henkin._Compiled(h.n, True), t, (), None)
        assert str(e.value) == message


# --- lifted binders ------------------------------------------------------


def test_projection_masks_match_brute_force():
    for size in range(1, 5):
        for s in range(size):
            assert henkin._projection(size, s) == sum(
                1 << f for f in range(2 ** size) if f >> s & 1), (size, s)


_TAU_O = Arrow(TAU, O)


def _closed(rng, ty):
    """A random term of type ty that reads no bound variable."""
    if ty == O:
        return rng.choice([
            Free("b", O), App(atom_const("p"), Free("w", I)),
            forall(I, App(atom_const("q"), Bound(0))),
            App(App(OB, atom_const("p")), atom_const("q")), true_term()])
    if ty == I:
        return Free("w", I)
    if ty == TAU:
        return rng.choice([atom_const("p"), atom_const("q"), Free("X", TAU),
                           App(AV, Free("w", I))])
    if ty == _TAU_O:
        return rng.choice([App(OB, _closed(rng, TAU)), Free("G", _TAU_O)])
    if ty == Arrow(_TAU_O, O):
        return rng.choice([Free("H", ty), pi_const(TAU)])
    raise ValueError(ty)


def _reading_v(rng, alpha):
    """An o-typed term that reads V (Bound 0) : alpha other than by g V
    or V s, so that the binder over V loops: over worlds it always does,
    and a failed lift of a predicate binder compiles the whole term
    again with no binder lifted."""
    if alpha == I:
        return exists(I, App(App(AV, Bound(1)), Bound(0)))
    if alpha == TAU:
        return rng.choice([exists(I, App(Bound(1), Bound(0))),
                           App(App(OB, Bound(0)), _closed(rng, TAU))])
    return exists(TAU, App(Bound(1), Bound(0)))


def _lane_body(rng, alpha, depth):
    """A random o-typed body under V : alpha from the reads of V that
    have lane code (see `_lane_read`, and g V), closed terms and the
    connectives ¬ ∧ ∨ → ↔, now and then with a read that has none
    (`_reading_v`, g V of a world V, and = at o over terms that read V),
    which compiles the whole term again with no binder lifted."""
    roll = rng.randrange(10 if depth else 4)
    if roll <= 1:
        return _lane_read(rng, alpha)
    if roll == 2:
        return _closed(rng, O)
    if roll == 3:
        if rng.random() < 0.9:
            return _lane_read(rng, alpha)
        return rng.choice([_reading_v(rng, alpha),
                           App(_closed(rng, Arrow(alpha, O)), Bound(0))])
    a, b = _lane_body(rng, alpha, depth - 1), _lane_body(rng, alpha, depth - 1)
    if roll == 9 and rng.random() < 0.2:
        return equals(O, a, b)
    return [neg(a), land(a, b), lor(a, b), limp(a, b), liff(a, b),
            lor(a, b)][roll - 4]


def _lane_read(rng, alpha):
    """An o-typed read of V = Bound(0) : alpha with lane code: V s,
    ob V X, and g P for a g that does not read V and a predicate P that
    does.  V over worlds, which always loops, is read by g V."""
    if alpha == I:
        return App(_closed(rng, TAU), Bound(0))
    if alpha == TAU:
        op = rng.choice((land, lor, limp))
        reads = [
            App(Bound(0), _closed(rng, I)),
            App(App(OB, Bound(0)), _closed(rng, TAU)),
            App(_closed(rng, _TAU_O), Abs(I, op(
                App(Bound(1), Bound(0)), App(_closed(rng, TAU), Bound(0))))),
            App(Free("H", Arrow(_TAU_O, O)), App(OB, Bound(0)))]
    else:
        reads = [
            App(Bound(0), _closed(rng, TAU)),
            App(_closed(rng, _TAU_O),
                Abs(I, App(Bound(1), App(AV, Bound(0))))),
            App(Free("H", Arrow(_TAU_O, O)),
                Abs(TAU, App(Bound(1), Bound(0))))]
    return rng.choice(reads)


def _count_builds(monkeypatch, names):
    """Count the calls of each of the named compiler helpers."""
    built = dict.fromkeys(names, 0)
    for name in names:
        monkeypatch.setattr(
            henkin, name,
            lambda *a, name=name, run=getattr(henkin, name):
            built.__setitem__(name, built[name] + 1) or run(*a))
    return built


_LOOPS = ("_all", "_tabulate", "_lane_table")


def test_lifted_binders_match_the_earlier_compiler(monkeypatch):
    built = _count_builds(monkeypatch, ("_lifted", "_all", "_tabulate"))
    rng = random.Random(96)
    terms = 0
    free_types = {"b": O, "w": I, "X": TAU, "G": _TAU_O,
                  "H": Arrow(_TAU_O, O)}
    for n in (1, 2, 3):
        for _ in range(12):
            h = build_henkin(random_model(n, ("p", "q"), rng.getrandbits(63),
                                          rng.choice((0.0, 0.2, 0.4))))
            for alpha in (I, TAU, _TAU_O):
                for wrap in (forall, exists, Abs):
                    t = wrap(alpha, _lane_body(rng, alpha, 3))
                    free = {name: rng.randrange(domain_size(n, ty))
                            for name, ty in free_types.items()}
                    assert _outcome(eval_term, h, t, free) == \
                        _outcome(oracle_eval_term, h, t, free), \
                        (pretty_term(t), free, n)
                    terms += 1
    # both paths run (a term whose lift fails compiles again, looping):
    # 137 of the 324 terms lift: of the 144 quantifiers over i>o and
    # (i>o)>o, all but the 7 whose body reads V where no lane code
    # exists (Pi V has some, as Pi (λZ. V Z)).  Binders over worlds and
    # λs always loop
    assert terms == 324 and built["_lifted"] == 137
    assert built["_all"] and built["_tabulate"]


def _nested_body(rng, alpha, depth, v=0, inner=()):
    """A random o-typed term under V = Bound(v) : alpha and, inside V,
    binders of the types `inner` (innermost first): g V, V s and closed
    leaves, reads of the inner variables, inner ∀, ∃ and λ over i and
    i>o that read V, and functions applied to a predicate that reads V
    (the multiplexer), now and then with a read of V that no lane takes,
    which compiles the whole term again with no binder lifted."""
    leaves = [lambda: App(_closed(rng, Arrow(alpha, O)), Bound(v)),
              lambda: _closed(rng, O)]
    if alpha != I:
        leaves.append(lambda: App(Bound(v), _closed(rng, alpha.arg)))
    if inner:
        leaves.append(lambda: _reading_inner(rng, alpha, v, inner))
    if not depth:
        return rng.choice(leaves)()
    roll = rng.randrange(9)
    if roll < 2:
        return rng.choice(leaves)()
    if roll == 2:
        return (equals(alpha, Bound(v), _closed(rng, alpha))
                if rng.random() < 0.2 else rng.choice(leaves)())
    if roll == 3:
        if rng.random() < 0.3:
            return App(Free("F", Arrow(O, O)), rng.choice(leaves)())
        fns = [_closed(rng, _TAU_O)]
        if alpha == _TAU_O:
            fns.append(Bound(v))
        if alpha == TAU:
            fns.append(App(OB, Bound(v)))
        return App(rng.choice(fns), _predicate_reading_v(rng, alpha, depth,
                                                         v, inner))
    if roll <= 5:
        beta = rng.choice((I, TAU))
        body = _nested_body(rng, alpha, depth - 1, v + 1, (beta,) + inner)
        return (forall, exists)[roll - 4](beta, body)
    a = _nested_body(rng, alpha, depth - 1, v, inner)
    b = _nested_body(rng, alpha, depth - 1, v, inner)
    return rng.choice([neg(a), land(a, b), lor(a, b), limp(a, b),
                       liff(a, b)])


def _reading_inner(rng, alpha, v, inner):
    """An o-typed read of a variable bound inside V, with V or without."""
    j = rng.randrange(len(inner))
    beta = inner[j]
    reads = [App(_closed(rng, Arrow(beta, O)), Bound(j))]
    if alpha == Arrow(beta, O):
        reads.append(App(Bound(v), Bound(j)))
    if beta == TAU:
        reads.append(App(Bound(j), _closed(rng, I)))
    if alpha == I and beta == I:
        reads.append(App(App(AV, Bound(v)), Bound(j)))
    return rng.choice(reads)


def _predicate_reading_v(rng, alpha, depth, v, inner):
    """A term of type i>o that reads V: a λ over worlds, av V or pv V,
    or V itself."""
    options = [Abs(I, _nested_body(rng, alpha, depth - 1, v + 1,
                                   (I,) + inner))]
    if alpha == I:
        options += [App(AV, Bound(v)), App(PV, Bound(v))]
    if alpha == TAU:
        options.append(Bound(v))
    return rng.choice(options)


def _nested_terms(seed, per_n):
    """(interpretation, term, free values) with a binder over nested
    binders that read it, under ∀, ∃ and λ, for n = 1..3."""
    rng = random.Random(seed)
    free_types = {"b": O, "w": I, "X": TAU, "G": _TAU_O,
                  "H": Arrow(_TAU_O, O), "F": Arrow(O, O)}
    for n in (1, 2, 3):
        for _ in range(per_n):
            h = build_henkin(random_model(n, ("p", "q"), rng.getrandbits(63),
                                          rng.choice((0.0, 0.2, 0.4))))
            for alpha in (I, TAU, _TAU_O):
                for wrap in (forall, exists, Abs):
                    free = {name: rng.randrange(domain_size(n, ty))
                            for name, ty in free_types.items()}
                    yield h, wrap(alpha, _nested_body(rng, alpha, 3)), free


def test_nested_binders_match_the_earlier_compiler(monkeypatch):
    built = _count_builds(monkeypatch, ("_lifted", "_mux"))
    loops = dict.fromkeys(_LOOPS, 0)
    _count_runs(monkeypatch, loops)
    for h, t, free in _nested_terms(97, 8):
        assert _outcome(eval_term, h, t, free) == \
            _outcome(oracle_eval_term, h, t, free), \
            (pretty_term(t), free, h.n)
    # the outermost binder is lifted over inner loops, which return lane
    # masks, and multiplexers run
    assert built["_lifted"] and built["_mux"]
    assert loops["_all"] and loops["_lane_table"]


def test_functions_of_terms_that_read_two_lifted_binders():
    # under ∃, ∀B:(i>o)>o is lifted and ∀X:i>o, which reads B, loops in
    # its lanes; under ∀, the two are lifted as one block.  Either way an
    # argument that reads both is lane-valued.  G multiplexes over a
    # predicate one; F of a truth value has no lane code, so its terms
    # compile again with no binder lifted
    F, G = Free("F", Arrow(O, O)), Free("G", _TAU_O)
    b_x = App(Bound(1), Bound(0))
    bodies = (App(F, b_x), lor(App(F, b_x), App(Bound(0), Free("w", I))),
              App(G, Abs(I, land(App(Bound(1), Bound(0)),
                                 App(Bound(2), App(AV, Bound(0)))))))
    rng = random.Random(100)
    for n in (1, 2, 3):
        for _ in range(3):
            h = build_henkin(random_model(n, ("p",), rng.getrandbits(63)))
            for body in bodies:
                for wrap in (forall, exists):
                    t = wrap(_TAU_O, wrap(TAU, body))
                    for f in range(4):
                        free = {"F": f, "w": 0,
                                "G": rng.randrange(domain_size(n, _TAU_O))}
                        assert eval_term(h, t, free) == \
                            oracle_eval_term(h, t, free), (pretty_term(t), n)


def test_binders_past_the_lane_cap_loop(monkeypatch):
    monkeypatch.setattr(henkin, "LANE_CAP", 4)
    widths = []
    monkeypatch.setattr(
        henkin, "_lifted", lambda lane, full, count, run=henkin._lifted:
        widths.append(full.bit_length()) or run(lane, full, count))
    loops = dict.fromkeys(_LOOPS, 0)
    runs = _count_runs(monkeypatch, loops)
    for h, t, free in _nested_terms(98, 4):
        assert _outcome(eval_term, h, t, free) == \
            _outcome(oracle_eval_term, h, t, free), \
            (pretty_term(t), free, h.n)
    # i>o at n = 3 (8 values) and (i>o)>o from n = 2 loop; a predicate
    # binder inside one that loops may lift, as no lifted binder
    # encloses it
    assert widths and max(widths) <= 4
    assert loops["_all"] and loops["_tabulate"] and runs[0]


def test_a_constant_outside_its_domain_reads_as_in_the_loop():
    # at n = 2 a world predicate has 2 digits; 0b111 has a third, which
    # the loop never reads
    p = atom_const("p")
    for h in (HenkinModel(2, {"p": 0b111}), HenkinModel(1, {"p": 5})):
        for t in (forall(I, App(p, Bound(0))), Abs(I, App(p, Bound(0))),
                  forall(_TAU_O, App(Bound(0), p)),
                  exists(_TAU_O, App(Bound(0), p))):
            assert eval_term(h, t) == oracle_eval_term(h, t), pretty_term(t)


@pytest.mark.parametrize("d", [4, 8, 12])
def test_nested_world_loops_run_linearly(monkeypatch, d):
    # each [](Oa p | ...) loops over the worlds, as does vld's ∀S around
    # them, since only predicate binders are lifted.  Every [] runs the
    # one compiled body of BOX_TAU, whose ∀Y `_cached` keeps per value of
    # the predicate it boxes; each of those holds at every world, so ∀Y
    # loops once and ∀S once (Oa p fails at ob, before its ∃Y): 3 + 3
    # runs at every d
    runs = [0]
    monkeypatch.setattr(
        henkin, "_all", lambda dom, body, full, run=henkin._all: run(
            dom, lambda env: runs.__setitem__(0, runs[0] + 1) or body(env),
            full))
    m = mk_model(3, av=[[0], [1], [2]], pv=[[0, 1, 2]] * 3, ob=[],
                 val={"p": [0]})
    t = vld(embed(parse("[](Oa p | " * d + "(p | ~p)" + ")" * d)))
    assert eval_term(build_henkin(m), t) == TRUE
    assert runs[0] == 6


def test_the_embedded_route_agrees_with_its_normal_forms():
    # `embed` and `vld` leave their definitions unreduced, and the
    # compiler applies each by pushing its argument's value; the normal
    # forms, which the embedded route evaluated before, are the oracle
    rng = random.Random(28)
    atoms = ("p", "q", "r")
    for n in (1, 2, 3):
        for _ in range(60):
            m = random_model(n, atoms, rng.getrandbits(63),
                             rng.choice((0.0, 0.15, 0.3, 0.5)))
            h, f = build_henkin(m), random_formula(rng, 6, atoms)
            t = embed(f)
            valid = vld(t)
            assert eval_term(h, valid) == \
                eval_term(h, beta_eta_normalize(valid)), pretty(f)
            at_world = App(t, Free("S", I))
            normal = beta_eta_normalize(at_world)
            for s in range(n):
                assert eval_term(h, at_world, {"S": s}) == \
                    eval_term(h, normal, {"S": s}), (pretty(f), s)


@pytest.mark.parametrize("op", ["Oa", "Op"])
def test_compiles_grow_linearly_in_nested_oa_and_op(monkeypatch, op):
    # Oa and Op use their argument twice, so each nested one doubles the
    # normal form; the term as built applies one definition per level,
    # and each definition's body compiles once per binder types
    calls = [0]
    monkeypatch.setattr(
        henkin, "_compile", lambda *a, run=henkin._compile:
        calls.__setitem__(0, calls[0] + 1) or run(*a))
    h = build_henkin(random_model(3, ("p",), 28, 0.3))
    counts = []
    for k in range(1, 13):
        t = embed(parse(f"{op} " * k + "p"))
        calls[0] = 0
        eval_term(h, vld(t))
        eval_term(h, App(t, Free("S", I)), {"S": 0})
        counts.append(calls[0])
    assert len({b - a for a, b in zip(counts[1:], counts[2:])}) == 1, counts


_SHARED_P, _SHARED_W = atom_const("p"), Free("w", I)
# a definitional body that reads its argument and the binder just
# outside the λ, one that reads a free variable, and one that reads the
# predicate bound just outside it
_SHARED_L = Abs(I, lor(App(App(AV, Bound(1)), Bound(0)),
                       App(_SHARED_P, Bound(0))))
_SHARED_F = Abs(I, land(App(App(PV, _SHARED_W), Bound(0)),
                        neg(App(_SHARED_P, Bound(0)))))
_SHARED_G = Abs(I, App(Bound(1), Bound(0)))


@pytest.mark.parametrize("t, lift, shared", [
    # one λ object applied under two binder depths, and twice at one
    (forall(I, land(App(_SHARED_L, _SHARED_W), forall(I, lor(
        App(_SHARED_L, Bound(0)), App(_SHARED_L, Bound(1)))))), True, True),
    (lor(App(_SHARED_F, _SHARED_W), exists(I, App(_SHARED_F, Bound(0)))),
     True, True),
    # under a lifted block too, once per block
    (forall(TAU, lor(App(_SHARED_G, _SHARED_W),
                     neg(App(_SHARED_G, Free("v", I))))), True, True),
    # one λ object inside a lifted block and outside any block, at the
    # same binder types, in both orders: each compiles its own body (=
    # runs both operands, where a connective might skip the second)
    (equals(O, exists(TAU, App(_SHARED_G, _SHARED_W)),
            App(Abs(TAU, App(_SHARED_G, Free("v", I))), _SHARED_P)),
     True, True),
    (equals(O, App(Abs(TAU, App(_SHARED_G, Free("v", I))), _SHARED_P),
            exists(TAU, App(_SHARED_G, _SHARED_W))), True, True),
    # shared before the lift fails at X = X, then compiled once more with
    # none lifted
    (land(exists(I, App(_SHARED_F, Bound(0))), forall(TAU, land(
        App(_SHARED_G, _SHARED_W), equals(TAU, Bound(0), Bound(0))))),
     False, True),
], ids=["two-depths", "free", "lifted", "block-first", "block-last",
        "retry"])
def test_shared_bodies_agree_with_the_oracle(t, lift, shared):
    rng = random.Random(29)
    for n in (1, 2, 3):
        comp = henkin._compile_term(n, t)
        assert (comp.lift, bool(comp.bodies)) == (lift, shared)
        for _ in range(6):
            h = build_henkin(random_model(n, ("p",), rng.getrandbits(63),
                                          0.3))
            for w in range(n):
                free = {"w": w, "v": rng.randrange(n)}
                assert eval_term(h, t, free) == \
                    oracle_eval_term(h, t, free), (pretty_term(t), n, free)


def test_only_the_outermost_predicate_binder_lifts(monkeypatch):
    built = _count_builds(monkeypatch, ("_lifted",))
    w = Free("w", I)
    # ∀X lifts and ∀Y, which no read of X needs, loops in its lanes
    inside = forall(TAU, lor(App(Bound(0), w),
                             forall(TAU, neg(App(Bound(0), w)))))
    # ∀X fails at X = X, so the whole term compiles again and ∀Y, which
    # no lifted binder encloses, loops too
    after = land(forall(TAU, equals(TAU, Bound(0), Bound(0))),
                 forall(TAU, lor(App(Bound(0), w), neg(App(Bound(0), w)))))
    for n in (2, 3):
        h = build_henkin(random_model(n, ("p",), n))
        for t, lifts in ((inside, 1), (after, 0)):
            for s in range(n):
                built["_lifted"] = 0
                assert eval_term(h, t, {"w": s}) == \
                    oracle_eval_term(h, t, {"w": s}), (pretty_term(t), n)
                assert built["_lifted"] == lifts, (pretty_term(t), n)


_W, _P = Free("w", I), atom_const("p")
# a function of three predicates: L X Y reads the block and has a β>o
# result, and so has no lane code
_L = Free("L", Arrow(TAU, Arrow(TAU, _TAU_O)))
# reads of a lifted variable, and how often each term raises _Unlifted:
# the first four have no lane code, a λ over a predicate is not lifted at
# all, and the last seven lift with no second compile, as the multiplexer
# reads the variable, or a λW that reads it, or Pi f as Pi (λZ. f Z)
_NO_LANE_CODE = {
    "F (X w)": (forall(TAU, App(Free("F", Arrow(O, O)),
                                App(Bound(0), _W))), 1),
    "X w = p w": (forall(TAU, equals(O, App(Bound(0), _W), App(_P, _W))), 1),
    "forall X. forall Y. X = Y": (forall(TAU, forall(TAU, equals(
        TAU, Bound(1), Bound(0)))), 1),
    "forall X. forall Y. L X Y p": (forall(TAU, forall(TAU, App(
        App(App(_L, Bound(1)), Bound(0)), _P))), 1),
    "lambda X. ob X p": (Abs(TAU, App(App(OB, Bound(0)), _P)), 0),
    "ob p X": (forall(TAU, App(App(OB, _P), Bound(0))), 0),
    "G X": (forall(TAU, App(Free("G", _TAU_O), Bound(0))), 0),
    "ob X X": (forall(TAU, App(App(OB, Bound(0)), Bound(0))), 0),
    "forall X. Pi X": (forall(TAU, App(pi_const(I), Bound(0))), 0),
    "forall X. Pi (ob X)": (forall(TAU, App(pi_const(TAU),
                                            App(OB, Bound(0)))), 0),
    "B (lambda W. B (av W))": (forall(_TAU_O, App(Bound(0), Abs(
        I, App(Bound(1), App(AV, Bound(0)))))), 0),
    "forall X. forall Y. ob (lambda W. X W & p W) Y": (forall(TAU, forall(
        TAU, App(App(OB, Abs(I, land(App(Bound(2), Bound(0)),
                                     App(_P, Bound(0))))), Bound(0)))), 0),
}
_LANED = tuple(_NO_LANE_CODE[name][0] for name in (
    "ob p X", "G X", "ob X X", "forall X. Pi X", "forall X. Pi (ob X)",
    "B (lambda W. B (av W))",
    "forall X. forall Y. ob (lambda W. X W & p W) Y"))


@pytest.mark.parametrize("t, raises", _NO_LANE_CODE.values(),
                         ids=list(_NO_LANE_CODE))
def test_reads_without_lane_code_compile_the_term_once_more(monkeypatch, t,
                                                            raises):
    raised, roots = [0], [0]
    monkeypatch.setattr(henkin._Unlifted, "__init__",
                        lambda self, *a: raised.__setitem__(0, raised[0] + 1))
    monkeypatch.setattr(
        henkin, "_compile", lambda call, term, binders, lane,
        run=henkin._compile: roots.__setitem__(0, roots[0] + (not binders))
        or run(call, term, binders, lane))
    built = _count_builds(monkeypatch, ("_lifted",))
    rng = random.Random(101)
    for n in (1, 2, 3):
        for _ in range(3):
            h = build_henkin(random_model(n, ("p",), rng.getrandbits(63)))
            free = {"w": rng.randrange(n), "F": rng.randrange(4),
                    "G": rng.randrange(domain_size(n, _TAU_O)),
                    "L": rng.randrange(domain_size(n, _L.ty))}
            raised[0] = roots[0] = 0
            got = eval_term(h, t, free)
            assert (raised[0], roots[0]) == (raises, 1 + raises), n
            assert got == oracle_eval_term(h, t, free), (pretty_term(t), n)
    assert (built["_lifted"] > 0) == (t in _LANED)


# --- lifted blocks of nested predicate quantifiers ----------------------

# reads a block variable B : (i>o)>o as ob reads one of type i>o
_K = Free("K", Arrow(_TAU_O, _TAU_O))
_BLOCK_FREE = {"b": O, "w": I, "X": TAU, "G": _TAU_O, "H": Arrow(_TAU_O, O),
               "F": Arrow(O, O), "K": _K.ty}


def _block_var(types, d, j):
    """Block variable j (outermost first) under d world binders."""
    return Bound(d + len(types) - 1 - j)


def _block_fn(types, d, j):
    """f Xj, of type (i>o)>o: ob Xj, or K Bj for Bj : (i>o)>o."""
    return App(OB if types[j] == TAU else _K, _block_var(types, d, j))


def _block_read(rng, types, d, j=None):
    """An o-typed read of the block, whose variables have the types
    `types` (outermost first), under d world binders: Xj s, f Xj at a
    closed argument, f Xj or B at a block variable (ob Xi Xj, B X) or
    at a λW that reads the block, and a g that does not read the block
    at such a λW.  `j` forces an f Xj read of that variable."""
    taus = [i for i, ty in enumerate(types) if ty == TAU]
    roll = rng.randrange(3)
    if j is not None:
        f = _block_fn(types, d, j)
    else:
        j = rng.randrange(len(types))
        x, pick = _block_var(types, d, j), rng.random()
        if pick < 0.25:
            return App(x, rng.choice([_W] + [Bound(e) for e in range(d)])
                       if types[j] == TAU else _closed(rng, TAU))
        if pick < 0.4:
            f, roll = _closed(rng, _TAU_O), 2
        elif types[j] != TAU and pick < 0.7:
            f = x
        else:
            f = _block_fn(types, d, j)
    if roll == 0:
        return App(f, _closed(rng, TAU))
    if roll == 1 and taus:
        return App(f, _block_var(types, d, rng.choice(taus)))
    reads = [App(_P, Bound(0))]
    for i, ty in enumerate(types):
        x = _block_var(types, d + 1, i)
        reads.append(App(x, Bound(0)) if ty == TAU
                     else App(x, App(AV, Bound(0))))
    a, b = rng.sample(reads, 2)
    return App(f, Abs(I, rng.choice([land(a, neg(b)), lor(a, b),
                                     limp(a, b)])))


def _block_body(rng, types, depth, d=0):
    """A random o-typed body of the block: its reads, closed truth
    values, the connectives and ∀, ∃ over worlds."""
    roll = rng.randrange(9 if depth else 4)
    if roll <= 2:
        return _block_read(rng, types, d)
    if roll == 3:
        return _closed(rng, O)
    if roll == 4:
        return rng.choice((forall, exists))(
            I, _block_body(rng, types, depth - 1, d + 1))
    a = _block_body(rng, types, depth - 1, d)
    b = _block_body(rng, types, depth - 1, d)
    return [neg(a), land(a, b), lor(a, b), limp(a, b)][roll - 5]


def _unlaned(rng, types):
    """A read of the block that has no lane code: F (X w), or Xi = Xj
    at their type."""
    j = rng.randrange(len(types))
    if types[j] == TAU and rng.random() < 0.5:
        return App(Free("F", Arrow(O, O)), App(_block_var(types, 0, j), _W))
    i = rng.choice([i for i, ty in enumerate(types) if ty == types[j]])
    return equals(types[j], _block_var(types, 0, i), _block_var(types, 0, j))


def _block_terms(seed, prefixes, per_types):
    """(interpretation, types, body, free values, whether the body has a
    read with no lane code): ∀ prefixes of the given types per world
    count around bodies that read the block, each with an f Xj read of
    one variable, in turn, and now and then a read with no lane code."""
    rng = random.Random(seed)
    k = 0
    for n, kinds in prefixes:
        for types in kinds:
            for _ in range(per_types):
                h = build_henkin(random_model(n, ("p", "q"),
                                              rng.getrandbits(63),
                                              rng.choice((0.0, 0.2, 0.4))))
                body = land(_block_read(rng, types, 0, k % len(types)),
                            _block_body(rng, types, 3)) if k % 2 else \
                    lor(_block_body(rng, types, 3),
                        _block_read(rng, types, 0, k % len(types)))
                unlaned = k % 6 == 5
                if unlaned:
                    body = lor(body, _unlaned(rng, types))
                free = {name: rng.randrange(domain_size(n, ty))
                        for name, ty in _BLOCK_FREE.items()}
                yield h, types, body, free, unlaned
                k += 1


def _prefixed(wrap, types, body):
    """`body` under the binders `wrap` (forall or Abs) of `types`."""
    for ty in reversed(types):
        body = wrap(ty, body)
    return body


def _lane_mask(h, types, body, free):
    """The mask a lifted block computes for `body`, from the oracle's
    table of λX1 … λXk. body: lane L holds the value of the body at the
    Xj whose digits are L's digits off_j.. (the outermost lowest), where
    the table's index reads X1 as its most significant digit."""
    table = oracle_eval_term(h, _prefixed(Abs, types, body), free)
    sizes = [domain_size(h.n, ty.arg) for ty in types]
    mask = 0
    for lane in range(1 << sum(sizes)):
        index, off = 0, 0
        for size in sizes:
            index = index * (1 << size) + (lane >> off & (1 << size) - 1)
            off += size
        mask |= (table >> index & 1) << lane
    return mask


def _unprefixed(t):
    """The types of the ∀s around `t` (outermost first) and their body."""
    types = []
    while type(t) is App and type(t.arg) is Abs \
            and t.fn == pi_const(t.arg.var_ty):
        types.append(t.arg.var_ty)
        t = t.arg.body
    return tuple(types), t


def _unlifted_run(h, t, free):
    """`t` compiled with no binder lifted, then run."""
    comp = henkin._Compiled(h.n, False)
    comp.code, _, _ = henkin._compile(comp, t, (), None)
    return comp.run(h.interp, free)


def _record_blocks(monkeypatch):
    """Record the (variables, lanes) of each lifted block built and the
    mask it computes when it runs, the masks of the block variables the
    cached multiplexer reads, and whether each multiplexer run had a
    table or a lane-valued function."""
    seen = {"blocks": [], "masks": [], "block_mux": set(), "mux": set()}

    def lifted(lane, full, count, run=henkin._lifted):
        seen["blocks"].append((count, full.bit_length()))

        def recorded(env):
            seen["masks"].append(lane(env))
            return seen["masks"][-1]
        return run(recorded, full, count)
    monkeypatch.setattr(henkin, "_lifted", lifted)
    monkeypatch.setattr(
        henkin, "_block_mux", lambda f, slices, *a, run=henkin._block_mux:
        seen["block_mux"].add(slices) or seen["mux"].add(type(f) is int)
        or run(f, slices, *a))
    monkeypatch.setattr(
        henkin, "_mux", lambda f, *a, run=henkin._mux:
        seen["mux"].add(type(f) is int) or run(f, *a))
    return seen


_TT, _BT = (TAU, TAU), (_TAU_O, TAU)
_BLOCK_PREFIXES = (
    (1, (_TT, (TAU, _TAU_O), _TT + (TAU,), (_TAU_O,) + _TT, _TT + _TT,
         _BT + _BT)),
    (2, (_TT, _BT, _TT + (TAU,), (TAU, _TAU_O, TAU), _TT + _TT,
         _BT + _TT)),
    (3, (_TT, _BT, (TAU, _TAU_O), _TT + (TAU,), _TT + _TT)),
)


def test_lifted_blocks_match_the_earlier_compilers(monkeypatch):
    # a block of 2-4 ∀s over predicates is lifted as one binder: each
    # read of it gives the oracle's value and the value with no binder
    # lifted; a term with a read that has no lane code compiles once
    # more with no binder lifted, as a whole
    seen = _record_blocks(monkeypatch)
    raised = [0]
    monkeypatch.setattr(henkin._Unlifted, "__init__",
                        lambda self, *a: raised.__setitem__(0, raised[0] + 1))
    laned = [(h, *_unprefixed(t), free, False)
             for h, _, _, free, _ in _block_terms(110, _BLOCK_PREFIXES, 1)
             for t in _LANED]
    count = masks = 0
    for h, types, body, free, unlaned in laned + list(
            _block_terms(107, _BLOCK_PREFIXES, 8)):
        t = _prefixed(forall, types, body)
        seen["blocks"].clear()
        seen["masks"].clear()
        raised[0] = 0
        got = _outcome(eval_term, h, t, free)
        assert got == _outcome(oracle_eval_term, h, t, free) == \
            _outcome(_unlifted_run, h, t, free), (pretty_term(t), free, h.n)
        lanes = 2 ** sum(domain_size(h.n, ty.arg) for ty in types)
        assert (raised[0], seen["blocks"]) == (
            (1, []) if unlaned else (0, [(len(types), lanes)])), \
            pretty_term(t)
        # and in each lane, where the oracle's table is small enough
        if not unlaned and lanes <= 256:
            assert seen["masks"] == [_lane_mask(h, types, body, free)], \
                pretty_term(t)
            masks += 1
        count += 1
    assert count == 7 * 17 + 8 * 17 and masks > count // 2
    # f Xj read every variable of a block of four at n = 2, and both the
    # tables and the lane-valued functions ran through the multiplexer
    assert {henkin._projections(8, off, 2) for off in (0, 2, 4, 6)} <= \
        seen["block_mux"]
    assert seen["mux"] == {False, True}


def test_a_block_past_the_lane_cap_is_cut_short(monkeypatch):
    # at 2**6 lanes, three i>o variables fit at n = 2 and two at n = 3;
    # the ∀s past them loop inside the block's lanes
    monkeypatch.setattr(henkin, "LANE_CAP", 1 << 6)
    seen = _record_blocks(monkeypatch)
    prefixes = ((2, (_TT + _TT, _TT + (TAU,))), (3, (_TT + (TAU,),)))
    for h, types, body, free, _ in _block_terms(108, prefixes, 6):
        t = _prefixed(forall, types, body)
        assert _outcome(eval_term, h, t, free) == \
            _outcome(oracle_eval_term, h, t, free) == \
            _outcome(_unlifted_run, h, t, free), (pretty_term(t), free, h.n)
    assert {(3, 64), (2, 64)} <= set(seen["blocks"])
    assert max(seen["blocks"])[1] <= 64


def test_ob3_lifts_b_alone_at_four_worlds(monkeypatch):
    # B : (i>o)>o has 2**16 values at n = 4, the whole LANE_CAP, so X
    # loops in B's lanes; OB2's ∀X ∀Y ∀Z lift as one block of 2**12
    seen = _record_blocks(monkeypatch)
    named = dict(axioms())
    m = CJModel(4, (1, 2, 4, 8), (15,) * 4, ideal_ob(4, 0b0001), {})
    h = build_henkin(m)
    assert eval_term(h, named["OB3"]) == TRUE
    assert seen["blocks"] == [(1, 1 << 16)]
    seen["blocks"].clear()
    assert eval_term(h, named["OB2"]) == TRUE
    assert seen["blocks"] == [(3, 1 << 12)]
    # {0} leaves ob(W), the meet of its members {0, 1} and {0, 2}: only
    # OB3 fails, at a B the loops reach early
    broken = HenkinModel(4, {**h.interp,
                             "ob": h.interp["ob"] ^ 1 << (15 << 4) + 1})
    assert interpreted_frame_failures(broken) == ["ob3"]
    assert check_axioms(broken) == "OB3"
    assert eval_term(broken, named["OB3"]) == FALSE == \
        oracle_eval_term(broken, named["OB3"]) == \
        _unlifted_run(broken, named["OB3"], {})


def test_a_block_of_one_lane_reads_as_lanes():
    # at n = 0 each predicate over worlds has one value, so a block has
    # one lane and its full mask is TRUE: OB4's λW, which reads the
    # block, still lists its masks for the multiplexer, and an equality
    # that reads the block still has no lane code
    for ob in (0, 1):
        h = HenkinModel(0, {"av": 0, "pv": 0, "ob": ob})
        for name, term in axioms():
            assert eval_term(h, term) == oracle_eval_term(h, term), (name, ob)
        assert check_axioms(h) == (None if ob == 0 else "OB1")
    x_at = Abs(I, App(Bound(1), Bound(0)))
    for t in (forall(TAU, equals(TAU, x_at, Bound(0))),
              forall(TAU, forall(TAU, equals(TAU, x_at, Bound(1))))):
        assert eval_term(h, t) == oracle_eval_term(h, t) == TRUE


def test_compiled_axioms_match_the_oracle_where_they_fail():
    # lanes evaluate every operand of a block's body, where the loops
    # could stop at the first value that decides it; on interpretations
    # one bit away from a model's, where axioms fail, each compiled axiom
    # still gives the oracle's value, and check_axioms names the first
    # that fails.  At n = 4 the oracle loops OB3's B over 2**16 values
    # (6-10 s), so there OB3 is read against its frame condition, which
    # a flip of av or pv leaves as the model's
    rng = random.Random(109)
    terms = dict(axioms())
    failing = {}
    for n, count in ((1, 150), (2, 150), (3, 60), (4, 24)):
        compiled = [(name, henkin._compile_term(n, t))
                    for name, t in terms.items()]
        failing[n] = set()
        for _ in range(count):
            h = build_henkin(random_model(n, ("p",), rng.getrandbits(63),
                                          rng.choice((0.0, 0.2, 0.4))))
            image = _flipped(h, rng)
            first = None
            for name, term in compiled:
                got = term.run(image.interp, {})
                if n == 4 and name == "OB3":
                    want = int(image.interp["ob"] == h.interp["ob"] or "ob3"
                               not in interpreted_frame_failures(image))
                else:
                    want = oracle_eval_term(image, terms[name])
                assert got == want, (name, n, image)
                if not got:
                    failing[n].add(name)
                    first = first or name
            assert check_axioms(image) == first
    assert failing[1] >= {"AV", "PV1", "PV2", "OB1", "OB2"}
    assert set().union(*failing.values()) == set(terms)
    assert failing[4] >= {"OB2", "OB5"}


def _count_runs(monkeypatch, built):
    """Count, in `built`, the builds of each looping helper it names
    and, in runs[0], the runs of the bodies they loop over."""
    runs = [0]

    def counted(body):
        return lambda env: runs.__setitem__(0, runs[0] + 1) or body(env)
    for name in built:
        monkeypatch.setattr(
            henkin, name,
            lambda dom, body, *rest, name=name, run=getattr(henkin, name):
            built.__setitem__(name, built[name] + 1)
            or run(dom, counted(body), *rest))
    return runs


def test_innermost_binders_of_the_axioms_are_lifted(monkeypatch):
    built = _count_builds(monkeypatch, ("_lifted",))
    loops = dict.fromkeys(_LOOPS, 0)
    runs = _count_runs(monkeypatch, loops)
    h = build_henkin(random_model(3, ("p",), 5))
    per_axiom = {}
    for name, term in axioms():
        built.update(dict.fromkeys(built, 0))
        loops.update(dict.fromkeys(loops, 0))
        runs[0] = 0
        eval_term(h, term)
        per_axiom[name] = ({k: v for k, v in {**built, **loops}.items()
                            if v}, runs[0])
    # the outermost block of predicate quantifiers is lifted, and every
    # binder inside it loops, over masks of its lanes where its body
    # reads the block (_all, _lane_table): ∀B ∀X in OB3, ∀X ∀Y ∀Z in
    # OB2, OB4 and OB5, and OB1's ∀X.  World binders loop: ∀W in AV, PV1
    # and PV2, and OB1's λW, which reads no ∀X and tabulates.  Bodies run
    # at n = 3: OB3 ran 3,324 before lanes (256 for B, 2,048 for X and
    # 1,020 inside) and 152 with B lifted alone; OB2 ran 584 before
    # lanes and 264 with X lifted alone, OB4 177 and OB5 220
    assert per_axiom == {
        "AV": ({"_all": 2}, 7),
        "PV1": ({"_all": 2}, 12),
        "PV2": ({"_all": 1}, 3),
        "OB1": ({"_lifted": 1, "_tabulate": 3}, 9),
        "OB2": ({"_all": 1, "_lifted": 1}, 3),
        "OB3": ({"_all": 5, "_lifted": 1, "_lane_table": 1}, 70),
        "OB4": ({"_all": 2, "_lifted": 1, "_lane_table": 1}, 9),
        "OB5": ({"_all": 2, "_lifted": 1}, 6),
    }


# --- one compile per world count, one run per interpretation ------------


def test_one_compiled_term_runs_in_every_interpretation_over_its_worlds():
    # constants and free variables are read when the term runs and the
    # memos are emptied per run, so the runs of one compiled term equal
    # fresh compiles, whatever ran before
    rng = random.Random(102)
    for n in (1, 2, 3):
        images = []
        for density in (0.0, 0.2, 0.4):
            h = build_henkin(random_model(n, ("p", "q"),
                                          rng.getrandbits(63), density))
            images += [h, _flipped(h, rng)]
        for name, term in axioms():
            compiled = henkin._compile_term(n, term)
            for h in images:
                assert compiled.run(h.interp, {}) == eval_term(h, term) \
                    == oracle_eval_term(h, term), (name, n)
    cases = {}
    for h, t, free in _nested_terms(103, 1):
        cases.setdefault(h.n, []).append((h, t, free))
    for n, group in cases.items():
        for _, t, _ in group:
            compiled = henkin._compile_term(n, t)
            for h, _, free in group[:4]:
                assert _outcome(lambda h, t, free: compiled.run(h.interp,
                                                                free),
                                h, t, free) == \
                    _outcome(eval_term, h, t, free) == \
                    _outcome(oracle_eval_term, h, t, free), \
                    (pretty_term(t), free, n)


def test_check_axioms_compiles_the_axioms_once_per_world_count(monkeypatch):
    monkeypatch.setattr(henkin, "_AXIOMS", {})
    roots = [0]
    monkeypatch.setattr(
        henkin, "_compile", lambda comp, term, binders, lane,
        run=henkin._compile: roots.__setitem__(0, roots[0] + (not binders))
        or run(comp, term, binders, lane))
    rng = random.Random(104)
    models = [random_model(3, ("p",), rng.getrandbits(63), 0.3)
              for _ in range(10)]
    counts = []
    for batch in (models[:1], models):
        henkin._AXIOMS.clear()
        roots[0] = 0
        for m in batch:
            assert check_axioms(build_henkin(m)) is None
        counts.append(roots[0])
    # one root compile per axiom, none of which falls back
    assert counts == [8, 8]


def test_valid_models_at_one_world_count_fit_the_multiplexer_cache():
    # in the eight axioms the cached multiplexer reads ob or ob X at a
    # block variable, so its keys depend on ob's table alone: after one
    # sweep over every valid table, on two frames, a second finds each
    # key, and a cycle over valid models never evicts
    for n in (1, 2, 3, 4):
        full = full_mask(n)
        images = [build_henkin(CJModel(n, av, (full,) * n, ob, {}))
                  for ob in [{}] + [ideal_ob(n, s) for s in ideal_sets(n)]
                  for av in ((full,) * n, tuple(1 << w for w in range(n)))]
        for h in images:
            assert check_axioms(h) is None
        misses = henkin._block_mux.cache_info().misses
        for h in images:
            assert check_axioms(h) is None
        assert henkin._block_mux.cache_info().misses == misses, n


def test_a_run_refuses_what_its_interpretation_or_assignment_lacks(
        monkeypatch):
    monkeypatch.setattr(henkin, "_AXIOMS", {})
    h = build_henkin(mk_model(2, av=[[0], [1]], pv=[[0], [1]], ob=[],
                              val={"p": [0]}))
    p, w, x = atom_const("p"), Free("w", I), Free("X", TAU)
    t = land(App(p, w), App(x, w))
    compiled = henkin._compile_term(2, t)
    assert compiled.run(h.interp, {"w": 0, "X": 1}) == TRUE
    no_p = {k: v for k, v in h.interp.items() if k != "p"}
    for interp, free, message in (
            (no_p, {"w": 0, "X": 1}, "constant p has no interpretation"),
            (h.interp, {"X": 1}, "unassigned free variable w:i"),
            (h.interp, {"w": 0, "X": 4},
             "value 4 of X is outside the domain of type i>o"),
            (h.interp, {"w": -1, "X": 1},
             "value -1 of w is outside the domain of type i")):
        for run in (lambda: compiled.run(interp, free),
                    lambda: eval_term(HenkinModel(2, interp), t, free)):
            with pytest.raises(EvalError) as e:
                run()
            assert str(e.value) == message
    assert compiled.run(h.interp, {"w": 1, "X": 2}) == FALSE
    # AV, PV1 and PV2 hold without ob, so OB1's run finds it missing,
    # after the compiled axioms have run on a full interpretation
    assert check_axioms(h) is None
    with pytest.raises(EvalError) as e:
        check_axioms(HenkinModel(2, {k: v for k, v in h.interp.items()
                                     if k != "ob"}))
    assert str(e.value) == "constant ob has no interpretation"


def test_check_axioms_from_several_threads_matches_sequential_answers(
        monkeypatch):
    # the compiled axioms are shared and keep each run's tables and
    # memos; a switch interval of 1 us makes the threads interleave
    # inside runs, where any unguarded state would mix models
    monkeypatch.setattr(henkin, "_AXIOMS", {})
    rng = random.Random(105)
    images = []
    for k in range(20):
        h = build_henkin(random_model(2 + k % 2, ("p",), rng.getrandbits(63),
                                      rng.choice((0.0, 0.2, 0.4))))
        images.append(_flipped(h, rng) if k % 3 else h)
    expected = [check_axioms(h) for h in images]
    assert None in expected and set(expected) - {None}
    # each thread checks every model five times, in an order of its own
    orders = [rng.sample(range(20), 20) * 5 for _ in range(4)]
    answers = [None] * 4
    start = threading.Barrier(4, timeout=60)

    def check(k):
        start.wait()
        answers[k] = [check_axioms(images[i]) for i in orders[k]]
    threads = [threading.Thread(target=check, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert answers == [[expected[i] for i in order] for order in orders]
