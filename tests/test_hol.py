import random

import pytest

from ddlkit import hol
from ddlkit.export import thf_type
from ddlkit.hol import (AV, LOGICAL_NAMES, NOT, OB, PI_NAME, PV, TAU, Abs,
                        App, Arrow, BaseType, Bound, Const, Free,
                        HolTypeError, I, O, MAX_EMBED_NODES, MAX_NORMAL_NODES,
                        VLD, atom_const,
                        axioms, beta_eta_normalize, embed, lor, neg,
                        pretty_term, type_of, type_str, vld)
from ddlkit.syntax import (IDENT_RE, RESERVED_ATOMS, Atom, Formula, Not, ObA,
                           ObP, Or, children, parse, random_formula)
from helpers import (beta_eta_normalize_innermost, from_named, leibniz_eq,
                     nsubst, oracle_embed, oracle_normalize, random_term,
                     substitute, substitution_normalize, to_named)

W = Free("w", I)


def test_types_are_o_i_and_arrows():
    assert BaseType("o") is O and BaseType("i") is I
    with pytest.raises(ValueError):
        BaseType("x")
    assert str(O) == "o" and str(TAU) == "i>o"
    assert Arrow(I, O) == TAU and hash(Arrow(I, O)) == hash(TAU)
    for ty, text, thf in (
            (O, "o", "$o"), (I, "i", "$i"), (TAU, "i>o", "$i > $o"),
            (OB.ty, "(i>o)>(i>o)>o", "($i > $o) > ($i > $o) > $o"),
            (Arrow(Arrow(TAU, O), Arrow(I, I)), "((i>o)>o)>i>i",
             "(($i > $o) > $o) > $i > $i")):
        assert type_str(ty) == str(ty) == text
        assert thf_type(ty) == thf


def test_terms_compare_by_kind_and_structure():
    def sample(hint="A"):
        return Abs(TAU, App(App(OB, Bound(0)), Free("q", TAU)), hint)

    a, b = sample(), sample()
    assert a is not b and a == b and hash(a) == hash(b)
    assert sample("A") == sample("Z") and hash(sample("A")) == hash(
        sample("Z"))
    assert Const("p", TAU) != Free("p", TAU)
    assert App(NOT, Bound(0)) != App(NOT, Bound(1))
    assert Abs(I, Bound(0)) != Abs(O, Bound(0))
    o_, i_, tau = ("<BaseType.o: 'o'>", "<BaseType.i: 'i'>",
                   "Arrow(arg=<BaseType.i: 'i'>, res=<BaseType.o: 'o'>)")
    assert repr(sample()) == (
        f"Abs(var_ty={tau}, body=App(fn=App(fn=Const(name='ob', "
        f"ty=Arrow(arg={tau}, res=Arrow(arg={tau}, res={o_}))), "
        f"arg=Bound(index=0)), arg=Free(name='q', ty={tau})), hint='A')")
    assert repr(W) == f"Free(name='w', ty={i_})"
    table = {sample("A"): 1, Const("p", TAU): 2, Free("p", TAU): 3}
    assert table[sample("Z")] == 1
    assert (table[Const("p", TAU)], table[Free("p", TAU)]) == (2, 3)
    assert len({vld(embed(parse("O(p/q)"))) for _ in range(3)}) == 1


def test_type_of_basics():
    assert type_of(App(NOT, Const("c", O))) == O
    assert type_of(embed(parse("p"))) == TAU
    assert type_of(App(OB, atom_const("p"))) == Arrow(TAU, O)
    assert type_str(type_of(App(OB, atom_const("p")))) == "(i>o)>o"


def test_type_of_errors():
    with pytest.raises(HolTypeError) as e:
        type_of(App(NOT, Const("c", I)))
    assert "expected argument of type o, got i" in str(e.value)
    with pytest.raises(HolTypeError):
        type_of(App(Const("c", O), Const("d", O)))
    with pytest.raises(HolTypeError):
        type_of(Bound(0))


def test_substitute_variable():
    q = Const("q", O)
    assert substitute(Bound(0), q) == q


def test_substitute_under_binder_avoids_capture():
    q = Free("Y", O)
    # [q/X](lambda Y. X): the free Y in q must not be captured
    body = Abs(I, Bound(1), "Y")
    out = substitute(body, q)
    assert out == Abs(I, q, "Y")
    # and evaluating the claim through the named oracle gives the same
    wrapped = to_named(Abs(O, body))
    named = nsubst(wrapped.body, wrapped.var, to_named(q))
    assert from_named(named) == out


def test_substitute_type_mismatch():
    with pytest.raises(HolTypeError):
        substitute(App(NOT, Bound(0)), Const("c", I))


def test_substitution_agrees_with_named_oracle():
    rng = random.Random(101)
    checked = 0
    for _ in range(400):
        ty = rng.choice((O, I, TAU))
        body = random_term(rng, None, 3, (ty,))
        repl = random_term(rng, ty, 3)
        kernel = substitute(body, repl)
        wrapped = to_named(Abs(ty, body))
        named = from_named(nsubst(wrapped.body, wrapped.var, to_named(repl)))
        assert kernel == named
        checked += 1
    assert checked == 400


def test_beta_identity_redex():
    q = Const("q", O)
    assert beta_eta_normalize(App(Abs(O, Bound(0)), q)) == q


def test_eta_contraction():
    f = Free("f", TAU)
    assert beta_eta_normalize(Abs(I, App(f, Bound(0)))) == f
    # but not when the variable occurs in the function part
    g = Abs(I, App(App(Free("r", Arrow(I, TAU)), Bound(0)), Bound(0)))
    assert beta_eta_normalize(g) == g


def test_negation_definition_unfolds():
    p = atom_const("p")
    got = beta_eta_normalize(App(embed(parse("~p")), W))
    assert got == neg(App(p, W))


def test_embedded_dyadic_obligation_drops_world():
    got = beta_eta_normalize(App(embed(parse("O(p/q)")), W))
    assert got == App(App(OB, atom_const("q")), atom_const("p"))


def test_embedded_disjunction():
    got = beta_eta_normalize(App(embed(parse("p | q")), W))
    assert got == lor(App(atom_const("p"), W), App(atom_const("q"), W))


def test_reserved_atoms_are_the_signature_names_an_atom_could_take():
    names = {AV.name, PV.name, OB.name} | set(LOGICAL_NAMES)
    assert RESERVED_ATOMS == {n for n in names if IDENT_RE.fullmatch(n)}


def test_embed_types_and_signature():
    rng = random.Random(55)
    allowed = set(LOGICAL_NAMES) | {"av", "pv", "ob", "p", "q", "r", "q0"}

    def constants(t):
        if isinstance(t, Const):
            yield t.name
        elif isinstance(t, App):
            yield from constants(t.fn)
            yield from constants(t.arg)
        elif isinstance(t, Abs):
            yield from constants(t.body)

    for _ in range(100):
        f = random_formula(rng, 5)
        t = embed(f)
        assert type_of(t) == TAU
        assert set(constants(t)) <= allowed
        assert type_of(vld(t)) == O


def test_embed_matches_the_branching_oracle():
    rng = random.Random(56)
    for _ in range(2000):
        f = random_formula(rng, 6)
        t, expected = embed(f), oracle_embed(f)
        assert t == expected
        assert pretty_term(t) == pretty_term(expected)


def test_embed_rejects_a_non_formula():
    for junk in ("p", None, Formula()):
        with pytest.raises(TypeError, match="not a formula"):
            embed(junk)


def test_embed_bounds_the_unshared_node_count():
    # g = g' | g' with g' shared: 2**14 - 1 nodes counted per occurrence
    g = Atom("p")
    for _ in range(13):
        g = Or(g, g)
    assert MAX_EMBED_NODES == 1 << 14
    assert type_of(embed(Not(g))) == TAU
    with pytest.raises(ValueError, match="too large to embed"):
        embed(Not(Not(g)))


def _term_nodes(t):
    count, todo = 0, [t]
    while todo:
        u = todo.pop()
        count += 1
        if type(u) is App:
            todo += (u.fn, u.arg)
        elif type(u) is Abs:
            todo.append(u.body)
    return count


def _formula_nodes(f):
    """Nodes of f, a shared subformula counted once per occurrence, and
    whether one of them is an Oa or an Op."""
    kids = [_formula_nodes(c) for c in children(f)]
    return (1 + sum(k for k, _ in kids),
            isinstance(f, (ObA, ObP)) or any(dup for _, dup in kids))


def test_normalizing_stops_at_the_node_bound():
    # Oa and Op use their argument twice, so each nested one doubles the
    # normal form, whatever bound `embed` keeps on the formula
    assert MAX_NORMAL_NODES == 1 << 17
    nf = beta_eta_normalize(vld(embed(parse("Oa " * 12 + "p"))))
    assert _term_nodes(nf) == 165_852
    for text in ("Oa " * 13 + "p", "Op " * 14 + "p"):
        with pytest.raises(ValueError, match="normal form too large"):
            beta_eta_normalize(vld(embed(parse(text))))


def test_formulas_without_oa_or_op_normalize_within_the_node_bound(
        monkeypatch):
    # every other connective reads back at most 7 applications and
    # lambdas per formula node, [a] and [p] the most, so every formula
    # `embed` takes that has no Oa or Op normalizes within the bound
    assert 7 * MAX_EMBED_NODES + 3 <= MAX_NORMAL_NODES
    rng = random.Random(58)
    formulas = [parse("[a]" * 90 + "p"), parse("[p]" * 90 + "~p")]
    formulas += [random_formula(rng, 7) for _ in range(1500)]
    checked = 0
    for f in formulas:
        nodes, doubles = _formula_nodes(f)
        if doubles:
            continue
        monkeypatch.setattr(hol, "MAX_NORMAL_NODES", 7 * nodes + 3)
        beta_eta_normalize(vld(embed(f)))
        beta_eta_normalize(embed(f))
        checked += 1
    assert checked > 500
    # 90 [a] around p read back 7 * 90 + 3
    monkeypatch.setattr(hol, "MAX_NORMAL_NODES", 7 * 90 + 2)
    with pytest.raises(ValueError, match="normal form too large"):
        beta_eta_normalize(vld(embed(formulas[0])))


def test_vld_of_truth_constant():
    q0 = atom_const("q0")
    expected = App(Const(PI_NAME, Arrow(TAU, O)),
                   Abs(I, lor(neg(App(q0, Bound(0))), App(q0, Bound(0))), "S"))
    t = embed(parse("T"))
    assert vld(t) == App(VLD, t)
    assert beta_eta_normalize(vld(t)) == expected


def test_vld_requires_world_predicate():
    with pytest.raises(HolTypeError):
        vld(Const("c", O))


def test_axioms_shape():
    axs = axioms()
    assert [name for name, _ in axs] == ["AV", "PV1", "PV2", "OB1", "OB2",
                                         "OB3", "OB4", "OB5"]
    for _, term in axs:
        assert type_of(term) == O
        assert beta_eta_normalize(term) == term  # already normal
    assert axioms() == axs  # deterministic


def test_leibniz_eq_typing():
    assert type_of(leibniz_eq(W, Free("u", I))) == O
    with pytest.raises(HolTypeError):
        leibniz_eq(W, Const("c", O))


def test_normalization_idempotent_on_random_terms():
    rng = random.Random(77)
    for _ in range(300):
        t = random_term(rng, None, 4)
        nf = beta_eta_normalize(t)
        assert beta_eta_normalize(nf) == nf


def test_subject_reduction_on_random_terms():
    rng = random.Random(78)
    for _ in range(300):
        t = random_term(rng, None, 4)
        before = type_of(t)
        assert type_of(beta_eta_normalize(t)) == before


def test_reduction_strategies_agree():
    rng = random.Random(79)
    for _ in range(300):
        t = random_term(rng, None, 4)
        assert beta_eta_normalize(t) == beta_eta_normalize_innermost(t)


def test_normalization_agrees_with_substitution_oracle():
    # open terms too: a variable bound outside the term keeps its index
    rng = random.Random(81)
    for k in range(600):
        binders = tuple(rng.choice((O, I, TAU)) for _ in range(k % 3))
        t = random_term(rng, None, 4, binders)
        nf = beta_eta_normalize(t)
        assert nf == substitution_normalize(t)
        # and eta-expanding t, open or not, keeps its type and normal form
        ty = type_of(t, binders)
        expanded = hol.eta_expand(t, ty)
        assert type_of(expanded, binders) == ty
        assert beta_eta_normalize(expanded) == nf


def test_binder_hints_survive_normalization():
    # Abs.hint does not take part in ==, so compare the printed names
    terms = [t for _, t in axioms()]
    rng = random.Random(82)
    for _ in range(300):
        f = embed(random_formula(rng, 5))
        terms += [f, App(VLD, f)]
    for t in terms:
        assert pretty_term(beta_eta_normalize(t)) \
            == pretty_term(substitution_normalize(t))


def test_normalization_agrees_with_named_oracle():
    rng = random.Random(80)
    for _ in range(200):
        t = random_term(rng, None, 4)
        assert beta_eta_normalize(t) == oracle_normalize(t)


def test_pretty_term_readable():
    assert pretty_term(dict(axioms())["AV"]) == "∀W:i. ∃V:i. av W V"
    assert pretty_term(beta_eta_normalize(embed(parse("O(p/q)")))) \
        == "λX:i. ob q p"


AXIOM_TEXT = {
    "AV": "∀W:i. ∃V:i. av W V",
    "PV1": "∀W:i. ∀V:i. (¬(av W V) ∨ pv W V)",
    "PV2": "∀W:i. pv W W",
    "OB1": "∀X:i>o. ¬(ob X (λW:i. ¬((λX2:i. X2) = (λX2:i. X2))))",
    "OB2": "∀X:i>o. ∀Y:i>o. ∀Z:i>o. (∃W:i. (((Y W ∧ X W) ∧ (¬(Z W) ∨ "
           "¬(X W))) ∨ ((Z W ∧ X W) ∧ (¬(Y W) ∨ ¬(X W)))) ∨ ((¬(ob X Y) ∨ "
           "ob X Z) ∧ (¬(ob X Z) ∨ ob X Y)))",
    "OB3": "∀B:(i>o)>o. ∀X:i>o. (¬(∀Z:i>o. (¬(B Z) ∨ ob X Z) ∧ ∃Z:i>o. "
           "B Z) ∨ (¬(∃Y:i. (∀Z:i>o. (¬(B Z) ∨ Z Y) ∧ X Y)) ∨ ob X "
           "(λW:i. ∀Z:i>o. (¬(B Z) ∨ Z W))))",
    "OB4": "∀X:i>o. ∀Y:i>o. ∀Z:i>o. (¬((∀W:i. (¬(Y W) ∨ X W) ∧ ob X Y) "
           "∧ ∀W:i. (¬(X W) ∨ Z W)) ∨ ob Z (λW:i. ((Z W ∧ ¬(X W)) ∨ "
           "Y W)))",
    "OB5": "∀X:i>o. ∀Y:i>o. ∀Z:i>o. (¬((∀W:i. (¬(Y W) ∨ X W) ∧ ob X Z) "
           "∧ ∃W:i. (Y W ∧ Z W)) ∨ ob Y Z)",
}


def test_pretty_term_of_every_axiom():
    assert {name: pretty_term(t) for name, t in axioms()} == AXIOM_TEXT
