import inspect
import random
import time

import pytest

from ddlkit.checker import (MissingAtomWarning, eval_formula, truth_set,
                            valid_in_model)
from ddlkit.model import enumerate_models, full_mask, random_model
from ddlkit.syntax import parse, random_formula
from helpers import mk_model

# two worlds; world 0 sees only world 1 as actual, both as potential;
# the three obligation contexts all make "world 1" the obligatory outcome
M2 = mk_model(
    2,
    av=[[1], [1]],
    pv=[[0, 1], [1]],
    ob=[([0], [[0]]), ([1], [[1]]), ([0, 1], [[1], [0, 1]])],
    val={"p": [1]},
)


def test_fixture_model_is_valid():
    from ddlkit.model import validate

    assert validate(M2).ok


def all_small_models(atoms=("p",), extra_random=60, max_n=4, seed=3):
    for n in (1, 2):
        yield from enumerate_models(n, atoms)
    rng = random.Random(seed)
    for _ in range(extra_random):
        yield random_model(rng.randint(3, max_n), atoms, rng.getrandbits(63),
                           rng.choice((0.0, 0.3, 0.6)))


def test_truth_set_of_truth_constant_is_everything():
    rng = random.Random(1)
    for _ in range(10):
        m = random_model(rng.randint(1, 4), ("p",), rng.getrandbits(63), 0.3)
        assert truth_set(m, parse("T")) == full_mask(m.n)
        assert truth_set(m, parse("F")) == 0


def test_truth_set_atom_and_box():
    m = mk_model(2, av=[[0], [1]], pv=[[0], [1]], ob=[], val={"p": [1]})
    assert truth_set(m, parse("p")) == 0b10
    # p does not hold everywhere, so []p holds nowhere
    assert truth_set(m, parse("[]p")) == 0
    assert truth_set(m, parse("[](p | ~p)")) == 0b11


def test_eval_dyadic_obligation_with_tautological_antecedent():
    # extension of p is {1}, whose trace is obligatory in the full context
    assert eval_formula(M2, 0, parse("O(p / T)")) is True


def test_eval_actual_obligation_needs_violating_world():
    # av(0) = {1} lies inside the extension of p, so the second conjunct
    # (an actually possible violation) fails
    assert eval_formula(M2, 0, parse("Oa p")) is False


def test_eval_actual_obligation_positive_case():
    m = mk_model(2, av=[[0, 1], [1]], pv=[[0, 1], [1]],
                 ob=[([0], [[0]]), ([1], [[1]]), ([0, 1], [[1], [0, 1]])],
                 val={"p": [1]})
    # now av(0) = {0,1}: p is obligatory in that context and world 0
    # actually violates it
    assert eval_formula(m, 0, parse("Oa p")) is True


def test_potential_necessity_is_reflexive():
    for m in all_small_models(extra_random=30):
        assert valid_in_model(m, parse("[p]p -> p"))
        for s in range(m.n):
            assert eval_formula(m, s, parse("[p]p -> p"))


def test_box_chain_validities():
    box_chain = [parse("[]p -> [p]p"), parse("[p]p -> [a]p"),
                 parse("[p]p -> p"), parse("[]p -> p")]
    rng = random.Random(17)
    count = 0
    for m in enumerate_models(1, ("p",)):
        for f in box_chain:
            assert valid_in_model(m, f)
    for m in enumerate_models(2, ("p",)):
        for f in box_chain:
            assert valid_in_model(m, f)
    for _ in range(1000):
        m = random_model(rng.randint(3, 4), ("p",), rng.getrandbits(63),
                         rng.choice((0.0, 0.3, 0.6)))
        for f in box_chain:
            assert valid_in_model(m, f)
        count += 1
    assert count == 1000


def test_hand_countermodel_for_actual_necessity_truth():
    m = mk_model(2, av=[[1], [1]], pv=[[0, 1], [1]], ob=[], val={"p": [1]})
    f = parse("[a]p -> p")
    assert eval_formula(m, 0, f) is False
    assert eval_formula(m, 1, f) is True
    assert not valid_in_model(m, f)


def test_world_independence_of_global_operators():
    rng = random.Random(4)
    for _ in range(30):
        m = random_model(rng.randint(2, 4), ("p", "q"), rng.getrandbits(63),
                         0.4)
        for f in (parse("[]p"), parse("O(p/q)"), parse("O(q/T)")):
            values = {eval_formula(m, s, f) for s in range(m.n)}
            assert len(values) == 1


def test_diamond_duality():
    rng = random.Random(6)
    for _ in range(40):
        m = random_model(rng.randint(1, 4), ("p", "q", "r"),
                         rng.getrandbits(63), 0.4)
        f = random_formula(rng, 4)
        for box, diamond in (("[]", "<>"), ("[a]", "<a>"), ("[p]", "<p>")):
            lhs = parse(f"{diamond}({f})")
            rhs = parse(f"~{box}~({f})")
            assert truth_set(m, lhs) == truth_set(m, rhs)


def test_actual_obligation_of_falsum_never_holds():
    for m in all_small_models(extra_random=25):
        assert truth_set(m, parse("Oa F")) == 0
        assert valid_in_model(m, parse("~Oa(F)"))


def test_truth_set_homomorphisms():
    rng = random.Random(8)
    for _ in range(40):
        m = random_model(rng.randint(1, 4), ("p", "q", "r"),
                         rng.getrandbits(63), 0.4)
        f = random_formula(rng, 4)
        g = random_formula(rng, 4)
        from ddlkit.syntax import Not, Or
        assert truth_set(m, Or(f, g)) == truth_set(m, f) | truth_set(m, g)
        assert truth_set(m, Not(f)) == full_mask(m.n) & ~truth_set(m, f)


def test_missing_atom_defaults_to_empty_with_warning():
    m = mk_model(1, av=[[0]], pv=[[0]], ob=[], val={})
    with pytest.warns(MissingAtomWarning):
        assert truth_set(m, parse("fresh_atom")) == 0


@pytest.mark.parametrize("text", ["x", "~x", "~~~x"])
def test_missing_atom_warning_names_the_calling_line(text):
    m = mk_model(1, av=[[0]], pv=[[0]], ob=[], val={})
    f = parse(f"{text} | {text} & p")
    for entry, args in ((truth_set, (m, f)), (eval_formula, (m, 0, f)),
                        (valid_in_model, (m, f))):
        with pytest.warns(MissingAtomWarning) as record:
            line = inspect.currentframe().f_lineno + 1
            entry(*args)
        # one warning per missing name, wherever the atom sits
        assert [str(w.message).split()[1] for w in record] \
            == ["'x'", "'p'"], entry.__name__
        assert {(w.filename, w.lineno) for w in record} \
            == {(__file__, line)}, entry.__name__


def test_reserved_atom_defaults_silently():
    import warnings as w

    m = mk_model(1, av=[[0]], pv=[[0]], ob=[], val={})
    with w.catch_warnings():
        w.simplefilter("error")
        assert truth_set(m, parse("T")) == 1


def test_world_index_out_of_range():
    with pytest.raises(ValueError):
        eval_formula(M2, 2, parse("p"))
    with pytest.raises(ValueError):
        eval_formula(M2, -1, parse("p"))


def test_desugared_connectives_agree_with_boolean_semantics():
    rng = random.Random(9)
    for _ in range(30):
        m = random_model(rng.randint(1, 3), ("p", "q"), rng.getrandbits(63),
                         0.4)
        for s in range(m.n):
            p = eval_formula(m, s, parse("p"))
            q = eval_formula(m, s, parse("q"))
            assert eval_formula(m, s, parse("p & q")) == (p and q)
            assert eval_formula(m, s, parse("p -> q")) == ((not p) or q)
            assert eval_formula(m, s, parse("p <-> q")) == (p == q)
            assert eval_formula(m, s, parse("T")) is True
            assert eval_formula(m, s, parse("F")) is False


def test_truth_set_shares_repeated_subformulas():
    # `a <-> b` desugars with a and b each used twice, so this chain has a
    # few nodes per level but an unshared tree of over 2**depth nodes;
    # growing it one level at a time fails fast if the memo stops sharing
    text = "p"
    for depth in range(1, 26):
        text = f"p <-> ({text})"
        f = parse(text)
        start = time.perf_counter()
        got = truth_set(M2, f)
        assert time.perf_counter() - start < 0.5, depth
        assert got == (full_mask(2) if depth % 2 else M2.val["p"]), depth
