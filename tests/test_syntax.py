import hashlib
import random

import pytest

from ddlkit.syntax import (RESERVED_ATOMS, Atom, Box, BoxA, BoxP, Formula,
                           Not, ObA, ObDyadic, ObP, Or, ParseError,
                           ReservedAtomError, atoms, parse, pretty,
                           random_formula)
from helpers import oracle_parse

P, Q, R = Atom("p"), Atom("q"), Atom("r")
TRUE = Or(Not(Atom("q0")), Atom("q0"))


def imp(a, b):
    return Or(Not(a), b)


def conj(a, b):
    return Not(Or(Not(a), Not(b)))


def test_parse_dyadic_under_implication():
    ob = ObDyadic(Q, P)
    assert parse("O(p / q) -> [] O(p / q)") == Or(Not(ob), Box(ob))


def test_parse_excluded_middle():
    assert parse("~p | p") == Or(Not(P), P)


def test_parse_diamond_a_desugars():
    assert parse("<a> p") == Not(BoxA(Not(P)))


def test_parse_diamonds():
    assert parse("<> p") == Not(Box(Not(P)))
    assert parse("<p> q") == Not(BoxP(Not(Q)))


def test_parse_monadic_obligations():
    assert parse("Oa p") == ObA(P)
    assert parse("Op(q)") == ObP(Q)


def test_desugar_and_imp_iff():
    assert parse("p & q") == conj(P, Q)
    assert parse("p -> q") == imp(P, Q)
    assert parse("p <-> q") == conj(imp(P, Q), imp(Q, P))


def test_desugar_truth_constants():
    assert parse("T") == TRUE
    assert parse("F") == Not(TRUE)


def test_precedence_and_over_or():
    assert parse("~p | q & r") == Or(Not(P), conj(Q, R))


def test_imp_right_associative_iff_left():
    assert parse("p -> q -> r") == imp(P, imp(Q, R))
    a, b, c = P, Q, R
    assert parse("p <-> q <-> r") == conj(imp(conj(imp(a, b), imp(b, a)), c),
                                          imp(c, conj(imp(a, b), imp(b, a))))


def test_prefix_binds_tighter_than_binary():
    assert parse("[]p | p") == Or(Box(P), P)
    assert parse("[a]p & [p]q") == conj(BoxA(P), BoxP(Q))


def test_pretty_examples():
    assert pretty(P) == "p"
    assert pretty(ObDyadic(Q, P)) == "O(p / q)"
    assert pretty(Box(Or(P, Q))) == "[](p | q)"


def test_pretty_keeps_or_grouping():
    assert pretty(Or(Or(P, Q), R)) == "p | q | r"
    assert pretty(Or(P, Or(Q, R))) == "p | (q | r)"


def test_roundtrip_random_formulas():
    rng = random.Random(20240817)
    for _ in range(500):
        f = random_formula(rng, 6)
        assert parse(pretty(f)) == f


def test_atoms():
    assert atoms(P) == {"p"}
    assert atoms(parse("T")) == {"q0"}
    assert atoms(parse("O(p/q) & [a]r")) == {"p", "q", "r"}


def test_parse_error_offset_and_expected():
    with pytest.raises(ParseError) as e:
        parse("p |")
    assert e.value.offset == 3
    assert e.value.expected

    with pytest.raises(ParseError) as e:
        parse("p $ q")
    assert e.value.offset == 2

    with pytest.raises(ParseError):
        parse("")
    with pytest.raises(ParseError):
        parse("(p | q")
    with pytest.raises(ParseError):
        parse("p q")


def test_unknown_keyword_rejected():
    with pytest.raises(ParseError) as e:
        parse("Oab")
    assert "Oab" in str(e.value)


def test_reserved_atom_guard():
    with pytest.raises(ReservedAtomError):
        parse("q0 & T")
    with pytest.raises(ReservedAtomError):
        parse("F | q0")
    # each alone is fine
    assert atoms(parse("q0 | p")) == {"q0", "p"}
    assert atoms(parse("T | p")) == {"q0", "p"}


@pytest.mark.parametrize("name", sorted(RESERVED_ATOMS))
def test_signature_names_are_not_atoms(name):
    for text, offset in ((name, 0), (f"p | O({name} / q)", 6)):
        with pytest.raises(ReservedAtomError) as e:
            parse(text)
        assert e.value.offset == offset
    assert atoms(parse(name + "x")) == {name + "x"}


def test_whitespace_and_parens():
    assert parse("  ( p |  q )  ") == Or(P, Q)
    assert parse("~~p") == Not(Not(P))
    assert parse("O( p | q / ~r )") == ObDyadic(Not(R), Or(P, Q))


def test_str_is_pretty():
    f = parse("Oa ~p")
    assert str(f) == "Oa ~p" == pretty(f)


# tokens of the grammar, reserved names, and broken or stray input
SOUP = ["p", "q", "q0", "av", "not", "x_1Y", "T", "F", "O", "Oa", "Op", "Oab",
        "A", "~", "|", "&", "->", "<->", "[]", "[a]", "[p]", "<>", "<a>",
        "<p>", "O(", "/", "(", ")", "-", "<", "[", "<-", "[a", "-x", "]",
        "$", "é", " ", "\t", "\n", "\x0c", ""]
PREFIXES = ["~", "[]", "[a]", "[p]", "<>", "<a>", "<p>", "Oa ", "Op "]
BINARIES = ["|", "&", "->", "<->"]


def _grammar_text(rng, depth):
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(["p", "q", "r", "q0", "T", "F", "av"])
    pick = rng.randrange(4)
    if pick == 0:
        return rng.choice(PREFIXES) + _grammar_text(rng, depth - 1)
    if pick == 3:
        return (f"O({_grammar_text(rng, depth - 1)} / "
                f"{_grammar_text(rng, depth - 1)})")
    text = (f"{_grammar_text(rng, depth - 1)} {rng.choice(BINARIES)} "
            f"{_grammar_text(rng, depth - 1)}")
    return f"({text})" if pick == 1 else text


def _outcome(parse_text, text):
    try:
        return parse_text(text)
    except ParseError as e:
        return type(e), str(e), e.offset, e.expected


def test_parse_matches_the_oracle_parser():
    # same Formula, or the same error class, message, offset and expected
    # set, on token soup and on grammar text, whole and cut off
    rng = random.Random(7)
    texts = ["".join(rng.choice(SOUP) + rng.choice(("", " "))
                     for _ in range(rng.randrange(12)))
             for _ in range(5000)]
    for _ in range(5000):
        text = _grammar_text(rng, 5)
        texts += [text, text[:rng.randrange(len(text) + 1)]]
    outcomes = [_outcome(parse, t) for t in texts]
    assert outcomes == [_outcome(oracle_parse, t) for t in texts]
    parsed = sum(isinstance(o, Formula) for o in outcomes)
    assert 2000 < parsed < len(texts) - 2000


def test_random_formula_draws_are_pinned():
    # digest of the draws made before constructors were drawn from a
    # tuple; every seeded caller (fuzzing, benchmark inputs) relies on it
    digest = hashlib.sha256()
    for seed in range(300):
        digest.update(pretty(random_formula(random.Random(seed), 6)).encode()
                      + b"\n")
    assert digest.hexdigest() == ("a577c524a1df8c692fdc7ee2654b1537"
                                  "8c4616acd778cc210ec3d8645cd85af8")
