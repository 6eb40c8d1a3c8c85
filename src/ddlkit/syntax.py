"""Concrete syntax for dyadic deontic logic formulas.

The surface grammar, lowest to highest precedence:

    iff     :=  imp ('<->' imp)*          left associative
    imp     :=  or ('->' imp)?            right associative
    or      :=  and ('|' and)*            left associative
    and     :=  unary ('&' unary)*        left associative
    unary   :=  ('~' | '[]' | '[a]' | '[p]' | '<>' | '<a>' | '<p>'
                 | 'Oa' | 'Op') unary
              | primary
    primary :=  ident | 'T' | 'F' | 'O' '(' iff '/' iff ')' | '(' iff ')'

Identifiers match [a-z][a-zA-Z0-9_]*.  `O(psi / phi)` is the dyadic
obligation "it ought to be psi, given phi".

Derived connectives are eliminated while parsing, so the AST contains only
the nine primitive constructors:

    a & b    ->  ~(~a | ~b)
    a -> b   ->  ~a | b
    a <-> b  ->  (a -> b) & (b -> a)
    <>a      ->  ~[]~a          (same for <a>, <p>)
    T        ->  ~q0 | q0       (q0 is a reserved atom)
    F        ->  ~T

Because `T`/`F` expand through the reserved atom `q0`, input that both
uses `T`/`F` and mentions `q0` explicitly is rejected as ambiguous.  The
names in `RESERVED_ATOMS` are the embedding's signature constants, so
they are never atoms.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator


class ParseError(Exception):
    """Syntax error carrying the byte offset and the expected token set."""

    def __init__(self, message: str, offset: int, expected: set[str] | None = None):
        self.offset = offset
        self.expected = frozenset(expected or ())
        detail = f"{message} at offset {offset}"
        if self.expected:
            detail += " (expected " + ", ".join(sorted(self.expected)) + ")"
        super().__init__(detail)


class ReservedAtomError(ParseError):
    """Raised when input both declares the atom `q0` and uses `T`/`F`, or
    names an atom in `RESERVED_ATOMS`."""


class Formula:
    """Base class of the nine primitive constructors."""

    def __str__(self) -> str:
        return pretty(self)


@dataclass(frozen=True)
class Atom(Formula):
    name: str


@dataclass(frozen=True)
class Not(Formula):
    sub: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Box(Formula):
    """True iff the argument holds in every world."""

    sub: Formula


@dataclass(frozen=True)
class BoxA(Formula):
    """True iff the argument holds in all actual versions of the world."""

    sub: Formula


@dataclass(frozen=True)
class BoxP(Formula):
    """True iff the argument holds in all potential versions of the world."""

    sub: Formula


@dataclass(frozen=True)
class ObDyadic(Formula):
    """Dyadic obligation: consequent ought to hold, given the antecedent."""

    antecedent: Formula
    consequent: Formula


@dataclass(frozen=True)
class ObA(Formula):
    """Actual obligation (relative to the actual versions of the world)."""

    sub: Formula


@dataclass(frozen=True)
class ObP(Formula):
    """Primary obligation (relative to the potential versions of the world)."""

    sub: Formula


RESERVED_ATOM = "q0"
# the embedding's constants (see `hol`) whose names an atom could take
RESERVED_ATOMS = frozenset({"av", "pv", "ob", "not", "or", "eq"})

_IDENT_RE = re.compile(r"[a-z][a-zA-Z0-9_]*")
_KEYWORD_RE = re.compile(r"[A-Z][a-zA-Z0-9_]*")
_KEYWORDS = {"T", "F", "O", "Oa", "Op"}


def _true() -> Formula:
    q = Atom(RESERVED_ATOM)
    return Or(Not(q), q)


def _false() -> Formula:
    return Not(_true())


def _and(a: Formula, b: Formula) -> Formula:
    return Not(Or(Not(a), Not(b)))


def _imp(a: Formula, b: Formula) -> Formula:
    return Or(Not(a), b)


def _iff(a: Formula, b: Formula) -> Formula:
    return _and(_imp(a, b), _imp(b, a))


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    offset: int


def _tokenize(text: str) -> Iterator[_Token]:
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c in " \t\r\n":
            i += 1
            continue
        if c in "()/|&~":
            yield _Token(c, c, i)
            i += 1
            continue
        if c == "-":
            if text.startswith("->", i):
                yield _Token("->", "->", i)
                i += 2
                continue
            raise ParseError("unexpected character '-'", i, {"'->'"})
        if c == "<":
            for tok in ("<->", "<a>", "<p>", "<>"):
                if text.startswith(tok, i):
                    yield _Token(tok, tok, i)
                    i += len(tok)
                    break
            else:
                raise ParseError("unexpected character '<'", i,
                                 {"'<->'", "'<>'", "'<a>'", "'<p>'"})
            continue
        if c == "[":
            for tok in ("[a]", "[p]", "[]"):
                if text.startswith(tok, i):
                    yield _Token(tok, tok, i)
                    i += len(tok)
                    break
            else:
                raise ParseError("unexpected character '['", i,
                                 {"'[]'", "'[a]'", "'[p]'"})
            continue
        m = _IDENT_RE.match(text, i)
        if m:
            yield _Token("ident", m.group(), i)
            i = m.end()
            continue
        m = _KEYWORD_RE.match(text, i)
        if m:
            word = m.group()
            if word not in _KEYWORDS:
                raise ParseError(f"unknown keyword '{word}'", i,
                                 {"'T'", "'F'", "'O'", "'Oa'", "'Op'"})
            yield _Token(word, word, i)
            i = m.end()
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    yield _Token("eof", "", n)


_PRIMARY_STARTERS = {"identifier", "'T'", "'F'", "'O('", "'('", "'~'", "'[]'",
                     "'[a]'", "'[p]'", "'<>'", "'<a>'", "'<p>'", "'Oa'", "'Op'"}

_PREFIX = {
    "~": Not,
    "[]": Box,
    "[a]": BoxA,
    "[p]": BoxP,
    "<>": lambda f: Not(Box(Not(f))),
    "<a>": lambda f: Not(BoxA(Not(f))),
    "<p>": lambda f: Not(BoxP(Not(f))),
    "Oa": ObA,
    "Op": ObP,
}


class _Parser:
    def __init__(self, text: str):
        self.tokens = list(_tokenize(text))
        self.pos = 0
        self.saw_tf_at: int | None = None
        self.saw_q0_at: int | None = None

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"unexpected {tok.text!r}" if tok.text else
                             "unexpected end of input", tok.offset, {f"'{kind}'"})
        return self.advance()

    def guard_reserved(self) -> None:
        if self.saw_tf_at is not None and self.saw_q0_at is not None:
            raise ReservedAtomError(
                f"atom '{RESERVED_ATOM}' is reserved for desugaring 'T'/'F'; "
                "a formula may not use both", max(self.saw_tf_at, self.saw_q0_at))

    def iff(self) -> Formula:
        f = self.imp()
        while self.peek().kind == "<->":
            self.advance()
            f = _iff(f, self.imp())
        return f

    def imp(self) -> Formula:
        f = self.or_()
        if self.peek().kind == "->":
            self.advance()
            f = _imp(f, self.imp())
        return f

    def or_(self) -> Formula:
        f = self.and_()
        while self.peek().kind == "|":
            self.advance()
            f = Or(f, self.and_())
        return f

    def and_(self) -> Formula:
        f = self.unary()
        while self.peek().kind == "&":
            self.advance()
            f = _and(f, self.unary())
        return f

    def unary(self) -> Formula:
        tok = self.peek()
        if tok.kind in _PREFIX:
            self.advance()
            return _PREFIX[tok.kind](self.unary())
        return self.primary()

    def primary(self) -> Formula:
        tok = self.peek()
        if tok.kind == "ident":
            self.advance()
            if tok.text == RESERVED_ATOM:
                self.saw_q0_at = tok.offset
                self.guard_reserved()
            if tok.text in RESERVED_ATOMS:
                raise ReservedAtomError(
                    f"atom '{tok.text}' is reserved for a signature constant "
                    "of the embedding", tok.offset)
            return Atom(tok.text)
        if tok.kind in ("T", "F"):
            self.advance()
            self.saw_tf_at = tok.offset
            self.guard_reserved()
            return _true() if tok.kind == "T" else _false()
        if tok.kind == "O":
            self.advance()
            self.expect("(")
            consequent = self.iff()
            self.expect("/")
            antecedent = self.iff()
            self.expect(")")
            return ObDyadic(antecedent, consequent)
        if tok.kind == "(":
            self.advance()
            f = self.iff()
            self.expect(")")
            return f
        raise ParseError(f"unexpected {tok.text!r}" if tok.text else
                         "unexpected end of input", tok.offset, _PRIMARY_STARTERS)


def parse(text: str) -> Formula:
    """Parse a formula, desugaring derived connectives to the nine primitives."""
    if not text.strip():
        raise ParseError("empty input", 0, _PRIMARY_STARTERS)
    p = _Parser(text)
    f = p.iff()
    eof = p.peek()
    if eof.kind != "eof":
        raise ParseError(f"unexpected trailing {eof.text!r}", eof.offset)
    return f


def pretty(f: Formula) -> str:
    """Render a formula so that parse(pretty(f)) returns f again."""
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Not):
        return "~" + _operand(f.sub)
    if isinstance(f, Or):
        # `|` is parsed left associative, so only a right-nested Or needs parens
        right = f"({pretty(f.right)})" if isinstance(f.right, Or) else pretty(f.right)
        return f"{pretty(f.left)} | {right}"
    if isinstance(f, Box):
        return "[]" + _operand(f.sub)
    if isinstance(f, BoxA):
        return "[a]" + _operand(f.sub)
    if isinstance(f, BoxP):
        return "[p]" + _operand(f.sub)
    if isinstance(f, ObDyadic):
        return f"O({pretty(f.consequent)} / {pretty(f.antecedent)})"
    if isinstance(f, ObA):
        return "Oa " + _operand(f.sub)
    if isinstance(f, ObP):
        return "Op " + _operand(f.sub)
    raise TypeError(f"not a formula: {f!r}")


def _operand(f: Formula) -> str:
    # argument of a prefix operator: disjunctions need parentheses
    if isinstance(f, Or):
        return f"({pretty(f)})"
    return pretty(f)


def atoms(f: Formula) -> set[str]:
    """The set of atom names occurring in the formula."""
    out: set[str] = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, Atom):
            out.add(g.name)
        elif isinstance(g, (Not, Box, BoxA, BoxP, ObA, ObP)):
            stack.append(g.sub)
        elif isinstance(g, Or):
            stack.append(g.left)
            stack.append(g.right)
        elif isinstance(g, ObDyadic):
            stack.append(g.antecedent)
            stack.append(g.consequent)
        else:
            raise TypeError(f"not a formula: {g!r}")
    return out


def random_formula(rng, max_depth: int = 6, atom_names=("p", "q", "r")) -> Formula:
    """Draw a random formula over the nine primitive constructors.

    Deterministic for a given random.Random instance; used by the fuzzing
    entry points and the test suite.
    """
    names = list(atom_names)
    if max_depth <= 0 or rng.random() < 0.2:
        return Atom(rng.choice(names))
    kind = rng.choice(("not", "or", "box", "boxa", "boxp", "ob", "oba", "obp"))
    if kind == "not":
        return Not(random_formula(rng, max_depth - 1, names))
    if kind == "or":
        return Or(random_formula(rng, max_depth - 1, names),
                  random_formula(rng, max_depth - 1, names))
    if kind == "box":
        return Box(random_formula(rng, max_depth - 1, names))
    if kind == "boxa":
        return BoxA(random_formula(rng, max_depth - 1, names))
    if kind == "boxp":
        return BoxP(random_formula(rng, max_depth - 1, names))
    if kind == "ob":
        return ObDyadic(random_formula(rng, max_depth - 1, names),
                        random_formula(rng, max_depth - 1, names))
    if kind == "oba":
        return ObA(random_formula(rng, max_depth - 1, names))
    return ObP(random_formula(rng, max_depth - 1, names))
