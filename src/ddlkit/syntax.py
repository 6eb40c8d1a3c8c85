"""Concrete syntax for dyadic deontic logic formulas.

The surface grammar:

    formula :=  operand (binary operand)*
    operand :=  prefix operand | ident | 'T' | 'F'
              | 'O' '(' formula '/' formula ')' | '(' formula ')'
    prefix  :=  '~' | '[]' | '[a]' | '[p]' | '<>' | '<a>' | '<p>' | 'Oa' | 'Op'

Prefix operators bind tighter than every binary one.  The binary
connectives, from lowest to highest precedence (the `_BINARY` table):

    <->   0   left associative
    ->    1   right associative
    |     2   left associative
    &     3   left associative

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


# one token per match, after optional whitespace: an operator, an
# identifier, a capitalized word, or else one stray character (none at
# the end of the text)
_TOKEN_RE = re.compile(
    r"[ \t\r\n]*(?:(?P<op><->|->|<[ap]?>|\[[ap]?\]|[()/|&~])"
    rf"|(?P<ident>{_IDENT_RE.pattern})|(?P<word>[A-Z][a-zA-Z0-9_]*)"
    r"|(?P<other>.?))", re.DOTALL)
# what a stray '-', '<' or '[' could have started
_PARTIAL = {"-": {"'->'"}, "<": {"'<->'", "'<>'", "'<a>'", "'<p>'"},
            "[": {"'[]'", "'[a]'", "'[p]'"}}

_Token = tuple[str, str, int]  # kind, text, offset


def _tokenize(text: str) -> list[_Token]:
    """All tokens, ending with ("eof", "", len(text))."""
    tokens = []
    pos = 0
    while True:
        m = _TOKEN_RE.match(text, pos)
        kind = m.lastgroup
        tok, offset = m.group(kind), m.start(kind)
        if kind == "word" and tok not in _KEYWORDS:
            raise ParseError(f"unknown keyword '{tok}'", offset,
                             {f"'{word}'" for word in _KEYWORDS})
        if kind == "other":
            if tok:
                raise ParseError(f"unexpected character {tok!r}", offset,
                                 _PARTIAL.get(tok))
            tokens.append(("eof", "", offset))
            return tokens
        tokens.append(("ident" if kind == "ident" else tok, tok, offset))
        pos = m.end()


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

# token: (precedence, builder, right associative)
_BINARY = {
    "<->": (0, _iff, False),
    "->": (1, _imp, True),
    "|": (2, Or, False),
    "&": (3, _and, False),
}


def _unexpected(tok: _Token, expected: set[str]) -> ParseError:
    _, text, offset = tok
    return ParseError(f"unexpected {text!r}" if text else
                      "unexpected end of input", offset, expected)


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.saw_tf_at: int | None = None
        self.saw_q0_at: int | None = None

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> None:
        tok = self.advance()
        if tok[0] != kind:
            raise _unexpected(tok, {f"'{kind}'"})

    def guard_reserved(self) -> None:
        if self.saw_tf_at is not None and self.saw_q0_at is not None:
            raise ReservedAtomError(
                f"atom '{RESERVED_ATOM}' is reserved for desugaring 'T'/'F'; "
                "a formula may not use both", max(self.saw_tf_at, self.saw_q0_at))

    def binary(self, level: int = 0) -> Formula:
        """Operands joined by binary connectives of precedence `level` or
        higher (precedence climbing)."""
        f = self.operand()
        while True:
            entry = _BINARY.get(self.tokens[self.pos][0])
            if entry is None or entry[0] < level:
                return f
            self.pos += 1
            prec, build, right_assoc = entry
            f = build(f, self.binary(prec if right_assoc else prec + 1))

    def operand(self) -> Formula:
        tok = self.advance()
        kind, text, offset = tok
        if kind in _PREFIX:
            return _PREFIX[kind](self.operand())
        if kind == "ident":
            if text == RESERVED_ATOM:
                self.saw_q0_at = offset
                self.guard_reserved()
            if text in RESERVED_ATOMS:
                raise ReservedAtomError(
                    f"atom '{text}' is reserved for a signature constant "
                    "of the embedding", offset)
            return Atom(text)
        if kind in ("T", "F"):
            self.saw_tf_at = offset
            self.guard_reserved()
            return _true() if kind == "T" else _false()
        if kind == "O":
            self.expect("(")
            consequent = self.binary()
            self.expect("/")
            antecedent = self.binary()
            self.expect(")")
            return ObDyadic(antecedent, consequent)
        if kind == "(":
            f = self.binary()
            self.expect(")")
            return f
        raise _unexpected(tok, _PRIMARY_STARTERS)


def parse(text: str) -> Formula:
    """Parse a formula, desugaring derived connectives to the nine primitives."""
    if not text.strip():
        raise ParseError("empty input", 0, _PRIMARY_STARTERS)
    p = _Parser(text)
    f = p.binary()
    kind, rest, offset = p.tokens[p.pos]
    if kind != "eof":
        raise ParseError(f"unexpected trailing {rest!r}", offset)
    return f


_PREFIX_TEXT = {Not: "~", Box: "[]", BoxA: "[a]", BoxP: "[p]", ObA: "Oa ",
                ObP: "Op "}


def pretty(f: Formula) -> str:
    """Render a formula so that parse(pretty(f)) returns f again."""
    if isinstance(f, Atom):
        return f.name
    prefix = _PREFIX_TEXT.get(type(f))
    if prefix is not None:
        # the argument of a prefix operator: disjunctions need parentheses
        sub = pretty(f.sub)
        return prefix + (f"({sub})" if isinstance(f.sub, Or) else sub)
    if isinstance(f, Or):
        # `|` is parsed left associative, so only a right-nested Or needs parens
        right = f"({pretty(f.right)})" if isinstance(f.right, Or) else pretty(f.right)
        return f"{pretty(f.left)} | {right}"
    if isinstance(f, ObDyadic):
        return f"O({pretty(f.consequent)} / {pretty(f.antecedent)})"
    raise TypeError(f"not a formula: {f!r}")


def children(g: Formula) -> tuple[Formula, ...]:
    """The immediate subformulas; an ObDyadic gives (antecedent,
    consequent)."""
    if isinstance(g, Atom):
        return ()
    if isinstance(g, Or):
        return g.left, g.right
    if isinstance(g, ObDyadic):
        return g.antecedent, g.consequent
    if type(g) in _PREFIX_TEXT:
        return (g.sub,)
    raise TypeError(f"not a formula: {g!r}")


def atoms(f: Formula) -> set[str]:
    """The set of atom names occurring in the formula."""
    out: set[str] = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, Atom):
            out.add(g.name)
        else:
            stack.extend(children(g))
    return out


# in the order of the draw, which seeded callers depend on
_CONSTRUCTORS = (Not, Or, Box, BoxA, BoxP, ObDyadic, ObA, ObP)


def random_formula(rng, max_depth: int = 6, atom_names=("p", "q", "r")) -> Formula:
    """Draw a random formula over the nine primitive constructors.

    Deterministic for a given random.Random instance; used by the fuzzing
    entry points and the test suite.
    """
    names = list(atom_names)
    if max_depth <= 0 or rng.random() < 0.2:
        return Atom(rng.choice(names))
    build = rng.choice(_CONSTRUCTORS)
    sub = random_formula(rng, max_depth - 1, names)
    if build is Or or build is ObDyadic:
        return build(sub, random_formula(rng, max_depth - 1, names))
    return build(sub)
