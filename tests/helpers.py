"""Shared test utilities: independent oracles and generators.

The oracles here deliberately do not reuse the package's internal
machinery: the lambda oracle works on named terms with explicit
renaming, the ob-condition oracle quantifies over every proposition
triple and every member family, straight from the definitions, for any
membership predicate (a table or an interpreted `ob`), and the
ob-closure oracle grows a table rule by rule to a fixpoint.  The earlier
`close_ob` and `random_model`, which drew a raw trace table and closed
it, stay as oracles for the model sampler.  The parser, formula walk,
normalization and search oracles are the package's earlier
implementations: a scanner with a branch per token start and a
recursive-descent parser with a method per binary level, an `atoms` that
follows every path and an `embed` with a branch per constructor,
normalization by substitution on de Bruijn terms (two strategies, over
`substitute`), and a countermodel search that evaluates every model of
up to two worlds and random models beyond, shrinking a sampled hit by
dropping worlds; its world drop squeezes every ob trace rather than
relying on the closed form of ob tables.  The sweep oracle is the
bit-sliced sweep from before the (frame, table) pairs were sliced as
well: one pair per run.  The embedded evaluator oracle is the closure
compiler from before binder use masks, per-call caches, compile-time
domains and fused clauses.  The THF renderer oracle is the renderer from
before it tested each node's kind once and matched the existential and
conjunction patterns inline.
"""

from __future__ import annotations

import functools
import itertools
import json
import random
import re
from dataclasses import dataclass
from typing import Iterator, Mapping, Union

from ddlkit import hol
from ddlkit.hol import (AV, BOX_TAU, BOXA_TAU, BOXP_TAU, EQ_NAME,
                        LOGICAL_NAMES, I, NOT, NOT_NAME, NOT_TAU, OB, OB_TAU,
                        OBA_TAU, OBP_TAU, OR, OR_NAME, OR_TAU, PI_NAME, PV,
                        TAU, Abs, App, Arrow, Bound, Const, Free, HolTerm,
                        HolType, HolTypeError, O, atom_const, eq_const,
                        forall, lor, match_and, match_exists, neg, pi_const,
                        shift, type_of, type_str, uses_bound)
from ddlkit.checker import truth_set
from ddlkit.export import (ExportError, ThfProblem, _signature_entries,
                           thf_type)
from ddlkit.henkin import (_ARITY, FALSE, TRUE, Code, EvalError, HenkinModel,
                           _eta_expand, domain_size, enumerate_domain)
from ddlkit.model import (DENSITIES, CJModel, enumerate_models, full_mask,
                          ideal_ob, mask_of, random_model, subsets,
                          world_list)
from ddlkit.search import (_ATOM, _BOX, _BOXA, _BOXP, _NOT, _OB, _OBP, _OR,
                           _certify)
from ddlkit.syntax import (IDENT_RE, _KEYWORDS, _PREFIX, _PRIMARY_STARTERS,
                           RESERVED_ATOM, RESERVED_ATOMS, Atom, Box, BoxA,
                           BoxP, Formula, Not, ObA, ObDyadic, ObP, Or,
                           ParseError, ReservedAtomError, _and, _false, _iff,
                           _imp, _true, atoms, children)

# ---------------------------------------------------------------------------
# named-variable lambda oracle


@dataclass(frozen=True)
class NVar:
    name: str


@dataclass(frozen=True)
class NOpaque:
    """Constants and free variables: opaque heads for the oracle."""

    tag: str


@dataclass(frozen=True)
class NApp:
    fn: "NTerm"
    arg: "NTerm"


@dataclass(frozen=True)
class NAbs:
    var: str
    var_ty: HolType
    body: "NTerm"


NTerm = Union[NVar, NOpaque, NApp, NAbs]

_counter = itertools.count()


def fresh_name() -> str:
    return f"v{next(_counter)}"


def to_named(t: HolTerm, env: tuple[str, ...] = ()) -> NTerm:
    if isinstance(t, Bound):
        return NVar(env[t.index])
    if isinstance(t, Const):
        return NOpaque(f"c:{t.name}:{hol.type_str(t.ty)}")
    if isinstance(t, Free):
        return NOpaque(f"f:{t.name}:{hol.type_str(t.ty)}")
    if isinstance(t, App):
        return NApp(to_named(t.fn, env), to_named(t.arg, env))
    if isinstance(t, Abs):
        name = fresh_name()
        return NAbs(name, t.var_ty, to_named(t.body, (name,) + env))
    raise TypeError(t)


def from_named(t: NTerm, env: tuple[str, ...] = ()) -> HolTerm:
    if isinstance(t, NVar):
        return Bound(env.index(t.name))
    if isinstance(t, NOpaque):
        kind, name, ty = t.tag.split(":", 2)
        parsed = _parse_type(ty)
        return Const(name, parsed) if kind == "c" else Free(name, parsed)
    if isinstance(t, NApp):
        return App(from_named(t.fn, env), from_named(t.arg, env))
    if isinstance(t, NAbs):
        return Abs(t.var_ty, from_named(t.body, (t.var,) + env))
    raise TypeError(t)


def _parse_type(s: str) -> HolType:
    # inverse of hol.type_str; handles o, i, > and parentheses
    pos = 0

    def atom() -> HolType:
        nonlocal pos
        if s[pos] == "(":
            pos += 1
            ty = arrow()
            assert s[pos] == ")"
            pos += 1
            return ty
        if s[pos] == "o":
            pos += 1
            return O
        assert s[pos] == "i"
        pos += 1
        return I

    def arrow() -> HolType:
        nonlocal pos
        left = atom()
        if pos < len(s) and s[pos] == ">":
            pos += 1
            return Arrow(left, arrow())
        return left

    ty = arrow()
    assert pos == len(s), s
    return ty


def nfree(t: NTerm) -> set[str]:
    if isinstance(t, NVar):
        return {t.name}
    if isinstance(t, NOpaque):
        return set()
    if isinstance(t, NApp):
        return nfree(t.fn) | nfree(t.arg)
    return nfree(t.body) - {t.var}


def nsubst(t: NTerm, x: str, s: NTerm) -> NTerm:
    """Textbook capture-avoiding substitution with explicit renaming."""
    if isinstance(t, NVar):
        return s if t.name == x else t
    if isinstance(t, NOpaque):
        return t
    if isinstance(t, NApp):
        return NApp(nsubst(t.fn, x, s), nsubst(t.arg, x, s))
    if t.var == x:
        return t
    if t.var in nfree(s) and x in nfree(t.body):
        renamed = fresh_name()
        body = nsubst(t.body, t.var, NVar(renamed))
        return NAbs(renamed, t.var_ty, nsubst(body, x, s))
    return NAbs(t.var, t.var_ty, nsubst(t.body, x, s))


def named_beta_nf(t: NTerm) -> NTerm:
    def whnf(u: NTerm) -> NTerm:
        while isinstance(u, NApp):
            fn = whnf(u.fn)
            if isinstance(fn, NAbs):
                u = nsubst(fn.body, fn.var, u.arg)
            else:
                return NApp(fn, u.arg)
        return u

    t = whnf(t)
    if isinstance(t, NApp):
        return NApp(named_beta_nf(t.fn), named_beta_nf(t.arg))
    if isinstance(t, NAbs):
        return NAbs(t.var, t.var_ty, named_beta_nf(t.body))
    return t


def named_eta_nf(t: NTerm) -> NTerm:
    if isinstance(t, NApp):
        return NApp(named_eta_nf(t.fn), named_eta_nf(t.arg))
    if isinstance(t, NAbs):
        body = named_eta_nf(t.body)
        if (isinstance(body, NApp) and body.arg == NVar(t.var)
                and t.var not in nfree(body.fn)):
            return body.fn
        return NAbs(t.var, t.var_ty, body)
    return t


def oracle_normalize(t: HolTerm) -> HolTerm:
    """Beta-eta normal form computed entirely on named terms."""
    return from_named(named_eta_nf(named_beta_nf(to_named(t))))


# ---------------------------------------------------------------------------
# substitution normalizers: the de Bruijn strategies the package used
# before normalization by evaluation, the substitution they build on, and
# Leibniz equality; the package itself needs neither term operation


def _subst(t: HolTerm, depth: int, repl: HolTerm) -> HolTerm:
    if isinstance(t, Bound):
        if t.index == depth:
            return shift(repl, depth)
        if t.index > depth:
            return Bound(t.index - 1)
        return t
    if isinstance(t, App):
        return App(_subst(t.fn, depth, repl), _subst(t.arg, depth, repl))
    if isinstance(t, Abs):
        return Abs(t.var_ty, _subst(t.body, depth + 1, repl), t.hint)
    return t


def substitute(t: HolTerm, replacement: HolTerm) -> HolTerm:
    """Capture-avoiding substitution of `replacement` for binder index 0.

    Indices referring past the eliminated binder move down by one; the
    index arithmetic makes capture impossible.  Raises HolTypeError when
    the replacement's type disagrees with how the variable is used.
    """
    repl_ty = type_of(replacement)
    type_of(t, (repl_ty,))
    return _subst(t, 0, replacement)


def leibniz_eq(a: HolTerm, b: HolTerm) -> HolTerm:
    """Indiscernibility form of equality: every predicate carries a to b."""
    ty_a, ty_b = type_of(a), type_of(b)
    if ty_a != ty_b:
        raise HolTypeError(f"cannot compare {type_str(ty_a)} with "
                           f"{type_str(ty_b)}")
    return forall(Arrow(ty_a, O),
                  lor(neg(App(Bound(0), shift(a, 1))),
                      App(Bound(0), shift(b, 1))), "P")


def _whnf(t: HolTerm) -> HolTerm:
    while isinstance(t, App):
        fn = _whnf(t.fn)
        if isinstance(fn, Abs):
            t = _subst(fn.body, 0, t.arg)
        else:
            return t if fn is t.fn else App(fn, t.arg)
    return t


def _beta_nf(t: HolTerm) -> HolTerm:
    # leftmost-outermost reduction to beta-normal form
    t = _whnf(t)
    if isinstance(t, App):
        return App(_beta_nf(t.fn), _beta_nf(t.arg))
    if isinstance(t, Abs):
        return Abs(t.var_ty, _beta_nf(t.body), t.hint)
    return t


def _beta_nf_innermost(t: HolTerm) -> HolTerm:
    # rightmost-innermost strategy; must agree with _beta_nf on typed terms
    if isinstance(t, App):
        fn = _beta_nf_innermost(t.fn)
        arg = _beta_nf_innermost(t.arg)
        if isinstance(fn, Abs):
            return _beta_nf_innermost(_subst(fn.body, 0, arg))
        return App(fn, arg)
    if isinstance(t, Abs):
        return Abs(t.var_ty, _beta_nf_innermost(t.body), t.hint)
    return t


def _eta_nf(t: HolTerm) -> HolTerm:
    if isinstance(t, App):
        return App(_eta_nf(t.fn), _eta_nf(t.arg))
    if isinstance(t, Abs):
        body = _eta_nf(t.body)
        if (isinstance(body, App) and body.arg == Bound(0)
                and not uses_bound(body.fn, 0)):
            return shift(body.fn, -1)
        return Abs(t.var_ty, body, t.hint)
    return t


def substitution_normalize(t: HolTerm) -> HolTerm:
    """The beta-eta normal form by leftmost-outermost substitution."""
    # eta steps on a beta-normal typed term create no beta redex, and
    # _eta_nf works bottom-up, so one pass of each is enough
    return _eta_nf(_beta_nf(t))


def beta_eta_normalize_innermost(t: HolTerm) -> HolTerm:
    """Same normal form, computed with the rightmost-innermost strategy."""
    t = _eta_nf(_beta_nf_innermost(t))
    while True:
        t2 = _eta_nf(_beta_nf_innermost(t))
        if t2 == t:
            return t
        t = t2


# ---------------------------------------------------------------------------
# random well-typed kernel terms

_TYPE_POOL = (O, I, TAU, Arrow(O, O))


def random_term(rng, ty: HolType | None = None, depth: int = 4,
                binders: tuple[HolType, ...] = ()) -> HolTerm:
    """A random well-typed (possibly open in named Frees) term of type ty."""
    if ty is None:
        ty = rng.choice(_TYPE_POOL)
    if depth <= 0:
        return _leaf(rng, ty, binders)
    roll = rng.random()
    if isinstance(ty, Arrow) and roll < 0.4:
        return Abs(ty.arg, random_term(rng, ty.res, depth - 1,
                                       (ty.arg,) + binders))
    if roll < 0.75:
        sigma = rng.choice(_TYPE_POOL)
        fn = random_term(rng, Arrow(sigma, ty), depth - 1, binders)
        arg = random_term(rng, sigma, depth - 1, binders)
        return App(fn, arg)
    return _leaf(rng, ty, binders)


def _leaf(rng, ty: HolType, binders: tuple[HolType, ...]) -> HolTerm:
    candidates: list[HolTerm] = [Bound(i) for i, b in enumerate(binders)
                                 if b == ty]
    for c in (NOT, OR, AV, PV, OB, atom_const("p"), atom_const("q"),
              pi_const(I), pi_const(O), eq_const(I), eq_const(O)):
        if c.ty == ty:
            candidates.append(c)
    candidates.append(Free(f"x_{hol.type_str(ty)}", ty))
    if isinstance(ty, Arrow) and rng.random() < 0.5:
        return Abs(ty.arg, _leaf(rng, ty.res, (ty.arg,) + binders))
    return rng.choice(candidates)


# ---------------------------------------------------------------------------
# brute-force ob-condition oracle (membership semantics, all triples)


def ob_membership(ob: dict[int, frozenset[int]], context: int,
                  member: int) -> bool:
    trace = member & context
    return trace != 0 and trace in ob.get(context, frozenset())


def table_member(ob: dict[int, frozenset[int]]):
    """The membership predicate of a trace-canonical ob table."""
    return functools.partial(ob_membership, ob)


def brute_force_ob_failures(member, n: int) -> list[str]:
    """The names among ob1..ob5 of the conditions that the membership
    predicate member(context, proposition) violates, checked from their
    definitions: all proposition pairs and triples, and for ob3 every
    nonempty member family."""
    full = full_mask(n)
    props = range(full + 1)
    bad = set()
    for x in props:
        if member(x, 0):
            bad.add("ob1")
        for y in props:
            for z in props:
                if y & x == z & x and member(x, y) != member(x, z):
                    bad.add("ob2")
                if not y & ~x and member(x, y) and not x & ~z \
                        and not member(z, (z & ~x) | y):
                    bad.add("ob4")
                if not y & ~x and member(x, z) and y & z \
                        and not member(y, z):
                    bad.add("ob5")
        members = [y for y in props if member(x, y)]
        for pick in range(1, 1 << len(members)):
            meet = full
            for i, y in enumerate(members):
                if pick >> i & 1:
                    meet &= y
            if meet & x and not member(x, meet):
                bad.add("ob3")
    return sorted(bad)


def interpreted_frame_failures(h) -> list[str]:
    """The frame conditions among av, pv1, pv2, ob1..ob5 that the
    interpreted tables of a HenkinModel violate, over all propositions
    of its finite domain."""
    n = h.n
    full = full_mask(n)
    av = [h.interp["av"] >> n * s & full for s in range(n)]
    pv = [h.interp["pv"] >> n * s & full for s in range(n)]
    ob = h.interp["ob"]
    frame = (("av", any(a == 0 for a in av)),
             ("pv1", any(a & ~p for a, p in zip(av, pv))),
             ("pv2", any(not p >> s & 1 for s, p in enumerate(pv))))
    return [name for name, bad in frame if bad] + brute_force_ob_failures(
        lambda x, y: bool(ob >> (x << n) + y & 1), n)


def all_candidate_ob_tables(n: int):
    """Every trace-canonical ob table on n worlds (valid or not)."""
    full = full_mask(n)
    contexts = list(range(1, full + 1))
    per_context = []
    for context in contexts:
        traces = [t for t in subsets(context) if t]
        per_context.append([frozenset(t for i, t in enumerate(traces)
                                      if pick >> i & 1)
                            for pick in range(1 << len(traces))])
    for combo in itertools.product(*per_context):
        yield {c: ts for c, ts in zip(contexts, combo) if ts}


def repair_ob(ob: dict[int, set[int]], n: int) -> None:
    """Grow a raw trace table until the last three ob conditions hold.

    Members only get added, and the table lives in a finite lattice, so
    the sweep reaches a fixpoint.  Order of sweeps is fixed (pairwise
    closure, then the condition-4 demands, then condition-5) to keep the
    construction deterministic.
    """
    full = full_mask(n)
    changed = True
    while changed:
        changed = False
        for context in sorted(ob):
            traces = ob[context]
            grew = True
            while grew:
                grew = False
                for t1, t2 in itertools.combinations(sorted(traces), 2):
                    both = t1 & t2
                    if both and both not in traces:
                        traces.add(both)
                        grew = changed = True
        for context in sorted(ob):
            for y in sorted(ob[context]):
                for extra in subsets(full & ~context):
                    z = context | extra
                    demanded = (z & ~context) | y
                    if demanded not in ob.setdefault(z, set()):
                        ob[z].add(demanded)
                        changed = True
        for context in sorted(ob):
            for w in sorted(ob[context]):
                for y in subsets(context):
                    t = w & y
                    if y and t and t not in ob.setdefault(y, set()):
                        ob[y].add(t)
                        changed = True


def close_ob_oracle(raw: Mapping[int, set[int]],
                    n: int) -> dict[int, frozenset[int]]:
    """The earlier `model.close_ob`: the least valid table containing a
    raw trace table (each trace a nonempty subset of its context), by
    the closed form; empty if raw has no traces."""
    if not any(raw.values()):
        return {}
    outside = 0
    for context, traces in raw.items():
        for trace in traces:
            outside |= context & ~trace
    return ideal_ob(n, full_mask(n) & ~outside)


def random_model_oracle(n: int, atom_names, seed: int,
                        density: float = 0.3) -> CJModel:
    """The earlier `model.random_model`: draw a frame, a valuation and a
    raw trace table, then close the table with `close_ob_oracle`."""
    rng = random.Random(seed)
    full = full_mask(n)
    pv = []
    av = []
    for s in range(n):
        p = 1 << s
        for t in range(n):
            if t != s and rng.random() < 0.5:
                p |= 1 << t
        a = 0
        for t in world_list(p):
            if rng.random() < 0.5:
                a |= 1 << t
        if a == 0:
            a = 1 << rng.choice(world_list(p))
        pv.append(p)
        av.append(a)
    val = {}
    for atom in sorted(set(atom_names)):
        mask = 0
        for t in range(n):
            if rng.random() < 0.5:
                mask |= 1 << t
        val[atom] = mask
    raw: dict[int, list[int]] = {}
    for context in range(1, full + 1):
        for trace in subsets(context):
            if trace and rng.random() < density:
                raw.setdefault(context, []).append(trace)
    return CJModel(n, tuple(av), tuple(pv), close_ob_oracle(raw, n), val)


# ---------------------------------------------------------------------------
# formula parser oracle: the earlier scanner and recursive-descent parser

_KEYWORD_RE = re.compile(r"[A-Z][a-zA-Z0-9_]*")


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
        m = IDENT_RE.match(text, i)
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


def oracle_parse(text: str) -> Formula:
    """The earlier `parse`: one method per binary level."""
    if not text.strip():
        raise ParseError("empty input", 0, _PRIMARY_STARTERS)
    p = _Parser(text)
    f = p.iff()
    eof = p.peek()
    if eof.kind != "eof":
        raise ParseError(f"unexpected trailing {eof.text!r}", eof.offset)
    return f


# ---------------------------------------------------------------------------
# formula walk oracles: the earlier `atoms`, which follows every path, and
# the earlier `embed`, one branch per constructor


def oracle_atoms(f: Formula) -> set[str]:
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


def oracle_embed(f: Formula) -> HolTerm:
    """Translate a formula to a world predicate of type tau.

    The output mentions only signature constants, lambda, and
    application; the connective definitions above are substituted
    unreduced (normalize afterwards if a normal form is wanted).  The
    dyadic obligation applies its definition to the antecedent first.
    """
    if isinstance(f, Atom):
        return atom_const(f.name)
    if isinstance(f, Not):
        return App(NOT_TAU, oracle_embed(f.sub))
    if isinstance(f, Or):
        return App(App(OR_TAU, oracle_embed(f.left)), oracle_embed(f.right))
    if isinstance(f, Box):
        return App(BOX_TAU, oracle_embed(f.sub))
    if isinstance(f, BoxA):
        return App(BOXA_TAU, oracle_embed(f.sub))
    if isinstance(f, BoxP):
        return App(BOXP_TAU, oracle_embed(f.sub))
    if isinstance(f, ObDyadic):
        return App(App(OB_TAU, oracle_embed(f.antecedent)),
                   oracle_embed(f.consequent))
    if isinstance(f, ObA):
        return App(OBA_TAU, oracle_embed(f.sub))
    if isinstance(f, ObP):
        return App(OBP_TAU, oracle_embed(f.sub))
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# embedded evaluator oracle


def oracle_eval_term(h: HenkinModel, t: HolTerm,
                     free: Mapping[str, int] | None = None) -> int:
    """The earlier `henkin.eval_term`, before binder use masks, per-call
    caches, compile-time domains and fused clauses.

    Denotation of a term: constants via the interpretation, variables
    via the assignment, application by reading a digit, abstraction by
    tabulating the body over the argument domain.

    The term is first compiled once, so types and radices are worked
    out per node rather than per application.  Quantifiers and the
    boolean connectives are applied without materializing their tables,
    enumerating lazily with early exit; the resulting value is the same,
    only cheaper.
    """
    code, _ = _oracle_compile(h, t, (), free or {})
    return code([])


def _oracle_compile(h: HenkinModel, t: HolTerm,
                    binders: tuple[HolType, ...],
                    free: Mapping[str, int]) -> tuple[Code, HolType]:
    """Code computing `t` under binders of the given types (innermost
    first), together with the type of `t`."""
    if isinstance(t, Bound):
        if t.index >= len(binders):
            raise EvalError(f"dangling bound variable index {t.index}")
        k = -1 - t.index
        return (lambda env: env[k]), binders[t.index]
    if isinstance(t, Free):
        if t.name not in free:
            raise EvalError(f"unassigned free variable {t.name}:"
                            f"{type_str(t.ty)}")
        v = free[t.name]
        if not 0 <= v < domain_size(h.n, t.ty):
            raise EvalError(f"value {v} of {t.name} is outside the domain "
                            f"of type {type_str(t.ty)}")
        return (lambda env: v), t.ty
    if isinstance(t, Const):
        if t.name in LOGICAL_NAMES:
            return _oracle_compile(h, _eta_expand(t), binders, free)
        if t.name not in h.interp:
            raise EvalError(f"constant {t.name} has no interpretation")
        v = h.interp[t.name]
        return (lambda env: v), t.ty
    if isinstance(t, Abs):
        body, res = _oracle_compile(h, t.body, (t.var_ty,) + binders, free)
        return _oracle_tabulate(h.n, t.var_ty, body, res), Arrow(t.var_ty, res)
    # application: flatten the spine so logical heads can short-circuit
    head, args = t, []
    while isinstance(head, App):
        args.append(head.arg)
        head = head.fn
    args.reverse()
    if isinstance(head, Const) and head.name in LOGICAL_NAMES:
        if len(args) == _ARITY[head.name]:
            return _oracle_compile_logical(h, head, args, binders, free), O
        head = _eta_expand(head)
    argcode = [_oracle_compile(h, a, binders, free) for a in args]
    if isinstance(head, Abs):
        # apply syntactic lambdas by extending the environment rather
        # than building their tables; arguments are evaluated in the
        # current environment first
        k = 0
        while isinstance(head, Abs) and k < len(args):
            binders = (head.var_ty,) + binders
            head = head.body
            k += 1
        body, ty = _oracle_compile(h, head, binders, free)
        pushed = [a for a, _ in argcode[:k]]
        argcode = argcode[k:]

        def code(env: list) -> int:
            env.extend([a(env) for a in pushed])
            out = body(env)
            del env[-k:]
            return out
    else:
        code, ty = _oracle_compile(h, head, binders, free)
    for a, arg_ty in argcode:
        if not isinstance(ty, Arrow) or ty.arg != arg_ty:
            raise EvalError(f"cannot apply a value of type {type_str(ty)} "
                            f"to one of type {type_str(arg_ty)}")
        ty = ty.res
        code = _oracle_digit(code, a, domain_size(h.n, ty))
    return code, ty


def _oracle_digit(fn: Code, arg: Code, base: int) -> Code:
    """Code applying a function to an argument: digit `arg` of `fn` in
    the given base."""
    width = base.bit_length() - 1
    if base == 1 << width:
        mask = base - 1
        return lambda env: fn(env) >> width * arg(env) & mask
    return lambda env: fn(env) // base ** arg(env) % base


def _oracle_tabulate(n: int, var_ty: HolType, body: Code,
                     res: HolType) -> Code:
    """Code building a function's number from its body's values."""
    base = domain_size(n, res)

    def code(env: list) -> int:
        out = 0
        for d in reversed(enumerate_domain(n, var_ty)):
            env.append(d)
            out = out * base + body(env)
            env.pop()
        return out
    return code


def _oracle_compile_logical(h: HenkinModel, head: Const,
                            args: list[HolTerm],
                            binders: tuple[HolType, ...],
                            free: Mapping[str, int]) -> Code:
    if head.name == PI_NAME and isinstance(args[0], Abs):
        n, alpha = h.n, head.ty.arg.arg
        body, _ = _oracle_compile(h, args[0].body, (alpha,) + binders, free)

        def forall(env: list) -> int:
            for d in enumerate_domain(n, alpha):
                env.append(d)
                v = body(env)
                env.pop()
                if not v:
                    return FALSE
            return TRUE
        return forall
    a, *rest = [_oracle_compile(h, u, binders, free)[0] for u in args]
    if head.name == NOT_NAME:
        return lambda env: 1 - a(env)
    if head.name == PI_NAME:
        full = (1 << domain_size(h.n, head.ty.arg.arg)) - 1
        return lambda env: int(a(env) == full)
    b = rest[0]
    if head.name == OR_NAME:
        return lambda env: a(env) or b(env)
    return lambda env: int(a(env) == b(env))


# ---------------------------------------------------------------------------
# countermodel search oracle


def sampled_search_oracle(f: Formula, n_max: int = 3, samples: int = 1000,
                          seed: int = 0) -> tuple[CJModel, int] | None:
    """The earlier `find_countermodel`: every model on up to min(2, n_max)
    worlds, then `samples` random models per world count up to n_max, a
    hit shrunk by dropping worlds."""
    if not 1 <= n_max <= 4:
        raise ValueError(f"n_max must be in 1..4, got {n_max}")
    if samples < 0:
        raise ValueError("samples must be nonnegative")
    names = sorted(atoms(f))
    for n in range(1, min(2, n_max) + 1):
        for m in enumerate_models(n, names):
            hit = _falsifying_world(m, f)
            if hit is not None:
                return _certify(m, hit, f)
    rng = random.Random(seed)
    for n in range(3, n_max + 1):
        for _ in range(samples):
            density = rng.choice(DENSITIES)
            m = random_model(n, names, rng.getrandbits(63), density)
            hit = _falsifying_world(m, f)
            if hit is not None:
                m, hit = _minimize(m, hit, f)
                return _certify(m, hit, f)
    return None


def _falsifying_world(m: CJModel, f: Formula) -> int | None:
    ts = truth_set(m, f)
    full = full_mask(m.n)
    if ts == full:
        return None
    missing = full & ~ts
    return (missing & -missing).bit_length() - 1


def _minimize(m: CJModel, s: int, f: Formula) -> tuple[CJModel, int]:
    """Greedy shrinking: drop worlds, highest index first, as long as the
    result still falsifies f.  On closed-form tables a drop stays valid
    (`_certify` re-checks the result anyway)."""
    while m.n > 1:
        for k in range(m.n - 1, -1, -1):
            smaller = drop_world_oracle(m, k)
            hit = None if smaller is None else _falsifying_world(smaller, f)
            if hit is not None:
                m, s = smaller, hit
                break
        else:
            break
    return m, s


def drop_world_oracle(m: CJModel, k: int) -> CJModel | None:
    """The model with world k removed and indices compacted, or None if
    a frame set would come out empty; squeezes every ob trace, so it
    works on any table."""

    def squeeze(mask: int) -> int:
        low = mask & ((1 << k) - 1)
        high = mask >> (k + 1)
        return low | high << k

    av, pv = [], []
    for s in range(m.n):
        if s == k:
            continue
        a, p = squeeze(m.av[s]), squeeze(m.pv[s])
        if a == 0:
            return None
        av.append(a)
        pv.append(p)
    ob: dict[int, frozenset[int]] = {}
    for context, traces in m.ob.items():
        c = squeeze(context)
        if c == 0:
            continue
        kept = frozenset(t for t in (squeeze(t) for t in traces) if t)
        if kept:
            ob[c] = ob.get(c, frozenset()) | kept
    val = {a: squeeze(mask) for a, mask in m.val.items()}
    return CJModel(m.n - 1, tuple(av), tuple(pv), ob, val)


def sweep_oracle(ops, k: int, n: int, candidates):
    """The earlier `_sweep`, one (frame, table) pair at a time.  For each
    candidate frame and table, yield (av, pv, ideal, missed): missed[w]
    holds the lanes where the last operation is false at world w.
    `candidates` yields (av, pv, ideals), ideal None standing for the
    empty table."""
    every = (1 << (1 << n * k)) - 1
    vals: list[list[int]] = [[] for _ in ops]
    fixed, varying = [], []  # varying: at or above [a], [p], O, Oa or Op
    moving: set[int] = set()
    for i, (code, x, y) in enumerate(ops):
        if code == _ATOM:
            # lanes where bit b of the lane index is set, b = (k-1-x)*n + w
            vals[i] = [every // ((1 << (1 << b)) + 1) << (1 << b)
                       for b in range((k - 1 - x) * n, (k - x) * n)]
        elif code >= _BOXA or x in moving or y in moving:
            moving.add(i)
            varying.append((i, code, x, y))
        else:
            fixed.append((i, code, x, y))
    _oracle_run(fixed, vals, n, every, None, None)
    for av, pv, ideals in candidates:
        # frame[0][s] lists av(s), frame[1][s] lists pv(s)
        frame = ([world_list(a) for a in av], [world_list(p) for p in pv])
        for ideal in ideals:
            _oracle_run(varying, vals, n, every, frame, ideal)
            yield av, pv, ideal, [every ^ lanes for lanes in vals[-1]]


def _oracle_run(ops, vals, n: int, every: int, frame,
                ideal: int | None) -> None:
    """Evaluate the operations (index, code, x, y) into `vals`."""
    for i, code, x, y in ops:
        sub = vals[x]
        if code == _NOT:
            out = [every ^ a for a in sub]
        elif code == _OR:
            out = [a | b for a, b in zip(sub, vals[y])]
        elif code == _BOX:
            a = every
            for b in sub:
                a &= b
            out = [a] * n
        elif code == _BOXA or code == _BOXP:
            out = []
            for ws in frame[code == _BOXP]:
                a = every
                for t in ws:
                    a &= sub[t]
                out.append(a)
        elif ideal is None:
            out = [0] * n  # the empty table obliges nothing
        elif code == _OB:
            # O(y/x): y meets x somewhere, and no ideal x-world lacks y
            cons = vals[y]
            meets = lacks = 0
            for w in range(n):
                meets |= sub[w] & cons[w]
                if ideal >> w & 1:
                    lacks |= sub[w] & ~cons[w]
            out = [meets & ~lacks] * n
        else:
            # Oa x at s: x meets av(s), misses part of it, and holds at
            # every ideal world of it; Op x the same with pv(s)
            out = []
            for ws in frame[code == _OBP]:
                meets, all_of, ideal_part = 0, every, every
                for t in ws:
                    a = sub[t]
                    meets |= a
                    all_of &= a
                    if ideal >> t & 1:
                        ideal_part &= a
                out.append(meets & ~all_of & ideal_part)
        vals[i] = out


# ---------------------------------------------------------------------------
# minimal THF tokenizer for round-trip checks

_THF_TOKEN = re.compile(
    r"\s*(\$[a-z]+|[a-z][a-zA-Z0-9_]*|[A-Z][a-zA-Z0-9_]*|<=>|=>"
    r"|[()\[\]:,.@~|&=!?^>]|\S)")

THF_KEYWORDS = {"thf", "axiom", "conjecture", "type"}


def thf_tokens(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _THF_TOKEN.match(text, pos)
        if not m:
            break
        tok = m.group(1)
        assert re.fullmatch(
            r"\$[a-z]+|[a-zA-Z][a-zA-Z0-9_]*|<=>|=>|[()\[\]:,.@~|&=!?^>]",
            tok), f"unknown THF token {tok!r}"
        tokens.append(tok)
        pos = m.end()
    return tokens


def check_thf_problem_text(text: str) -> None:
    """Structural sanity of an emitted problem: every statement is a
    balanced `thf(...).`, and symbols are declared before use."""
    declared: set[str] = set()
    for line in text.strip().splitlines():
        tokens = thf_tokens(line)
        assert tokens[0] == "thf" and tokens[1] == "(" and tokens[-1] == "."
        assert tokens[-2] == ")"
        depth = 0
        for tok in tokens:
            if tok in "([":
                depth += 1
            elif tok in ")]":
                depth -= 1
            assert depth >= 0, line
        assert depth == 0, line
        name, comma1, role = tokens[2], tokens[3], tokens[4]
        assert comma1 == "," and tokens[5] == ","
        body = tokens[6:-2]
        if role == "type":
            declared.add(body[0])
            continue
        assert role in ("axiom", "conjecture"), role
        bound = {tok for tok in body if re.fullmatch(r"[A-Z][a-zA-Z0-9_]*", tok)}
        for tok in body:
            if re.fullmatch(r"[a-z][a-zA-Z0-9_]*", tok):
                assert tok in declared, f"symbol {tok!r} used before declaration"
        del bound


# ---------------------------------------------------------------------------
# THF renderer oracle: the renderer from before one-dispatch rendering,
# which matched the existential and conjunction patterns through
# hol.match_exists and hol.match_and at every negation


def oracle_render(t: HolTerm, names: tuple[str, ...] = ()) -> str:
    if isinstance(t, App) and isinstance(t.fn, Const):
        if t.fn.name == NOT_NAME:
            ex = match_exists(t)
            if ex is not None:
                name = f"V{len(names)}"
                return (f"?[{name}:{thf_type(ex.var_ty)}]: "
                        + oracle_render(ex.body.arg, names + (name,)))
            both = match_and(t)
            if both is not None:
                a, b = both
                return (f"({oracle_render(a, names)} & "
                        f"{oracle_render(b, names)})")
            return "~" + _oracle_delimited(t.arg, names)
        if t.fn.name == PI_NAME:
            name = f"V{len(names)}"
            alpha = t.fn.ty.arg.arg
            if isinstance(t.arg, Abs):
                return (f"![{name}:{thf_type(alpha)}]: "
                        + oracle_render(t.arg.body, names + (name,)))
            # eta-expand so the quantifier still prints in binder form
            return (f"![{name}:{thf_type(alpha)}]: "
                    f"({_oracle_delimited(t.arg, names)} @ {name})")
    if isinstance(t, App) and isinstance(t.fn, App):
        if isinstance(t.fn.fn, Const) and t.fn.fn.name == OR_NAME:
            return (f"({oracle_render(t.fn.arg, names)} | "
                    f"{oracle_render(t.arg, names)})")
        if isinstance(t.fn.fn, Const) and t.fn.fn.name == EQ_NAME:
            return (f"({_oracle_delimited(t.fn.arg, names)} = "
                    f"{_oracle_delimited(t.arg, names)})")
    if isinstance(t, App):
        return (f"({_oracle_delimited(t.fn, names)} @ "
                f"{_oracle_delimited(t.arg, names)})")
    if isinstance(t, Abs):
        name = f"V{len(names)}"
        return (f"^[{name}:{thf_type(t.var_ty)}]: "
                + oracle_render(t.body, names + (name,)))
    if isinstance(t, Bound):
        if t.index >= len(names):
            raise ExportError(f"dangling bound variable index {t.index}")
        return names[len(names) - 1 - t.index]
    if isinstance(t, Const):
        if t.name in hol.LOGICAL_NAMES:
            raise ExportError(
                f"logical constant {t.name!r} occurs unapplied; cannot "
                "render in THF0")
        return t.name
    if isinstance(t, Free):
        raise ExportError(f"free variable {t.name!r} in a closed rendering")
    raise ExportError(f"unrenderable term {t!r}")


def _oracle_delimited(t: HolTerm, names: tuple[str, ...]) -> str:
    s = oracle_render(t, names)
    if isinstance(t, (Const, Bound)) or s.startswith("("):
        return s
    return f"({s})"


def oracle_thf_problem(f: Formula) -> ThfProblem:
    """The problem of export.to_thf_problem, every formula rendered by
    oracle_render."""
    return ThfProblem((
        *_signature_entries(sorted(atoms(f))),
        *((name.lower(), "axiom", oracle_render(term))
          for name, term in hol.axioms()),
        ("goal", "conjecture",
         oracle_render(hol.beta_eta_normalize(hol.vld(hol.embed(f)))))))


# ---------------------------------------------------------------------------
# hand-built models


def mk_model(n: int, av, pv, ob, val) -> CJModel:
    """Model from literal world lists, e.g. mk_model(2, [[1],[1]], ...)."""
    ob_table = {mask_of(ctx): frozenset(mask_of(t) for t in traces)
                for ctx, traces in ob}
    return CJModel(n, tuple(mask_of(a) for a in av),
                   tuple(mask_of(p) for p in pv), ob_table,
                   {a: mask_of(ws) for a, ws in val.items()})


def save_model(m: CJModel) -> bytes:
    """Serialize to the canonical JSON layout: one line per world list,
    contexts and members ascending, valuation keys sorted."""

    def lst(mask: int) -> str:
        return "[" + ", ".join(str(w) for w in world_list(mask)) + "]"

    def row(masks) -> str:
        return "[" + ", ".join(lst(mask) for mask in masks) + "]"

    lines = ["{",
             f'  "worlds": {m.n},',
             f'  "av": {row(m.av)},',
             f'  "pv": {row(m.pv)},']
    if m.ob:
        lines.append('  "ob": [')
        entries = [f'    {{"context": {lst(c)}, '
                   f'"members": {row(sorted(m.ob[c]))}}}'
                   for c in sorted(m.ob)]
        lines.append(",\n".join(entries))
        lines.append("  ],")
    else:
        lines.append('  "ob": [],')
    if m.val:
        vals = ", ".join(f'"{a}": {lst(m.val[a])}' for a in sorted(m.val))
        lines.append(f'  "val": {{{vals}}}')
    else:
        lines.append('  "val": {}')
    lines.append("}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def model_json_oracle(m: CJModel) -> str:
    """The earlier `model_json`: `save_model`'s text, parsed and dumped
    on one line."""
    return json.dumps(json.loads(save_model(m)), separators=(",", ":"))
