"""A small simply-typed lambda kernel and the formula embedding into it.

Types are freely generated from the base types `o` (booleans) and `i`
(worlds); `tau` abbreviates i>o, the type of world predicates.  Terms are
Church typed with de Bruijn indices for bound variables, so alpha
equivalence is plain structural equality; binder display names survive
only as annotations for printing.

The logical signature is fixed: negation, disjunction, a universal
quantifier constant per type (binder notation forall X. s is sugar for
Pi applied to a lambda), and primitive equality per type.  The deontic
signature adds av, pv (type i>i>o) and ob (type (i>o)>(i>o)>o), plus one
constant of type tau per formula atom.  Everything else (conjunction,
implication, equivalence, truth constants, existentials) is expanded
into that core at construction time, so reduction and evaluation only
ever deal with the five term formers and the primitive constants.

`embed` maps a formula to a world predicate of type tau by substituting
the definitional lambda terms for the nine connectives; `vld` closes a
world predicate into a sentence by quantifying over all worlds; and
`axioms` builds the eight closed sentences (AV, PV1, PV2, OB1..OB5) that
characterize exactly the interpretations arising from valid models.
`beta_eta_normalize` works by evaluation (Berger & Schwichtenberg, 1991):
a term evaluates to closures and is read back in normal form.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Union

from .syntax import (Atom, Box, BoxA, BoxP, Formula, Not, ObA, ObDyadic, ObP,
                     Or, children)


class HolTypeError(Exception):
    pass


@dataclass(frozen=True)
class BaseType:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Arrow:
    arg: "HolType"
    res: "HolType"

    def __str__(self) -> str:
        return type_str(self)


HolType = Union[BaseType, Arrow]

O = BaseType("o")
I = BaseType("i")
TAU = Arrow(I, O)


def type_str(ty: HolType) -> str:
    if isinstance(ty, BaseType):
        return ty.name
    left = type_str(ty.arg)
    if isinstance(ty.arg, Arrow):
        left = f"({left})"
    return f"{left}>{type_str(ty.res)}"


@dataclass(frozen=True)
class Const:
    name: str
    ty: HolType


@dataclass(frozen=True)
class Bound:
    index: int


@dataclass(frozen=True)
class Free:
    name: str
    ty: HolType


@dataclass(frozen=True)
class App:
    fn: "HolTerm"
    arg: "HolTerm"


@dataclass(frozen=True)
class Abs:
    var_ty: HolType
    body: "HolTerm"
    hint: str = field(default="X", compare=False)


HolTerm = Union[Const, Bound, Free, App, Abs]

NOT_NAME, OR_NAME, PI_NAME, EQ_NAME = "not", "or", "Pi", "eq"
LOGICAL_NAMES = frozenset({NOT_NAME, OR_NAME, PI_NAME, EQ_NAME})

NOT = Const(NOT_NAME, Arrow(O, O))
OR = Const(OR_NAME, Arrow(O, Arrow(O, O)))
AV = Const("av", Arrow(I, TAU))
PV = Const("pv", Arrow(I, TAU))
OB = Const("ob", Arrow(TAU, Arrow(TAU, O)))


def pi_const(alpha: HolType) -> Const:
    return Const(PI_NAME, Arrow(Arrow(alpha, O), O))


def eq_const(alpha: HolType) -> Const:
    return Const(EQ_NAME, Arrow(alpha, Arrow(alpha, O)))


def atom_const(name: str) -> Const:
    return Const(name, TAU)


def type_of(t: HolTerm, binders: tuple[HolType, ...] = ()) -> HolType:
    """The unique simple type of a term, or HolTypeError."""
    if isinstance(t, (Const, Free)):
        return t.ty
    if isinstance(t, Bound):
        if t.index >= len(binders):
            raise HolTypeError(f"dangling bound variable index {t.index}")
        return binders[t.index]
    if isinstance(t, App):
        fn_ty = type_of(t.fn, binders)
        arg_ty = type_of(t.arg, binders)
        if not isinstance(fn_ty, Arrow):
            raise HolTypeError(
                f"cannot apply a term of type {type_str(fn_ty)}")
        if fn_ty.arg != arg_ty:
            raise HolTypeError(
                f"ill-typed application: expected argument of type "
                f"{type_str(fn_ty.arg)}, got {type_str(arg_ty)}")
        return fn_ty.res
    if isinstance(t, Abs):
        return Arrow(t.var_ty, type_of(t.body, (t.var_ty,) + binders))
    raise TypeError(f"not a term: {t!r}")


def shift(t: HolTerm, by: int, cutoff: int = 0) -> HolTerm:
    """Shift indices of variables bound outside `cutoff` by `by`."""
    if isinstance(t, Bound):
        return Bound(t.index + by) if t.index >= cutoff else t
    if isinstance(t, App):
        return App(shift(t.fn, by, cutoff), shift(t.arg, by, cutoff))
    if isinstance(t, Abs):
        return Abs(t.var_ty, shift(t.body, by, cutoff + 1), t.hint)
    return t


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


def uses_bound(t: HolTerm, index: int) -> bool:
    if isinstance(t, Bound):
        return t.index == index
    if isinstance(t, App):
        return uses_bound(t.fn, index) or uses_bound(t.arg, index)
    if isinstance(t, Abs):
        return uses_bound(t.body, index + 1)
    return False


def _eval(t: HolTerm, env: tuple) -> object:
    """The value of `t`, env[i] being the value of Bound(i): a Const or
    Free, an int level (a variable; negative if bound outside the term
    being normalized), an App with a stuck head, or a closure (abs, env)."""
    while True:  # a closure body loops here: one frame per nesting level
        if isinstance(t, App):
            fn, arg = _eval(t.fn, env), _eval(t.arg, env)
            if type(fn) is not tuple:
                return App(fn, arg)
            t, env = fn[0].body, (arg,) + fn[1]
        elif isinstance(t, Bound):
            i = t.index
            return env[i] if i < len(env) else len(env) - 1 - i
        else:
            return (t, env) if isinstance(t, Abs) else t


def _quote(v: object, depth: int) -> HolTerm:
    """Read a value back into a term under `depth` binders (level L is
    Bound(depth - 1 - L)), eta-reducing every lambda it rebuilds: its body
    is normal already, and an eta step there makes no beta redex."""
    if type(v) is tuple:
        abs_, env = v
        body = _quote(_eval(abs_.body, (depth,) + env), depth + 1)
        if (isinstance(body, App) and body.arg == Bound(0)
                and not uses_bound(body.fn, 0)):
            return shift(body.fn, -1)
        return Abs(abs_.var_ty, body, abs_.hint)
    if isinstance(v, App):
        return App(_quote(v.fn, depth), _quote(v.arg, depth))
    return Bound(depth - 1 - v) if type(v) is int else v


def beta_eta_normalize(t: HolTerm) -> HolTerm:
    """The beta-eta normal form (unique for well-typed terms), by
    evaluation and read-back."""
    return _quote(_eval(t, ()), 0)


def neg(s: HolTerm) -> HolTerm:
    return App(NOT, s)


def lor(a: HolTerm, b: HolTerm) -> HolTerm:
    return App(App(OR, a), b)


def land(a: HolTerm, b: HolTerm) -> HolTerm:
    return neg(lor(neg(a), neg(b)))


def limp(a: HolTerm, b: HolTerm) -> HolTerm:
    return lor(neg(a), b)


def liff(a: HolTerm, b: HolTerm) -> HolTerm:
    return land(limp(a, b), limp(b, a))


def forall(alpha: HolType, body: HolTerm, hint: str = "X") -> HolTerm:
    return App(pi_const(alpha), Abs(alpha, body, hint))


def exists(alpha: HolType, body: HolTerm, hint: str = "X") -> HolTerm:
    return neg(forall(alpha, neg(body), hint))


def equals(alpha: HolType, a: HolTerm, b: HolTerm) -> HolTerm:
    return App(App(eq_const(alpha), a), b)


def true_term() -> HolTerm:
    ident = Abs(I, Bound(0), "X")
    return equals(Arrow(I, I), ident, ident)


def false_term() -> HolTerm:
    return neg(true_term())


# Definitional lambda terms for the nine formula connectives, each taking
# world predicates to a world predicate.  Substituting these inline is
# what makes the embedding shallow.
NOT_TAU = Abs(TAU, Abs(I, neg(App(Bound(1), Bound(0))), "X"), "A")
OR_TAU = Abs(TAU, Abs(TAU, Abs(I, lor(App(Bound(2), Bound(0)),
                                      App(Bound(1), Bound(0))), "X"), "B"), "A")
BOX_TAU = Abs(TAU, Abs(I, forall(I, App(Bound(2), Bound(0)), "Y"), "X"), "A")
BOXA_TAU = Abs(TAU, Abs(I, forall(
    I, lor(neg(App(App(AV, Bound(1)), Bound(0))),
           App(Bound(2), Bound(0))), "Y"), "X"), "A")
BOXP_TAU = Abs(TAU, Abs(I, forall(
    I, lor(neg(App(App(PV, Bound(1)), Bound(0))),
           App(Bound(2), Bound(0))), "Y"), "X"), "A")
OB_TAU = Abs(TAU, Abs(TAU, Abs(I, App(App(OB, Bound(2)), Bound(1)), "X"),
                      "B"), "A")
OBA_TAU = Abs(TAU, Abs(I, land(
    App(App(OB, App(AV, Bound(0))), Bound(1)),
    exists(I, land(App(App(AV, Bound(1)), Bound(0)),
                   neg(App(Bound(2), Bound(0)))), "Y")), "X"), "A")
OBP_TAU = Abs(TAU, Abs(I, land(
    App(App(OB, App(PV, Bound(0))), Bound(1)),
    exists(I, land(App(App(PV, Bound(1)), Bound(0)),
                   neg(App(Bound(2), Bound(0)))), "Y")), "X"), "A")


# each connective's definitional term, applied to its children's
# embeddings in the order of `children`
_DEFINITIONS = {Not: NOT_TAU, Or: OR_TAU, Box: BOX_TAU, BoxA: BOXA_TAU,
                BoxP: BOXP_TAU, ObDyadic: OB_TAU, ObA: OBA_TAU, ObP: OBP_TAU}


# Bound on the formula nodes `embed` translates, a shared subformula
# counted once per occurrence: the term does not share, so it and its
# THF text grow with that count.  d nested `p <-> (...)` have
# 11 * 2**d - 10 such nodes; `embed --thf` took 0.3 s at d = 10 (11,254
# nodes) and 1.2 s at d = 12 on a 2-vCPU machine.
MAX_EMBED_NODES = 1 << 14


def embed(f: Formula) -> HolTerm:
    """Translate a formula to a world predicate of type tau.

    The output mentions only signature constants, lambda, and
    application; the connective definitions above are substituted
    unreduced (normalize afterwards if a normal form is wanted).  The
    dyadic obligation applies its definition to the antecedent first.
    Raises ValueError past MAX_EMBED_NODES formula nodes.
    """
    return _embed(f, [MAX_EMBED_NODES])


def _embed(f: Formula, budget: list[int]) -> HolTerm:
    budget[0] -= 1
    if budget[0] < 0:
        raise ValueError("formula too large to embed: over "
                         f"{MAX_EMBED_NODES} nodes, a shared subformula "
                         "counted once per occurrence")
    if isinstance(f, Atom):
        return atom_const(f.name)
    kids = children(f)  # a TypeError for a non-formula
    term = _DEFINITIONS[type(f)]
    for c in kids:
        term = App(term, _embed(c, budget))
    return term


VLD = Abs(TAU, forall(I, App(Bound(1), Bound(0)), "S"), "A")


def vld(t: HolTerm) -> HolTerm:
    """Close a world predicate into the sentence "true at every world"."""
    ty = type_of(t)
    if ty != TAU:
        raise HolTypeError(f"vld expects a term of type {type_str(TAU)}, "
                           f"got {type_str(ty)}")
    return beta_eta_normalize(App(VLD, t))


def leibniz_eq(a: HolTerm, b: HolTerm) -> HolTerm:
    """Indiscernibility form of equality: every predicate carries a to b."""
    ty_a, ty_b = type_of(a), type_of(b)
    if ty_a != ty_b:
        raise HolTypeError(f"cannot compare {type_str(ty_a)} with "
                           f"{type_str(ty_b)}")
    return forall(Arrow(ty_a, O),
                  lor(neg(App(Bound(0), shift(a, 1))),
                      App(Bound(0), shift(b, 1))), "P")


def _ob3_member_lambda(beta_index: int) -> HolTerm:
    # lambda W:i. forall Z:tau. (beta Z -> Z W), with beta already bound
    # `beta_index` binders out from the lambda being built here
    return Abs(I, forall(TAU, limp(App(Bound(beta_index + 2), Bound(0)),
                                   App(Bound(0), Bound(1))), "Z"), "W")


@functools.cache
def axioms() -> tuple[tuple[str, HolTerm], ...]:
    """The eight closed sentences satisfied exactly by the standard
    interpretations built from valid models; beta-eta normal, in the
    fixed order AV, PV1, PV2, OB1..OB5.  Built once and shared."""
    av = forall(I, exists(I, App(App(AV, Bound(1)), Bound(0)), "V"), "W")
    pv1 = forall(I, forall(I, limp(App(App(AV, Bound(1)), Bound(0)),
                                   App(App(PV, Bound(1)), Bound(0))),
                           "V"), "W")
    pv2 = forall(I, App(App(PV, Bound(0)), Bound(0)), "W")
    ob1 = forall(TAU, neg(App(App(OB, Bound(0)),
                              Abs(I, false_term(), "W"))), "X")
    ob2 = forall(TAU, forall(TAU, forall(TAU, limp(
        forall(I, liff(land(App(Bound(2), Bound(0)), App(Bound(3), Bound(0))),
                       land(App(Bound(1), Bound(0)), App(Bound(3), Bound(0)))),
               "W"),
        liff(App(App(OB, Bound(2)), Bound(1)),
             App(App(OB, Bound(2)), Bound(0)))), "Z"), "Y"), "X")
    ob3 = forall(Arrow(TAU, O), forall(TAU, limp(
        land(forall(TAU, limp(App(Bound(2), Bound(0)),
                              App(App(OB, Bound(1)), Bound(0))), "Z"),
             exists(TAU, App(Bound(2), Bound(0)), "Z")),
        limp(exists(I, land(App(_ob3_member_lambda(2), Bound(0)),
                            App(Bound(1), Bound(0))), "Y"),
             App(App(OB, Bound(0)), _ob3_member_lambda(1)))), "X"), "B")
    ob4 = forall(TAU, forall(TAU, forall(TAU, limp(
        land(land(forall(I, limp(App(Bound(2), Bound(0)),
                                 App(Bound(3), Bound(0))), "W"),
                  App(App(OB, Bound(2)), Bound(1))),
             forall(I, limp(App(Bound(3), Bound(0)),
                            App(Bound(1), Bound(0))), "W")),
        App(App(OB, Bound(0)),
            Abs(I, lor(land(App(Bound(1), Bound(0)),
                            neg(App(Bound(3), Bound(0)))),
                       App(Bound(2), Bound(0))), "W"))), "Z"), "Y"), "X")
    ob5 = forall(TAU, forall(TAU, forall(TAU, limp(
        land(land(forall(I, limp(App(Bound(2), Bound(0)),
                                 App(Bound(3), Bound(0))), "W"),
                  App(App(OB, Bound(2)), Bound(0))),
             exists(I, land(App(Bound(2), Bound(0)),
                            App(Bound(1), Bound(0))), "W")),
        App(App(OB, Bound(1)), Bound(0))), "Z"), "Y"), "X")
    return tuple((name, beta_eta_normalize(term)) for name, term in
                 (("AV", av), ("PV1", pv1), ("PV2", pv2), ("OB1", ob1),
                  ("OB2", ob2), ("OB3", ob3), ("OB4", ob4), ("OB5", ob5)))


def _fresh(hint: str, taken: set[str]) -> str:
    name = hint
    k = 1
    while name in taken:
        k += 1
        name = f"{hint}{k}"
    return name


def pretty_term(t: HolTerm, names: tuple[str, ...] = ()) -> str:
    """Readable named-variable rendering, with the conjunction and
    existential patterns folded back into their usual notation."""
    if isinstance(t, App) and t.fn == NOT:
        ex = match_exists(t)
        if ex is not None:
            name = _fresh(ex.hint, set(names))
            return (f"∃{name}:{type_str(ex.var_ty)}. "
                    f"{pretty_term(ex.body.arg, (name,) + names)}")
        both = match_and(t)
        if both is not None:
            a, b = both
            return f"({pretty_term(a, names)} ∧ {pretty_term(b, names)})"
        return f"¬{_pretty_atomish(t.arg, names)}"
    if isinstance(t, App) and isinstance(t.fn, App) and t.fn.fn == OR:
        return (f"({pretty_term(t.fn.arg, names)} ∨ "
                f"{pretty_term(t.arg, names)})")
    if (isinstance(t, App) and isinstance(t.fn, App)
            and isinstance(t.fn.fn, Const) and t.fn.fn.name == EQ_NAME):
        return (f"({_pretty_atomish(t.fn.arg, names)} = "
                f"{_pretty_atomish(t.arg, names)})")
    if (isinstance(t, App) and isinstance(t.fn, Const)
            and t.fn.name == PI_NAME and isinstance(t.arg, Abs)):
        name = _fresh(t.arg.hint, set(names))
        return (f"∀{name}:{type_str(t.arg.var_ty)}. "
                f"{pretty_term(t.arg.body, (name,) + names)}")
    if isinstance(t, App):
        head, args = t, []
        while isinstance(head, App):
            args.append(head.arg)
            head = head.fn
        args.reverse()
        parts = [_pretty_atomish(a, names) for a in args]
        return " ".join([_pretty_atomish(head, names)] + parts)
    if isinstance(t, Abs):
        name = _fresh(t.hint, set(names))
        return (f"λ{name}:{type_str(t.var_ty)}. "
                f"{pretty_term(t.body, (name,) + names)}")
    if isinstance(t, Bound):
        if t.index < len(names):
            return names[t.index]
        return f"#{t.index}"
    if isinstance(t, (Const, Free)):
        return t.name
    raise TypeError(f"not a term: {t!r}")


def _pretty_atomish(t: HolTerm, names: tuple[str, ...]) -> str:
    s = pretty_term(t, names)
    if isinstance(t, (Const, Free, Bound)) or s.startswith("("):
        return s
    return f"({s})"


def match_exists(t: HolTerm) -> Abs | None:
    """The binder λx. ¬s of an existential ¬Pi (λx. ¬s), or None."""
    if (_applies(t, NOT_NAME) and _applies(t.arg, PI_NAME)
            and isinstance(t.arg.arg, Abs)
            and _applies(t.arg.arg.body, NOT_NAME)):
        return t.arg.arg
    return None


def match_and(t: HolTerm) -> tuple[HolTerm, HolTerm] | None:
    """The conjuncts (a, b) of a conjunction ¬(¬a ∨ ¬b), or None."""
    if (_applies(t, NOT_NAME) and isinstance(t.arg, App)
            and _applies(t.arg.fn, OR_NAME)
            and _applies(t.arg.fn.arg, NOT_NAME)
            and _applies(t.arg.arg, NOT_NAME)):
        return t.arg.fn.arg.arg, t.arg.arg.arg
    return None


def _applies(t: HolTerm, name: str) -> bool:
    """Whether t applies the constant of that name to an argument."""
    return isinstance(t, App) and isinstance(t.fn, Const) and t.fn.name == name
