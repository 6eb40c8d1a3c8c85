"""A small simply-typed lambda kernel and the formula embedding into it.

Types are `o` (booleans), `i` (worlds) and arrows; `tau` abbreviates
i>o, the type of world predicates.  The base types are a closed enum,
compared by identity, and an arrow a named pair compared as a tuple;
`henkin` refuses a power tower such as (((i>o)>o)>o)>o.  Terms are
Church typed with de Bruijn indices for bound variables, so alpha
equivalence is plain structural equality; binder display names survive
only as annotations for printing.  The five term formers are slotted
dataclasses that compare and hash by kind and structure (an `Abs` hint
is ignored), and the walks here and in `export` test a node's kind once,
with `type(t) is ...`.

The logical signature is fixed: negation, disjunction, a universal
quantifier constant per type (binder notation forall X. s is sugar for
Pi applied to a lambda), and primitive equality per type.  The deontic
signature adds av, pv (type i>i>o) and ob (type (i>o)>(i>o)>o), plus one
constant of type tau per formula atom.  `type_of` is the one check that
a term is well formed, the logical constants' types and every type
field included; `henkin` runs it once on each term it compiles.
Everything else (conjunction, implication, equivalence, truth
constants, existentials) is expanded into that core at construction
time, so reduction and evaluation only ever deal with the five term
formers and the primitive constants.

`embed` maps a formula to a world predicate of type tau by substituting
the definitional lambda terms for the nine connectives; `vld` closes a
world predicate into a sentence by quantifying over all worlds; and
`axioms` builds the eight closed sentences (AV, PV1, PV2, OB1..OB5) that
characterize exactly the interpretations arising from valid models.
`embed` and `vld` apply the definitions unreduced, which `henkin`
evaluates as built, one definition per connective.
`eta_expand` reads Pi f as Pi (λx. f x), for `henkin` and `export`.
`beta_eta_normalize` gives the normal form, for THF emission and
printing.  It works by evaluation (Berger & Schwichtenberg, 1991): a
term evaluates to closures and is read back in normal form, within
MAX_NORMAL_NODES applications and lambdas, since Oa and Op use their
argument twice.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field
from typing import NamedTuple, Union

from .syntax import (Atom, Box, BoxA, BoxP, Formula, Not, ObA, ObDyadic, ObP,
                     Or, children)


class HolTypeError(Exception):
    pass


class BaseType(enum.Enum):
    o = "o"
    i = "i"

    def __str__(self) -> str:
        return self.name


class Arrow(NamedTuple):
    arg: HolType
    res: HolType

    def __str__(self) -> str:
        return type_str(self)


HolType = Union[BaseType, Arrow]

O = BaseType.o
I = BaseType.i
TAU = Arrow(I, O)


def type_str(ty: HolType) -> str:
    if isinstance(ty, BaseType):
        return ty.name
    left = type_str(ty.arg)
    if isinstance(ty.arg, Arrow):
        left = f"({left})"
    return f"{left}>{type_str(ty.res)}"


# Slotted and not frozen: a frozen dataclass sets each field through
# object.__setattr__, which made building an App twice as slow (640 ns
# against 305 ns under timeit on Python 3.11).  Terms stay immutable by
# convention; tests/test_source.py checks that no module assigns to a
# term field.
@dataclass(slots=True, unsafe_hash=True)
class Const:
    name: str
    ty: HolType


@dataclass(slots=True, unsafe_hash=True)
class Bound:
    index: int


@dataclass(slots=True, unsafe_hash=True)
class Free:
    name: str
    ty: HolType


@dataclass(slots=True, unsafe_hash=True)
class App:
    fn: "HolTerm"
    arg: "HolTerm"


@dataclass(slots=True, unsafe_hash=True)
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
    """The unique simple type of a term, or HolTypeError, also for a
    logical constant at a type its name does not allow (`_signature`)
    and for a type field that is no type (`_checked`).
    The nine closed definitions are typed once, at import, so typing
    `vld(embed f)` walks only f's skeleton."""
    kind = type(t)  # one type test per node
    if kind is App:
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
    if kind is Abs:
        closed = _CLOSED_TYPES.get(id(t))
        if closed is not None:
            return closed
        return Arrow(_checked(t.var_ty),
                     type_of(t.body, (t.var_ty,) + binders))
    if kind is Const:
        ty = _checked(t.ty)
        if t.name in LOGICAL_NAMES and t != _signature(t):
            raise HolTypeError(f"logical constant {t.name} cannot have type "
                               f"{type_str(ty)}")
        return ty
    if kind is Free:
        return _checked(t.ty)
    if kind is Bound:
        if t.index >= len(binders):
            raise HolTypeError(f"dangling bound variable index {t.index}")
        return binders[t.index]
    raise TypeError(f"not a term: {t!r}")


def _checked(ty: HolType) -> HolType:
    """ty, if it is a type: a base type or an arrow between types."""
    kind = type(ty)
    if kind is Arrow:
        _checked(ty.arg)
        _checked(ty.res)
    elif kind is not BaseType:
        raise HolTypeError(f"not a type: {ty!r}")
    return ty


def _signature(c: Const) -> Const:
    """The logical constant named as c at the type its name allows with
    c's argument type: o>o, o>o>o, (α>o)>o or α>α>o."""
    a = c.ty.arg if type(c.ty) is Arrow else None
    return (NOT if c.name == NOT_NAME else OR if c.name == OR_NAME
            else eq_const(a) if c.name == EQ_NAME
            else pi_const(a.arg if type(a) is Arrow else None))


def shift(t: HolTerm, by: int, cutoff: int = 0) -> HolTerm:
    """Shift indices of variables bound outside `cutoff` by `by`."""
    if isinstance(t, Bound):
        return Bound(t.index + by) if t.index >= cutoff else t
    if isinstance(t, App):
        return App(shift(t.fn, by, cutoff), shift(t.arg, by, cutoff))
    if isinstance(t, Abs):
        return Abs(t.var_ty, shift(t.body, by, cutoff + 1), t.hint)
    return t


def eta_expand(t: HolTerm, ty: HolType) -> HolTerm:
    """λx1 … λxk. t x1 … xk for t of type ty, one λ per argument of ty;
    t is shifted past the new binders, so an open t keeps its variables."""
    if not isinstance(ty, Arrow):
        return t
    return Abs(ty.arg, eta_expand(App(shift(t, 1), Bound(0)), ty.res))


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
        kind = type(t)
        if kind is App:
            fn, arg = _eval(t.fn, env), _eval(t.arg, env)
            if type(fn) is not tuple:
                return App(fn, arg)
            t, env = fn[0].body, (arg,) + fn[1]
        elif kind is Bound:
            i = t.index
            return env[i] if i < len(env) else len(env) - 1 - i
        else:
            return (t, env) if kind is Abs else t


def _quote(v: object, depth: int, budget: list[int]) -> HolTerm:
    """Read a value back into a term under `depth` binders (level L is
    Bound(depth - 1 - L)), eta-reducing every lambda it rebuilds: its body
    is normal already, and an eta step there makes no beta redex.  Each
    application and lambda read back takes one from budget[0], and past
    the last ValueError is raised; a leaf, which ends a path, takes none."""
    kind = type(v)
    if kind is not tuple and kind is not App:
        return Bound(depth - 1 - v) if kind is int else v
    budget[0] -= 1
    if budget[0] < 0:
        raise ValueError("normal form too large: over "
                         f"{MAX_NORMAL_NODES} applications and lambdas")
    if kind is App:
        return App(_quote(v.fn, depth, budget), _quote(v.arg, depth, budget))
    abs_, env = v
    body = _quote(_eval(abs_.body, (depth,) + env), depth + 1, budget)
    if (type(body) is App and type(body.arg) is Bound
            and body.arg.index == 0 and not uses_bound(body.fn, 0)):
        return shift(body.fn, -1)
    return Abs(abs_.var_ty, body, abs_.hint)


def beta_eta_normalize(t: HolTerm) -> HolTerm:
    """The beta-eta normal form (unique for well-typed terms), by
    evaluation and read-back.  Raises ValueError past MAX_NORMAL_NODES
    applications and lambdas of normal form."""
    return _quote(_eval(t, ()), 0, [MAX_NORMAL_NODES])


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
OB_TAU = Abs(TAU, Abs(TAU, Abs(I, App(App(OB, Bound(2)), Bound(1)), "X"),
                      "B"), "A")


def _relative(rel: Const) -> tuple[HolTerm, HolTerm]:
    # the box and the monadic obligation over rel, av or pv: λA. λX. with
    # ∀Y. rel X Y → A Y, and with ob (rel X) A ∧ ∃Y. rel X Y ∧ ¬A Y
    box = Abs(TAU, Abs(I, forall(
        I, lor(neg(App(App(rel, Bound(1)), Bound(0))),
               App(Bound(2), Bound(0))), "Y"), "X"), "A")
    ob = Abs(TAU, Abs(I, land(
        App(App(OB, App(rel, Bound(0))), Bound(1)),
        exists(I, land(App(App(rel, Bound(1)), Bound(0)),
                       neg(App(Bound(2), Bound(0)))), "Y")), "X"), "A")
    return box, ob


(BOXA_TAU, OBA_TAU), (BOXP_TAU, OBP_TAU) = _relative(AV), _relative(PV)


# each connective's definitional term, applied to its children's
# embeddings in the order of `children`
_DEFINITIONS = {Not: NOT_TAU, Or: OR_TAU, Box: BOX_TAU, BoxA: BOXA_TAU,
                BoxP: BOXP_TAU, ObDyadic: OB_TAU, ObA: OBA_TAU, ObP: OBP_TAU}
VLD = Abs(TAU, forall(I, App(Bound(1), Bound(0)), "S"), "A")

# The types of the nine closed definitions by id, for `type_of`, each
# checked here once; the terms live as long as the module, so keep ids.
_CLOSED_TYPES: dict[int, HolType] = {}
_CLOSED_TYPES.update({id(d): type_of(d)
                      for d in (*_DEFINITIONS.values(), VLD)})


# Bound on the formula nodes `embed` translates, a shared subformula
# counted once per occurrence: the term does not share, so it grows with
# that count.  d nested `p <-> (...)` have 11 * 2**d - 10 such nodes;
# `export.to_thf_problem` takes 0.06-0.08 s at d = 10 (11,254 nodes) on
# a 2-vCPU machine.  It does not bound the normal form, which the THF
# text renders: Oa and Op use their argument twice, so each nested one
# doubles it (see MAX_NORMAL_NODES).
MAX_EMBED_NODES = 1 << 14

# Bound on the applications and lambdas of a normal form that
# `beta_eta_normalize` reads back (with the leaves, at most twice as
# many nodes plus one).  Every connective but Oa and Op adds at most 7
# per formula node ([a] and [p] the most), so any formula within
# MAX_EMBED_NODES without them normalizes within it; 12 nested Oa take
# 85,997 and 13 do not fit.  Reading back this many took 0.27 s on a
# 2-vCPU machine.
MAX_NORMAL_NODES = 1 << 17


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



def vld(t: HolTerm) -> HolTerm:
    """Close a world predicate into the sentence "true at every world":
    the definition VLD applied to t, unreduced, as `embed` leaves its
    connectives; `beta_eta_normalize` gives its normal form."""
    ty = type_of(t)
    if ty != TAU:
        raise HolTypeError(f"vld expects a term of type {type_str(TAU)}, "
                           f"got {type_str(ty)}")
    return App(VLD, t)


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
