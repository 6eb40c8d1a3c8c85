"""Evaluation of lambda terms in finite standard models.

A standard model fixes a world count n and interprets every type by a
finite domain: `o` by the two truth values, `i` by the n worlds, and
each arrow type by the full set of function tables between the domains.
Full function spaces keep quantification decidable by enumeration, at
the price of a domain budget (see `enumerate_domain`).

Every value is a plain integer.  A truth value is 0 or 1 and a world is
its index.  A function f in D(a>b) is the mixed-radix number
sum(f(x) * |D(b)|**x for x in D(a)), so D(a>b) is range(|D(b)|**|D(a)|)
and a world predicate (type i>o) is the bitmask of the worlds where it
holds.  Application reads one digit, and abstraction writes the digits
of its body.

`eval_term` compiles a term once per call into closures over a binder
stack.  Each compiled node carries the mask of the binder levels it
reads, so a quantifier or abstraction that ignores some enclosing
binders is cached per values of the ones it reads, for that call only.
The domain of each binder is fixed at compile time; one that is over
the budget raises DomainBudgetError only if the binder runs.

`build_henkin` turns a valid finite model into such an interpretation
(characteristic-function tables for each atom, av, pv, and ob), and
`extract_model` inverts it for any interpretation satisfying the eight
axioms; round-tripping is exact on trace-canonical models.
`check_faithfulness` samples random models, formulas, and worlds and
confirms that direct evaluation and evaluation of the embedded term
always agree.
"""

from __future__ import annotations

import functools
import operator
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from .checker import eval_formula, valid_in_model
from .hol import (EQ_NAME, I, LOGICAL_NAMES, NOT_NAME, OR_NAME, PI_NAME, TAU,
                  Abs, App, Arrow, Bound, Const, Free, HolTerm, HolType,
                  O as O_TYPE, _applies, axioms, embed, match_and, type_str,
                  vld)
from .model import (DENSITIES, CJModel, model_json, ob_member, random_model,
                    subsets, validate)
from .syntax import RESERVED_ATOMS, Formula, pretty, random_formula

DOMAIN_BUDGET = 1 << 20

TRUE, FALSE = 1, 0
VWorld = int


class EvalError(Exception):
    pass


class DomainBudgetError(EvalError):
    """Enumerating a domain would exceed the configured budget."""


class AxiomCheckError(EvalError):
    """An interpretation fails one of the eight axioms; names the axiom."""

    def __init__(self, axiom: str):
        self.axiom = axiom
        super().__init__(f"interpretation does not satisfy axiom {axiom}")


class ExtractionError(EvalError):
    pass


def domain_size(n: int, ty: HolType) -> int:
    if isinstance(ty, Arrow):
        return domain_size(n, ty.res) ** domain_size(n, ty.arg)
    # identity first: the compiler asks for sizes at every node, and a
    # dataclass comparison is a Python call
    if ty is O_TYPE or ty == O_TYPE:
        return 2
    if ty is I or ty == I:
        return n
    raise EvalError(f"type {ty!r} has no finite domain")


def enumerate_domain(n: int, ty: HolType) -> range:
    """All elements of the domain for `ty`: the integers below its size.

    Refuses to enumerate more than DOMAIN_BUDGET elements, naming the
    offending type in the error.
    """
    size = domain_size(n, ty)
    if size > DOMAIN_BUDGET:
        raise DomainBudgetError(
            f"domain for type {type_str(ty)} has {size} elements, "
            f"exceeding the budget of {DOMAIN_BUDGET}")
    return range(size)


@dataclass(frozen=True)
class HenkinModel:
    """Finite standard interpretation: worlds plus constant denotations.

    `interp` covers the deontic constants and the atoms; the logical
    constants are evaluated structurally (their denotations are fixed).
    """

    n: int
    interp: Mapping[str, int]


# A compiled term: reads the binder stack (innermost binder last).
Code = Callable[[list], int]

_ARITY = {NOT_NAME: 1, OR_NAME: 2, EQ_NAME: 2, PI_NAME: 1}

# code reading binder levels: one level's value, or a tuple of several;
# shared by every node that reads the same levels
_read = functools.lru_cache(maxsize=1024)(operator.itemgetter)


def eval_term(h: HenkinModel, t: HolTerm,
              free: Mapping[str, int] | None = None) -> int:
    """Denotation of a term: constants via the interpretation, variables
    via the assignment, application by reading a digit, abstraction by
    tabulating the body over the argument domain.

    The term is first compiled once, so types, radices and the domain
    of each quantifier and abstraction are worked out per node rather
    than per step.  Quantifiers and the boolean connectives are applied
    without materializing their tables, enumerating lazily with early
    exit; a conjunction and an implication ¬a ∨ b are one clause each,
    and a digit read from a constant or at a bound variable reads it
    directly.  A domain over the budget raises DomainBudgetError only
    when a binder over it runs, so a short-circuited one never does.

    Each compiled node knows which binder levels it reads.  A quantifier
    or abstraction under binders it does not all read keeps its values
    per values of the levels it does read, for this call only: in OB3,
    ∃Z. B Z depends on B alone and is computed once per B, not once per
    B and X.  The resulting value is the same, only cheaper.
    """
    code, _, _ = _compile(h, t, (), free or {})
    return code([])


def _compile(h: HenkinModel, t: HolTerm, binders: tuple[HolType, ...],
             free: Mapping[str, int]) -> tuple[Code, HolType, int]:
    """Code computing `t` under binders of the given types (innermost
    first), the type of `t`, and the mask of the binder levels the code
    reads: bit l stands for env[l], the l-th binder from the outside."""
    if isinstance(t, Bound):
        level = len(binders) - 1 - t.index
        if level < 0:
            raise EvalError(f"dangling bound variable index {t.index}")
        return _read(level), binders[t.index], 1 << level
    if isinstance(t, Free):
        if t.name not in free:
            raise EvalError(f"unassigned free variable {t.name}:"
                            f"{type_str(t.ty)}")
        v = free[t.name]
        if not 0 <= v < domain_size(h.n, t.ty):
            raise EvalError(f"value {v} of {t.name} is outside the domain "
                            f"of type {type_str(t.ty)}")
        return (lambda env: v), t.ty, 0
    if isinstance(t, Const):
        if t.name in LOGICAL_NAMES:
            return _compile(h, _eta_expand(t), binders, free)
        if t.name not in h.interp:
            raise EvalError(f"constant {t.name} has no interpretation")
        v = h.interp[t.name]
        return (lambda env: v), t.ty, 0
    depth = len(binders)
    if isinstance(t, Abs):
        body, res, mask = _compile(h, t.body, (t.var_ty,) + binders, free)
        mask &= (1 << depth) - 1
        code = _cached(_tabulate(h.n, t.var_ty, body, res), mask, depth)
        return code, Arrow(t.var_ty, res), mask
    # application: flatten the spine so logical heads can short-circuit
    head, args = t, []
    while isinstance(head, App):
        args.append(head.arg)
        head = head.fn
    args.reverse()
    if isinstance(head, Const) and head.name in LOGICAL_NAMES:
        if len(args) == _ARITY[head.name]:
            code, mask = _compile_logical(h, t, head, args, binders, free)
            return code, O_TYPE, mask
        head = _eta_expand(head)
    argcode = [_compile(h, a, binders, free) for a in args]
    mask = 0
    for _, _, arg_mask in argcode:
        mask |= arg_mask
    value = None
    if isinstance(head, Abs):
        # apply syntactic lambdas by extending the environment rather
        # than building their tables; arguments are evaluated in the
        # current environment first
        k = 0
        inner = binders
        while isinstance(head, Abs) and k < len(args):
            inner = (head.var_ty,) + inner
            head = head.body
            k += 1
        body, ty, body_mask = _compile(h, head, inner, free)
        mask |= body_mask & ((1 << depth) - 1)
        pushed = [a for a, _, _ in argcode[:k]]

        def code(env: list) -> int:
            env.extend([a(env) for a in pushed])
            out = body(env)
            del env[-k:]
            return out
        if k == len(args):
            return code, ty, mask
        args, argcode = args[k:], argcode[k:]
    else:
        code, ty, head_mask = _compile(h, head, binders, free)
        mask |= head_mask
        if isinstance(head, Const):
            value = h.interp[head.name]
        elif isinstance(head, Free):
            value = free[head.name]
    for u, (a, arg_ty, _) in zip(args, argcode):
        if not isinstance(ty, Arrow) or ty.arg != arg_ty:
            raise EvalError(f"cannot apply a value of type {type_str(ty)} "
                            f"to one of type {type_str(arg_ty)}")
        ty = ty.res
        level = depth - 1 - u.index if isinstance(u, Bound) else None
        code = _digit(code, a, domain_size(h.n, ty), value, level)
        value = None
    return code, ty, mask


def _digit(fn: Code, arg: Code, base: int, value: int | None,
           level: int | None) -> Code:
    """Code applying a function to an argument: digit `arg` of `fn` in
    the given base.  `value` is the function's value when it is known
    at compile time, and `level` the argument's binder level when it is
    a bound variable; the code then reads them without a call."""
    width = base.bit_length() - 1
    if base != 1 << width:
        return lambda env: fn(env) // base ** arg(env) % base
    mask = base - 1
    if value is None and level is None:
        return lambda env: fn(env) >> width * arg(env) & mask
    if level is None:
        return lambda env: value >> width * arg(env) & mask
    if value is None:
        return lambda env: fn(env) >> width * env[level] & mask
    return lambda env: value >> width * env[level] & mask


def _tabulate(n: int, var_ty: HolType, body: Code, res: HolType) -> Code:
    """Code building a function's number from its body's values."""
    base = domain_size(n, res)
    try:
        dom = enumerate_domain(n, var_ty)[::-1]
    except EvalError:
        return _enumerate_when_run(n, var_ty)

    def code(env: list) -> int:
        out = 0
        for d in dom:
            env.append(d)
            out = out * base + body(env)
            env.pop()
        return out
    return code


def _enumerate_when_run(n: int, ty: HolType) -> Code:
    """Code for a binder over a domain that cannot be enumerated (over
    the budget, or of a type without a finite domain): it raises that
    error, DomainBudgetError naming the type and size, only if it runs,
    so a binder that a short circuit skips never raises."""
    return lambda env: len(enumerate_domain(n, ty))


def _cached(code: Code, mask: int, depth: int) -> Code:
    """`code` remembering its value per values of the binder levels in
    `mask`, when it sits under binders it does not all read; the table
    lives as long as the compiled term, one `eval_term` call."""
    if mask == (1 << depth) - 1:
        return code
    levels = [level for level in range(depth) if mask >> level & 1]
    # a closed node is keyed by the stack's length, the same at each run
    key = _read(*levels) if levels else len
    memo: dict = {}

    def cached(env: list) -> int:
        k = key(env)
        v = memo.get(k)
        if v is None:
            v = memo[k] = code(env)
        return v
    return cached


def _eta_expand(c: Const) -> HolTerm:
    """A logical constant applied to fresh bound variables under
    lambdas, so that the applied clauses below evaluate it."""
    arg_types = []
    ty = c.ty
    while isinstance(ty, Arrow):
        arg_types.append(ty.arg)
        ty = ty.res
    term: HolTerm = c
    for k in range(len(arg_types)):
        term = App(term, Bound(len(arg_types) - 1 - k))
    for arg_ty in reversed(arg_types):
        term = Abs(arg_ty, term)
    return term


def _compile_logical(h: HenkinModel, t: HolTerm, head: Const,
                     args: list[HolTerm], binders: tuple[HolType, ...],
                     free: Mapping[str, int]) -> tuple[Code, int]:
    """Code and binder mask of `t`, the logical constant `head` applied
    to all its arguments `args`."""
    depth = len(binders)
    if head.name == PI_NAME and isinstance(args[0], Abs):
        n, alpha = h.n, head.ty.arg.arg
        body, _, mask = _compile(h, args[0].body, (alpha,) + binders, free)
        mask &= (1 << depth) - 1
        try:
            dom = enumerate_domain(n, alpha)
        except EvalError:
            return _enumerate_when_run(n, alpha), mask

        def forall(env: list) -> int:
            for d in dom:
                env.append(d)
                v = body(env)
                env.pop()
                if not v:
                    return FALSE
            return TRUE
        return _cached(forall, mask, depth), mask
    # a conjunction ¬(¬a ∨ ¬b) and an implication ¬a ∨ b are one clause
    # each, over operands compiled once
    if head.name == NOT_NAME:
        conj = match_and(t)
        if conj is not None:
            (a, _, mask), (b, _, b_mask) = [_compile(h, u, binders, free)
                                            for u in conj]
            return (lambda env: a(env) and b(env)), mask | b_mask
        a, _, mask = _compile(h, args[0], binders, free)
        return (lambda env: 1 - a(env)), mask
    if head.name == PI_NAME:
        a, _, mask = _compile(h, args[0], binders, free)
        full = (1 << domain_size(h.n, head.ty.arg.arg)) - 1
        return (lambda env: int(a(env) == full)), mask
    imp = head.name == OR_NAME and _applies(args[0], NOT_NAME)
    if imp:
        args = [args[0].arg, args[1]]
    (a, _, mask), (b, _, b_mask) = [_compile(h, u, binders, free)
                                    for u in args]
    mask |= b_mask
    if imp:
        return (lambda env: b(env) if a(env) else TRUE), mask
    if head.name == OR_NAME:
        return (lambda env: a(env) or b(env)), mask
    return (lambda env: int(a(env) == b(env))), mask


def build_henkin(m: CJModel) -> HenkinModel:
    """Standard interpretation of a valid model.

    Atoms, av, and pv become characteristic-function tables; ob becomes
    the table sending a pair of propositions to their trace-membership
    verdict, over all pairs from the full proposition domain.  Raises
    ValueError for an atom named like a signature constant.
    """
    clash = RESERVED_ATOMS & m.val.keys()
    if clash:
        raise ValueError(f"atom {min(clash)!r} is reserved for a signature "
                         "constant")
    n = m.n
    interp = dict(m.val)
    interp["av"] = sum(mask << n * s for s, mask in enumerate(m.av))
    interp["pv"] = sum(mask << n * s for s, mask in enumerate(m.pv))
    dom_tau = enumerate_domain(n, TAU)
    interp["ob"] = sum(ob_member(m, x, y) << (x << n) + y
                       for x in dom_tau for y in dom_tau)
    return HenkinModel(n, interp)


def check_axioms(h: HenkinModel) -> str | None:
    """Name of the first failing axiom, or None if all eight hold."""
    for name, term in axioms():
        if eval_term(h, term) != TRUE:
            return name
    return None


def extract_model(h: HenkinModel, atoms: Iterable[str]) -> CJModel:
    """Read a model back off an interpretation satisfying the axioms.

    The worlds are the individual domain; av, pv, ob, and the valuation
    are read off the tables.  As OB1 and OB2 hold, a context's members
    are fixed by its traces: ob(X) is read at the subsets of X only,
    which gives the trace-canonical form.  Raises AxiomCheckError
    (naming the axiom) if the interpretation does not satisfy all eight
    axioms, since only then is a valid model guaranteed.
    """
    failing = check_axioms(h)
    if failing is not None:
        raise AxiomCheckError(failing)
    n = h.n
    try:
        av_t, pv_t, ob_t = h.interp["av"], h.interp["pv"], h.interp["ob"]
        val = {a: h.interp[a] for a in sorted(set(atoms))}
    except KeyError as e:
        raise ExtractionError(f"interpretation missing constant {e}") from e
    full = (1 << n) - 1
    av = tuple(av_t >> n * s & full for s in range(n))
    pv = tuple(pv_t >> n * s & full for s in range(n))
    ob = {}
    for x in range(1, full + 1):
        traces = frozenset(y for y in subsets(x) if ob_t >> (x << n) + y & 1)
        if traces:
            ob[x] = traces
    m = CJModel(n, av, pv, ob, val)
    report = validate(m)
    if not report.ok:
        raise ExtractionError(
            f"extracted model violates the model conditions:\n{report}")
    return m


@dataclass(frozen=True)
class Mismatch:
    model: CJModel
    world: int | None
    formula: Formula
    kind: str  # "world" or "validity"

    def render(self) -> str:
        where = "all" if self.world is None else str(self.world)
        return (f"MISMATCH model={model_json(self.model)} world={where} "
                f"formula={pretty(self.formula)}")


@dataclass(frozen=True)
class FaithfulnessReport:
    samples: int
    mismatches: tuple[Mismatch, ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def render(self) -> str:
        lines = [mm.render() for mm in self.mismatches]
        if self.ok:
            lines.append(f"OK samples={self.samples}")
        else:
            lines.append(f"FAIL samples={self.samples} "
                         f"mismatches={len(self.mismatches)}")
        return "\n".join(lines)


def check_faithfulness(n_max: int = 2, samples: int = 1000,
                       seed: int = 0) -> FaithfulnessReport:
    """Sample (model, formula, world) triples and compare both semantics.

    For each triple, direct evaluation at the world must agree with
    evaluating the embedded predicate applied to that world, and
    model-wide validity must agree with the quantified sentence.
    Deterministic for a fixed seed.
    """
    if not 1 <= n_max <= 4:
        raise ValueError(f"n_max must be in 1..4, got {n_max}")
    rng = random.Random(seed)
    atom_pool = ("p", "q", "r")
    mismatches: list[Mismatch] = []
    for _ in range(samples):
        n = rng.randint(1, n_max)
        density = rng.choice(DENSITIES)
        m = random_model(n, atom_pool, rng.getrandbits(63), density)
        f = random_formula(rng, 6, atom_pool)
        s = rng.randrange(n)
        h = build_henkin(m)
        t = embed(f)
        if eval_formula(m, s, f) != _eval_at_world(h, t, s):
            mismatches.append(Mismatch(m, s, f, "world"))
        if valid_in_model(m, f) != (eval_term(h, vld(t)) == TRUE):
            mismatches.append(Mismatch(m, None, f, "validity"))
    return FaithfulnessReport(samples, tuple(mismatches))


def _eval_at_world(h: HenkinModel, t: HolTerm, s: int) -> bool:
    """Truth of a world predicate at one world of the interpretation."""
    term = App(t, Free("S", I))
    return eval_term(h, term, {"S": s}) == TRUE
