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

Since an element of D(a>o) is the |D(a)|-bit mask of where it holds, a
binder V : a whose o-typed body reads V only as `g V` (g's table is the
mask) or `V s` (a fixed projection mask), under negation, conjunction,
disjunction, implication and equivalence, runs once over all values of
V, one lane per value: a quantifier is `lanes == full` and an
abstraction the mask itself.  Any other binder loops over its domain.

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
from .model import (DENSITIES, CJModel, full_mask, model_json, ob_member,
                    random_model, subsets, validate)
from .syntax import RESERVED_ATOMS, Formula, pretty, random_formula

DOMAIN_BUDGET = 1 << 20

# Bound on the triples `check_faithfulness` draws.  At the bound it took
# 7.0 s and 17 MB (peak RSS of the CLI process) with --max-worlds 4 on a
# 2-vCPU machine; memory does not grow with the count.
MAX_SAMPLES = 10_000

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
    """|D(ty)| at n worlds.  A size past DOMAIN_BUDGET bits, a power
    tower like (((i>o)>o)>o)>o at n = 3, raises DomainBudgetError: when
    run for a binder over it, at compile time for a digit base."""
    if ty is O_TYPE:
        return 2
    if ty is I:
        return n
    if not isinstance(ty, Arrow):
        raise EvalError(f"not a type: {ty!r}")
    base, res = domain_size(n, ty.arg), domain_size(n, ty.res)
    if base * (res.bit_length() - 1) > DOMAIN_BUDGET:
        raise DomainBudgetError(
            f"domain for type {type_str(ty)} has more than "
            f"2**{DOMAIN_BUDGET} elements, exceeding the budget of "
            f"{DOMAIN_BUDGET}")
    return res ** base


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

    A quantifier, or an abstraction with an o-typed body, whose body
    reads its variable V only through `g V`, `V s` and the boolean
    connectives runs once over all values of V at a time, as one
    bitmask with a lane per value (see `_binder`): in OB3, ∀Z. B Z →
    ob X Z is (B ^ full | ob X) == full instead of a loop over Z.

    Each compiled node knows which binder levels it reads.  A quantifier
    or abstraction under binders it does not all read keeps its values
    per values of the levels it does read, for this call only: in OB3,
    ∃Z. B Z depends on B alone and is computed once per B, not once per
    B and X.  The resulting value is the same, only cheaper.
    """
    code, _, _, _ = _compile(h, t, (), free or {})
    return code([])


def _compile(h: HenkinModel, t: HolTerm, binders: tuple[HolType, ...],
             free: Mapping[str, int],
             lanes: int = 0) -> tuple[Code, HolType, int, Code | None]:
    """Code computing `t` under binders of the given types (innermost
    first), the type of `t`, the mask of the binder levels the code
    reads (bit l stands for env[l], the l-th binder from the outside),
    and the lane code of `t` or None.

    `lanes` is nonzero when the innermost binder V asks for lane code:
    it is then `full`, the mask with one bit per value of V.  The lane
    code of an o-typed node that reads V returns the mask of the values
    of V where the node holds.  A node that does not read V has none:
    its value is broadcast to 0 or `full` instead."""
    # one type test per node: this runs for every node of every term
    kind = type(t)
    if kind is Bound:
        level = len(binders) - 1 - t.index
        if level < 0:
            raise EvalError(f"dangling bound variable index {t.index}")
        return _read(level), binders[t.index], 1 << level, None
    if kind is Free:
        if t.name not in free:
            raise EvalError(f"unassigned free variable {t.name}:"
                            f"{type_str(t.ty)}")
        v = free[t.name]
        if not 0 <= v < domain_size(h.n, t.ty):
            raise EvalError(f"value {v} of {t.name} is outside the domain "
                            f"of type {type_str(t.ty)}")
        return (lambda env: v), t.ty, 0, None
    if kind is Const:
        if t.name in LOGICAL_NAMES:
            return _compile(h, _eta_expand(t), binders, free)
        if t.name not in h.interp:
            raise EvalError(f"constant {t.name} has no interpretation")
        v = h.interp[t.name]
        return (lambda env: v), t.ty, 0, None
    depth = len(binders)
    if kind is Abs:
        code, res, mask = _binder(h, t.var_ty, t.body, binders, free, False)
        return code, Arrow(t.var_ty, res), mask, None
    # application: flatten the spine so logical heads can short-circuit
    head, args = t, []
    while isinstance(head, App):
        args.append(head.arg)
        head = head.fn
    args.reverse()
    kind = type(head)
    if kind is Const and head.name in LOGICAL_NAMES:
        if len(args) == _ARITY[head.name]:
            code, mask, lane = _compile_logical(h, t, head, args, binders,
                                                free, lanes)
            return code, O_TYPE, mask, lane
        head = _eta_expand(head)
        kind = Abs
    argcode = [_compile(h, a, binders, free) for a in args]
    value = None
    k = 0
    if kind is Abs:
        # apply syntactic lambdas by extending the environment rather
        # than building their tables; arguments are evaluated in the
        # current environment first
        inner = binders
        while isinstance(head, Abs) and k < len(args):
            inner = (head.var_ty,) + inner
            head = head.body
            k += 1
        body, ty, mask, _ = _compile(h, head, inner, free)
        mask &= (1 << depth) - 1
        pushed = []
        for a, _, arg_mask, _ in argcode[:k]:
            pushed.append(a)
            mask |= arg_mask

        def code(env: list) -> int:
            env.extend([a(env) for a in pushed])
            out = body(env)
            del env[-k:]
            return out
        if k == len(args):
            return code, ty, mask, None
        args, argcode = args[k:], argcode[k:]
    else:
        code, ty, mask, _ = _compile(h, head, binders, free)
        if kind is Const:
            value = h.interp[head.name]
        elif kind is Free:
            value = free[head.name]
    for u, (a, arg_ty, arg_mask, _) in zip(args, argcode):
        if not isinstance(ty, Arrow) or ty.arg != arg_ty:
            raise EvalError(f"cannot apply a value of type {type_str(ty)} "
                            f"to one of type {type_str(arg_ty)}")
        ty = ty.res
        level = depth - 1 - u.index if isinstance(u, Bound) else None
        fn, fn_mask = code, mask
        code = _digit(code, a, domain_size(h.n, ty), value, level)
        mask |= arg_mask
        value = None
    if not lanes or k or ty is not O_TYPE:
        return code, ty, mask, None
    if level == depth - 1:
        # g V: the table of g is the lane mask.  A constant outside its
        # domain is left to the loop, which reads one digit of it
        if fn_mask >> level & 1 or (len(args) == 1 and kind is Const
                                    and not 0 <= h.interp[head.name] <= lanes):
            return code, ty, mask, None
        return code, ty, mask, fn
    if (kind is Bound and head.index == 0 and len(args) == 1
            and not arg_mask >> depth - 1 & 1):
        # V s: the lanes of the functions whose digit s is 1, each mask
        # worked out when first read
        size = domain_size(h.n, binders[0].arg)
        proj: dict = {}

        def lane(env: list) -> int:
            s = a(env)
            m = proj.get(s)
            if m is None:
                m = proj[s] = _projection(size, s) if s < size else 0
            return m
        return code, ty, mask, lane
    return code, ty, mask, None


def _projection(size: int, s: int) -> int:
    """The lane mask, over D(β>o) with |D(β)| = size, of the functions
    whose digit s is 1: in each block of 2P lanes, P = 2**s, the upper P."""
    p = 1 << s
    full = (1 << (1 << size)) - 1
    return full // ((1 << 2 * p) - 1) * (((1 << p) - 1) << p)


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


def _binder(h: HenkinModel, alpha: HolType, body_t: HolTerm,
            binders: tuple[HolType, ...], free: Mapping[str, int],
            forall: bool) -> tuple[Code, HolType, int]:
    """Code of a quantifier (`forall`) or abstraction binding V : alpha
    around `body_t`, the type of the body, and the binder's mask.

    When the body is o-typed and has lane code, or does not read V, the
    binder is lifted: it pushes a placeholder for V, which nothing then
    reads, and computes the mask of the values of V where the body
    holds in one go.  A quantifier is that mask == full, an abstraction
    that mask.  Every other binder loops over the domain.  A binder
    over a domain past the budget claims every enclosing level, so no
    binder around it is lifted: lanes evaluate every operand once,
    where the loop might skip the one that raises."""
    n, depth = h.n, len(binders)
    try:
        dom = enumerate_domain(n, alpha)
    except EvalError:
        dom = None
    full = (1 << len(dom)) - 1 if dom else 0
    body, res, mask, lane = _compile(h, body_t, (alpha,) + binders, free,
                                     full)
    if dom is None:
        return _enumerate_when_run(n, alpha), res, (1 << depth) - 1
    if lane is None and full and not mask >> depth & 1 and res is O_TYPE:
        lane = _broadcast(body, full)
    mask &= (1 << depth) - 1
    if lane is not None:
        code = _lifted(lane, full, forall)
    elif forall:
        code = _forall(dom, body)
    else:
        code = _tabulate(dom[::-1], body, domain_size(n, res))
    return _cached(code, mask, depth), res, mask


def _lifted(lane: Code, full: int, forall: bool) -> Code:
    """Code of a lifted binder: its lane mask with a placeholder pushed
    for the variable, compared with `full` for a quantifier."""
    def code(env: list) -> int:
        env.append(0)
        v = lane(env)
        env.pop()
        return int(v == full) if forall else v
    return code


def _forall(dom: range, body: Code) -> Code:
    """Code of a quantifier that loops over its domain, stopping at the
    first value where the body is false."""
    def forall(env: list) -> int:
        for d in dom:
            env.append(d)
            v = body(env)
            env.pop()
            if not v:
                return FALSE
        return TRUE
    return forall


def _tabulate(dom: range, body: Code, base: int) -> Code:
    """Code building a function's number from its body's values, over
    the domain from its last element down."""
    def code(env: list) -> int:
        out = 0
        for d in dom:
            env.append(d)
            out = out * base + body(env)
            env.pop()
        return out
    return code


def _enumerate_when_run(n: int, ty: HolType) -> Code:
    """Code for a binder over a domain past the budget: it raises
    DomainBudgetError naming the type only if it runs, so a binder that
    a short circuit skips never raises."""
    return lambda env: len(enumerate_domain(n, ty))


def _cached(code: Code, mask: int, depth: int) -> Code:
    """`code` remembering its value per values of the binder levels in
    `mask`, when it sits under binders it does not all read; the table
    lives as long as the compiled term, one `eval_term` call."""
    # lanes do not cover the nested world loops of [](Oa p | ...): their
    # bodies read V through ob (av V) ...; this keeps them linear
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


def _broadcast(code: Code, full: int) -> Code:
    """Lane code of an o-typed node that does not read the binder: its
    value in every lane."""
    return lambda env: -code(env) & full


def _connective_lanes(clause: str, operands: list, full: int,
                      level: int) -> Code | None:
    """Lane code of a binary connective over compiled operands, one of
    which has some.  The other one, if it does not read the binder at
    `level`, is broadcast; if it reads it and has no lane code, neither
    has the connective."""
    (a, _, a_mask, la), (b, _, b_mask, lb) = operands
    if la is None:
        if a_mask >> level & 1:
            return None
        la = _broadcast(a, full)
    elif lb is None:
        if b_mask >> level & 1:
            return None
        lb = _broadcast(b, full)
    if clause == "and":
        return lambda env: la(env) & lb(env)
    if clause == "imp":
        return lambda env: la(env) ^ full | lb(env)
    if clause == "or":
        return lambda env: la(env) | lb(env)
    return lambda env: la(env) ^ lb(env) ^ full


def _compile_logical(h: HenkinModel, t: HolTerm, head: Const,
                     args: list[HolTerm], binders: tuple[HolType, ...],
                     free: Mapping[str, int],
                     lanes: int) -> tuple[Code, int, Code | None]:
    """Code, binder mask and lane code of `t`, the logical constant
    `head` applied to all its arguments `args`.  Only an o-typed node
    that reads the innermost binder has lane code, so a connective has
    some when one of its operands has."""
    if head.name == PI_NAME and isinstance(args[0], Abs):
        code, _, mask = _binder(h, head.ty.arg.arg, args[0].body, binders,
                                free, True)
        return code, mask, None
    # a conjunction ¬(¬a ∨ ¬b) and an implication ¬a ∨ b are one clause
    # each, over operands compiled once
    if head.name == NOT_NAME:
        conj = match_and(t)
        if conj is None:
            a, _, mask, la = _compile(h, args[0], binders, free, lanes)
            lane = (lambda env: la(env) ^ lanes) if la else None
            return (lambda env: 1 - a(env)), mask, lane
        clause, args = "and", conj
    elif head.name == PI_NAME:
        a, _, mask, _ = _compile(h, args[0], binders, free)
        full = (1 << domain_size(h.n, head.ty.arg.arg)) - 1
        return (lambda env: int(a(env) == full)), mask, None
    elif head.name == OR_NAME and _applies(args[0], NOT_NAME):
        clause, args = "imp", [args[0].arg, args[1]]
    else:
        clause = "or" if head.name == OR_NAME else "iff"
    ops = [_compile(h, u, binders, free, lanes) for u in args]
    (a, _, mask, la), (b, _, b_mask, lb) = ops
    lane = (_connective_lanes(clause, ops, lanes, len(binders) - 1)
            if la or lb else None)
    mask |= b_mask
    if clause == "and":
        return (lambda env: a(env) and b(env)), mask, lane
    if clause == "imp":
        return (lambda env: b(env) if a(env) else TRUE), mask, lane
    if clause == "or":
        return (lambda env: a(env) or b(env)), mask, lane
    return (lambda env: int(a(env) == b(env))), mask, lane


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
    full = full_mask(n)
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
    if samples < 0:
        raise ValueError("samples must be nonnegative")
    if samples > MAX_SAMPLES:
        raise ValueError(f"samples must be at most {MAX_SAMPLES:,}")
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
