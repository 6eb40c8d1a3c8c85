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

A term is compiled for a world count into closures over a binder
stack, one closure per node, and then run in any interpretation over
those worlds: constants and free variables are read when it runs.
`eval_term` compiles and runs a term once; `check_axioms` compiles the
eight axioms once per world count and runs them per model.  Each
compiled node carries the mask of the binder levels it reads, so a
quantifier or abstraction that ignores some enclosing binders is cached
per values of the ones it reads, for one run.  The domain of each
binder is fixed at compile time; one that is over the budget raises
DomainBudgetError only if it runs.  A syntactic λ applied to arguments,
as `embed` and `vld` apply each connective's definition, runs its body
with the arguments' values, each of its binder's type, pushed as its
innermost binders.  The body compiles once per term, binder types and
lifted block (below), so every ∨ of a term runs one code with one set
of caches, keyed by the values they read.  Pi f is Pi (λx. f x), so
every quantifier is a binder.

Since an element of D(a>o) is the |D(a)|-bit mask of where it holds, a
quantifier over a predicate V : β>o can run once for all values of V,
one bit (lane) per value, when each part of its body that reads V can.
Directly nested predicate quantifiers, ∀X ∀Y ∀Z in OB2, OB4 and OB5 and
∀B ∀X in OB3, run as one block: a lane is one value of the whole block,
read as one wide predicate whose digits are those of X, then Y, then Z.
The connectives act on masks, and a binder inside loops over its own
values and ANDs (∀) or lists (λ) its body's masks, so a term of type
β>o that reads the block is a tuple of masks, one per digit.  Three
reads have lane code, those the eight axioms make: `X s` is a fixed
projection mask, and for a predicate P that reads the block, a block
variable or not, `g P` for a g that does not read the block, with an o
or a β>o result (`ob X`, `ob p (λW. …)`), and `F P` for an F that does
(`ob X Y`, `ob X (λW. …)`) are one multiplexer over P's value in each
lane.  The block's quantifier is then `mask == full`.  A truth value
that does not read the block is a mask over one lane, so each
connective and the looping quantifier has one clause for both.  Only
the outermost block is lifted: a predicate quantifier that no lifted
block encloses, with the ones directly nested in it while their value
counts multiply to at most LANE_CAP.  Every binder inside loops, as do
abstractions and binders over worlds (few values, read by ob (av V)
under Oa) and truth values.  Any other read of a block variable makes
the compiler compile the whole term once more, lifting none.

`build_henkin` turns a valid finite model into such an interpretation
(characteristic-function tables for each atom, av, pv, and ob), and
`extract_model` inverts it for any interpretation satisfying the eight
axioms; round-tripping is exact on trace-canonical models.
"""

from __future__ import annotations

import functools
import operator
import threading
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from .hol import (EQ_NAME, I, LOGICAL_NAMES, NOT, NOT_NAME, OR, OR_NAME,
                  PI_NAME, TAU, Abs, App, Arrow, Bound, Const, Free, HolTerm,
                  HolType, O as O_TYPE, _applies, axioms, eq_const,
                  eta_expand, match_and, pi_const, type_str)
from .model import (EMPTY_OB, CJModel, full_mask, ideal_ob, ideal_of,
                    validate)
from .syntax import RESERVED_ATOMS

DOMAIN_BUDGET = 1 << 20

# Most lanes a block of predicate quantifiers is lifted over, one per
# value of the block; a quantifier that would take it past loops inside
# the block's lanes, or over its domain if it is the first.  2**16
# covers B : (i>o)>o at n = 4, which lifts alone (OB3's ∀X loops in its
# lanes), and OB2's ∀X ∀Y ∀Z over 2**12 lanes.  At n = 4 all eight
# axioms take 2.1-2.2 ms per model (best of 15 over 6 seeded models,
# shared 2-vCPU machine); with B looped they took 1.0-1.9 s.
LANE_CAP = 1 << 16

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
    run for a binder over it, at compile time for a digit base.  A
    negative n raises EvalError."""
    if n < 0:
        raise EvalError(f"a model has 0 or more worlds, not {n}")
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
# The enclosing lifted block, or None: the mask of its binder levels,
# the full mask of its lanes, and per level the block's digit count and
# that variable's first digit and digit count (see `_binder`).
Lane = tuple[int, int, dict[int, tuple[int, int, int]]] | None

_ARITY = {NOT_NAME: 1, OR_NAME: 2, EQ_NAME: 2, PI_NAME: 1}

# code reading binder levels: one level's value, or a tuple of several;
# shared by every node that reads the same levels
_read = functools.lru_cache(maxsize=1024)(operator.itemgetter)


def eval_term(h: HenkinModel, t: HolTerm,
              free: Mapping[str, int] | None = None) -> int:
    """Denotation of a term: constants via the interpretation, variables
    via the assignment, application by reading a digit, abstraction by
    tabulating the body over the argument domain.

    The term is compiled for h's world count (see `_compile_term`), so
    types, radices and the domain of each quantifier and abstraction
    are worked out per node rather than per step, and then run once.
    Quantifiers and the boolean connectives are applied without
    materializing their tables, with early exit; a conjunction and an
    implication ¬a ∨ b are one clause each.  A domain over the budget
    raises DomainBudgetError only when a binder over it runs, so a
    short-circuited one never does.

    A quantifier over a predicate that no lifted block encloses, with
    the predicate quantifiers directly nested in it, runs once for all
    values of its variables, one bit (lane) per value of the block (see
    `_binder`): in OB2, ∀X ∀Y ∀Z over 512 lanes at n = 3 run once, with
    only ∀W looping inside; in OB3, ∀B ∀X over 2,048 lanes run once, and
    ∀Z and λW loop inside, returning masks over those lanes.  A
    quantifier or abstraction under binders it does not all read keeps
    its values per values of the levels it does read, for one run: in
    OB3 at n = 4, where ∀B lifts alone and ∀X loops in its lanes,
    ∃Z. B Z is computed once, not once per X.
    """
    return _compile_term(h.n, t).run(h.interp, free or {})


class _Unlifted(Exception):
    """A node that reads the lifted block has no lane code:
    `_compile_term` compiles the whole term again with no binder
    lifted."""


class _Compiled:
    """A term compiled for a world count: its code, whether predicate
    binders are lifted, and the state each run fills in first.

    Constants and free variables are read when the term runs, not when
    it compiles.  Each constant name has a slot in `tables`, in the
    order of `consts`, its map from names to slots; each free variable
    node has one in `values`, and its name and type in `frees`.  `memos`
    are the tables of `_cached`, emptied at the start of each run.  So
    one compiled term serves every interpretation over its worlds, one
    run at a time.  `bodies` maps the body of each applied λ, by its id,
    binder types and lifted block, to the code its applications share."""

    __slots__ = ("n", "lift", "consts", "tables", "frees", "values",
                 "memos", "bodies", "code")

    def __init__(self, n: int, lift: bool) -> None:
        self.n, self.lift = n, lift
        self.consts: dict[str, int] = {}
        self.tables: list[int] = []
        self.frees: list[tuple[str, HolType]] = []
        self.values: list[int] = []
        self.memos: list[dict] = []
        self.bodies: dict[tuple, tuple] = {}

    def run(self, interp: Mapping[str, int], free: Mapping[str, int]
            ) -> int:
        """The term's value with the constants' tables in `interp` and
        the free variables' values in `free`.  A missing constant, then
        a missing free variable or a free value outside its type's
        domain, raises EvalError before any code runs."""
        try:
            self.tables[:] = map(interp.__getitem__, self.consts)
        except KeyError:
            name = next(name for name in self.consts if name not in interp)
            raise EvalError(f"constant {name} has no interpretation") from None
        values = self.values
        for k, (name, ty) in enumerate(self.frees):
            if name not in free:
                raise EvalError(f"unassigned free variable {name}:"
                                f"{type_str(ty)}")
            v = values[k] = free[name]
            if not 0 <= v < domain_size(self.n, ty):
                raise EvalError(f"value {v} of {name} is outside the "
                                f"domain of type {type_str(ty)}")
        for memo in self.memos:
            memo.clear()
        return self.code([])


def _compile_term(n: int, t: HolTerm) -> _Compiled:
    """`t` compiled for n worlds, lifting the outermost blocks of
    predicate quantifiers; if a part of a lifted body reads a block
    variable where no lane code exists (see `_lane_apply`), the whole
    term is compiled once more with no binder lifted."""
    comp = _Compiled(n, True)
    try:
        comp.code, _, _ = _compile(comp, t, (), None)
    except _Unlifted:
        comp = _Compiled(n, False)
        comp.code, _, _ = _compile(comp, t, (), None)
    return comp


def _compile(comp: _Compiled, t: HolTerm, binders: tuple[HolType, ...],
             lane: Lane) -> tuple[Code, HolType, int]:
    """Code computing `t` under binders of the given types (innermost
    first), the type of `t`, and the mask of the binder levels the code
    reads (bit l stands for env[l], the l-th binder from the outside).

    `lane` is the enclosing lifted block (see `Lane`), or None.  A node
    that reads the block computes its value for all values of the block
    at once, one bit (lane) per value: an o-typed node the mask of the
    values where it holds, a β>o-typed one the tuple of those masks per
    digit of β.  Every other node computes its plain value, a truth
    value being a mask over one lane.  A node that reads the block and
    has no lane code (see `_lane_apply`) raises _Unlifted.  A constant
    or free variable reads its slot of `comp.tables` or `comp.values`."""
    # one type test per node: this runs for every node of every term
    kind = type(t)
    if kind is Bound:
        level = len(binders) - 1 - t.index
        if level < 0:
            raise EvalError(f"dangling bound variable index {t.index}")
        ty = binders[t.index]
        if not lane or not lane[0] >> level & 1:
            return _read(level), ty, 1 << level
        # a block variable Xj : β>o: per digit s of β, the mask of the
        # lanes where Xj's digit s is 1
        return _lane_variable(_projections(*lane[2][level])), ty, 1 << level
    if kind is Const or kind is Free:
        # read when the term runs, from a slot that `_Compiled.run`
        # fills: one per free variable node, one per constant name
        if kind is Free:
            comp.frees.append((t.name, t.ty))
            comp.values.append(0)
            return _reader(comp.values, len(comp.values) - 1), t.ty, 0
        if t.name in LOGICAL_NAMES:
            return _compile(comp, eta_expand(t, _logical(t)), binders, lane)
        slot = comp.consts.setdefault(t.name, len(comp.consts))
        return _reader(comp.tables, slot), t.ty, 0
    depth = len(binders)
    if kind is Abs:
        code, res, mask = _binder(comp, t.var_ty, t.body, binders, lane,
                                  False)
        return code, Arrow(t.var_ty, res), mask
    # application: flatten the spine so logical heads can short-circuit
    head, args = t, []
    while isinstance(head, App):
        args.append(head.arg)
        head = head.fn
    args.reverse()
    kind = type(head)
    if kind is Const and head.name in LOGICAL_NAMES:
        if len(args) == _ARITY[head.name]:
            code, mask = _compile_logical(comp, t, head, args, binders, lane)
            return code, O_TYPE, mask
        head = eta_expand(head, _logical(head))
        kind = Abs
    # a loop, not a comprehension: this runs for every application node,
    # and a comprehension is a call of its own before Python 3.12
    argcode = []
    for a in args:
        argcode.append(_compile(comp, a, binders, lane))
    if kind is Abs:
        # apply syntactic lambdas by extending the environment rather
        # than building their tables; arguments are evaluated in the
        # current environment first, to plain values
        inner = binders
        k = 0
        while isinstance(head, Abs) and k < len(args):
            if argcode[k][1] != head.var_ty:
                raise EvalError(
                    f"cannot apply a λ over {type_str(head.var_ty)} to a "
                    f"value of type {type_str(argcode[k][1])}")
            inner = (head.var_ty,) + inner
            head = head.body
            k += 1
        # a definitional body, `OR_TAU`'s under each ∨, compiles once per
        # binder types and block; the entry holds `head` and `lane`, so
        # that no other term or block can take their ids
        key = (id(head), inner, id(lane))
        shared = comp.bodies.get(key)
        if shared is None:
            shared = comp.bodies[key] = (
                head, lane, *_compile(comp, head, inner, lane))
        _, _, body, ty, mask = shared
        mask &= (1 << depth) - 1
        pushed = []
        for a, _, arg_mask in argcode[:k]:
            if lane and arg_mask & lane[0]:
                raise _Unlifted
            pushed.append(a)
            mask |= arg_mask
        code = _push(pushed, body)
        args, argcode = args[k:], argcode[k:]
    else:
        code, ty, mask = _compile(comp, head, binders, lane)
    for u, (a, arg_ty, arg_mask) in zip(args, argcode):
        ty = ty.res if type(ty) is Arrow and ty.arg == arg_ty \
            else _expect(ty, arg_ty)
        if lane and (mask | arg_mask) & lane[0]:
            level = depth - 1 - u.index if type(u) is Bound else None
            code = _lane_apply(comp.n, code, mask, (a, arg_ty, arg_mask),
                               level, ty, lane)
        else:
            code = _digit(code, a, 2 if ty is O_TYPE
                          else domain_size(comp.n, ty))
        mask |= arg_mask
    return code, ty, mask


# Closures are built by helpers, so that `_compile`, which runs for
# every node, makes no closure cells of its own.


def _reader(filled: list[int], slot: int) -> Code:
    """Code reading slot `slot` of a list that each run fills."""
    return lambda env: filled[slot]


def _lane_variable(masks: tuple[int, ...]) -> Code:
    """Lane code of a block variable: the lane masks of its digits."""
    return lambda env: masks


def _push(args: list[Code], body: Code) -> Code:
    """Code of syntactic lambdas applied to `args`: the body, with the
    arguments' values pushed as its innermost binders."""
    k = len(args)

    def code(env: list) -> int:
        env.extend([a(env) for a in args])
        out = body(env)
        del env[-k:]
        return out
    return code


def _expect(fn_ty: HolType, arg_ty: HolType) -> HolType:
    """The type of a value of type `fn_ty` applied to one of `arg_ty`;
    EvalError if it takes no such argument."""
    if not isinstance(fn_ty, Arrow) or fn_ty.arg != arg_ty:
        raise EvalError(f"cannot apply a value of type {type_str(fn_ty)} "
                        f"to one of type {type_str(arg_ty)}")
    return fn_ty.res


# without this cache, compiling the 8 axioms at n = 3 and 4 took 24 ms, not 0.6
@functools.lru_cache(maxsize=32)
def _projections(total: int, off: int, size: int) -> tuple[int, ...]:
    """The lane masks, over a block of `total` digits, of the variable
    of type β>o with |D(β)| = size at digits off.., one per digit (see
    `_projection`)."""
    return tuple(_projection(total, off + s) for s in range(size))


def _projection(size: int, s: int) -> int:
    """The lane mask, over D(β>o) with |D(β)| = size, of the functions
    whose digit s is 1: in each block of 2P lanes, P = 2**s, the upper P."""
    p = 1 << s
    full = (1 << (1 << size)) - 1
    return full // ((1 << 2 * p) - 1) * (((1 << p) - 1) << p)


def _lane_apply(n: int, fn_code: Code, fn_mask: int, arg: tuple,
                level: int | None, res: HolType, lane: Lane) -> Code:
    """Code applying a function, compiled as `fn_code` reading the
    levels in `fn_mask`, to an argument, compiled as (code, type, mask),
    when either reads the lifted block; `level` is the argument's binder
    level if it is a bound variable, `res` the type of the result.  Three
    reads have lane code:
    - `V s` (`X w`, `ob X Z`), a function that reads the block at an
      argument that does not, is the argument's digit of its masks;
    - `g P` (`ob X`, `G X`, `ob p (λW. …)`), a function that does not
      read the block at a predicate P that does, with an o or a β>o
      result, multiplexes (`_mux`) g's table over P's masks;
    - `F P` (`ob X Y`, `ob X (λW. …)`), the same with a function that
      reads the block and so has masks per digit: a value that reads
      the block is a truth value or a predicate, so F P is o-typed.
    The multiplexer at a block variable, whose masks are fixed at
    compile time, is cached (`_block_mux`).  Any other read raises
    _Unlifted."""
    arg_code, arg_ty, arg_mask = arg
    block, full, spans = lane
    if not arg_mask & block:
        def digit(env: list) -> int:
            # f's mask at s, or none past f's digits, as in the loop
            masks, s = fn_code(env), arg_code(env)
            return masks[s] if s < len(masks) else 0
        return digit
    if arg_ty is O_TYPE:
        raise _Unlifted
    if res is O_TYPE:
        width = 0
    elif type(res) is Arrow and res.res is O_TYPE:
        width = domain_size(n, res.arg)
    else:
        raise _Unlifted
    if level in spans:
        slices = _projections(*spans[level])
        return lambda env: _block_mux(fn_code(env), slices, full, width)
    return lambda env: _mux(fn_code(env), arg_code(env), full, width)


def _mux(f: int | tuple[int, ...], slices: tuple[int, ...], full: int,
         width: int) -> int | tuple[int, ...]:
    """f at a lane-valued predicate whose digit d is 1 in the lanes of
    slices[d].  The lanes are split digit by digit into the sets where
    the predicate equals each value y, skipping empty sets, so at most
    one set per lane is reached.  With `width` 0 the result is a truth
    value: in the set of y, f(y) is bit y of f's table if f is an int,
    and holds in the lanes of f[y] if f is lane-valued.  Otherwise f is
    a table of predicates of `width` digits, field y holding f(y), and
    the result is a predicate's masks: the set of y joins the mask of
    each digit set in field y."""
    masks = [0] * width
    out, k = 0, len(slices)
    stack = [(0, 0, full)]
    while stack:
        d, y, lanes = stack.pop()
        if d < k:
            on = lanes & slices[d]
            if on:
                stack.append((d + 1, y | 1 << d, on))
            if on != lanes:
                stack.append((d + 1, y, lanes ^ on))
        elif width:
            field = f >> y * width & (1 << width) - 1
            while field:
                low = field & -field
                masks[low.bit_length() - 1] |= lanes
                field ^= low
        else:
            out |= lanes & (-(f >> y & 1) if type(f) is int else f[y])
    return tuple(masks) if width else out


# The multiplexer at a block variable, keyed by the function's value, the
# variable's masks and the block's lanes.  In the eight axioms the
# function is ob or ob X, so the keys depend on ob's table alone: the 9
# valid tables at n = 3 take 69 keys and the 17 at n = 4 take 116, so a
# cycle over valid models at one world count never evicts.  A computed
# predicate is not cached: hashing its masks, 8 KB each in OB3 at n = 4,
# costs more than a miss.
_block_mux = functools.lru_cache(maxsize=128)(_mux)


def _digit(fn: Code, arg: Code, base: int) -> Code:
    """Code applying a function to an argument: digit `arg` of `fn` in
    the given base, by shift and mask when the base is a power of two."""
    width = base.bit_length() - 1
    if base != 1 << width:
        return lambda env: fn(env) // base ** arg(env) % base
    mask = base - 1
    return lambda env: fn(env) >> width * arg(env) & mask


def _binder(comp: _Compiled, alpha: HolType, body_t: HolTerm,
            binders: tuple[HolType, ...], lane: Lane, forall: bool
            ) -> tuple[Code, HolType, int]:
    """Code of a quantifier (`forall`) or abstraction binding V : alpha
    around `body_t`, the type of the body and the binder's mask.

    A quantifier over a predicate V : β>o with at most LANE_CAP values,
    which no lifted block encloses, is lifted as a block with the
    predicate quantifiers directly nested in it, each the whole body of
    the one before, while the product of their value counts stays within
    LANE_CAP (∀X ∀Y ∀Z : i>o, 2**(3n) lanes).  A lane is one value of the
    whole block, read as a predicate of Σ|D(β_j)| digits: block variable
    j has digits off_j .. off_j + |D(β_j)| - 1, so `Xj s` is the lanes
    where digit off_j + s is 1.  The block pushes a placeholder per
    variable and computes the mask of the values where its innermost
    body holds in one go, then compares it with full; each inner
    quantifier's head is type-checked as if it were compiled on its own.
    A body that reads the block where no lane code exists (X = Y)
    raises _Unlifted.  Any other binder loops over its domain, in the
    lanes of the enclosing block if its body reads it: it ANDs its
    body's values for a quantifier (`_all`) and writes them as digits or
    lists them as masks for an abstraction.  A binder over a domain past
    the budget under a lifted block raises _Unlifted too: lanes evaluate
    every operand once, where the loop might skip the one that raises."""
    depth = len(binders)
    inner = (alpha,) + binders
    try:
        dom = enumerate_domain(comp.n, alpha)
    except DomainBudgetError:
        if lane:
            raise _Unlifted
        _, res, _ = _compile(comp, body_t, inner, None)
        return _over_budget(comp.n, alpha), res, (1 << depth) - 1
    if forall and not lane and comp.lift and _lanes(comp.n, alpha):
        # the block: directly nested predicate quantifiers join while
        # the product of their value counts stays within LANE_CAP
        types, pis, count = [alpha], [], len(dom)
        while (_applies(body_t, PI_NAME) and type(body_t.arg) is Abs
               and (more := _lanes(comp.n, body_t.arg.var_ty))
               and count * more <= LANE_CAP):
            pis.append(body_t.fn)
            types.append(body_t.arg.var_ty)
            body_t, count = body_t.arg.body, count * more
        total, off, spans = count.bit_length() - 1, 0, {}
        for j, ty in enumerate(types):
            size = domain_size(comp.n, ty.arg)
            spans[depth + j] = total, off, size
            off += size
        full, block = (1 << count) - 1, (1 << len(types)) - 1 << depth
        inner = tuple(reversed(types)) + binders
        body, res, mask = _compile(comp, body_t, inner, (block, full, spans))
        # the inner quantifiers' heads are typed as if each were compiled
        # on its own, innermost first
        for pi, ty in zip(reversed(pis), reversed(types)):
            _expect(pi.ty, Arrow(ty, res))
            res = O_TYPE
        code = _lifted(body if mask & block else _broadcast(body, full),
                       full, len(types))
    else:
        body, res, mask = _compile(comp, body_t, inner, lane)
        # test for a read of the block, here and in `_compile_logical`,
        # not for a full mask other than TRUE: at n = 0 a block has one
        # lane, and its full mask is TRUE
        if forall:
            code = _all(dom, body, _full(lane, mask))
        elif not (lane and mask & lane[0]):
            code = _tabulate(dom[::-1], body, domain_size(comp.n, res))
        elif res is O_TYPE:
            code = _lane_table(dom, body)
        else:
            raise _Unlifted
    outer = mask & (1 << depth) - 1
    return _cached(code, outer, depth, comp.memos), res, outer


def _over_budget(n: int, alpha: HolType) -> Code:
    """Code of a binder over a domain past the budget: it raises
    DomainBudgetError, naming the type, only if it runs."""
    return lambda env: len(enumerate_domain(n, alpha))


def _lanes(n: int, ty: HolType) -> int:
    """|D(ty)| if ty is a predicate type with at most LANE_CAP values,
    else 0: the lanes a quantifier over ty can be lifted over."""
    if type(ty) is not Arrow or ty.res is not O_TYPE:
        return 0
    try:
        size = domain_size(n, ty)
    except DomainBudgetError:
        return 0
    return size if size <= LANE_CAP else 0


def _lifted(lane: Code, full: int, count: int) -> Code:
    """Code of a lifted block of `count` quantifiers: whether its lane
    mask, with a placeholder pushed for each variable, is `full`."""
    pad = [0] * count

    def code(env: list) -> int:
        env.extend(pad)
        v = lane(env)
        del env[-count:]
        return int(v == full)
    return code


def _all(dom: range, body: Code, full: int) -> Code:
    """Code of a quantifier that loops over its domain: the AND of its
    body's masks over `full`'s lanes, stopping once no lane is left."""
    def code(env: list) -> int:
        out = full
        for d in dom:
            env.append(d)
            out &= body(env)
            env.pop()
            if not out:
                break
        return out
    return code


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


def _lane_table(dom: range, lane: Code) -> Code:
    """Lane code of an abstraction that loops under a lifted block: its
    body's mask per value of its variable."""
    def code(env: list) -> tuple[int, ...]:
        out = []
        for d in dom:
            env.append(d)
            out.append(lane(env))
            env.pop()
        return tuple(out)
    return code


def _cached(code: Code, mask: int, depth: int, memos: list[dict]) -> Code:
    """`code` remembering its value per values of the binder levels in
    `mask`, when it sits under binders it does not all read.  The table
    joins `memos`, the compiled term's, which each run empties first, so
    it lives for one run.  Under a lifted block its levels hold
    placeholders, the same in each run."""
    # world binders loop, so [](Oa p | ...) nests loops that read no
    # outer world; this keeps their runs linear in the depth
    if mask == (1 << depth) - 1:
        return code
    levels = [level for level in range(depth) if mask >> level & 1]
    # a closed node is keyed by the stack's length, the same at each run
    key = _read(*levels) if levels else len
    memo: dict = {}
    memos.append(memo)

    def cached(env: list) -> int:
        k = key(env)
        v = memo.get(k)
        if v is None:
            v = memo[k] = code(env)
        return v
    return cached


def _logical(c: Const) -> HolType:
    """The type of c, a logical constant, if it is o>o, o>o>o, (α>o)>o
    or α>α>o as its name says; else EvalError: its eta-expansion loops."""
    a = c.ty.arg if type(c.ty) is Arrow else None
    if c != (pi_const(a.arg) if c.name == PI_NAME and type(a) is Arrow
             else eq_const(a) if c.name == EQ_NAME
             else NOT if c.name == NOT_NAME else OR):
        raise EvalError(f"logical constant {c.name} cannot have type "
                        f"{type_str(c.ty)}")
    return c.ty


def _full(lane: Lane, mask: int) -> int:
    """The mask of every lane of a truth value that reads the levels in
    `mask`: the lifted block's if it reads that, else one lane."""
    return lane[1] if lane and mask & lane[0] else TRUE


def _broadcast(code: Code, full: int) -> Code:
    """Lane code of an o-typed node that does not read the block: its
    value in every lane."""
    return lambda env: -code(env) & full


def _compile_logical(comp: _Compiled, t: HolTerm, head: Const,
                     args: list[HolTerm], binders: tuple[HolType, ...],
                     lane: Lane) -> tuple[Code, int]:
    """Code and binder mask of `t`, the logical constant `head` applied
    to all its arguments `args`, whose types are checked against it.
    Pi f is Pi (λx. f x) (`hol.eta_expand`), a binder (`_binder`).
    ¬, ∧, ∨ and → act on masks, over the lifted block's lanes if the
    node reads it and over one lane otherwise; an operand that does not
    read it is broadcast.  The second operand is skipped when the first
    fixes the result in every lane.  Equality, at any type, has no lane
    code."""
    if head.name == PI_NAME:
        ty, f = head.ty, args[0]
        if type(f) is not Abs:  # Pi f is Pi (λx. f x)
            f = eta_expand(f, _logical(head).arg)
        code, res, mask = _binder(comp, f.var_ty, f.body, binders, lane, True)
        _expect(ty, Arrow(f.var_ty, res))
        if res is not O_TYPE or ty.res is not O_TYPE:
            _logical(head)  # raises: ty is not (α>o)>o
        return code, mask
    # a conjunction ¬(¬a ∨ ¬b) and an implication ¬a ∨ b are one clause
    # each, over operands compiled once
    if head.name == NOT_NAME:
        conj = match_and(t)
        if conj is None:
            a, ty, mask = _compile(comp, args[0], binders, lane)
            if ty is not O_TYPE:
                _expect(head.ty, ty)
            return _not(a, _full(lane, mask)), mask
        clause, args = _and, conj
    elif head.name == OR_NAME and _applies(args[0], NOT_NAME):
        clause, args = _imp, [args[0].arg, args[1]]
    else:
        clause = _or if head.name == OR_NAME else _eq
    a, a_ty, a_mask = _compile(comp, args[0], binders, lane)
    b, b_ty, b_mask = _compile(comp, args[1], binders, lane)
    if clause is _eq or a_ty is not O_TYPE or b_ty is not O_TYPE:
        _expect(_expect(head.ty if clause is _eq else OR.ty, a_ty), b_ty)
    mask = a_mask | b_mask
    full = _full(lane, mask)
    if lane and mask & lane[0]:
        if clause is _eq:
            raise _Unlifted
        if not a_mask & lane[0]:
            a = _broadcast(a, full)
        if not b_mask & lane[0]:
            b = _broadcast(b, full)
    return clause(a, b, full), mask


# The clauses of the logical constants, over masks of `full`'s lanes.


def _not(a: Code, full: int) -> Code:
    return lambda env: a(env) ^ full


def _and(a: Code, b: Code, full: int) -> Code:
    return lambda env: (x := a(env)) and x & b(env)


def _imp(a: Code, b: Code, full: int) -> Code:
    return lambda env: x if (x := a(env) ^ full) == full else x | b(env)


def _or(a: Code, b: Code, full: int) -> Code:
    return lambda env: x if (x := a(env)) == full else x | b(env)


def _eq(a: Code, b: Code, full: int) -> Code:
    """Equality at any type, on plain values only."""
    return lambda env: int(a(env) == b(env))


@functools.lru_cache(maxsize=128)
def _ob_image(n: int, ideal: int) -> int:
    """`build_henkin`'s ob table for the valid table with `ideal_of`
    value ideal: bit (x << n) + y is set iff x & y is nonempty and holds
    S & x.  As for `_block_mux`, 128 holds the 33 tables up to 4 worlds."""
    if ideal == EMPTY_OB:
        return 0
    dom = range(1 << n)
    return sum(1 << (x << n) + y for x in dom for y in dom
               if x & y and not ideal & x & ~y)


def build_henkin(m: CJModel) -> HenkinModel:
    """Standard interpretation of a valid model.

    Atoms, av, and pv become characteristic-function tables; ob becomes
    the table sending a pair of propositions to their trace-membership
    verdict, over all pairs from the full proposition domain (see
    `_ob_image`).  Raises ValueError for an atom named like a signature
    constant and for an ob table that is not valid.
    """
    clash = RESERVED_ATOMS & m.val.keys()
    if clash:
        raise ValueError(f"atom {min(clash)!r} is reserved for a signature "
                         "constant")
    ideal = ideal_of(m.ob, m.n)
    if ideal is None:
        raise ValueError("ob table is not valid")
    n = m.n
    interp = dict(m.val)
    interp["av"] = sum(mask << n * s for s, mask in enumerate(m.av))
    interp["pv"] = sum(mask << n * s for s, mask in enumerate(m.pv))
    interp["ob"] = _ob_image(n, ideal)
    return HenkinModel(n, interp)


# The eight axioms compiled per world count, filled on first use; the
# guard in check_axioms keeps it to n = 0..4.  A compiled term keeps its
# constants' values and memos while it runs, so runs hold the lock.
_AXIOMS: dict[int, list[tuple[str, _Compiled]]] = {}
_AXIOMS_LOCK = threading.Lock()


def check_axioms(h: HenkinModel) -> str | None:
    """Name of the first failing axiom, or None if all eight hold.

    OB3 quantifies over (i>o)>o, whose domain is past DOMAIN_BUDGET from
    5 worlds: there DomainBudgetError, naming that type, is raised before
    any axiom runs, so the axioms are checked up to 4 worlds.  The axioms
    are compiled once per world count and run on each interpretation.
    The compiled terms are shared, and a run fills in their state, so
    one lock lets one check run them at a time: any thread may call
    this."""
    enumerate_domain(h.n, Arrow(TAU, O_TYPE))
    with _AXIOMS_LOCK:
        compiled = _AXIOMS.get(h.n)
        if compiled is None:
            compiled = _AXIOMS[h.n] = [(name, _compile_term(h.n, term))
                                       for name, term in axioms()]
        for name, term in compiled:
            if term.run(h.interp, {}) != TRUE:
                return name
    return None


def extract_model(h: HenkinModel, atoms: Iterable[str]) -> CJModel:
    """Read a model back off an interpretation satisfying the axioms.

    The worlds are the individual domain; av, pv, and the valuation are
    read off the tables.  A valid ob table is {} or ob_S (see `model`),
    S the meet of ob(W), so ob must be `_ob_image` of that.  Raises
    ExtractionError, naming the constant, for an atom named like a
    signature constant and for a table that is missing or has bits past
    its domain, and for no worlds, none of which a model could give
    back; then AxiomCheckError (naming the axiom) if the interpretation
    does not satisfy all eight axioms, since only then is a valid model
    guaranteed; then ExtractionError naming ob if it is no such image.
    The axioms are checked up to 4 worlds: past that, DomainBudgetError
    names the type (i>o)>o of OB3's quantifier before any axiom runs.
    """
    n = h.n
    if n < 1:
        raise ExtractionError(f"interpretation has {n} worlds, not 1 or more")
    names = sorted(set(atoms))
    reserved = RESERVED_ATOMS.intersection(names)
    if reserved:
        raise ExtractionError(f"atom {min(reserved)!r} is reserved for a "
                              "signature constant")
    digits = {"av": n * n, "pv": n * n, "ob": 1 << 2 * n}
    digits.update(dict.fromkeys(names, n))
    for name, size in digits.items():
        if name not in h.interp:
            raise ExtractionError(f"interpretation missing constant {name!r}")
        if not 0 <= h.interp[name] < 1 << size:
            raise ExtractionError(f"table of {name!r} has bits past entry "
                                  f"{size - 1}")
    failing = check_axioms(h)
    if failing is not None:
        raise AxiomCheckError(failing)
    av_t, pv_t, ob_t = h.interp["av"], h.interp["pv"], h.interp["ob"]
    full = full_mask(n)
    av = tuple(av_t >> n * s & full for s in range(n))
    pv = tuple(pv_t >> n * s & full for s in range(n))
    row = [y for y in range(full + 1) if ob_t >> (full << n) + y & 1]
    ideal = functools.reduce(operator.and_, row) if row else EMPTY_OB
    if ob_t != _ob_image(n, ideal):
        raise ExtractionError("table of 'ob' is not the image of a valid "
                              "ob table")
    ob = ideal_ob(n, ideal) if row else {}
    m = CJModel(n, av, pv, ob, {a: h.interp[a] for a in names})
    report = validate(m)
    if not report.ok:
        raise ExtractionError(
            f"extracted model violates the model conditions:\n{report}")
    return m

