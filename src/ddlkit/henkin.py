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
binder V : a can run once for all values of V, one bit (lane) per
value, when each part of its body that reads V can: `g V` is the table
of g, `V s` a fixed projection mask, the connectives act on masks, a
binder inside loops over its own values and ANDs (∀) or lists (λ) its
body's masks, a term of type b>o is a list of masks, one per digit, and
applying a function to such a term is a multiplexer over the term's
value in each lane.  A quantifier is then `mask == full` and an
abstraction the mask itself.  Of nested binders the one with the most
lanes is lifted; a binder past LANE_CAP lanes, or whose body reads it
otherwise, loops over its domain.

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

# Most lanes a binder is lifted over, one per value of its variable; past
# it the binder loops.  2**16 covers B : (i>o)>o at n = 4, where all
# eight axioms took 6-12 ms per model, against 1.0-1.9 s with B looped
# (2-vCPU machine).
LANE_CAP = 1 << 16

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
# Its lane code, per alive binder level it reads (see `_compile`).
Lanes = dict[int, Code]

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

    A quantifier, or an abstraction with an o-typed body, over V runs
    once for all values of V, one bit (lane) per value, when each part
    of its body that reads V has lane code (see `_compile`), binders
    inside it included: they loop, returning masks over V's lanes.  In
    OB3, ∀B over 256 values at n = 3 runs once, and its ∀X, ∀Z and λW
    loop inside.

    Each compiled node knows which binder levels it reads.  A quantifier
    or abstraction under binders it does not all read keeps its values
    per values of the levels it does read, for this call only: in OB3,
    ∃Z. B Z depends on B alone and is computed once per B, not once per
    B and X.  The resulting value is the same, only cheaper.
    """
    code, _, _, _ = _compile(h, t, (), free or {}, _Alive())
    return code([])


class _Alive:
    """The enclosing binder levels that may yet be lifted: bit l of
    `bits` is set for each, and `full` maps each to its full mask, as
    well as the levels an inner binder has set aside (see `enter`)."""

    __slots__ = ("bits", "full")

    def __init__(self) -> None:
        self.bits = 0
        self.full: dict[int, int] = {}

    def levels(self, mask: int) -> tuple[int, ...] | list[int]:
        """The alive levels in `mask`."""
        mask &= self.bits
        if not mask & mask - 1:
            return (mask.bit_length() - 1,) if mask else ()
        return [level for level in self.full if mask >> level & 1]

    def drop(self, mask: int) -> None:
        """Remove the levels in `mask`: their binders loop."""
        for level in self.levels(mask):
            del self.full[level]
        self.bits &= ~mask

    def enter(self, level: int, full: int) -> int:
        """Add a binder's level.  It claims the alive levels with no more
        lanes than it has, which are set aside while its body compiles;
        their mask is returned for `leave`."""
        claimed = 0
        if self.bits:
            for outer in self.levels(self.bits):
                if self.full[outer] <= full:
                    claimed |= 1 << outer
        self.bits ^= claimed | 1 << level
        self.full[level] = full
        return claimed

    def leave(self, level: int, claimed: int, mask: int) -> bool:
        """Remove a binder's level, returning whether it is still alive.
        The claimed levels its body reads (`mask`) are dropped, so that
        the binder with more lanes is the one lifted; the others are set
        back."""
        alive = self.bits >> level & 1
        if alive:
            self.bits ^= 1 << level
            del self.full[level]
        if claimed:
            read = claimed & mask
            for outer in [outer for outer in self.full if read >> outer & 1]:
                del self.full[outer]
            self.bits |= claimed & ~mask
        return bool(alive)


def _compile(h: HenkinModel, t: HolTerm, binders: tuple[HolType, ...],
             free: Mapping[str, int], alive: _Alive
             ) -> tuple[Code, HolType, int, Lanes | None]:
    """Code computing `t` under binders of the given types (innermost
    first), the type of `t`, the mask of the binder levels the code
    reads (bit l stands for env[l], the l-th binder from the outside),
    and the lane code of `t` per alive level it reads, or None.

    The lane code of a node for the level of a binder V runs with a
    placeholder for V and computes the node for all values of V at
    once: an o-typed node gives the mask of the values where it holds,
    a β>o-typed one the list of those masks per digit of β.  A node
    that reads an alive level and cannot have lane code for it drops
    the level from `alive`, and the binder over V then loops.  A node
    that does not read the level needs none: it is broadcast."""
    # one type test per node: this runs for every node of every term
    kind = type(t)
    if kind is Bound:
        level = len(binders) - 1 - t.index
        if level < 0:
            raise EvalError(f"dangling bound variable index {t.index}")
        ty = binders[t.index]
        lanes = _variable_lanes(h.n, ty, level) \
            if alive.bits >> level & 1 and ty is not I else None
        return _read(level), ty, 1 << level, lanes
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
            return _compile(h, _eta_expand(t), binders, free, alive)
        if t.name not in h.interp:
            raise EvalError(f"constant {t.name} has no interpretation")
        v = h.interp[t.name]
        return (lambda env: v), t.ty, 0, None
    depth = len(binders)
    if kind is Abs:
        code, res, mask, lanes = _binder(h, t.var_ty, t.body, binders, free,
                                         alive, False)
        return code, Arrow(t.var_ty, res), mask, lanes
    # application: flatten the spine so logical heads can short-circuit
    head, args = t, []
    while isinstance(head, App):
        args.append(head.arg)
        head = head.fn
    args.reverse()
    kind = type(head)
    if kind is Const and head.name in LOGICAL_NAMES:
        if len(args) == _ARITY[head.name]:
            code, mask, lanes = _compile_logical(h, t, head, args, binders,
                                                 free, alive)
            return code, O_TYPE, mask, lanes
        head = _eta_expand(head)
        kind = Abs
    # an argument's lane code serves only an application of type o
    ty = (head.ty if kind is Const or kind is Free
          else binders[head.index] if kind is Bound and head.index < depth
          else None)
    argcode = []
    for a in args:
        ty = ty.res if isinstance(ty, Arrow) else None
        argcode.append((_compile if ty is O_TYPE else _compile_plain)(
            h, a, binders, free, alive))
    value = lanes = None
    if kind is Abs:
        # apply syntactic lambdas by extending the environment rather
        # than building their tables; arguments are evaluated in the
        # current environment first.  Such a node has no lane code
        inner = binders
        k = 0
        while isinstance(head, Abs) and k < len(args):
            inner = (head.var_ty,) + inner
            head = head.body
            k += 1
        body, ty, mask, _ = _compile_plain(h, head, inner, free, alive)
        mask &= (1 << depth) - 1
        pushed = []
        for a, _, arg_mask, _ in argcode[:k]:
            pushed.append(a)
            mask |= arg_mask
        alive.drop(mask)

        def code(env: list) -> int:
            env.extend([a(env) for a in pushed])
            out = body(env)
            del env[-k:]
            return out
        if k == len(args):
            return code, ty, mask, None
        args, argcode = args[k:], argcode[k:]
    else:
        code, ty, mask, lanes = _compile(h, head, binders, free, alive)
        if kind is Const:
            value = h.interp[head.name]
        elif kind is Free:
            value = free[head.name]
    for u, (a, arg_ty, arg_mask, arg_lanes) in zip(args, argcode):
        if not isinstance(ty, Arrow) or ty.arg != arg_ty:
            raise EvalError(f"cannot apply a value of type {type_str(ty)} "
                            f"to one of type {type_str(arg_ty)}")
        ty = ty.res
        level = depth - 1 - u.index if isinstance(u, Bound) else None
        read = (mask | arg_mask) & alive.bits
        if not read:
            lanes = None
        elif (level is not None and read == 1 << level and not mask & read
              and ty is O_TYPE
              and (value is None or value & alive.full[level] == value)):
            # g V, the commonest case: the table of g is the lane mask
            lanes = {level: code}
        else:
            lanes = _apply_lanes(h.n, (code, value, mask, lanes),
                                 (a, arg_ty, arg_mask, arg_lanes, level), ty,
                                 alive, read)
        code = _digit(code, a, 2 if ty is O_TYPE else domain_size(h.n, ty),
                      value, level)
        mask |= arg_mask
        value = None
    return code, ty, mask, lanes


def _compile_plain(h: HenkinModel, t: HolTerm, binders: tuple[HolType, ...],
                   free: Mapping[str, int], alive: _Alive) -> tuple:
    """`_compile` with no enclosing level alive, so with no lane code for
    them; the binders inside `t` are lifted as usual."""
    bits, alive.bits = alive.bits, 0
    out = _compile(h, t, binders, free, alive)
    alive.bits = bits
    return out


def _variable_lanes(n: int, ty: HolType, level: int) -> Lanes | None:
    """Lane code of the variable V at an alive `level`: lane v holds the
    value v, so an o-typed V is the mask 0b10 and a β>o-typed V has, per
    digit s of β, the mask of the functions whose digit s is 1.  V of
    another type has none; only an application `g V` reads it."""
    if ty is O_TYPE:
        return {level: lambda env: 2}
    if isinstance(ty, Arrow) and ty.res is O_TYPE:
        size = domain_size(n, ty.arg)
        return {level: lambda env: _projections(size)}
    return None


@functools.lru_cache(maxsize=32)
def _projections(size: int) -> tuple[int, ...]:
    """The lane masks of a variable of type β>o with |D(β)| = size, one
    per digit (see `_projection`)."""
    return tuple(_projection(size, s) for s in range(size))


def _projection(size: int, s: int) -> int:
    """The lane mask, over D(β>o) with |D(β)| = size, of the functions
    whose digit s is 1: in each block of 2P lanes, P = 2**s, the upper P."""
    p = 1 << s
    full = (1 << (1 << size)) - 1
    return full // ((1 << 2 * p) - 1) * (((1 << p) - 1) << p)


def _apply_lanes(n: int, fn: tuple, arg: tuple, res: HolType,
                 alive: _Alive, read: int) -> Lanes | None:
    """Lane code of a function, compiled as (code, value known at compile
    time or None, mask, lanes), applied to an argument, compiled as (code,
    type, mask, lanes, level if it is a variable), per alive level in
    `read`; the levels without any are dropped from `alive`.

    At V itself, a function that does not read V is its own table (cut
    to V's domain), or with a β>o result the masks of its digits, and
    one that does is its diagonal.  A function that reads V at an
    argument that does not gives the argument's digit of its masks.
    Otherwise an o-typed application is the multiplexer `_mux` of the
    function over the masks of the argument's digits."""
    fn_code, value, fn_mask, fn_lanes = fn
    arg_code, arg_ty, arg_mask, arg_lanes, arg_level = arg
    lanes = {}
    for level in alive.levels(read):
        full = alive.full[level]
        f = fn_lanes.get(level) if fn_lanes else None
        lane = None
        if arg_level == level:
            if f is not None:
                lane = _diagonal(f)
            elif not fn_mask >> level & 1:
                if res is not O_TYPE:
                    lane = _transposed(n, fn_code, full, res)
                elif value is None:
                    lane = fn_code
                else:
                    # cut a constant's digits past V's domain, which the
                    # loop never reads
                    lane = (lambda v: lambda env: v)(value & full)
        elif not arg_mask >> level & 1:
            if f is not None:
                lane = _digit_lanes(f, arg_code)
        elif (arg_lanes and level in arg_lanes and res is O_TYPE
              and (f is not None or not fn_mask >> level & 1)):
            lane = _mux_lanes(fn_code if f is None else f, arg_lanes[level],
                              arg_ty is O_TYPE, full)
        if lane is None:
            alive.drop(1 << level)
        else:
            lanes[level] = lane
    return lanes or None


def _transposed(n: int, fn: Code, full: int, res: HolType) -> Code | None:
    """Lane code of `g V` for a g that does not read V and a result of
    type β>o: per digit of β, the mask of the values of V where it is 1."""
    if not (isinstance(res, Arrow) and res.res is O_TYPE):
        return None
    count, width = full.bit_length(), domain_size(n, res.arg)
    memo: dict = {}

    def lane(env: list) -> tuple[int, ...]:
        table = fn(env)
        masks = memo.get(table)
        if masks is None:
            masks = memo[table] = _transpose(table, count, width)
        return masks
    return lane


def _transpose(table: int, count: int, width: int) -> tuple[int, ...]:
    """Per digit z < width, the mask of the v < count whose width-bit
    field v in `table` has bit z set."""
    size = count * width
    bits = format(table & (1 << size) - 1, f"0{size}b")
    # bit z of field v is character size - 1 - (v * width + z)
    return tuple(int(bits[width - 1 - z::width], 2) for z in range(width))


def _diagonal(fn: Code) -> Code:
    """Lane code of `f V` for an f that reads V: bit v of f's mask at v."""
    return lambda env: sum(m & 1 << v for v, m in enumerate(fn(env)))


def _digit_lanes(fn: Code, arg: Code) -> Code:
    """Lane code of `f s` for an f that reads V and an s that does not:
    f's mask at s, or none past f's digits, as in the loop."""
    def lane(env: list) -> int:
        masks, s = fn(env), arg(env)
        return masks[s] if s < len(masks) else 0
    return lane


def _mux_lanes(fn: Code, arg: Code, boolean: bool, full: int) -> Code:
    """Lane code of `f a` for an argument a that reads V: `_mux` of f's
    table or masks over the masks of a's digits, or over a's own mask
    when a is `boolean`, of type o, whose one digit is its value."""
    if boolean:
        return lambda env: _mux(fn(env), (arg(env),), full)
    return lambda env: _mux(fn(env), arg(env), full)


def _mux(f: int | list[int], slices: tuple[int, ...], full: int) -> int:
    """The lanes where f holds at a lane-valued argument whose digit d
    is 1 in the lanes of slices[d].  The lanes are split digit by digit
    into the sets where the argument equals each value y, skipping empty
    sets, so at most one set per lane is reached; in the set of y, f(y)
    is bit y of f's table, or f[y] when f is a list of lane masks."""
    table = isinstance(f, int)
    out, k = 0, len(slices)
    stack = [(0, 0, full)]
    while stack:
        d, y, lanes = stack.pop()
        if d == k:
            out |= (lanes if f >> y & 1 else 0) if table else f[y] & lanes
            continue
        s = slices[d]
        if lanes & s:
            stack.append((d + 1, y | 1 << d, lanes & s))
        if lanes & ~s:
            stack.append((d + 1, y, lanes & ~s))
    return out


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
            alive: _Alive, forall: bool
            ) -> tuple[Code, HolType, int, Lanes | None]:
    """Code of a quantifier (`forall`) or abstraction binding V : alpha
    around `body_t`, the type of the body, the binder's mask and its
    lane code per enclosing alive level.

    A binder over 2..LANE_CAP values is lifted when its body is o-typed
    and has lane code for V, or does not read V: it pushes a placeholder
    for V and computes the mask of the values of V where the body holds
    in one go.  A quantifier is that mask == full, an abstraction that
    mask.  Every other binder loops over its domain.  Inner binders
    claim V if they have as many values (see `_Alive.enter`).

    For an enclosing level, the binder loops over V, ANDing the body's
    masks for a quantifier and listing them, one per digit, for an
    abstraction.  A binder over a domain past the budget claims every
    enclosing level, so no binder around it is lifted: lanes evaluate
    every operand once, where the loop might skip the one that raises."""
    n, depth = h.n, len(binders)
    try:
        dom = enumerate_domain(n, alpha)
    except EvalError:
        dom = None
    # one value gains nothing from lanes, and an abstraction whose body
    # is one is no predicate: neither is lifted
    full = claimed = 0
    if (dom is not None and 1 < len(dom) <= LANE_CAP
            and (forall or type(body_t) is not Abs)):
        full = (1 << len(dom)) - 1
        claimed = alive.enter(depth, full)
    body, res, mask, lanes = _compile(h, body_t, (alpha,) + binders, free,
                                      alive)
    lane = None
    if full and alive.leave(depth, claimed, mask) and lanes \
            and res is O_TYPE:
        lane = lanes.get(depth)
    outer = mask & (1 << depth) - 1
    if dom is None:
        alive.drop(alive.bits)
        return _enumerate_when_run(n, alpha), res, (1 << depth) - 1, None
    lanes = _loop_lanes(dom, lanes, res, outer, depth, alive, forall) \
        if outer & alive.bits else None
    if lane is None and full and not mask >> depth & 1 and res is O_TYPE:
        lane = _broadcast(body, full)
    if lane is not None:
        code = _lifted(lane, full, forall)
    elif forall:
        code = _forall(dom, body)
    else:
        code = _tabulate(dom[::-1], body, domain_size(n, res))
    return _cached(code, outer, depth), res, outer, lanes


def _loop_lanes(dom: range, lanes: Lanes | None, res: HolType, outer: int,
                depth: int, alive: _Alive, forall: bool) -> Lanes | None:
    """Lane code of a binder over `dom` at `depth` per enclosing alive
    level its body reads, looping over the domain.  The levels for which
    the body has none are dropped from `alive`."""
    out = {}
    for level in alive.levels(outer):
        body = lanes.get(level) if lanes else None
        if body is None or res is not O_TYPE:
            alive.drop(1 << level)
        else:
            lane = _lane_forall(dom, body, alive.full[level]) if forall \
                else _lane_table(dom, body)
            out[level] = _cached(lane, outer, depth)
    return out or None


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


def _lane_forall(dom: range, lane: Code, full: int) -> Code:
    """Lane code of a quantifier that loops under a lifted binder: the
    AND of its body's masks, stopping once no lane is left."""
    def code(env: list) -> int:
        out = full
        for d in dom:
            env.append(d)
            out &= lane(env)
            env.pop()
            if not out:
                break
        return out
    return code


def _lane_table(dom: range, lane: Code) -> Code:
    """Lane code of an abstraction that loops under a lifted binder: its
    body's mask per value of its variable."""
    def code(env: list) -> list[int]:
        out = []
        for d in dom:
            env.append(d)
            out.append(lane(env))
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
    lives as long as the compiled term, one `eval_term` call.  Under a
    lifted binder its level holds a placeholder, the same in each run."""
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


def _clause_lanes(clause: str, la: Code, lb: Code, full: int) -> Code:
    """Lane code of a binary connective over the operands' lane codes.
    As in the loop, the second operand is skipped when the first fixes
    the result, here in every lane."""
    if clause == "and":
        return lambda env: (a := la(env)) and a & lb(env)
    if clause == "imp":
        return lambda env: a if (a := la(env) ^ full) == full else \
            a | lb(env)
    if clause == "or":
        return lambda env: a if (a := la(env)) == full else a | lb(env)
    return lambda env: la(env) ^ lb(env) ^ full


def _connective_lanes(clause: str, operands: tuple, alive: _Alive,
                      read: int) -> Lanes | None:
    """Lane code of a binary connective over o-typed compiled operands,
    per alive level either reads.  An operand that does not read the
    level is broadcast; one that reads it without lane code drops the
    level from `alive`."""
    (a, a_ty, a_mask, la), (b, b_ty, b_mask, lb) = operands
    lanes = {}
    for level in alive.levels(read):
        full = alive.full[level]
        x = la.get(level) if la else None
        y = lb.get(level) if lb else None
        if (a_ty is not O_TYPE or b_ty is not O_TYPE
                or x is None and a_mask >> level & 1
                or y is None and b_mask >> level & 1):
            alive.drop(1 << level)
            continue
        lanes[level] = _clause_lanes(clause, x or _broadcast(a, full),
                                     y or _broadcast(b, full), full)
    return lanes or None


def _compile_logical(h: HenkinModel, t: HolTerm, head: Const,
                     args: list[HolTerm], binders: tuple[HolType, ...],
                     free: Mapping[str, int], alive: _Alive
                     ) -> tuple[Code, int, Lanes | None]:
    """Code, binder mask and lane code of `t`, the logical constant
    `head` applied to all its arguments `args`."""
    if head.name == PI_NAME and isinstance(args[0], Abs):
        code, _, mask, lanes = _binder(h, head.ty.arg.arg, args[0].body,
                                       binders, free, alive, True)
        return code, mask, lanes
    # a conjunction ¬(¬a ∨ ¬b) and an implication ¬a ∨ b are one clause
    # each, over operands compiled once
    if head.name == NOT_NAME:
        conj = match_and(t)
        if conj is None:
            a, ty, mask, la = _compile(h, args[0], binders, free, alive)
            if la and ty is not O_TYPE:
                alive.drop(mask)
                la = None
            lanes = None
            if la:
                lanes = {}
                for level, x in la.items():
                    lanes[level] = _negated(x, alive.full[level])
            return (lambda env: 1 - a(env)), mask, lanes
        clause, args = "and", conj
    elif head.name == PI_NAME:
        a, _, mask, la = _compile(h, args[0], binders, free, alive)
        full = (1 << domain_size(h.n, head.ty.arg.arg)) - 1
        lanes = {level: _all_lanes(x, alive.full[level])
                 for level, x in la.items()} if la else None
        return (lambda env: int(a(env) == full)), mask, lanes
    elif head.name == OR_NAME and _applies(args[0], NOT_NAME):
        clause, args = "imp", [args[0].arg, args[1]]
    else:
        clause = "or" if head.name == OR_NAME else "iff"
    ops = _compile(h, args[0], binders, free, alive), \
        _compile(h, args[1], binders, free, alive)
    (a, _, mask, _), (b, _, b_mask, _) = ops
    mask |= b_mask
    read = mask & alive.bits
    lanes = _connective_lanes(clause, ops, alive, read) if read else None
    if clause == "and":
        return (lambda env: a(env) and b(env)), mask, lanes
    if clause == "imp":
        return (lambda env: b(env) if a(env) else TRUE), mask, lanes
    if clause == "or":
        return (lambda env: a(env) or b(env)), mask, lanes
    return (lambda env: int(a(env) == b(env))), mask, lanes


def _negated(lane: Code, full: int) -> Code:
    """Lane code of a negation: the lanes where the operand fails."""
    return lambda env: lane(env) ^ full


def _all_lanes(lane: Code, full: int) -> Code:
    """Lane code of Pi f for an f that reads the binder: the lanes where
    every digit's mask holds."""
    return lambda env: functools.reduce(operator.and_, lane(env), full)


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
    which gives the trace-canonical form.  Raises ExtractionError,
    naming the constant, for an atom named like a signature constant and
    for a table that is missing or has bits past its domain, none of
    which a model could give back; then AxiomCheckError (naming the
    axiom) if the interpretation does not satisfy all eight axioms,
    since only then is a valid model guaranteed.
    """
    n = h.n
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
    ob = {}
    for x in range(1, full + 1):
        traces = frozenset(y for y in subsets(x) if ob_t >> (x << n) + y & 1)
        if traces:
            ob[x] = traces
    m = CJModel(n, av, pv, ob, {a: h.interp[a] for a in names})
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
