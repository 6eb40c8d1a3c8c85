"""Direct truth evaluation of formulas over finite models.

Truth sets are computed bottom-up, one pass per distinct subformula,
because the global operators need the full extension of their argument
anyway.  The per-operator clauses:

    atom p        worlds where p holds, per val
    ~f            complement
    f | g         union
    []f           all worlds if f holds everywhere, else no worlds
    [a]f at s     av(s) is a subset of the worlds of f
    [p]f at s     pv(s) is a subset of the worlds of f
    O(g/f)        worlds of g belong to ob(worlds of f); world independent
    Oa f at s     worlds of f in ob(av(s)), and av(s) meets the complement
    Op f at s     same with pv(s)
"""

from __future__ import annotations

import warnings

from .model import CJModel, full_mask, ob_member
from .syntax import (RESERVED_ATOM, Atom, Box, BoxA, BoxP, Formula, Not, ObA,
                     ObDyadic, ObP, Or)


class MissingAtomWarning(UserWarning):
    """An atom without a valuation entry; it defaults to the empty set."""


def truth_set(m: CJModel, f: Formula) -> int:
    """Bitmask of exactly the worlds satisfying f.

    Assumes the model is valid.  Atoms missing from the valuation default
    to the empty proposition with a MissingAtomWarning, which keeps
    formulas over fresh atoms evaluable while flagging likely typos.
    """
    full = full_mask(m.n)
    # keyed by identity, because hashing a frozen node rehashes its whole
    # subtree; every node stays reachable from f, so ids stay unique, and
    # the operands the parser repeats when desugaring are shared objects
    cache: dict[int, int] = {}
    missing: dict[str, None] = {}  # in order of discovery

    def go(g: Formula) -> int:
        got = cache.get(id(g))
        if got is not None:
            return got
        if isinstance(g, Atom):
            v = m.val.get(g.name, 0)
            # the reserved desugaring atom defaults silently: it only
            # occurs in tautological or contradictory combinations
            if g.name not in m.val and g.name != RESERVED_ATOM:
                missing[g.name] = None
        elif isinstance(g, Not):
            v = full & ~go(g.sub)
        elif isinstance(g, Or):
            v = go(g.left) | go(g.right)
        elif isinstance(g, Box):
            v = full if go(g.sub) == full else 0
        elif isinstance(g, BoxA):
            sub = go(g.sub)
            v = mask_where(m.n, lambda s: not m.av[s] & ~sub)
        elif isinstance(g, BoxP):
            sub = go(g.sub)
            v = mask_where(m.n, lambda s: not m.pv[s] & ~sub)
        elif isinstance(g, ObDyadic):
            context = go(g.antecedent)
            v = full if ob_member(m, context, go(g.consequent)) else 0
        elif isinstance(g, ObA):
            sub = go(g.sub)
            v = mask_where(m.n, lambda s: ob_member(m, m.av[s], sub)
                           and m.av[s] & ~sub)
        elif isinstance(g, ObP):
            sub = go(g.sub)
            v = mask_where(m.n, lambda s: ob_member(m, m.pv[s], sub)
                           and m.pv[s] & ~sub)
        else:
            raise TypeError(f"not a formula: {g!r}")
        cache[id(g)] = v
        return v

    out = go(f)
    for name in missing:
        # after the walk, so the warning points at the caller
        warnings.warn(f"atom {name!r} has no valuation, defaulting to the "
                      "empty set", MissingAtomWarning, stacklevel=2)
    return out


def mask_where(n: int, pred) -> int:
    mask = 0
    for s in range(n):
        if pred(s):
            mask |= 1 << s
    return mask


def eval_formula(m: CJModel, s: int, f: Formula) -> bool:
    """Truth of f at world s."""
    if not 0 <= s < m.n:
        raise ValueError(f"world index {s} out of range 0..{m.n - 1}")
    return bool(truth_set(m, f) >> s & 1)


def valid_in_model(m: CJModel, f: Formula) -> bool:
    """True iff f holds at every world of the model."""
    return truth_set(m, f) == full_mask(m.n)
