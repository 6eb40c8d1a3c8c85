"""Bounded validity checking by countermodel search over finite models.

The search is exhaustive up to three worlds and sampled at four
(`n_max=4`).  A miss is therefore never a validity proof; the verdict
type says so explicitly.

A valid model is a frame (av, pv), an ob table, which is empty or ob_S
for one set S of ideal worlds (see `ddlkit.model`), and a valuation.
The formula is compiled once into post-order operations, one per
distinct subformula.  For one frame and table they run over all
2**(n*k) valuations of its k atoms at once: each world holds one
integer, whose bit v is the truth at that world under valuation v
(bit-slicing, after Biham, "A fast new DES implementation in software",
FSE 1997).  Lane v gives the i-th atom in sorted order the worlds
(v >> (k-1-i)*n) & W, which is the order of itertools.product with the
first atom most significant.

Only the components the formula mentions vary: av if it has [a] or Oa,
pv if it has [p] or Op, the table if it has O, Oa or Op.  The others
keep the defaults pv(s) = W, av(s) = {s} and ob = {}, which are valid
with whatever the varied components take and are fixed by every
permutation of the worlds.  A permutation maps a countermodel to a
countermodel, with the permuted valuation in another lane, so one
(frame, table) per orbit is enough, as in MACE-style model finders
(Claessen & Sörensson, "New techniques that improve MACE-style finite
model finding", 2003): the least frame of its orbit, then the least S
under the permutations that fix that frame.

At four worlds the search draws `samples` frames and tables, S uniform
over the 2**n + 1 tables; each draw still covers every valuation.  As
every smaller model was swept, a four-world hit has no countermodel on
fewer worlds.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass

from .checker import truth_set
from .model import (CJModel, frame_choices, full_mask, ideal_ob, ideal_sets,
                    mask_of, validate, world_list)
from .syntax import (Atom, Box, BoxA, BoxP, Formula, Not, ObA, ObDyadic, ObP,
                     Or, atoms, children, postorder)

# Bound on n_max times the number of atoms: a model on n worlds has
# 2**(n*k) valuations, one bit each.  The theorem ([p]x -> [a]x) | Op x,
# x the disjunction of k atoms, took 1.4 s at k = 6 on 3 worlds, and
# 32 s and 55 MB at k = 7, on a 2-vCPU machine.
MAX_LANE_BITS = 18


@dataclass(frozen=True)
class CounterModel:
    model: CJModel
    world: int


# World counts up to this are swept exhaustively; beyond, sampled.
EXHAUSTIVE_WORLDS = 3


@dataclass(frozen=True)
class NoCounterexampleUpTo:
    """No countermodel on up to `exhaustive` worlds, where every model
    was swept, nor among the models drawn on `sampled` worlds, if the
    search went beyond the exhaustive tier."""

    exhaustive: int
    sampled: int | None = None

    @property
    def n_max(self) -> int:
        """The largest world count searched."""
        return self.sampled or self.exhaustive


Verdict = CounterModel | NoCounterexampleUpTo


def find_countermodel(f: Formula, n_max: int = 3, samples: int = 1000,
                      seed: int = 0) -> tuple[CJModel, int] | None:
    """A valid model and world where f fails, or None within the budget.

    Sweeps one frame and table per orbit of world permutations, with
    every valuation, on 1 to min(3, n_max) worlds; with n_max = 4 it then
    draws `samples` frames and tables on four worlds.  The first hit is
    returned: the lowest falsified valuation lane, then the lowest world.
    Deterministic for fixed arguments; every returned countermodel is
    re-checked before being reported.
    """
    if not 1 <= n_max <= 4:
        raise ValueError(f"n_max must be in 1..4, got {n_max}")
    if samples < 0:
        raise ValueError("samples must be nonnegative")
    names = sorted(atoms(f))
    if n_max * len(names) > MAX_LANE_BITS:
        raise ValueError(
            f"{len(names)} atoms on up to {n_max} worlds: the search takes "
            f"at most {MAX_LANE_BITS // n_max} atoms at this world bound")
    ops, uses = _compile(f, names)
    for n in range(1, n_max + 1):
        candidates = (_representatives(n, *uses) if n <= EXHAUSTIVE_WORLDS
                      else _sampled(n, *uses, samples, seed))
        for av, pv, ideal, missed in _sweep(ops, len(names), n, candidates):
            union = 0
            for lanes in missed:
                union |= lanes
            if union:
                lane = (union & -union).bit_length() - 1
                s = next(w for w in range(n) if missed[w] >> lane & 1)
                full = full_mask(n)
                val = {a: lane >> (len(names) - 1 - i) * n & full
                       for i, a in enumerate(names)}
                ob = {} if ideal is None else ideal_ob(n, ideal)
                return _certify(CJModel(n, av, pv, ob, val), s, f)
    return None


def verdict(f: Formula, n_max: int = 3, samples: int = 1000,
            seed: int = 0) -> Verdict:
    """Wrap the search result, keeping the boundedness explicit."""
    found = find_countermodel(f, n_max, samples, seed)
    if found is None:
        if n_max <= EXHAUSTIVE_WORLDS:
            return NoCounterexampleUpTo(n_max)
        return NoCounterexampleUpTo(EXHAUSTIVE_WORLDS, n_max)
    return CounterModel(*found)


def _certify(m: CJModel, s: int, f: Formula) -> tuple[CJModel, int]:
    # re-check the certificate before handing it out
    if not validate(m).ok:
        raise AssertionError("search produced an invalid model")
    if truth_set(m, f) >> s & 1:
        raise AssertionError("search produced a non-countermodel")
    return m, s


# the codes from _BOXA on read the frame or the table
_ATOM, _NOT, _OR, _BOX, _BOXA, _BOXP, _OB, _OBA, _OBP = range(9)
_CODES = {Not: _NOT, Or: _OR, Box: _BOX, BoxA: _BOXA, BoxP: _BOXP,
          ObDyadic: _OB, ObA: _OBA, ObP: _OBP}


def _compile(f: Formula, names: list[str]):
    """Post-order operations (code, x, y), one per distinct subformula
    (`postorder`), and which of av, pv and ob the formula mentions.

    x and y index earlier operations (x is the context of O(y/x)); an
    atom's x is its index in `names`.
    """
    index: dict[int, int] = {}
    ops: list[tuple[int, int, int]] = []
    for g in postorder(f):
        if isinstance(g, Atom):
            op = (_ATOM, names.index(g.name), 0)
        else:
            kids = children(g)
            op = (_CODES[type(g)], index[id(kids[0])], index[id(kids[-1])])
        index[id(g)] = len(ops)
        ops.append(op)
    codes = {code for code, _, _ in ops}
    uses = (bool(codes & {_BOXA, _OBA}), bool(codes & {_BOXP, _OBP}),
            bool(codes & {_OB, _OBA, _OBP}))
    return ops, uses


def _sweep(ops, k: int, n: int, candidates):
    """For each candidate frame and table, yield (av, pv, ideal, missed):
    missed[w] holds the lanes where the last operation is false at world
    w.  `candidates` yields (av, pv, ideals), ideal None standing for the
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
    _run(fixed, vals, n, every, None, None)
    for av, pv, ideals in candidates:
        # frame[0][s] lists av(s), frame[1][s] lists pv(s)
        frame = ([world_list(a) for a in av], [world_list(p) for p in pv])
        for ideal in ideals:
            _run(varying, vals, n, every, frame, ideal)
            yield av, pv, ideal, [every ^ lanes for lanes in vals[-1]]


def _run(ops, vals, n: int, every: int, frame, ideal: int | None) -> None:
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


def _world_options(n: int, use_av: bool,
                   use_pv: bool) -> list[list[tuple[int, int]]]:
    """Per world s, the (av(s), pv(s)) pairs to try; a component not
    varied keeps its default."""
    full = full_mask(n)
    return [[(a, p) for a, p in options
             if (use_av or a == 1 << s) and (use_pv or p == full)]
            for s, options in enumerate(frame_choices(n))]


@functools.cache
def _representatives(n: int, use_av: bool, use_pv: bool,
                     use_ob: bool) -> tuple[tuple, ...]:
    """One (av, pv, ideals) per canonical frame: the frame is the least
    of its orbit under world permutations, and `ideals` holds None (the
    empty table) and then each S least under the permutations fixing
    the frame.  Together they meet every orbit of (frame, table) once."""
    perms = list(itertools.permutations(range(n)))
    images = [[mask_of(perm[w] for w in world_list(mask))
               for mask in range(1 << n)] for perm in perms]
    ideals = ideal_sets(n) if use_ob else ()
    out = []
    for frame in itertools.product(*_world_options(n, use_av, use_pv)):
        fixing = []
        for perm, image in zip(perms, images):
            moved = [(0, 0)] * n
            for s, (a, p) in enumerate(frame):
                moved[perm[s]] = (image[a], image[p])
            moved = tuple(moved)
            if moved < frame:
                break
            if moved == frame:
                fixing.append(image)
        else:
            out.append((tuple(a for a, _ in frame), tuple(p for _, p in frame),
                        (None, *(i for i in ideals
                                 if all(image[i] >= i for image in fixing)))))
    return tuple(out)


def _sampled(n: int, use_av: bool, use_pv: bool, use_ob: bool,
             samples: int, seed: int):
    """`samples` seeded draws of a frame, uniform per world over its
    options, and a table, uniform over the empty one and every ob_S.
    A draw already swept is skipped, but still drawn, so the draws after
    it do not move."""
    rng = random.Random(seed)
    options = _world_options(n, use_av, use_pv)
    tables = (None, *ideal_sets(n)) if use_ob else (None,)
    seen = set()
    for _ in range(samples):
        frame = [rng.choice(opts) for opts in options]
        drawn = (tuple(a for a, _ in frame), tuple(p for _, p in frame),
                 rng.choice(tables))
        if drawn not in seen:
            seen.add(drawn)
            yield drawn[0], drawn[1], drawn[2:]
