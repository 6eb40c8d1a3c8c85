"""Bounded validity checking by countermodel search over finite models.

The search is exhaustive up to three worlds and sampled at four
(`n_max=4`).  A miss is therefore never a validity proof; the verdict
type says so explicitly.

A valid model is a frame (av, pv), an ob table, which is empty or ob_S
for one set S of ideal worlds (see `ddlkit.model`), and a valuation.
The formula is compiled once into post-order operations, one per
distinct subformula.  They run over all 2**(n*k) valuations of its k
atoms and a chunk of C consecutive (frame, table) pairs at once: each
world holds one integer, whose bit v*C + c (the lane) is the truth at
that world under valuation v of pair c (bit-slicing, after Biham, "A
fast new DES implementation in software", FSE 1997, applied to the
pairs as well as the valuations).  Valuation v gives the i-th atom in
sorted order the worlds (v >> (k-1-i)*n) & W, which is the order of
itertools.product with the first atom most significant.  The chunk's
frames and tables enter as masks with one bit per pair, such as the
pairs whose av(s) holds t, replicated to every valuation by one
multiplication; [a]x at s is then the AND over t of (x at t) OR (the
lanes of the pairs without t in av(s)).  A mask of no pair is skipped
and one of every pair needs no lanes, so a chunk of one pair costs what
sweeping one pair alone did.  A chunk holds at most LANE_BUDGET lanes,
so C is 1 once one pair's valuations fill the budget.

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
over the 2**n + 1 tables, and sweeps them in order in the same chunks;
each draw still covers every valuation.  As every smaller model was
swept, a four-world hit has no countermodel on fewer worlds.
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
                     Or, children, postorder)

# Bound on n_max times the number of atoms: a model on n worlds has
# 2**(n*k) valuations, one bit each.  The theorem ([p]x -> [a]x) | Op x,
# x the disjunction of k atoms, took 0.9-1.1 s at k = 6 on 3 worlds, and
# 10 s and 46 MB at k = 7, on a 2-vCPU machine (1.2-1.3 s and 28 s
# sweeping one pair at a time).
MAX_LANE_BITS = 18

# Lanes (bits) per chunk of pairs swept at once.  The 25 verdicts of
# perfbench/search_corpus.tsv took 2.7-2.9 ms in all at this budget, in
# one process on a 2-vCPU machine: 2.5-3.2 ms at 2**10 and 2**11,
# 2.8-3.3 ms at 2**13, 3.3-4.0 ms at 2**14 and 5.1-6.3 ms at 2**16, as a
# larger chunk sweeps more pairs past an early hit (`Oa p -> Op p`:
# 0.3 ms here, 2.9 ms at 2**16).  Larger budgets do speed up long
# sweeps: ([p]x -> [a]x) | Op x, x the disjunction of 4 atoms, took
# 43 ms here and 24 ms at 2**16.
LANE_BUDGET = 1 << 12

# Bound on the draws of the sampled tier, whose repeats are remembered
# to be skipped.  At the bound, on a 2-vCPU machine, `Oa p -> <a>~p`
# took 1.2 s and 41 MB (peak RSS of the process) at 4 worlds, and
# ([p]x -> [a]x) | Op x, x the disjunction of 4 atoms (the lane bound at
# 4 worlds), 10-12 s and 44 MB.
MAX_SAMPLES = 100_000


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
    returned: the first frame and table in sweep order with one, then
    its lowest falsified valuation lane, then the lowest world.
    Deterministic for fixed arguments; every returned countermodel is
    re-checked before being reported.
    """
    if not 1 <= n_max <= 4:
        raise ValueError(f"n_max must be in 1..4, got {n_max}")
    if samples < 0:
        raise ValueError("samples must be nonnegative")
    if samples > MAX_SAMPLES:
        raise ValueError(f"samples must be at most {MAX_SAMPLES:,}")
    ops, uses, names = _compile(f)
    k = len(names)
    if n_max * k > MAX_LANE_BITS:
        raise ValueError(
            f"{k} atoms on up to {n_max} worlds: the search takes "
            f"at most {MAX_LANE_BITS // n_max} atoms at this world bound")
    for n in range(1, n_max + 1):
        if n <= EXHAUSTIVE_WORLDS:
            size = _chunk_size(n, k, len(_representatives(n, *uses)))
            chunks = _orbit_chunks(n, uses, size)
        else:
            size = _chunk_size(n, k, samples)
            chunks = _drawn_chunks(n, uses, samples, seed, size)
        for pairs, missed in _sweep(ops, k, n, size, chunks):
            hit = _first_miss(missed, k, n, size)
            if hit is not None:
                c, v, s = hit
                av, pv, ideal = pairs[c]
                full = full_mask(n)
                val = {a: v >> (k - 1 - i) * n & full
                       for i, a in enumerate(names)}
                ob = {} if ideal is None else ideal_ob(n, ideal)
                return _certify(CJModel(n, av, pv, ob, val), s, f)
    return None


def verdict(f: Formula, n_max: int = 3, samples: int = 1000,
            seed: int = 0) -> Verdict:
    """Wrap the search result, keeping the boundedness explicit."""
    found = find_countermodel(f, n_max, samples, seed)
    if found is not None:
        return CounterModel(*found)
    # with no samples, no model beyond the exhaustive tier was drawn
    sampled = n_max if n_max > EXHAUSTIVE_WORLDS and samples else None
    return NoCounterexampleUpTo(min(n_max, EXHAUSTIVE_WORLDS), sampled)


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


def _compile(f: Formula):
    """Post-order operations (code, x, y), one per distinct subformula
    (`postorder`), which of av, pv and ob the formula mentions, and its
    atom names, sorted, from one walk of f.

    x and y index earlier operations (x is the context of O(y/x)); an
    atom's x is its index in the names.
    """
    index: dict[int, int] = {}
    ops: list[tuple[int, int, int]] = []
    order = postorder(f)
    names = sorted({g.name for g in order if isinstance(g, Atom)})
    for g in order:
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
    return ops, uses, names


def _chunk_size(n: int, k: int, count: int) -> int:
    """Pairs per chunk for `count` pairs on n worlds and k atoms: as few
    chunks as keep each within LANE_BUDGET lanes (or one pair), with
    the pairs spread evenly over them, so the last chunk is nearly full."""
    most = max(1, LANE_BUDGET >> n * k)
    chunks = -(-count // most)
    return -(-count // chunks) if chunks else 1


def _orbit_chunks(n: int, uses: tuple[bool, bool, bool], size: int):
    """The `_representatives` pairs in chunks of `size`, with their masks."""
    pairs = _representatives(n, *uses)
    for start in range(0, len(pairs), size):
        yield pairs[start:start + size], _orbit_masks(n, *uses, size, start)


@functools.cache
def _orbit_masks(n: int, use_av: bool, use_pv: bool, use_ob: bool,
                 size: int, start: int):
    """`_masks` of the `size` orbit pairs from `start` on.  Built when a
    sweep first reaches them, so a search that hits early builds only
    the chunks it swept.

    The cache is unbounded.  Orbit sweeps stop at 3 worlds, so its key
    set is finite: every chunk of all eight component mixes at 1-6
    atoms, built in one process, made 6,502 entries and took peak RSS
    from 16.8 to 20.6 MB.  A 4-world orbit tier needs a bound first."""
    pairs = _representatives(n, use_av, use_pv, use_ob)
    return _masks(n, pairs[start:start + size])


def _drawn_chunks(n: int, uses: tuple[bool, bool, bool], samples: int,
                  seed: int, size: int):
    """The `_sampled` draws, in order, in chunks of `size`, with their
    masks."""
    draws = _sampled(n, *uses, samples, seed)
    while chunk := tuple(itertools.islice(draws, size)):
        yield chunk, _masks(n, chunk)


# Per set of worlds (a mask on up to 4 worlds), (t, 1) for each world t
# in it: the rows of `_masks` for a chunk of one pair, which every chunk
# is from 4 atoms on 3 worlds.  Without this fork, building such a chunk
# took 6 times as long, and a first search over 4 atoms 2 times as long
# and 5 MB more, as no chunk shared its rows.
_UNIT_ROWS = tuple(tuple((t, 1) for t in world_list(m)) for m in range(16))


def _masks(n: int, pairs) -> tuple:
    """(av, pv, ideal, has) for a chunk of (av, pv, ideal) pairs, as masks
    with bit c for pairs[c]: av[s] lists (t, mask) for each world t in
    av(s) of some pair, the mask marking those pairs, and pv[s] likewise;
    ideal[t] marks the pairs with a table ob_S and t in S, and has the
    pairs with a table (ideal not None)."""
    if len(pairs) == 1:
        [(a, p, i)] = pairs
        return (tuple(_UNIT_ROWS[m] for m in a),
                tuple(_UNIT_ROWS[m] for m in p),
                tuple(0 if i is None else i >> t & 1 for t in range(n)),
                int(i is not None))
    # first mark the pairs by the value each component takes (ideal None
    # as -1), then give each world the union over the values holding it
    # (per pair and world, the cold search corpus took 30-32 ms, not 24)
    by_value = [{} for _ in range(2 * n)]  # av(0..n-1), then pv(0..n-1)
    by_ideal = {}
    for c, (a, p, i) in enumerate(pairs):
        bit = 1 << c
        for s in range(n):
            by_av, by_pv = by_value[s], by_value[n + s]
            by_av[a[s]] = by_av.get(a[s], 0) | bit
            by_pv[p[s]] = by_pv.get(p[s], 0) | bit
        i = -1 if i is None else i
        by_ideal[i] = by_ideal.get(i, 0) | bit
    no_table = by_ideal.pop(-1, 0)
    rows = []
    for values in (*by_value, by_ideal):
        row = [0] * n
        for value, m in values.items():
            for t in world_list(value):
                row[t] |= m
        rows.append(row)
    return (tuple(tuple((t, m) for t, m in enumerate(row) if m)
                  for row in rows[:n]),
            tuple(tuple((t, m) for t, m in enumerate(row) if m)
                  for row in rows[n:-1]),
            tuple(rows[-1]), ((1 << len(pairs)) - 1) ^ no_table)


def _tile(unit: int, width: int, lanes: int) -> int:
    """The `width`-bit pattern `unit` repeated over `lanes` bits, lanes
    being width times a power of two."""
    while width < lanes:
        unit |= unit << width
        width <<= 1
    return unit


# The 25 formulas of perfbench/search_corpus.tsv read 24 entries.
@functools.lru_cache(maxsize=64)
def _lanes(k: int, n: int, size: int):
    """(every, rep, patterns) for chunks of `size` pairs on n worlds and k
    atoms: every lane, the lanes v*size of pair 0, and per atom x the
    lanes where it holds at each world w, those whose valuation has bit
    b = (k-1-x)*n + w set."""
    lanes = size << n * k
    patterns = []
    for x in range(k):
        # the upper halves of runs of 2*h lanes, h = size << b
        patterns.append(tuple(_tile(((1 << h) - 1) << h, 2 * h, lanes)
                              for h in (size << b
                                        for b in range((k - 1 - x) * n,
                                                       (k - x) * n))))
    return (1 << lanes) - 1, _tile(1, size, lanes), tuple(patterns)


def _sweep(ops, k: int, n: int, size: int, chunks):
    """For each chunk of (frame, table) pairs, yield (pairs, missed):
    missed[w] holds the lanes v*size + c where the last operation is
    false at world w under valuation v of pairs[c].  `chunks` yields
    (pairs, masks), at most `size` pairs with their `_masks`."""
    every, rep, patterns = _lanes(k, n, size)
    full = (1 << size) - 1
    vals: list = [()] * len(ops)
    # varying: at or above [a], [p], O, Oa or Op; the rest runs once per
    # sweep (per chunk, a 4-atom theorem took 62 ms, not 35 ms)
    fixed, varying = [], []
    moving: set[int] = set()
    for i, (code, x, y) in enumerate(ops):
        if code == _ATOM:
            vals[i] = patterns[x]
        elif code >= _BOXA or x in moving or y in moving:
            moving.add(i)
            varying.append((i, code, x, y))
        else:
            fixed.append((i, code, x, y))
    _run(fixed, vals, n, every, None, full, rep)
    for pairs, masks in chunks:
        _run(varying, vals, n, every, masks, full, rep)
        missed = [every ^ lanes for lanes in vals[-1]]
        if len(pairs) < size:
            live = ((1 << len(pairs)) - 1) * rep
            missed = [lanes & live for lanes in missed]
        yield pairs, missed


def _run(ops, vals, n: int, every: int, masks, full: int, rep: int) -> None:
    """Evaluate the operations (index, code, x, y) into `vals`.  `masks`
    are the chunk's `_masks`: a mask of 0 is skipped, one of `full` (all
    pairs) needs no lanes, and any other is multiplied by `rep`."""
    av, pv, ideal, has = masks or (None,) * 4
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
            # [a]x at s: x at each t in av(s), the lanes of the pairs
            # without t excepted
            out = []
            for row in (pv if code == _BOXP else av):
                a = every
                for t, m in row:
                    a &= sub[t] if m == full else sub[t] | (full ^ m) * rep
                out.append(a)
        elif not has:
            out = [0] * n  # no pair has a table: the empty one obliges nothing
        elif code == _OB:
            # O(y/x): y meets x somewhere, and no ideal x-world lacks y
            cons = vals[y]
            meets = lacks = 0
            for w, m in enumerate(ideal):
                meets |= sub[w] & cons[w]
                if m:
                    a = sub[w] & ~cons[w]
                    lacks |= a if m == full else a & m * rep
            a = meets & ~lacks
            out = [a if has == full else a & has * rep] * n
        else:
            # Oa x at s: x meets av(s), misses part of it, and holds at
            # every ideal world of it; Op x the same with pv(s)
            out = []
            for row in (pv if code == _OBP else av):
                meets, all_of, ideal_part = 0, every, every
                for t, m in row:
                    a = sub[t]
                    if m == full:
                        meets |= a
                        all_of &= a
                    else:
                        meets |= a & m * rep
                        all_of &= a | (full ^ m) * rep
                    m &= ideal[t]
                    if m == full:
                        ideal_part &= a
                    elif m:
                        ideal_part &= a | (full ^ m) * rep
                a = meets & ~all_of & ideal_part
                out.append(a if has == full else a & has * rep)
        vals[i] = out


def _first_miss(missed: list[int], k: int, n: int,
                size: int) -> tuple[int, int, int] | None:
    """(c, v, s) for the first miss of a chunk's `_sweep` lanes: the first
    pair c with one, its lowest valuation v, then the lowest world s."""
    union = 0
    for m in missed:
        union |= m
    if not union:
        return None
    every, rep, _ = _lanes(k, n, size)
    # fold the valuations onto bits 0..size-1, bit c marking a miss of
    # pair c, then keep the lanes of the first such pair
    folded, width = union, every.bit_length()
    while width > size:
        width >>= 1
        folded = folded & (1 << width) - 1 | folded >> width
    c = (folded & -folded).bit_length() - 1
    union = union >> c & rep
    lane = (union & -union).bit_length() - 1 + c
    for s, m in enumerate(missed):
        if m >> lane & 1:
            return c, lane // size, s


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
    """(av, pv, ideal) pairs, per canonical frame in order: the frame is
    the least of its orbit under world permutations, and ideal is None
    (the empty table) and then each S least under the permutations
    fixing the frame.  Together they meet every orbit of (frame, table)
    once."""
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
            av, pv = tuple(a for a, _ in frame), tuple(p for _, p in frame)
            out += ((av, pv, i) for i in (None, *ideals)
                    if i is None or all(image[i] >= i for image in fixing))
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
            yield drawn
