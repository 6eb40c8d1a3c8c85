"""Finite models for the dyadic deontic logic.

A model is a structure over worlds 0..n-1 with

    av : world -> nonempty set of worlds   (actual versions)
    pv : world -> set of worlds            (potential versions)
    ob : proposition -> set of propositions ("obligatory in context")
    val: atom name -> proposition

subject to av(s) != {} and av(s) <= pv(s) and s in pv(s), plus five
closure conditions on ob (see `validate`).  Propositions are bitmasks
over world indices.

The ob table is stored in trace-canonical form: for a context X, only
nonempty subsets of X are kept, and a proposition Y counts as a member
of ob(X) iff its trace Y & X is stored.  Membership then depends only on
Y & X, which builds the first two ob conditions into the representation.
A consequence is that ob(empty context) is always empty: no nonempty
trace fits inside the empty set.

Every valid ob table on worlds W is empty or, for one set S of ideal
worlds (unique when n >= 2), ob_S(X) = {u : S & X <= u <= X, u != {}}.
Proof: condition 4 lifts t in ob(X) to (W - X) | t in ob(W) and
condition 5 brings it back, so the table is fixed by F = ob(W).  F is
upward closed (condition 5, then 4) and closed under nonempty meets
(condition 3), so its minimal members are disjoint.  If there are two,
m and m', then m | {w} and (W - m) | {w}, a superset of m', are in F
and meet in {w}, so F holds every singleton (S = {}); if there is one,
it is S.  The tests check that each ob_S is valid.  So there are
2**n + 1 tables for n >= 2 and 2 for n = 1.  As ob_S shrinks when S
grows, the least valid table holding a nonempty trace table R is ob_S
for S = W - union{X - t : t in R(X)}; `random_model` draws its table
that way.
"""

from __future__ import annotations

import functools
import itertools
import json
import random
import re
import warnings
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from .syntax import RESERVED_ATOMS


class ModelError(Exception):
    pass


class ModelStructureError(ModelError):
    """A bitmask refers to worlds outside 0..n-1, or a field has a bad shape."""


class ModelFormatError(ModelError):
    """Model JSON could not be decoded; the message names the offending path."""


class InvalidModelError(ModelError):
    """A loaded model violates the model conditions."""

    def __init__(self, report: "ValidationReport"):
        self.report = report
        super().__init__(f"invalid model:\n{report}")


class ModelWarning(UserWarning):
    pass


# Validation time grows as 2**n even for one ob entry.  On one core of a
# shared 2-vCPU machine that was 14 s at 20 worlds, and a full ob table
# loaded and validated in 0.25 s at 8 worlds and 1.1 s at 9.
MAX_WORLDS = 8
DENSITIES = (0.0, 0.15, 0.3, 0.5)  # ob densities the samplers draw


def full_mask(n: int) -> int:
    return (1 << n) - 1


def world_list(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def mask_of(worlds: Iterable[int]) -> int:
    m = 0
    for w in worlds:
        m |= 1 << w
    return m


def fmt_prop(mask: int) -> str:
    return "{" + ",".join(str(i) for i in world_list(mask)) + "}"


def subsets(mask: int) -> Iterator[int]:
    """All submasks of mask, ascending, including 0 and mask itself."""
    subs = [0]
    for i in world_list(mask):
        subs += [s | (1 << i) for s in subs]
    return iter(sorted(subs))


@dataclass(frozen=True)
class CJModel:
    """Immutable finite model; `ob` maps context masks to trace sets."""

    n: int
    av: tuple[int, ...]
    pv: tuple[int, ...]
    ob: Mapping[int, frozenset[int]]
    val: Mapping[str, int]


def ob_member(m: CJModel, context: int, member: int) -> bool:
    """Membership of a proposition in ob(context) via its trace."""
    trace = member & context
    return trace != 0 and trace in m.ob.get(context, _EMPTY)


_EMPTY: frozenset[int] = frozenset()


@dataclass(frozen=True)
class Violation:
    condition: str
    message: str

    def __str__(self) -> str:
        return f"{self.condition}: {self.message}"


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def conditions(self) -> set[str]:
        return {v.condition for v in self.violations}

    def __str__(self) -> str:
        if self.ok:
            return "valid"
        return "\n".join(str(v) for v in self.violations)


def _check_structure(m: CJModel) -> None:
    if m.n < 1:
        raise ModelStructureError(f"world count must be >= 1, got {m.n}")
    full = full_mask(m.n)
    if len(m.av) != m.n or len(m.pv) != m.n:
        raise ModelStructureError("av/pv must assign one set per world")
    for name, masks in (("av", m.av), ("pv", m.pv)):
        for s, mask in enumerate(masks):
            if mask & ~full:
                raise ModelStructureError(
                    f"{name}({s}) = {fmt_prop(mask)} exceeds {m.n} worlds")
    for atom, mask in m.val.items():
        if mask & ~full:
            raise ModelStructureError(
                f"val({atom}) = {fmt_prop(mask)} exceeds {m.n} worlds")
    for context, traces in m.ob.items():
        if context & ~full:
            raise ModelStructureError(
                f"ob context {fmt_prop(context)} exceeds {m.n} worlds")
        for trace in traces:
            if trace & ~full:
                raise ModelStructureError(
                    f"ob member {fmt_prop(trace)} exceeds {m.n} worlds")


def _ob_violations(ob: Mapping[int, frozenset[int]],
                   n: int) -> Iterator[Violation]:
    """Check the five ob conditions on a trace-canonical table.

    Conditions 1 and 2 reduce to a canonical-form audit.  Condition 3 is
    checked as closure under pairwise intersection, which is equivalent
    to the arbitrary-family version: the intersection of any nonempty
    family of traces is reached by folding pairwise, and partial
    intersections can only be supersets of the full one, so they stay
    nonempty whenever the full one does.  Conditions 4 and 5 quantify
    over all propositions, but only stored traces can realize their
    membership hypotheses, so the loops below cover every non-vacuous
    instance.
    """
    full = full_mask(n)
    for context in sorted(ob):
        for trace in sorted(ob[context]):
            if trace == 0:
                yield Violation(
                    "ob1", f"empty set stored as member of ob({fmt_prop(context)})")
            elif trace & ~context:
                yield Violation(
                    "ob2", f"member {fmt_prop(trace)} of ob({fmt_prop(context)}) "
                           "is not a trace (not a subset of its context)")
    for context in sorted(ob):
        traces = sorted(t for t in ob[context] if t and not t & ~context)
        for t1, t2 in itertools.combinations(traces, 2):
            both = t1 & t2
            if both and both not in ob[context]:
                yield Violation(
                    "ob3", f"ob({fmt_prop(context)}) contains {fmt_prop(t1)} and "
                           f"{fmt_prop(t2)} but not their intersection {fmt_prop(both)}")
        for y in traces:
            for extra in subsets(full & ~context):
                z = context | extra
                demanded = (z & ~context) | y
                if demanded not in ob.get(z, _EMPTY):
                    yield Violation(
                        "ob4", f"Y={fmt_prop(y)} in ob(X={fmt_prop(context)}) and "
                               f"X subset of Z={fmt_prop(z)}, but "
                               f"(Z\\X)∪Y={fmt_prop(demanded)} ∉ ob(Z)")
        for w in traces:
            for y in subsets(context):
                t = w & y
                if y and t and t not in ob.get(y, _EMPTY):
                    yield Violation(
                        "ob5", f"Z={fmt_prop(w)} in ob(X={fmt_prop(context)}) with "
                               f"Y={fmt_prop(y)} subset of X and Y∩Z nonempty, "
                               f"but Z ∉ ob(Y)")


def validate(m: CJModel) -> ValidationReport:
    """Report every violated model condition with a concrete witness.

    Raises ModelStructureError for out-of-range bitmasks; everything else
    is reported, and an empty report means the model is well formed.
    """
    _check_structure(m)
    out: list[Violation] = []
    for s in range(m.n):
        if m.av[s] == 0:
            out.append(Violation("av-nonempty", f"av({s}) is empty"))
        if m.av[s] & ~m.pv[s]:
            out.append(Violation(
                "pv1", f"av({s})={fmt_prop(m.av[s])} is not a subset of "
                       f"pv({s})={fmt_prop(m.pv[s])}"))
        if not m.pv[s] >> s & 1:
            out.append(Violation("pv2", f"world {s} not in pv({s})={fmt_prop(m.pv[s])}"))
    out.extend(_ob_violations(m.ob, m.n))
    return ValidationReport(tuple(out))


def canonicalize(raw: Mapping[int, Iterable[int]],
                 n: int) -> tuple[dict[int, frozenset[int]], list[str]]:
    """Quotient a raw ob table to trace-canonical form.

    Each member Y of raw[X] is replaced by its trace Y & X; empty traces
    are dropped with a warning (keeping them would make the empty set a
    member), duplicates merge, and contexts left without members are
    omitted.  Idempotent.
    """
    full = full_mask(n)
    out: dict[int, frozenset[int]] = {}
    notes: list[str] = []
    for context in sorted(raw):
        if context & ~full:
            raise ModelStructureError(
                f"ob context {fmt_prop(context)} exceeds {n} worlds")
        traces = set()
        for member in sorted(raw[context]):
            if member & ~full:
                raise ModelStructureError(
                    f"ob member {fmt_prop(member)} exceeds {n} worlds")
            trace = member & context
            if trace == 0:
                notes.append(
                    f"empty trace dropped: member {fmt_prop(member)} of "
                    f"ob({fmt_prop(context)}) does not meet its context")
            else:
                traces.add(trace)
        if traces:
            out[context] = frozenset(traces)
    return out, notes


_IDENT = re.compile(r"[a-z][a-zA-Z0-9_]*\Z")


def _require(cond: bool, path: str, msg: str) -> None:
    if not cond:
        raise ModelFormatError(f"{path}: {msg}")


def _mask_from_json(worlds, n: int, path: str) -> int:
    _require(isinstance(worlds, list), path, "expected a list of world indices")
    mask = 0
    for i, w in enumerate(worlds):
        _require(isinstance(w, int) and not isinstance(w, bool),
                 f"{path}[{i}]", "expected an integer world index")
        _require(0 <= w < n, f"{path}[{i}]", f"world {w} out of range 0..{n - 1}")
        mask |= 1 << w
    return mask


def load_model(data: bytes | str, allow_invalid: bool = False) -> CJModel:
    """Decode model JSON, canonicalize ob, and validate.

    Dropped ob members are reported through ModelWarning.  Unless
    allow_invalid is set, a model with a nonempty validation report is
    rejected with InvalidModelError.
    """
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        obj = json.loads(data)
    except json.JSONDecodeError as e:
        raise ModelFormatError(f"not valid JSON: {e}") from e
    except RecursionError as e:
        raise ModelFormatError("not valid JSON: nested too deeply") from e
    _require(isinstance(obj, dict), "$", "expected a JSON object")
    n = obj.get("worlds")
    _require(isinstance(n, int) and not isinstance(n, bool) and n >= 1,
             "worlds", "expected an integer >= 1")
    _require(n <= MAX_WORLDS, "worlds",
             f"at most {MAX_WORLDS} worlds are supported, got {n}")
    out_av, out_pv = [], []
    for name, sink in (("av", out_av), ("pv", out_pv)):
        rows = obj.get(name)
        _require(isinstance(rows, list) and len(rows) == n,
                 name, f"expected a list of {n} world lists")
        for s, row in enumerate(rows):
            sink.append(_mask_from_json(row, n, f"{name}[{s}]"))
    raw_ob: dict[int, set[int]] = {}
    entries = obj.get("ob", [])
    _require(isinstance(entries, list), "ob", "expected a list of entries")
    for i, entry in enumerate(entries):
        _require(isinstance(entry, dict), f"ob[{i}]", "expected an object")
        context = _mask_from_json(entry.get("context"), n, f"ob[{i}].context")
        members = entry.get("members")
        _require(isinstance(members, list), f"ob[{i}].members", "expected a list")
        bucket = raw_ob.setdefault(context, set())
        for j, member in enumerate(members):
            bucket.add(_mask_from_json(member, n, f"ob[{i}].members[{j}]"))
    val_obj = obj.get("val", {})
    _require(isinstance(val_obj, dict), "val", "expected an object")
    val: dict[str, int] = {}
    for atom in sorted(val_obj):
        _require(isinstance(atom, str) and _IDENT.match(atom) is not None,
                 f"val.{atom}", "atom names must match [a-z][a-zA-Z0-9_]*")
        _require(atom not in RESERVED_ATOMS, f"val.{atom}",
                 "atom name is reserved for a signature constant")
        val[atom] = _mask_from_json(val_obj[atom], n, f"val.{atom}")
    ob, notes = canonicalize(raw_ob, n)
    for note in notes:
        warnings.warn(note, ModelWarning, stacklevel=2)
    m = CJModel(n, tuple(out_av), tuple(out_pv), ob, val)
    report = validate(m)
    if not report.ok and not allow_invalid:
        raise InvalidModelError(report)
    return m


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


def model_json(m: CJModel) -> str:
    """One-line JSON rendering, for log and report lines."""
    return json.dumps(json.loads(save_model(m)), separators=(",", ":"))


@functools.cache
def ideal_ob(n: int, ideal: int) -> dict[int, frozenset[int]]:
    """The table ob_S for S = ideal on n worlds.  Cached, so models share
    the returned dict; callers must not mutate it."""
    return {x: frozenset(u for u in subsets(x) if u and not ideal & x & ~u)
            for x in range(1, full_mask(n) + 1)}


def ideal_sets(n: int) -> range | tuple[int]:
    """Each set S of ideal worlds once per distinct table ob_S on n
    worlds: every S, except that on one world S = {} and S = {0} give
    the same table."""
    return range(1 << n) if n > 1 else (0,)


def random_model(n: int, atom_names: Iterable[str], seed: int,
                 density: float = 0.3) -> CJModel:
    """Draw a valid model: sample a frame and raw traces, and take the
    least valid ob table holding them (empty if none were drawn).

    Deterministic for fixed (n, atom_names, seed, density).
    """
    if not 1 <= n <= MAX_WORLDS:
        raise ValueError(f"world count must be in 1..{MAX_WORLDS}, got {n}")
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must be in [0,1], got {density}")
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
    outside, drawn = 0, False  # outside: the union of context - trace
    for context in range(1, full + 1):
        for trace in subsets(context):
            if trace and rng.random() < density:
                outside |= context & ~trace
                drawn = True
    ob = ideal_ob(n, full & ~outside) if drawn else {}
    return CJModel(n, tuple(av), tuple(pv), ob, val)


def frame_choices(n: int) -> list[list[tuple[int, int]]]:
    """Per world s, every valid (av(s), pv(s)) pair, pv ascending, then
    av ascending."""
    full = full_mask(n)
    per_world = []
    for s in range(n):
        options = []
        for p in subsets(full):
            if not p >> s & 1:
                continue
            for a in subsets(p):
                if a:
                    options.append((a, p))
        per_world.append(options)
    return per_world


def _valid_ob_tables(n: int) -> list[dict[int, frozenset[int]]]:
    """The empty table, then ob_S for each S of `ideal_sets`, descending
    when world 0 is its most significant bit.  This is the order of a
    product over the contexts of their member subsets: ob_S and ob_T
    first differ at context {0, d} ({0, 1} if d = 0), d the lowest world
    in just one of S and T, and the one holding d has the smaller member
    bitmap."""
    return [{}] + [ideal_ob(n, s) for s in sorted(
        ideal_sets(n), reverse=True,
        key=lambda s: [s >> w & 1 for w in range(n)])]


def enumerate_models(n: int, atoms: Iterable[str]) -> Iterator[CJModel]:
    """Stream every valid model on n worlds, each exactly once.

    Capped at n <= 2: at 3 worlds there are 14**3 frames times 9 ob
    tables times 8**k valuations of k atoms, about 1.58 million models
    for two atoms.  The countermodel search (`ddlkit.search`) does not
    enumerate models: up to 3 worlds it sweeps one frame and table per
    orbit of world permutations, with every valuation at once.
    Order is deterministic: frames, then ob tables, then valuations.
    """
    if n > 2:
        raise ValueError(f"exhaustive enumeration is capped at 2 worlds, got {n}")
    if n < 1:
        raise ValueError(f"world count must be >= 1, got {n}")
    return _enumerate_models(n, sorted(set(atoms)))


def _enumerate_models(n: int, names: list[str]) -> Iterator[CJModel]:
    full = full_mask(n)
    ob_tables = _valid_ob_tables(n)
    for frame in itertools.product(*frame_choices(n)):
        av = tuple(a for a, _ in frame)
        pv = tuple(p for _, p in frame)
        for ob in ob_tables:
            for masks in itertools.product(range(full + 1), repeat=len(names)):
                yield CJModel(n, av, pv, ob, dict(zip(names, masks)))
