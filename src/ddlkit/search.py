"""Bounded validity checking by countermodel search over finite models.

Two tiers: exhaustive enumeration for one and two worlds (where the
model space is small enough to sweep completely), then seeded random
sampling for three and four worlds.  A miss is therefore never a
validity proof; the verdict type says so explicitly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .checker import truth_set
from .model import (DENSITIES, CJModel, enumerate_models, full_mask,
                    ideal_ob, random_model, validate)
from .syntax import Formula, atoms


@dataclass(frozen=True)
class CounterModel:
    model: CJModel
    world: int


@dataclass(frozen=True)
class NoCounterexampleUpTo:
    n_max: int


Verdict = CounterModel | NoCounterexampleUpTo


def find_countermodel(f: Formula, n_max: int = 3, samples: int = 1000,
                      seed: int = 0) -> tuple[CJModel, int] | None:
    """A valid model and world where f fails, or None within the budget.

    Exhausts all models on up to min(2, n_max) worlds, then samples
    `samples` random models per world count up to n_max.  Deterministic
    for fixed arguments; every returned countermodel is re-checked
    before being reported.
    """
    if not 1 <= n_max <= 4:
        raise ValueError(f"n_max must be in 1..4, got {n_max}")
    if samples < 0:
        raise ValueError("samples must be nonnegative")
    names = sorted(atoms(f))
    for n in range(1, min(2, n_max) + 1):
        for m in enumerate_models(n, names):
            hit = _falsifying_world(m, f)
            if hit is not None:
                return _certify(m, hit, f)
    rng = random.Random(seed)
    for n in range(3, n_max + 1):
        for _ in range(samples):
            density = rng.choice(DENSITIES)
            m = random_model(n, names, rng.getrandbits(63), density)
            hit = _falsifying_world(m, f)
            if hit is not None:
                m, hit = _minimize(m, hit, f)
                return _certify(m, hit, f)
    return None


def verdict(f: Formula, n_max: int = 3, samples: int = 1000,
            seed: int = 0) -> Verdict:
    """Wrap the search result, keeping the boundedness explicit."""
    found = find_countermodel(f, n_max, samples, seed)
    if found is None:
        return NoCounterexampleUpTo(n_max)
    return CounterModel(*found)


def _falsifying_world(m: CJModel, f: Formula) -> int | None:
    ts = truth_set(m, f)
    full = full_mask(m.n)
    if ts == full:
        return None
    missing = full & ~ts
    return (missing & -missing).bit_length() - 1


def _certify(m: CJModel, s: int, f: Formula) -> tuple[CJModel, int]:
    # re-check the certificate before handing it out
    if not validate(m).ok:
        raise AssertionError("search produced an invalid model")
    if truth_set(m, f) >> s & 1:
        raise AssertionError("search produced a non-countermodel")
    return m, s


def _drop_world(m: CJModel, k: int) -> CJModel | None:
    """The model with world k removed and indices compacted, or None if
    a frame set would come out empty.  A valid ob table is {} or ob_S,
    S the meet of ob(W); it becomes ob_S' with S' the squeezed S."""

    def squeeze(mask: int) -> int:
        low = mask & ((1 << k) - 1)
        high = mask >> (k + 1)
        return low | high << k

    av, pv = [], []
    for s in range(m.n):
        if s == k:
            continue
        a, p = squeeze(m.av[s]), squeeze(m.pv[s])
        if a == 0:
            return None
        av.append(a)
        pv.append(p)
    ob = m.ob
    if ob:
        ideal = full_mask(m.n)
        for member in ob[ideal]:
            ideal &= member
        ob = ideal_ob(m.n - 1, squeeze(ideal))
    val = {a: squeeze(mask) for a, mask in m.val.items()}
    return CJModel(m.n - 1, tuple(av), tuple(pv), ob, val)


def _minimize(m: CJModel, s: int, f: Formula) -> tuple[CJModel, int]:
    """Greedy shrinking: drop worlds, highest index first, as long as the
    result still falsifies f.

    A dropped model needs no re-validation (`_certify` still re-checks
    the result): `_drop_world` keeps pv1 and pv2, refuses an empty av
    set, and maps ob_S to ob_S' with S' the squeezed S.  Ob traces are
    not dropped: `find_countermodel` minimizes only sampled models on
    three or more worlds, where removing one trace from a valid table
    never leaves a valid one.  As the exhaustive tier has covered one and
    two worlds, only a drop from four worlds to three can succeed there.
    """
    while m.n > 1:
        for k in range(m.n - 1, -1, -1):
            smaller = _drop_world(m, k)
            hit = None if smaller is None else _falsifying_world(smaller, f)
            if hit is not None:
                m, s = smaller, hit
                break
        else:
            break
    return m, s
