"""The one module that runs both semantic routes, sampling models,
formulas, and worlds to confirm that they agree.  The direct route
(`checker`, `search`) and the embedded route (`hol`, `henkin`, `export`)
share only the model format (`model`, `syntax`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .checker import truth_set
from .henkin import TRUE, build_henkin, eval_term
from .hol import I, App, Free, embed, vld
from .model import DENSITIES, CJModel, full_mask, model_json, random_model
from .syntax import Formula, pretty, random_formula

# Bound on the triples `check_faithfulness` draws.  At the bound it took
# 1.7-2.2 s and 18 MB (peak RSS of the CLI process) with --max-worlds 4
# on a 2-vCPU machine; memory does not grow with the count.
MAX_SAMPLES = 10_000


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
    model-wide validity with the quantified sentence: both direct answers
    are read off one truth set.  Deterministic for a fixed seed.
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
        ts = truth_set(m, f)
        if bool(ts >> s & 1) != (
                eval_term(h, App(t, Free("S", I)), {"S": s}) == TRUE):
            mismatches.append(Mismatch(m, s, f, "world"))
        if (ts == full_mask(n)) != (eval_term(h, vld(t)) == TRUE):
            mismatches.append(Mismatch(m, None, f, "validity"))
    return FaithfulnessReport(samples, tuple(mismatches))
