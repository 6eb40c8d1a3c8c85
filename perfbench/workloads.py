"""The four benchmark workloads: inputs, one request, and its check.

Each workload builds its inputs from the workload seed in `build`, runs
one request in `run` (the timed part) and checks the output in `check`
(never timed).  Requests call ddlkit through module attributes such as
`henkin.build_henkin`, so the tracer's wrappers see them.

search     `ddlkit valid` on a corpus with known answers, through cli.main
dual       direct vs embedded evaluation of seeded (model, formula, world)
roundtrip  extract_model(build_henkin(m)) == m on random 3-world models
emit       `ddlkit embed --thf -` on seeded formulas, through cli.main
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent

# `--seed` values the search corpus answers were verified at.  The
# 3-world tier samples; at an arbitrary seed it misses `Oa p -> Op p`
# about once in 500 searches (0.6% of 3-world samples falsify it).
SEARCH_SEEDS = (0, 1, 2)

ATOMS = ("p", "q", "r")
DENSITIES = (0.0, 0.15, 0.3, 0.5)

# golden THF files of the test suite and the formulas they encode
GOLDEN = {
    "boxp_reflexive.p": "[p]p -> p",
    "excluded_middle.p": "~p | p",
    "obligation_rigid.p": "O(p/q) -> []O(p/q)",
}
EMIT_POOL_SEED = 1802
EMIT_POOL_SIZE = 3000
EMIT_DIGESTS = HERE / "emit_digests.txt"


def _cli(ddlkit, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = ddlkit.cli.main(argv)
    return rc, buf.getvalue()


class Workload:
    """`build(seed)` fills `inputs`; a pass sends each input once through
    `run`, and `check` judges each output."""

    def __init__(self, root: Path, ddlkit):
        self.root = root
        self.dk = ddlkit
        self.inputs: list = []

    def warmup(self) -> None:
        for inp in self.inputs[:20]:
            self.run(inp)


class Search(Workload):
    """Verdict time of `ddlkit valid` at the default budget."""

    def build(self, seed: int) -> None:
        corpus = []
        for line in (HERE / "search_corpus.tsv").read_text().splitlines():
            if line and not line.startswith("#"):
                kind, formula, _why = line.split("\t")
                corpus.append((kind, formula))
        rng = random.Random(seed)
        rng.shuffle(corpus)
        self.inputs = [(kind, f, rng.choice(SEARCH_SEEDS))
                       for kind, f in corpus]

    def warmup(self) -> None:
        # both tiers and the certificate path, on a small budget
        _cli(self.dk, ["valid", "--formula", "Oa p -> <a>~p",
                       "--samples", "10"])
        _cli(self.dk, ["valid", "--formula", "[a]p -> p"])

    def run(self, inp):
        _kind, formula, seed = inp
        return _cli(self.dk, ["valid", "--formula", formula,
                              "--seed", str(seed)])

    def check(self, inp, out) -> bool:
        kind, formula, _seed = inp
        rc, text = out
        if kind == "theorem":
            return rc == 0 and text == "no counterexample up to 3 worlds\n"
        if rc != 3:
            return False
        dk = self.dk
        cert = json.loads(text)
        m = dk.model.load_model(json.dumps(cert["model"]))
        f = dk.syntax.parse(formula)
        if dk.checker.eval_formula(m, cert["world"], f):
            return False
        if (m.n == 3) != (kind == "refuted3"):
            return False
        # re-verify the certificate by the embedded route
        h = dk.henkin.build_henkin(m)
        return dk.henkin.eval_term(h, dk.hol.vld(dk.hol.embed(f))) \
            == dk.henkin.FALSE


class Dual(Workload):
    """Faithfulness traffic: both semantic routes on one triple."""

    SIZE = 2000

    def build(self, seed: int) -> None:
        rng = random.Random(seed)
        random_model = self.dk.model.random_model
        random_formula = self.dk.syntax.random_formula
        self.inputs = []
        for _ in range(self.SIZE):
            n = rng.randint(1, 3)
            density = rng.choice(DENSITIES)
            m = random_model(n, ATOMS, rng.getrandbits(63), density)
            f = random_formula(rng, 6, ATOMS)
            self.inputs.append((m, f, rng.randrange(n)))

    def run(self, inp):
        m, f, s = inp
        checker, henkin, hol = self.dk.checker, self.dk.henkin, self.dk.hol
        h = henkin.build_henkin(m)
        t = hol.embed(f)
        at_world = henkin.eval_term(h, hol.App(t, hol.Free("S", hol.I)),
                                    {"S": henkin.VWorld(s)})
        valid = henkin.eval_term(h, hol.vld(t))
        return (checker.eval_formula(m, s, f), at_world == henkin.TRUE,
                checker.valid_in_model(m, f), valid == henkin.TRUE)

    def check(self, inp, out) -> bool:
        direct_at, embedded_at, direct_valid, embedded_valid = out
        return direct_at == embedded_at and direct_valid == embedded_valid


class Roundtrip(Workload):
    """Interpretation of a 3-world model and extraction back from it."""

    SIZE = 24

    def build(self, seed: int) -> None:
        rng = random.Random(seed)
        random_model = self.dk.model.random_model
        # densities in rotation, so every run has the same mix
        self.inputs = [random_model(3, ATOMS[:2], rng.getrandbits(63),
                                    DENSITIES[k % len(DENSITIES)])
                       for k in range(self.SIZE)]

    def warmup(self) -> None:
        self.run(self.inputs[0])

    def run(self, m):
        henkin = self.dk.henkin
        return henkin.extract_model(henkin.build_henkin(m), m.val)

    def check(self, m, out) -> bool:
        return out == m


class Emit(Workload):
    """THF problem emission for one formula."""

    SIZE = 400

    def build(self, seed: int) -> None:
        digests = [line for line in EMIT_DIGESTS.read_text().splitlines()
                   if not line.startswith("#")]
        pool = emit_pool()
        if len(digests) != len(pool):
            raise ValueError("emit digest file does not match the pool")
        golden_dir = self.root / "tests" / "golden"
        self.golden = {f: (golden_dir / name).read_bytes()
                       for name, f in GOLDEN.items()}
        picked = random.Random(seed).sample(range(len(pool)), self.SIZE)
        self.inputs = [(f, None) for f in self.golden]
        self.inputs += [(pool[k], digests[k]) for k in picked]

    def run(self, inp):
        return _cli(self.dk, ["embed", "--formula", inp[0], "--thf", "-"])

    def check(self, inp, out) -> bool:
        formula, digest = inp
        rc, text = out
        if rc != 0:
            return False
        data = text.encode("utf-8")
        if digest is None:
            return data == self.golden[formula]
        return emit_digest(data) == digest


WORKLOADS = {"search": Search, "dual": Dual, "roundtrip": Roundtrip,
             "emit": Emit}


def emit_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:20]


_KINDS = ("~", "[]", "[a]", "[p]", "Oa ", "Op ", "|", "O")


def _formula(rng: random.Random, depth: int, root: bool = False) -> str:
    # the nine primitives, each compound parenthesized or prefixed, so
    # there are no precedence questions; T and F desugar through q0
    if depth <= 0 or (not root and rng.random() < 0.2):
        return rng.choice(ATOMS) if rng.random() < 0.95 else rng.choice("TF")
    kind = rng.choice(_KINDS)
    if kind == "|":
        return f"({_formula(rng, depth - 1)} | {_formula(rng, depth - 1)})"
    if kind == "O":
        return f"O({_formula(rng, depth - 1)} / {_formula(rng, depth - 1)})"
    return kind + _formula(rng, depth - 1)


def emit_pool() -> list[str]:
    """The frozen emit formulas: depth 2 to 9, fixed seed."""
    rng = random.Random(EMIT_POOL_SEED)
    return [_formula(rng, rng.randint(2, 9), root=True)
            for _ in range(EMIT_POOL_SIZE)]
