"""Acceptance gate: every shipped claim, checked end to end.

Each criterion prints one `[A#] ... PASS` line (or FAIL before the
assertion surfaces), runs at its full sample size, and asserts its time
budget.  The gates:

  A1  direct vs embedded evaluation agree on random triples (exact)
  A2  the eight axioms hold on interpretations of random valid models
  A3  the interpreted frame conditions hold on the same models
  A4  extract(build(m)) == m on enumerated and random models
  A5  pairwise ob-closure check agrees with the family-closure oracle
  A6  regression verdicts: six validities, four refuted with certificates
  A7  kernel normalization laws on random well-typed terms
  A8  THF golden files are byte-stable and tokenize cleanly
  A9  the nine connective evaluation laws, each as its own property test
"""

import random
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from ddlkit.checker import eval_formula
from ddlkit.export import to_thf_problem
from ddlkit.henkin import (FALSE, TRUE, build_henkin, check_axioms,
                           check_faithfulness, enumerate_domain, eval_term,
                           extract_model)
from ddlkit.hol import (I, App, Arrow, Bound, Free, O, beta_eta_normalize,
                        embed, exists, false_term, forall, land, liff, limp,
                        lor, neg, true_term, type_of, vld)
from ddlkit.model import enumerate_models, random_model, validate
from ddlkit.search import CounterModel, NoCounterexampleUpTo, verdict
from ddlkit.syntax import parse
from helpers import (all_candidate_ob_tables, beta_eta_normalize_innermost,
                     brute_force_ob_failures, check_thf_problem_text,
                     interpreted_frame_failures, random_term, table_member)
from ddlkit.model import _ob_violations


@contextmanager
def gate(label: str, budget_seconds: float | None = None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[{label}] FAIL")
        raise
    elapsed = time.monotonic() - start
    if budget_seconds is not None and elapsed >= budget_seconds:
        print(f"[{label}] FAIL (took {elapsed:.1f}s, budget "
              f"{budget_seconds:.0f}s)")
        raise AssertionError(f"{label} exceeded its time budget")
    print(f"[{label}] PASS ({elapsed:.1f}s)")


@pytest.fixture(scope="module")
def axiom_models():
    rng = random.Random(202)
    out = []
    for i in range(200):
        n = 1 + i % 3
        out.append(random_model(n, ("p", "q"), rng.getrandbits(63),
                                rng.choice((0.0, 0.15, 0.3, 0.5))))
    return out


@pytest.fixture(scope="module")
def law_models():
    rng = random.Random(303)
    return [build_henkin(random_model(rng.randint(1, 3), ("p", "q"),
                                      rng.getrandbits(63),
                                      rng.choice((0.0, 0.3, 0.5))))
            for _ in range(100)]


def test_a1_faithfulness_sampling():
    with gate("A1 faithfulness", budget_seconds=60):
        two = check_faithfulness(n_max=2, samples=1000, seed=11)
        assert two.samples == 1000 and two.mismatches == ()
        three = check_faithfulness(n_max=3, samples=200, seed=12)
        assert three.samples == 200 and three.mismatches == ()


def test_a2_axiom_satisfaction(axiom_models):
    with gate("A2 axiom satisfaction", budget_seconds=120):
        assert len(axiom_models) == 200
        assert all(m.n <= 3 and validate(m).ok for m in axiom_models)
        failures = [name for m in axiom_models
                    if (name := check_axioms(build_henkin(m))) is not None]
        assert failures == []


def test_a3_interpreted_frame_conditions(axiom_models):
    with gate("A3 interpreted frame conditions"):
        bad = [fails for m in axiom_models
               if (fails := interpreted_frame_failures(build_henkin(m)))]
        assert bad == []


def test_a4_extraction_round_trip():
    with gate("A4 extraction round trip"):
        count = 0
        for n in (1, 2):
            for m in enumerate_models(n, ("p",)):
                assert extract_model(build_henkin(m), m.val.keys()) == m
                count += 1
        rng = random.Random(404)
        for _ in range(100):
            m = random_model(3, ("p", "q"), rng.getrandbits(63),
                             rng.choice((0.0, 0.3, 0.5)))
            assert extract_model(build_henkin(m), m.val.keys()) == m
            count += 1
        assert count == 4 + 320 + 100


def test_a5_binary_closure_oracle():
    with gate("A5 pairwise vs family closure"):
        checked = 0
        for n in (1, 2):
            for table in all_candidate_ob_tables(n):
                pairwise_ok = not any(v.condition == "ob3"
                                      for v in _ob_violations(table, n))
                family_ok = "ob3" not in brute_force_ob_failures(
                    table_member(table), n)
                assert pairwise_ok == family_ok
                checked += 1
        assert checked == 2 + 32
        # and every enumerated valid model passes the family check
        for n in (1, 2):
            for m in enumerate_models(n, ()):
                assert brute_force_ob_failures(table_member(m.ob), n) == []


VALID_FORMULAS = ["[]p -> [p]p", "[p]p -> [a]p", "[p]p -> p", "~Oa(F)",
                  "O(p/q) -> []O(p/q)", "~p|p"]
REFUTED_FORMULAS = ["[a]p -> p", "p -> [a]p", "O(p/q)", "p"]


def test_a6_semantic_regressions():
    with gate("A6 semantic regressions", budget_seconds=30):
        for text in VALID_FORMULAS:
            assert verdict(parse(text), 3, 300, 0) == NoCounterexampleUpTo(3), \
                text
        for text in REFUTED_FORMULAS:
            f = parse(text)
            v = verdict(f, 3, 300, 0)
            assert isinstance(v, CounterModel), text
            assert validate(v.model).ok
            assert eval_formula(v.model, v.world, f) is False
            h = build_henkin(v.model)
            assert eval_term(h, vld(embed(f))) == FALSE


def test_a7_kernel_laws():
    with gate("A7 kernel laws"):
        rng = random.Random(707)
        for _ in range(1000):
            t = random_term(rng, None, 4)
            ty = type_of(t)
            nf = beta_eta_normalize(t)
            assert beta_eta_normalize(nf) == nf
            assert type_of(nf) == ty
            assert beta_eta_normalize_innermost(t) == nf


GOLDEN_CASES = {
    "boxp_reflexive.p": "[p]p -> p",
    "excluded_middle.p": "~p | p",
    "obligation_rigid.p": "O(p/q) -> []O(p/q)",
}


def test_a8_thf_golden_files():
    with gate("A8 THF golden files"):
        golden = Path(__file__).parent / "golden"
        for fname, formula in sorted(GOLDEN_CASES.items()):
            expected = (golden / fname).read_bytes()
            produced = to_thf_problem(parse(formula)).text().encode("utf-8")
            assert produced == expected, fname
            check_thf_problem_text(produced.decode("utf-8"))


def _law_negation(h, rng):
    a = Free("a", O)
    for v in (TRUE, FALSE):
        assert eval_term(h, neg(a), {"a": v}) == int(v == FALSE)


def _law_disjunction(h, rng):
    a, b = Free("a", O), Free("b", O)
    for va in (TRUE, FALSE):
        for vb in (TRUE, FALSE):
            got = eval_term(h, lor(a, b), {"a": va, "b": vb})
            assert got == int(va == TRUE or vb == TRUE)


def _law_conjunction(h, rng):
    a, b = Free("a", O), Free("b", O)
    for va in (TRUE, FALSE):
        for vb in (TRUE, FALSE):
            got = eval_term(h, land(a, b), {"a": va, "b": vb})
            assert got == int(va == TRUE and vb == TRUE)


def _law_implication(h, rng):
    a, b = Free("a", O), Free("b", O)
    for va in (TRUE, FALSE):
        for vb in (TRUE, FALSE):
            got = eval_term(h, limp(a, b), {"a": va, "b": vb})
            assert got == int(va == FALSE or vb == TRUE)


def _law_equivalence(h, rng):
    a, b = Free("a", O), Free("b", O)
    for va in (TRUE, FALSE):
        for vb in (TRUE, FALSE):
            got = eval_term(h, liff(a, b), {"a": va, "b": vb})
            assert got == int(va == vb)


def _law_truth(h, rng):
    assert eval_term(h, true_term()) == TRUE


def _law_falsity(h, rng):
    assert eval_term(h, false_term()) == FALSE


def _law_universal(h, rng):
    for alpha in (I, O):
        pred = rng.choice(enumerate_domain(h.n, Arrow(alpha, O)))
        p = Free("P", Arrow(alpha, O))
        got = eval_term(h, forall(alpha, App(p, Bound(0))), {"P": pred})
        assert got == int(all(pred >> x & 1
                              for x in enumerate_domain(h.n, alpha)))


def _law_existential(h, rng):
    for alpha in (I, O):
        pred = rng.choice(enumerate_domain(h.n, Arrow(alpha, O)))
        p = Free("P", Arrow(alpha, O))
        got = eval_term(h, exists(alpha, App(p, Bound(0))), {"P": pred})
        assert got == int(any(pred >> x & 1
                              for x in enumerate_domain(h.n, alpha)))


_LAWS = [
    ("negation", _law_negation),
    ("disjunction", _law_disjunction),
    ("conjunction", _law_conjunction),
    ("implication", _law_implication),
    ("equivalence", _law_equivalence),
    ("truth", _law_truth),
    ("falsity", _law_falsity),
    ("universal", _law_universal),
    ("existential", _law_existential),
]


@pytest.mark.parametrize("name,law", _LAWS, ids=[n for n, _ in _LAWS])
def test_a9_connective_laws(name, law, law_models):
    index = [n for n, _ in _LAWS].index(name) + 1
    with gate(f"A9.{index} {name} law"):
        rng = random.Random(900 + index)
        assert len(law_models) == 100
        for h in law_models:
            law(h, rng)
