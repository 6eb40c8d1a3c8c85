import random

import pytest

from ddlkit import search
from ddlkit.checker import eval_formula
from ddlkit.henkin import TRUE, build_henkin, eval_term
from ddlkit.hol import embed, vld
from ddlkit.model import (CJModel, _ob_violations, _valid_ob_tables,
                          full_mask, ideal_ob, model_json, random_model,
                          validate)
from ddlkit.search import (CounterModel, NoCounterexampleUpTo,
                           find_countermodel, verdict, _drop_world, _minimize)
from ddlkit.syntax import parse
from helpers import drop_world_oracle, minimize_oracle

VALID = ["[]p -> [p]p", "[p]p -> [a]p", "[p]p -> p", "~Oa(F)",
         "O(p/q) -> []O(p/q)", "~p|p"]
REFUTED = ["[a]p -> p", "p -> [a]p", "O(p/q)", "p", "Oa(F)"]


def test_valid_formulas_have_no_counterexample():
    for text in VALID:
        v = verdict(parse(text), 3, 200, 0)
        assert v == NoCounterexampleUpTo(3), text


def test_refuted_formulas_yield_checked_countermodels():
    for text in REFUTED:
        f = parse(text)
        v = verdict(f, 3, 200, 0)
        assert isinstance(v, CounterModel), text
        assert validate(v.model).ok
        assert eval_formula(v.model, v.world, f) is False
        # agreement with the embedded semantics: the quantified embedding
        # is false in the corresponding interpretation
        h = build_henkin(v.model)
        assert eval_term(h, vld(embed(f))) != TRUE


def test_atomic_countermodel_is_smallest():
    v = verdict(parse("p"), 3, 100, 0)
    assert isinstance(v, CounterModel)
    assert v.model.n == 1 and v.model.val["p"] == 0 and v.world == 0


def test_exhaustive_tier_finds_two_world_countermodels_without_sampling():
    for text in ("[a]p -> p", "p -> [a]p"):
        found = find_countermodel(parse(text), n_max=2, samples=0, seed=0)
        assert found is not None
        m, s = found
        assert m.n <= 2
        assert eval_formula(m, s, parse(text)) is False


def test_search_deterministic():
    a = find_countermodel(parse("O(p/q)"), 3, 100, 5)
    b = find_countermodel(parse("O(p/q)"), 3, 100, 5)
    assert a == b
    assert model_json(a[0]) == model_json(b[0])


def test_search_rejects_out_of_range_budgets():
    with pytest.raises(ValueError):
        find_countermodel(parse("p"), n_max=5)
    with pytest.raises(ValueError):
        find_countermodel(parse("p"), samples=-1)
    from ddlkit.model import enumerate_models
    with pytest.raises(ValueError):
        enumerate_models(3, [])  # eager cap, before iteration


def test_minimize_shrinks_random_countermodel():
    rng = random.Random(71)
    f = parse("p")
    # a three-world model where p fails somewhere
    while True:
        m = random_model(3, ("p",), rng.getrandbits(63), 0.4)
        ts = [s for s in range(3) if not eval_formula(m, s, f)]
        if ts:
            break
    small, s = _minimize(m, ts[0], f)
    assert validate(small).ok
    assert eval_formula(small, s, f) is False
    # greedy, best-effort: must have shrunk, need not reach the optimum
    assert small.n < 3
    assert _minimize(m, ts[0], f) == (small, s)  # deterministic


def test_dropping_a_world_keeps_the_closed_form():
    # so `_minimize` needs no re-validation after `_drop_world`
    for n in range(2, 7):
        full = full_mask(n)
        tables = [{}] + [ideal_ob(n, ideal) for ideal in range(1 << n)]
        for table in tables:
            m = CJModel(n, (full,) * n, (full,) * n, table, {"p": 5 & full})
            for k in range(n):
                assert _drop_world(m, k) == drop_world_oracle(m, k)


def test_no_single_trace_removal_stays_valid_from_three_worlds():
    # so `_minimize`, which sees only sampled models on 3 or more worlds,
    # has nothing to gain from dropping ob traces
    counts = []
    for n in range(1, 6):
        count = 0
        for table in _valid_ob_tables(n):
            for context in table:
                for trace in table[context]:
                    trimmed = {**table, context: table[context] - {trace}}
                    if not trimmed[context]:
                        del trimmed[context]
                    count += next(_ob_violations(trimmed, n), None) is None
        counts.append(count)
    assert counts == [1, 4, 0, 0, 0]


# the refuted3 rows of perfbench/search_corpus.tsv: only the sampling
# tier finds their countermodels, so only they reach `_minimize`
REFUTED3 = ["Oa p -> Op p", "~(<>(p&q) & <>(p&~q) & <>(~p&q))",
            "~(<>(p&q) & <>(p&~q) & <>(~p&q)) | O(p/q)"]


def test_search_minimizes_like_the_oracle(monkeypatch):
    shrunk = []

    def world_drops_only(m, s, f):
        out = _minimize(m, s, f)
        shrunk.append((m.n, out[0].n))
        return out

    def run(minimize, f, n_max, samples, seed):
        monkeypatch.setattr(search, "_minimize", minimize)
        found = find_countermodel(f, n_max, samples, seed)
        return found and (model_json(found[0]), found[1])

    cases = [(text, n_max, samples, seed)
             for text in REFUTED3 + ["Op p -> Oa p"]
             for n_max in (3, 4) for samples in (5, 20) for seed in range(8)]
    cases.append(("Oa p -> Op p", 4, 5, 20))  # a 4-world hit, shrunk to 3
    for text, *budget in cases:
        f = parse(text)
        assert run(world_drops_only, f, *budget) \
            == run(minimize_oracle, f, *budget), (text, budget)
    assert (4, 3) in shrunk


def test_verdict_default_budget_matches_cli_contract():
    v = verdict(parse("[p]p -> p"))
    assert v == NoCounterexampleUpTo(3)
