import hashlib
import itertools
import random

import pytest

from ddlkit import search
from ddlkit.checker import eval_formula, truth_set
from ddlkit.henkin import TRUE, build_henkin, eval_term
from ddlkit.hol import embed, vld
from ddlkit.model import (DENSITIES, _ob_violations, _valid_ob_tables,
                          enumerate_models, full_mask, ideal_ob, mask_of,
                          model_json, random_model, validate, world_list)
from ddlkit.search import (CounterModel, NoCounterexampleUpTo, _sampled,
                           find_countermodel, verdict)
from ddlkit.syntax import atoms, parse, random_formula
from helpers import drop_world_oracle, sampled_search_oracle

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
    with pytest.raises(ValueError):
        enumerate_models(3, [])  # eager cap, before iteration


def test_no_single_trace_removal_stays_valid_from_three_worlds():
    # from three worlds on, every valid table is minimal under trace removal
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


def test_verdict_default_budget_matches_cli_contract():
    v = verdict(parse("[p]p -> p"))
    assert v == NoCounterexampleUpTo(3)


def test_search_rejects_too_many_atoms_before_building_lanes(monkeypatch):
    def no_compile(*args):
        raise AssertionError("compiled past the lane bound")

    monkeypatch.setattr(search, "_compile", no_compile)
    seven = parse("a|b|c|d|e|g|h")
    with pytest.raises(ValueError, match="at most 6 atoms"):
        find_countermodel(seven, n_max=3)
    with pytest.raises(ValueError, match="at most 4 atoms"):
        find_countermodel(parse("a|b|c|d|e"), n_max=4)
    with pytest.raises(ValueError, match="7 atoms"):
        find_countermodel(parse("T | a|b|c|d|e|g"), n_max=3)  # q0 counts


def _ideal(m):
    # S of a closed-form table, None for the empty table
    if not m.ob:
        return None
    ideal = full_mask(m.n)
    for member in m.ob[full_mask(m.n)]:
        ideal &= member
    return ideal


def _lane(m, names):
    # the valuation's lane: first atom most significant
    lane = 0
    for name in names:
        lane = lane << m.n | m.val[name]
    return lane


def _missed(ops, names, m):
    [(*_, missed)] = search._sweep(ops, len(names), m.n,
                                   [(m.av, m.pv, (_ideal(m),))])
    return missed


def _assert_lane_agrees(names, missed, m, f):
    lane = _lane(m, names)
    ts = truth_set(m, f)
    assert [lanes >> lane & 1 for lanes in missed] \
        == [1 - (ts >> w & 1) for w in range(m.n)], (f, model_json(m))


def test_lanes_match_truth_set_on_every_model_up_to_two_worlds():
    rng = random.Random(61)
    for _ in range(25):
        f = random_formula(rng, 5, ("p", "q"))
        while len(atoms(f)) < 2:
            f = random_formula(rng, 5, ("p", "q"))
        names = sorted(atoms(f))
        ops, _ = search._compile(f, names)
        for n in (1, 2):
            swept = {}
            for m in enumerate_models(n, names):
                key = (m.av, m.pv, _ideal(m))
                if key not in swept:
                    swept[key] = _missed(ops, names, m)
                _assert_lane_agrees(names, swept[key], m, f)


def test_lanes_match_truth_set_on_random_models_at_three_and_four_worlds():
    rng = random.Random(62)
    for _ in range(1200):
        f = random_formula(rng, 4)
        names = sorted(atoms(f))
        m = random_model(rng.choice((3, 4)), names, rng.getrandbits(63),
                         rng.choice(DENSITIES))
        ops, _ = search._compile(f, names)
        _assert_lane_agrees(names, _missed(ops, names, m), m, f)


# the refuted3 rows of perfbench/search_corpus.tsv
REFUTED3 = ["Oa p -> Op p", "~(<>(p&q) & <>(p&~q) & <>(~p&q))",
            "~(<>(p&q) & <>(p&~q) & <>(~p&q)) | O(p/q)"]


def test_sweep_needs_no_more_worlds_than_the_sampled_oracle():
    rng = random.Random(63)
    formulas = [parse(text) for text in REFUTED3]
    while len(formulas) < 43:
        # most random formulas fail on one world; keep those that do not
        f = random_formula(rng, 5, ("p", "q"))
        if sampled_search_oracle(f, 1) is None:
            formulas.append(f)
    for seed, f in enumerate(formulas):
        swept = find_countermodel(f, 3, 0)
        sampled = sampled_search_oracle(f, 3, 200, seed)
        n_swept = swept[0].n if swept else None
        n_sampled = sampled[0].n if sampled else None
        if n_sampled is not None:
            assert n_swept is not None and n_swept <= n_sampled, f
        if min(n_swept or 3, n_sampled or 3) <= 2:
            assert n_swept == n_sampled, f


def test_refuted3_formulas_are_refuted_on_three_worlds_without_sampling():
    for text in REFUTED3:
        m, s = find_countermodel(parse(text), 3, samples=0)
        assert m.n == 3 and eval_formula(m, s, parse(text)) is False


FOUR_VALUATIONS = "~(<>(p&q) & <>(p&~q) & <>(~p&q) & <>(~p&~q))"
NEEDS_FOUR = [FOUR_VALUATIONS, FOUR_VALUATIONS + " | O(p/q)",
              FOUR_VALUATIONS + " | (Oa p -> Op p)"]


def test_no_world_drop_of_a_four_world_hit_falsifies_the_formula():
    # the sweep covered every model on three worlds, so a four-world
    # hit needs no minimization
    for text in NEEDS_FOUR:
        f = parse(text)
        assert find_countermodel(f, 3) is None
        for seed in range(4):
            m, s = find_countermodel(f, 4, 200, seed)
            assert m.n == 4 and find_countermodel(f, 4, 200, seed) == (m, s)
            for k in range(4):
                smaller = drop_world_oracle(m, k)
                assert smaller is None or truth_set(smaller, f) == 7, text


def test_four_world_draws_are_swept_once():
    # only the table varies: 17 candidates, however many draws
    drawn = list(_sampled(4, False, False, True, 1000, 0))
    assert len(drawn) == len(set(drawn)) <= 17
    # the answers of sweeping every draw, repeats included, before
    # repeats were skipped
    digest = hashlib.sha256()
    for text in NEEDS_FOUR:
        for seed in range(4):
            m, s = find_countermodel(parse(text), 4, 1000, seed)
            digest.update(f"{model_json(m)} {s}\n".encode())
    assert digest.hexdigest() == ("0f0a98acd7392de8bdea11e1677fd461"
                                  "762d25c42d0f2b117a8979e2f7af56df")


# (av, pv, ob varied) -> (canonical frames, frame-table pairs) at n = 1, 2, 3
ORBIT_COUNTS = {
    (False, False, False): [(1, 1), (1, 1), (1, 1)],
    (False, False, True): [(1, 2), (1, 4), (1, 5)],
    (False, True, False): [(1, 1), (3, 3), (16, 16)],
    (False, True, True): [(1, 2), (3, 13), (16, 120)],
    (True, False, False): [(1, 1), (6, 6), (70, 70)],
    (True, False, True): [(1, 2), (6, 27), (70, 574)],
    (True, True, False): [(1, 1), (10, 10), (490, 490)],
    (True, True, True): [(1, 2), (10, 46), (490, 4270)],
}


def test_representatives_meet_every_orbit_once():
    counts = {}
    for uses in ORBIT_COUNTS:
        use_av, use_pv, use_ob = uses
        counts[uses] = []
        for n in (1, 2, 3):
            full = full_mask(n)
            # every valid (av, pv, table), unvaried components at their
            # defaults av(s) = {s}, pv(s) = W, ob = {}
            per_world = [[(a, p) for p in range(full + 1)
                          for a in range(1, full + 1)
                          if p >> s & 1 and not a & ~p
                          and (use_av or a == 1 << s) and (use_pv or p == full)]
                         for s in range(n)]
            tables = [frozenset(t.items())
                      for t in (_valid_ob_tables(n) if use_ob else [{}])]
            projections = {(tuple(a for a, _ in fr), tuple(p for _, p in fr), t)
                           for fr in itertools.product(*per_world)
                           for t in tables}
            moves = []  # per permutation: world map, mask map, table map
            for perm in itertools.permutations(range(n)):
                move = [mask_of(perm[w] for w in world_list(mask))
                        for mask in range(full + 1)]
                moves.append((perm, move, {
                    t: frozenset((move[c], frozenset(move[u] for u in ts))
                                 for c, ts in t) for t in tables}))

            reps = search._representatives(n, *uses)
            covered, pairs = set(), 0
            for av, pv, ideals in reps:
                for ideal in ideals:
                    table = frozenset(
                        ({} if ideal is None else ideal_ob(n, ideal)).items())
                    assert (av, pv, table) in projections
                    orbit = set()
                    for perm, move, move_table in moves:
                        moved_av, moved_pv = [0] * n, [0] * n
                        for s in range(n):
                            moved_av[perm[s]] = move[av[s]]
                            moved_pv[perm[s]] = move[pv[s]]
                        orbit.add((tuple(moved_av), tuple(moved_pv),
                                   move_table[table]))
                    assert not orbit & covered, (uses, n, av, pv, ideal)
                    covered |= orbit
                    pairs += 1
            assert covered == projections, (uses, n)
            counts[uses].append((len(reps), pairs))
    assert counts == ORBIT_COUNTS
