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
from ddlkit.syntax import (Not, ObDyadic, Or, atoms, parse, postorder,
                           random_formula)
from helpers import drop_world_oracle, sampled_search_oracle, sweep_oracle

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


@pytest.mark.parametrize("n_max,exhaustive,sampled", [
    (2, 2, None), (3, 3, None), (4, 3, 4),
])
def test_verdict_records_the_exhaustive_and_the_sampled_bound(
        n_max, exhaustive, sampled):
    v = verdict(parse("[p]p -> p"), n_max, 50, 0)
    assert (v.exhaustive, v.sampled, v.n_max) == (exhaustive, sampled, n_max)


def test_verdict_with_no_samples_claims_only_the_exhaustive_bound():
    # no 4-world model is drawn, so the verdict must not claim 4 worlds
    v = verdict(parse("[p]p -> p"), 4, 0, 0)
    assert v == NoCounterexampleUpTo(3) and v.n_max == 3


def test_search_rejects_too_many_atoms_before_building_lanes(monkeypatch):
    # the atoms are counted by `_compile`'s walk; no frame, table or lane
    # is built past the bound
    def no_lanes(*args):
        raise AssertionError("built lanes past the lane bound")

    for name in ("_representatives", "_chunk_size", "_sweep"):
        monkeypatch.setattr(search, name, no_lanes)
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
    # m's frame and table as the second pair of a chunk of two, after the
    # default frame with the empty table: m's lanes are 2*v + 1
    default = (tuple(1 << s for s in range(m.n)), (full_mask(m.n),) * m.n,
               None)
    pairs = (default, (m.av, m.pv, _ideal(m)))
    [(_, missed)] = search._sweep(ops, len(names), m.n, 2,
                                  [(pairs, search._masks(m.n, pairs))])
    return missed


def _assert_lane_agrees(names, missed, m, f):
    lane = 2 * _lane(m, names) + 1
    ts = truth_set(m, f)
    assert [lanes >> lane & 1 for lanes in missed] \
        == [1 - (ts >> w & 1) for w in range(m.n)], (f, model_json(m))


def _assert_lanes_agree_up_to_two_worlds(f):
    ops, _, names = search._compile(f)
    assert names == sorted(atoms(f))
    for n in (1, 2):
        swept = {}
        for m in enumerate_models(n, names):
            key = (m.av, m.pv, _ideal(m))
            if key not in swept:
                swept[key] = _missed(ops, names, m)
            _assert_lane_agrees(names, swept[key], m, f)


def test_lanes_match_truth_set_on_every_model_up_to_two_worlds():
    rng = random.Random(61)
    for _ in range(25):
        f = random_formula(rng, 5, ("p", "q"))
        while len(atoms(f)) < 2:
            f = random_formula(rng, 5, ("p", "q"))
        _assert_lanes_agree_up_to_two_worlds(f)


def test_lanes_match_truth_set_on_shared_subformulas():
    # one operation per distinct node; every use of a shared node reads it
    x = parse("Oa p | [p]q")
    for f in (Or(x, x), ObDyadic(x, x), ObDyadic(Not(x), Or(x, Not(x))),
              parse("p <-> (q <-> O(p/q))"), parse("<a>p -> <p>(q <-> p)")):
        ops, _, _ = search._compile(f)
        assert len(ops) == len(postorder(f))
        _assert_lanes_agree_up_to_two_worlds(f)


def test_lanes_match_truth_set_on_random_models_at_three_and_four_worlds():
    rng = random.Random(62)
    for _ in range(1200):
        f = random_formula(rng, 4)
        ops, _, names = search._compile(f)
        assert names == sorted(atoms(f))
        m = random_model(rng.choice((3, 4)), names, rng.getrandbits(63),
                         rng.choice(DENSITIES))
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
            covered = set()
            for av, pv, ideal in reps:
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
            assert covered == projections, (uses, n)
            frames = {(av, pv) for av, pv, _ in reps}
            counts[uses].append((len(frames), len(reps)))
    assert counts == ORBIT_COUNTS


def _oracle_misses(ops, k, n, pairs):
    # per pair, the oracle's missed lanes (lane v) and its first hit:
    # the first pair with a miss, its lowest lane, then its lowest world
    candidates = [(av, pv, (ideal,)) for av, pv, ideal in pairs]
    per_pair = [missed for *_, missed in sweep_oracle(ops, k, n, candidates)]
    for j, missed in enumerate(per_pair):
        union = 0
        for lanes in missed:
            union |= lanes
        if union:
            lane = (union & -union).bit_length() - 1
            s = next(w for w in range(n) if missed[w] >> lane & 1)
            return per_pair, (j, lane, s)
    return per_pair, None


def _chunked_misses(ops, k, n, size, chunks):
    # the same from `_sweep`, its lanes v*size + c read back per pair c
    lanes = size << n * k
    per_pair, hit = [], None
    for pairs, missed in search._sweep(ops, k, n, size, chunks):
        found = search._first_miss(missed, k, n, size)
        if hit is None and found is not None:
            c, v, s = found
            hit = (len(per_pair) + c, v, s)
        bits = [format(m, f"0{lanes}b")[::-1] for m in missed]
        per_pair += [[int(b[c::size][::-1], 2) for b in bits]
                     for c in range(len(pairs))]
    return per_pair, hit


def test_chunked_sweep_matches_the_sweep_oracle():
    rng = random.Random(64)
    formulas = [parse(text) for text in
                [*REFUTED3, "Oa p -> <a>~p", "Op p -> Oa p", "[p]p -> [a]p",
                 "<p>p & <p>~p & <p>q -> [a]p | [a]~p",
                 "O(p/q) & O(r/q) -> O(p & r / q)"]]
    for pool in [("p",), ("p", "q"), ("p", "q", "r")] * 8:
        formulas.append(random_formula(rng, 4, pool))
    covered = set()
    for f in formulas:
        ops, uses, names = search._compile(f)
        k = len(names)
        for n in (1, 2, 3):
            pairs = search._representatives(n, *uses)
            expected = _oracle_misses(ops, k, n, pairs)
            sizes = {1, 2, 3, len(pairs), search._chunk_size(n, k, len(pairs))}
            if expected[1] is not None:
                j = expected[1][0]
                sizes |= {j + 1, (j + 1) // 2 or 1, j // 3 or 1}
            for size in sizes:
                chunks = search._orbit_chunks(n, uses, size)
                assert _chunked_misses(ops, k, n, size, chunks) == expected, \
                    (f, n, size)
                if expected[1] is not None and size > 1:
                    j = expected[1][0]
                    if j >= size:
                        covered.add("past the first chunk")
                        if j % size == size - 1:
                            covered.add("on a later chunk's last pair")
    assert covered == {"past the first chunk", "on a later chunk's last pair"}


def test_a_short_last_chunk_misses_no_lane_past_its_pairs():
    # past its pairs, a chunk's lanes stand for a frame with empty av and
    # pv, where these valid formulas fail; those lanes must stay clear
    for text in ("<a>p | <a>~p", "<p>p | <p>~p"):
        f = parse(text)
        ops, uses, names = search._compile(f)
        for n in (2, 3):
            count = len(search._representatives(n, *uses))
            sizes = [s for s in (2, 3, 4, 8, 32) if s < count and count % s]
            assert sizes, (text, n)
            for size in sizes:
                chunks = search._orbit_chunks(n, uses, size)
                for _, missed in search._sweep(ops, len(names), n, size,
                                               chunks):
                    assert not any(missed), (text, n, size)


def test_chunks_of_one_pair_match_the_sweep_oracle():
    # n*k = 18: one pair fills the lane budget, so each chunk holds one
    x = "(a|b|c|d|e|g)"
    for text in (f"([p]{x} -> [a]{x}) | Op {x}", f"Oa {x} -> Op {x}",
                 f"O(a/b) & <>(c & d & e & g) -> O(a/b) & Oa {x}"):
        f = parse(text)
        ops, uses, names = search._compile(f)
        pairs = search._representatives(3, *uses)[:6]
        size = search._chunk_size(3, len(names), len(pairs))
        assert size == 1
        chunks = ((pairs[c:c + 1], search._masks(3, pairs[c:c + 1]))
                  for c in range(len(pairs)))
        assert _chunked_misses(ops, len(names), 3, size, chunks) \
            == _oracle_misses(ops, len(names), 3, pairs), text


def test_four_world_draws_match_the_sweep_oracle():
    rng = random.Random(65)
    formulas = [parse(text) for text in ["Oa p -> Op p", *NEEDS_FOUR[1:]]]
    formulas += [random_formula(rng, 4, ("p", "q")) for _ in range(6)]
    for f in formulas:
        ops, uses, names = search._compile(f)
        for seed in range(3):
            draws = list(_sampled(4, *uses, 200, seed))
            expected = _oracle_misses(ops, len(names), 4, draws)
            for size in {1, 7, search._chunk_size(4, len(names), 200)}:
                chunks = search._drawn_chunks(4, uses, 200, seed, size)
                assert _chunked_misses(ops, len(names), 4, size, chunks) \
                    == expected, (f, seed, size)


@pytest.mark.parametrize("budget", [1, 16, 1 << 12])
def test_lane_budget_does_not_move_the_answer(monkeypatch, budget):
    expected = [find_countermodel(parse(text), 4, 200, seed)
                for text in REFUTED3 + NEEDS_FOUR for seed in range(2)]
    monkeypatch.setattr(search, "LANE_BUDGET", budget)
    assert [find_countermodel(parse(text), 4, 200, seed)
            for text in REFUTED3 + NEEDS_FOUR for seed in range(2)] == expected


def test_orbit_masks_match_their_pairs():
    for uses in ORBIT_COUNTS:
        for n in (1, 2, 3):
            pairs = search._representatives(n, *uses)
            for size in sorted({1, 5, len(pairs)}):
                for start in range(0, len(pairs), size):
                    av, pv, ideal, has = search._orbit_masks(n, *uses, size,
                                                             start)
                    # the rows list (t, mask) for the nonzero masks, t rising
                    assert all(m and [t for t, _ in row] == sorted(dict(row))
                               for row in av + pv for _, m in row)
                    av, pv = ([[dict(row).get(t, 0) for t in range(n)]
                               for row in rel] for rel in (av, pv))
                    chunk = pairs[start:start + size]
                    assert not any(m >> len(chunk) for m in
                                   (*sum(av + pv, []), *ideal, has))
                    for c, (a, p, i) in enumerate(chunk):
                        for s in range(n):
                            assert [m >> c & 1 for m in av[s]] \
                                == [a[s] >> t & 1 for t in range(n)]
                            assert [m >> c & 1 for m in pv[s]] \
                                == [p[s] >> t & 1 for t in range(n)]
                        assert has >> c & 1 == (i is not None)
                        assert [m >> c & 1 for m in ideal] \
                            == [0 if i is None else i >> t & 1
                                for t in range(n)]



def test_a_search_builds_only_the_masks_of_the_chunks_it_swept():
    # refuted on 3 worlds in the first of 9 chunks of 475 pairs there
    search._orbit_masks.cache_clear()
    m, _ = find_countermodel(parse("Oa p -> Op p"), 3, 0)
    assert m.n == 3 and search._chunk_size(3, 1, 4270) == 475
    assert search._orbit_masks.cache_info().currsize == 3  # one chunk per n
