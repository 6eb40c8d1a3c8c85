import json
import random

import pytest

from ddlkit.model import (DENSITIES, MAX_WORLDS, CJModel, InvalidModelError,
                          ModelFormatError, ModelStructureError, ModelWarning,
                          _ob_violations, _valid_ob_tables, canonicalize,
                          enumerate_models, full_mask, ideal_ob, load_model,
                          model_json, ob_member, random_model, save_model,
                          subsets, validate)
from helpers import (all_candidate_ob_tables, brute_force_ob_failures,
                     close_ob_oracle, mk_model, random_model_oracle,
                     repair_ob, table_member)

MINIMAL = mk_model(1, av=[[0]], pv=[[0]], ob=[], val={})


def test_validate_minimal_model_ok():
    assert validate(MINIMAL).ok


def test_validate_reports_empty_av():
    m = mk_model(1, av=[[]], pv=[[0]], ob=[], val={})
    report = validate(m)
    assert not report.ok
    assert "av-nonempty" in report.conditions()
    assert "av(0)" in str(report)


def test_validate_reports_pv_conditions():
    m = mk_model(2, av=[[1], [1]], pv=[[0], [1]], ob=[], val={})
    report = validate(m)
    assert "pv1" in report.conditions()  # av(0) not inside pv(0)
    m2 = mk_model(2, av=[[0], [1]], pv=[[0], [0]], ob=[], val={})
    assert "pv2" in validate(m2).conditions()  # 1 not in pv(1)


def test_validate_reports_ob5_violation():
    # ob({0,1}) contains {0,1}; taking Y={0} demands {0,1} in ob({0}),
    # which is empty, so condition 5 fails with that witness
    m = mk_model(2, av=[[0], [1]], pv=[[0], [1]],
                 ob=[([0, 1], [[0, 1]])], val={})
    report = validate(m)
    assert "ob5" in report.conditions()
    assert any("ob5" == v.condition and "{0}" in v.message
               for v in report.violations)


def test_validate_reports_ob4_violation():
    # {1} obligatory in context {1} forces {0,1} obligatory in {0,1}
    m = mk_model(2, av=[[0], [1]], pv=[[0], [1]],
                 ob=[([1], [[1]])], val={})
    assert "ob4" in validate(m).conditions()


def test_validate_reports_ob3_violation():
    # members {0,2} and {1,2} of ob({0,1,2}) meet in {2} which is absent
    m = mk_model(3, av=[[0], [1], [2]], pv=[[0], [1], [2]],
                 ob=[([0, 1, 2], [[0, 2], [1, 2]])], val={})
    assert "ob3" in validate(m).conditions()


def test_validate_binary_closure_accepts_closed_pair():
    # {0,1} and {0} meet in {0} which is present: no ob3 complaint
    m = mk_model(2, av=[[0], [1]], pv=[[0], [1]],
                 ob=[([0, 1], [[0, 1], [0]]), ([0], [[0]]), ([1], [[1]])],
                 val={})
    report = validate(m)
    assert "ob3" not in report.conditions()


def test_validate_rejects_noncanonical_traces():
    m = CJModel(2, (1, 2), (1, 2), {1: frozenset({3})}, {})
    assert "ob2" in validate(m).conditions()
    m2 = CJModel(2, (1, 2), (1, 2), {1: frozenset({0})}, {})
    assert "ob1" in validate(m2).conditions()


def test_validate_structural_error_for_out_of_range_bits():
    with pytest.raises(ModelStructureError):
        validate(CJModel(1, (2,), (1,), {}, {}))
    with pytest.raises(ModelStructureError):
        validate(CJModel(1, (1,), (1,), {2: frozenset({2})}, {}))
    with pytest.raises(ModelStructureError):
        validate(CJModel(1, (1,), (1,), {}, {"p": 4}))


def test_canonicalize_traces():
    ob, notes = canonicalize({1: {3}}, 2)
    assert ob == {1: frozenset({1})}
    assert notes == []


def test_canonicalize_drops_empty_trace_with_warning():
    ob, notes = canonicalize({1: {2}}, 2)
    assert ob == {}
    assert len(notes) == 1 and "empty trace dropped" in notes[0]


def test_canonicalize_merges_duplicates_and_is_idempotent():
    ob, _ = canonicalize({3: {1, 5 & 3, 1 | 4}}, 3)  # {0},{0},{0,2}
    assert ob[3] == frozenset({1, 3 & 5})
    again, notes = canonicalize(ob, 3)
    assert again == ob and notes == []


def test_canonicalize_idempotent_on_random_tables():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(1, 4)
        raw = {}
        for _ in range(rng.randint(0, 6)):
            raw.setdefault(rng.randrange(1 << n), set()).add(
                rng.randrange(1 << n))
        ob, _ = canonicalize(raw, n)
        ob2, notes = canonicalize(ob, n)
        assert ob2 == ob and notes == []


def test_save_load_roundtrip_random_models():
    rng = random.Random(7)
    for _ in range(25):
        m = random_model(rng.randint(1, 4), ("p", "q"), rng.getrandbits(63),
                         rng.choice((0.0, 0.3, 0.6)))
        assert load_model(save_model(m)) == m


def test_load_canonicalizes_messy_input():
    messy = json.dumps({
        "worlds": 2,
        "av": [[1], [1]],
        "pv": [[1, 0], [1]],
        "ob": [{"context": [1], "members": [[0, 1]]},
               {"context": [0], "members": [[0]]},
               {"context": [0, 1], "members": [[1, 0]]}],
        "val": {"p": [1, 0]},
    })
    m = load_model(messy)
    assert m.ob == {2: frozenset({2}), 1: frozenset({1}), 3: frozenset({3})}
    assert m.val["p"] == 3
    # saving is canonical: reload gives the same bytes
    assert save_model(load_model(save_model(m))) == save_model(m)


def test_docs_fixture_is_canonical():
    from pathlib import Path

    fixture = Path(__file__).parent.parent / "docs" / "example-model.json"
    data = fixture.read_bytes()
    assert save_model(load_model(data)) == data


def test_load_rejects_empty_av_row():
    doc = json.dumps({"worlds": 1, "av": [[]], "pv": [[0]], "ob": [],
                      "val": {}})
    with pytest.raises(InvalidModelError) as e:
        load_model(doc)
    assert "av-nonempty" in str(e.value)
    # but --allow-invalid style loading succeeds
    m = load_model(doc, allow_invalid=True)
    assert m.av == (0,)


def test_load_warns_on_member_outside_context():
    doc = json.dumps({"worlds": 2, "av": [[0], [1]], "pv": [[0], [1]],
                      "ob": [{"context": [0], "members": [[1]]}], "val": {}})
    with pytest.warns(ModelWarning):
        m = load_model(doc)
    assert m.ob == {}


def test_load_rejects_too_deeply_nested_json():
    with pytest.raises(ModelFormatError, match="nested too deeply"):
        load_model('{"worlds": 1, "av": ' + "[" * 100_000)


def test_load_format_errors_name_the_path():
    with pytest.raises(ModelFormatError):
        load_model(b"{not json")
    with pytest.raises(ModelFormatError) as e:
        load_model(json.dumps({"worlds": 2, "av": [[0], [5]], "pv": [[0], [1]],
                               "ob": [], "val": {}}))
    assert "av[1]" in str(e.value)
    with pytest.raises(ModelFormatError) as e:
        load_model(json.dumps({"worlds": 1, "av": [[0]], "pv": [[0]],
                               "ob": [], "val": {"Bad": [0]}}))
    assert "val" in str(e.value)


def test_load_rejects_atoms_named_like_signature_constants():
    for name in ("av", "pv", "ob", "not", "or", "eq"):
        with pytest.raises(ModelFormatError) as e:
            load_model(json.dumps({"worlds": 1, "av": [[0]], "pv": [[0]],
                                   "ob": [], "val": {name: [0]}}))
        assert str(e.value).startswith(f"val.{name}:")


def test_load_enforces_world_cap():
    doc = json.dumps({"worlds": MAX_WORLDS + 1,
                      "av": [[s] for s in range(MAX_WORLDS + 1)],
                      "pv": [[s] for s in range(MAX_WORLDS + 1)],
                      "ob": [], "val": {}})
    with pytest.raises(ModelFormatError) as e:
        load_model(doc)
    assert str(e.value).startswith("worlds:")
    # the full ob table at the cap still loads
    full = tuple(1 << s for s in range(MAX_WORLDS))
    m = CJModel(MAX_WORLDS, full, full, ideal_ob(MAX_WORLDS, 0), {})
    assert load_model(save_model(m)) == m


def test_random_model_deterministic():
    a = random_model(3, {"p", "q"}, 42, 0.3)
    b = random_model(3, {"p", "q"}, 42, 0.3)
    assert a == b
    assert a != random_model(3, {"p", "q"}, 43, 0.3)


def test_random_model_always_valid():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 5)
        m = random_model(n, ("p",), rng.getrandbits(63),
                         rng.choice((0.0, 0.2, 0.5, 0.9)))
        assert validate(m).ok, m


def test_random_model_example_is_valid():
    assert validate(random_model(3, {"p", "q"}, 42, 0.3)).ok


def test_random_model_one_world_zero_density():
    m = random_model(1, {"p"}, 123, 0.0)
    assert m.av == (1,) and m.pv == (1,) and m.ob == {}
    assert validate(m).ok


def test_random_model_rejects_bad_arguments():
    with pytest.raises(ValueError):
        random_model(0, set(), 1, 0.5)
    with pytest.raises(ValueError):
        random_model(9, set(), 1, 0.5)
    with pytest.raises(ValueError):
        random_model(2, set(), 1, 1.5)


def test_enumerate_counts_one_world():
    assert len(list(enumerate_models(1, []))) == 2
    assert len(list(enumerate_models(1, ["p"]))) == 4


def test_enumerate_two_worlds_count_and_validity():
    ms = list(enumerate_models(2, ["p"]))
    # 16 frames x 5 ob tables x 4 valuations
    assert len(ms) == 320
    seen = set()
    for m in ms:
        assert validate(m).ok
        seen.add(model_json(m))
    assert len(seen) == len(ms)  # each exactly once


def test_enumerate_deterministic_order():
    a = [model_json(m) for m in enumerate_models(2, ["p"])]
    b = [model_json(m) for m in enumerate_models(2, ["p"])]
    assert a == b


def test_enumerate_cap():
    with pytest.raises(ValueError):
        next(enumerate_models(3, []))


def test_membership_depends_only_on_trace():
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randint(1, 4)
        m = random_model(n, (), rng.getrandbits(63), 0.4)
        full = full_mask(n)
        for _ in range(20):
            x = rng.randrange(full + 1)
            y = rng.randrange(full + 1)
            z = (y & x) | (rng.randrange(full + 1) & ~x)
            assert y & x == z & x
            assert ob_member(m, x, y) == ob_member(m, x, z)
            assert not ob_member(m, x, 0)


def test_validate_agrees_with_brute_force_on_candidates():
    for n in (1, 2):
        for table in all_candidate_ob_tables(n):
            m = CJModel(n, tuple(1 << s for s in range(n)),
                        tuple(1 << s for s in range(n)), table, {})
            assert validate(m).ok == (
                not brute_force_ob_failures(table_member(table), n)), table


def test_close_ob_matches_repair_oracle():
    # dense draws as in random_model, and sparse ones that leave a
    # nonempty set of ideal worlds
    rng = random.Random(17)
    for n in range(1, 6):
        full = full_mask(n)
        for i in range(120):
            raw: dict[int, set[int]] = {}
            if i % 2:
                density = rng.choice((0.05, 0.15, 0.3, 0.5))
                for context in range(1, full + 1):
                    for trace in subsets(context):
                        if trace and rng.random() < density:
                            raw.setdefault(context, set()).add(trace)
            else:
                for _ in range(rng.randint(0, 3)):
                    context = rng.randint(1, full)
                    trace = rng.choice([t for t in subsets(context) if t])
                    raw.setdefault(context, set()).add(trace)
            grown = {c: set(ts) for c, ts in raw.items()}
            repair_ob(grown, n)
            expected = {c: frozenset(ts) for c, ts in grown.items() if ts}
            assert close_ob_oracle(raw, n) == expected, (n, raw)


def test_random_model_matches_the_raw_table_oracle():
    # the sampler takes the least valid table holding its drawn traces
    # while drawing; the oracle draws a raw table and closes it after.
    # Equal models render the same `model_json`; comparing the models
    # skips rendering ob tables of up to 3**8 members.
    densities = (0.05, *DENSITIES, 1.0)
    draws = 0
    for n in range(1, MAX_WORLDS + 1):
        for density in densities:
            for seed in range(42):
                seed = seed * 7919 + n
                m = random_model(n, "pq", seed, density)
                old = random_model_oracle(n, "pq", seed, density)
                assert m == old, (n, density, seed)
                if n <= 3:
                    assert model_json(m) == model_json(old)
                draws += 1
    assert draws >= 2000


def test_valid_ob_tables_match_filtered_candidates():
    for n in (1, 2):
        assert _valid_ob_tables(n) == [
            t for t in all_candidate_ob_tables(n)
            if not brute_force_ob_failures(table_member(t), n)]


def test_valid_ob_table_count_order_and_validity():
    for n in range(1, 7):
        tables = _valid_ob_tables(n)
        assert len(tables) == (2 if n == 1 else 2 ** n + 1)
        # strictly in product order: per-context member bitmaps, with
        # bit i for the i-th subset of the context
        keys = [[sum(1 << i for i, u in enumerate(subsets(c))
                     if u in table.get(c, ()))
                 for c in range(1, full_mask(n) + 1)] for table in tables]
        assert all(a < b for a, b in zip(keys, keys[1:]))
        for table in tables:
            assert next(_ob_violations(table, n), None) is None
            if n == 3:
                assert brute_force_ob_failures(table_member(table), n) == []
