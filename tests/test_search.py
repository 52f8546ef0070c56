import concurrent.futures
import dataclasses
import gc
import hashlib
import json
import itertools
import math
import os
import re
import subprocess
import sys
import threading
import time
import warnings

import pytest

from lenspairs.cli import run
from lenspairs.knots import (
    FAMILIES,
    InvalidKnot,
    KnotDescriptor,
    Lens,
    SurgerySlope,
    cable,
    kplus,
    lens_surgery,
    tangle_hh,
    tangle_th,
    torus,
)
from lenspairs.lens import InvalidOrder, NotCoprime, canonical_form, make_lens
from lenspairs import dualknot, knots, lens, search
from lenspairs.dualknot import kplus_is_hyperbolic
from lenspairs.search import (
    SearchConfig,
    enumerate_surgeries,
    find_coincidences,
    verify_family,
    verify_no_nonintegral_pairs,
)
from lenspairs.sequences import InvalidIndex
import oracles
from oracles import torus_pairs_sharing_a_product
from test_family_table import assert_constructions_valid, assert_table_lemma
from test_pins import DIGESTS, SEARCH_CI


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(families={"moebius"})
    with pytest.raises(ValueError):
        SearchConfig(order_max=0)
    with pytest.raises(ValueError):
        SearchConfig(slope_denominators={0})
    with pytest.raises(ValueError):
        SearchConfig(slope_denominators={17})


def test_enumerate_torus_examples():
    config = SearchConfig(families={"torus"}, torus_max=4, order_max=100, slope_denominators={1})
    stream = list(enumerate_surgeries(config))
    assert (torus(3, 4), SurgerySlope(13), make_lens(13, 3)) in stream
    assert (torus(3, 4), SurgerySlope(11), make_lens(11, 5)) in stream


def test_enumerate_other_families():
    config = SearchConfig(families={"kplus"}, kplus_max=3, order_max=100)
    assert (kplus(2, 3), SurgerySlope(19), make_lens(19, 11)) in list(enumerate_surgeries(config))
    config = SearchConfig(families={"tangleHH", "tangleTH"}, tangle_max=1, order_max=100)
    stream = list(enumerate_surgeries(config))
    assert (tangle_hh(1), SurgerySlope(93), make_lens(93, 67)) in stream
    assert (tangle_th(1), SurgerySlope(66), make_lens(66, 29)) in stream


def test_enumerate_respects_order_bound():
    config = SearchConfig(order_max=60)
    for _, slope, space in enumerate_surgeries(config):
        assert space.p <= 60
        assert slope.m <= 60


def _layout_records(config, workers):
    # the records of every shard of the layout for ``workers``, in the order of ``find_coincidences``
    records = [record for task in search._shards(config, workers) for record in search._shard_records(task)]
    return sorted(records, key=lambda r: (r.slope.m, r.slope.n, r.lens_class))


def test_find_coincidences_respects_order_bound():
    # at order_max 56 the pool's last shard spans orders 55..57, which ``knots._rows`` cuts
    # to 56, and orders 56 and 57 both hold a record
    assert search._shards(SearchConfig(order_max=56), 2)[-1][1:] == (55, 58)
    for workers in (1, 2):
        assert any(r.slope.m == 57 for r in _layout_records(SearchConfig(order_max=57), workers))
        records = _layout_records(SearchConfig(order_max=56), workers)
        assert any(r.slope.m == 56 for r in records) and all(r.slope.m <= 56 for r in records)
    assert all(r.slope.m <= 56 for r in find_coincidences(SearchConfig(order_max=56)))


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("order_max", [1, 38, 39, 4096, 4097, 5000, 50000, 10**6])
def test_shards_tile_the_orders_within_the_cap(order_max, workers):
    # a sequential search cuts shards as wide as the cap allows; a pool gets at least _SHARDS
    shards = search._shards(SearchConfig(order_max=order_max), workers)
    cap = max(search._SHARD_WIDTH, search._SHARD_ROOTS * math.isqrt(order_max))
    assert shards[0][1] == 1 and shards[-1][1] <= order_max < shards[-1][2]
    assert all(hi == lo for (_, _, hi), (_, lo, _) in zip(shards, shards[1:]))
    assert all(lo < hi <= lo + cap for _, lo, hi in shards)
    if workers == 1:
        assert len(shards) == -(-order_max // cap)
    else:
        assert len(shards) >= min(search._SHARDS, order_max)


def test_find_coincidences_torus_pair():
    config = SearchConfig(families={"torus"}, torus_max=7, order_max=20, slope_denominators={1})
    records = find_coincidences(config)
    assert len(records) == 1
    record = records[0]
    assert record.slope == SurgerySlope(13)
    assert record.lens_class == (13, 3)
    assert {str(knot) for knot, _ in record.members} == {"torus(3,4)", "torus(2,7)"}
    assert record.certified_multiplicity == 2


def test_find_coincidences_torus_cable_pair():
    config = SearchConfig(
        families={"torus", "cable"}, torus_max=8, cable_max=3, order_max=25, slope_denominators={1}
    )
    records = find_coincidences(config)
    assert any(
        record.slope == SurgerySlope(25)
        and {str(knot) for knot, _ in record.members} == {"torus(3,8)", "cable(2,3,+1)"}
        for record in records
    )


def test_records_reverify():
    config = SearchConfig(order_max=200)
    for record in find_coincidences(config):
        assert record.multiplicity >= 2
        for knot, space in record.members:
            result = lens_surgery(knot, record.slope)
            assert isinstance(result, Lens)
            assert result.space == space
            assert canonical_form(space) == record.lens_class


def test_no_equal_members():
    from lenspairs.knots import distinct

    config = SearchConfig(order_max=300)
    for record in find_coincidences(config):
        knots = [knot for knot, _ in record.members]
        for i in range(len(knots)):
            for j in range(i + 1, len(knots)):
                assert distinct(knots[i], knots[j]) != "equal"


def test_cable_only_finds_nothing():
    config = SearchConfig(families={"cable"}, cable_max=30, order_max=500)
    assert find_coincidences(config) == []


def test_worker_determinism():
    sequential = find_coincidences(SearchConfig(order_max=300, workers=1))
    parallel = find_coincidences(SearchConfig(order_max=300, workers=3))
    assert [record.to_json() for record in sequential] == [record.to_json() for record in parallel]


# the search bounds of the benchmark and CI, where the largest buckets have three members
CI_BOUNDS = dict(order_max=50000, torus_max=3000, cable_max=3000, kplus_max=300, tangle_max=100)


@pytest.fixture(scope="module", params=[1, 2], ids=["workers1", "workers2"])
def ci_records(request):
    return find_coincidences(SearchConfig(**CI_BOUNDS, workers=request.param))


def test_ci_bound_three_member_records(ci_records):
    # a three-member bucket is the only one whose list grows past the first collision
    triples = [json.loads(r.to_json()) for r in ci_records if r.multiplicity >= 3]
    member = lambda family, params, raw_q: {"family": family, "params": params, "raw_q": raw_q}
    assert triples == [
        {"slope": "13/1", "lens": {"p": 13, "q_canonical": 3}, "certified_multiplicity": 2,
         "members": [member("kplus", [1, 3], 3), member("torus", [2, 7], 10), member("torus", [3, 4], 3)]},
        {"slope": "21/1", "lens": {"p": 21, "q_canonical": 4}, "certified_multiplicity": 2,
         "members": [member("kplus", [1, 4], 4), member("torus", [2, 11], 16), member("torus", [4, 5], 4)]},
    ]


def test_ci_bound_jsonl_bytes(ci_records):
    # the 568 records at the CI bounds, in-process, are the bytes pinned for `search --jsonl`
    text = "".join(record.to_json() + "\n" for record in ci_records)
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == DIGESTS[("--jsonl", "search", *SEARCH_CI.split(), "--workers", "1")]


def test_record_json_matches_json_dumps(ci_records):
    # the template writes every CI-bound record as json.dumps writes its dict
    assert [record.to_json() for record in ci_records] == [oracles.record_json(record) for record in ci_records]


def test_family_names_need_no_json_escape():
    # the record template writes a family name raw between quotes
    for name in FAMILIES:
        assert json.dumps(name) == f'"{name}"'


def test_ci_bound_search_leaves_the_cyclic_gc_idle():
    # a shard keeps plain ints per row, which the collector does not track; a
    # tuple kept per row made this search run over a thousand generation-0 collections
    assert gc.isenabled()
    before = gc.get_stats()[0]["collections"]
    find_coincidences(SearchConfig(**CI_BOUNDS, workers=1))
    assert gc.get_stats()[0]["collections"] - before <= 100


def test_no_ci_bound_record_holds_two_cables(ci_records):
    # the satellite lemma: the two knots of a pair are never both satellites, and of the
    # table's families only cable has the one type satellite
    satellite = {family for family, entry in knots._TABLE.items() if entry.types == {"satellite"}}
    assert len(ci_records) == 568 and satellite == {"cable"}
    assert not [r for r in ci_records if sum(knot.family in satellite for knot, _ in r.members) >= 2]


# the six verified constructions with their first n, and the search bound on each family's parameters
CONSTRUCTIONS = {"torus_torus": 1, "torus_torus_half": 1, "torus_cable": 1, "cable_kplus": 3,
                 "tangle_kplus": 1, "torus_tangle": 1}
CAPS = {"torus": "torus_max", "cable": "cable_max", "kplus": "kplus_max", "tangleHH": "tangle_max",
        "tangleTH": "tangle_max"}


def _canonical(knot):
    # the search lists the symmetric families with their first two parameters ascending
    return knot.family, (*sorted(knot.params[:2]), *knot.params[2:])


def _in_bound_instances(config):
    """(construction, n, slope, pair) for each instance of a construction, by the paper's
    formulas in ``oracles.family_pair``, whose slope and knots lie within the search bounds;
    pair is the set of its two knots as (family, canonical params)."""
    for construction, n in CONSTRUCTIONS.items():
        while True:
            first, second, slope = oracles.family_pair(construction, n)
            if slope.m > config.order_max:  # every construction's slope grows with n
                break
            pair = {_canonical(first), _canonical(second)}
            if slope.n in config.slope_denominators and all(
                    family in config.families and max(params[:2]) <= getattr(config, CAPS[family])
                    for family, params in pair):
                yield construction, n, slope, pair
            n += 1


def _unmatched_instances(config, records):
    """(instances, misses): each in-bound instance of a construction, and those of them
    whose two knots are not members of one record at their slope."""
    members = {}
    for record in records:
        members.setdefault(record.slope, []).append({_canonical(knot) for knot, _ in record.members})
    instances, misses = [], []
    for construction, n, slope, pair in _in_bound_instances(config):
        instances.append((construction, n))
        if not any(pair <= found for found in members.get(slope, [])):
            misses.append((construction, n))
    return instances, misses


def test_every_in_bound_construction_instance_is_a_record(ci_records):
    # the converse of verify: the search finds each instance of the six constructions in its bounds
    instances, misses = _unmatched_instances(SearchConfig(**CI_BOUNDS), ci_records)
    assert len(instances) == 193 and misses == []


def test_every_construction_instance_to_order_200000_is_a_record():
    config = SearchConfig(order_max=200000, torus_max=200000, cable_max=200000, kplus_max=300, tangle_max=200,
                          slope_denominators={1, 2, 3})
    instances, misses = _unmatched_instances(config, find_coincidences(config))
    assert len(instances) == 372 and misses == []


# the residual records at the CI bounds that pair two families other than the mirror class:
# 13 cable-torus, 7 kplus-torus (each certified by phi) and 2 cable-kplus
RESIDUAL_PAIRS = {
    ("91/1", (("kplus", (5, 6)), ("torus", (4, 23)))),
    ("119/1", (("cable", (5, 6, -1)), ("torus", (5, 24)))),
    ("169/1", (("cable", (6, 7, 1)), ("torus", (5, 34)))),
    ("181/1", (("kplus", (4, 11)), ("torus", (7, 26)))),
    ("209/1", (("cable", (4, 13, 1)), ("torus", (7, 30)))),
    ("305/1", (("cable", (4, 19, 1)), ("torus", (9, 34)))),
    ("481/1", (("cable", (5, 24, 1)), ("kplus", (5, 19)))),
    ("697/1", (("cable", (6, 29, 1)), ("torus", (24, 29)))),
    ("703/1", (("kplus", (6, 23)), ("torus", (11, 64)))),
    ("985/1", (("cable", (6, 41, 1)), ("torus", (29, 34)))),
    ("2521/1", (("kplus", (15, 41)), ("torus", (26, 97)))),
    ("2911/1", (("cable", (13, 56, -1)), ("torus", (30, 97)))),
    ("3081/1", (("kplus", (29, 35)), ("torus", (23, 134)))),
    ("4059/1", (("cable", (29, 35, -1)), ("torus", (29, 140)))),
    ("5473/1", (("cable", (19, 72, 1)), ("torus", (34, 161)))),
    ("5741/1", (("cable", (35, 41, 1)), ("torus", (29, 198)))),
    ("11041/1", (("cable", (24, 115, 1)), ("kplus", (24, 91)))),
    ("23661/1", (("cable", (35, 169, 1)), ("torus", (140, 169)))),
    ("23871/1", (("kplus", (35, 134)), ("torus", (64, 373)))),
    ("33461/1", (("cable", (35, 239, 1)), ("torus", (169, 198)))),
    ("35113/1", (("kplus", (56, 153)), ("torus", (97, 362)))),
    ("40545/1", (("cable", (56, 181, 1)), ("torus", (97, 418)))),
}


def test_ci_bound_records_are_instances_aliases_or_residual(ci_records):
    # each record holds an instance of a verified construction, or else the alias pair
    # kplus(1,b) with torus(b,b+1), one knot under two names, or neither of them
    instances = {}
    for _, _, slope, pair in _in_bound_instances(SearchConfig(**CI_BOUNDS)):
        instances.setdefault(slope, []).append(pair)
    kinds, residual = {"instance": 0, "alias": 0}, []
    for record in ci_records:
        held = {_canonical(knot) for knot, _ in record.members}
        if any(pair <= held for pair in instances.get(record.slope, [])):
            kinds["instance"] += 1
        elif any(family == "kplus" and params[0] == 1 and ("torus", (params[1], params[1] + 1)) in held
                 for family, params in held):
            kinds["alias"] += 1
        else:
            residual.append((record.slope, held))
    assert kinds == {"instance": 193, "alias": 221} and len(residual) == 154
    # cable(a,2a+1,+1) with torus(2a+1,4a), the b = 2a+1 mirror of torus_cable (b = 2a-1), share
    # the slope m = 8a^2+4a+1 and a class, as 4(2a+1)^2 + (4a)^2 = 4m makes their parameters -q, q
    mirrors = []
    for a in itertools.count(2):
        if 8 * a * a + 4 * a + 1 > CI_BOUNDS["order_max"]:
            break
        mirrors.append({("cable", (a, 2 * a + 1, 1)), ("torus", (2 * a + 1, 4 * a))})
    assert len(mirrors) == 77
    # torus(p,q) at m = npq -+ 1 gives L(m, nq^2), and (npq)^2 = 1 (mod m) makes np^2 the inverse of
    # nq^2, so its class is {+-np^2, +-nq^2}; n is a unit mod m.  Two torus knots p < q, r < s:
    cases = {"mirror": 0, "A": 0, "B": 0, "listed": 0}
    for slope, held in residual:
        m, n = slope.m, slope.n
        if any(pair <= held for pair in mirrors):
            cases["mirror"] += 1
        elif {family for family, _ in held} == {"torus"}:
            (_, (p, _)), (_, (r, _)) = sorted(held)
            # case A: m | p^2 -+ r^2 puts np^2 = +-nr^2 in both classes
            if (p * p - r * r) % m == 0 or (p * p + r * r) % m == 0:
                cases["A"] += 1
            # case B: m | (npr)^2 -+ 1 puts np^2 = +-(nr^2)^-1 = +-ns^2 in both classes
            else:
                assert ((n * p * r) ** 2 - 1) % m == 0 or ((n * p * r) ** 2 + 1) % m == 0, (slope, held)
                cases["B"] += 1
        else:
            assert (str(slope), tuple(sorted(held))) in RESIDUAL_PAIRS, (slope, held)
            cases["listed"] += 1
    assert cases == {"mirror": 77, "A": 4, "B": 51, "listed": 22} and len(RESIDUAL_PAIRS) == 22


def test_ci_bound_members_but_tangle_th_have_an_integral_a2(ci_records):
    # a knot in S^3 has an integral a2; the tangleTH spaces are tabulated mirrored
    # (``test_casson_walker.py``)
    for record in ci_records:
        for knot, space in record.members:
            if knot.family != "tangleTH":
                assert oracles.surgery_a2(record.slope.m, record.slope.n, space.q).denominator == 1, (knot, record.slope)


def test_bucket_keys_keep_slopes_of_one_order_apart():
    # at order 2911, torus(15,194) at slope 2911/1 and torus(13,14) at 2911/16
    # give one lens class, but no slope: the int bucket key must keep them apart
    config = SearchConfig(order_max=3000, torus_max=3000, cable_max=3000, kplus_max=300, tangle_max=100,
                          slope_denominators={1, 2, 15, 16})
    buckets = {}
    for knot, slope, space in enumerate_surgeries(config):
        buckets.setdefault((slope.m, slope.n, canonical_form(space)), []).append((knot, space))
    assert len(buckets[2911, 1, (2911, 207)]) == len(buckets[2911, 16, (2911, 207)]) == 1
    expected = [(SurgerySlope(m, n), lens_class, tuple(members))
                for (m, n, lens_class), members in sorted(buckets.items()) if len(members) >= 2]
    assert [(r.slope, r.lens_class, r.members) for r in find_coincidences(config)] == expected


def test_search_whose_order_max_is_not_a_multiple_of_the_shard_width():
    # the benchmark's probe search: order 5000 runs sequentially in the shards [1, 4097) and
    # [4097, 8193), and on a pool in shards 312 orders wide up to [4993, 5305); ``knots._rows``
    # cuts either last shard to 5001, and the keys of every shard must decode to the slopes
    # and classes that an enumeration keyed by ``canonical_form`` finds
    config = SearchConfig(order_max=5000, torus_max=500, cable_max=500, kplus_max=60, tangle_max=20)
    assert [search._shards(config, workers)[-1][1:] for workers in (1, 2)] == [(4097, 8193), (4993, 5305)]
    buckets = {}
    for knot, slope, space in enumerate_surgeries(config):
        buckets.setdefault((slope.m, slope.n, canonical_form(space)), []).append((knot, space))
    expected = [(SurgerySlope(m, n), lens_class, tuple(members))
                for (m, n, lens_class), members in sorted(buckets.items()) if len(members) >= 2]
    assert any(slope.m >= 4097 for slope, _, _ in expected)
    for workers in (1, 2):
        assert [(r.slope, r.lens_class, r.members) for r in _layout_records(config, workers)] == expected
    assert [(r.slope, r.lens_class, r.members) for r in find_coincidences(config)] == expected


@pytest.mark.parametrize("bounds", [
    dict(CI_BOUNDS),
    dict(order_max=20000, torus_max=20000, cable_max=20000, kplus_max=300, tangle_max=100,
         slope_denominators=range(1, 17)),
    dict(order_max=3001, torus_max=5000, cable_max=5000, kplus_max=5000, tangle_max=5000),
    dict(order_max=50000, torus_max=40, cable_max=40, kplus_max=300, tangle_max=100),
], ids=["benchmark", "order20000-den16", "order3001-caps-above", "torus40-order50000"])
def test_shard_buckets_match_the_per_row_closed_form(bounds):
    # each shard's shared buckets, with the regular torus and cable rows probed as runs, are
    # those of bucketing every row one by one, the torus and cable rows made by the oracle;
    # the oracle's keys and idents are decoded here, as ``_shared_buckets`` decodes its own
    config = SearchConfig(**bounds)
    others = dataclasses.replace(config, families=config.families - {"torus", "cable"})
    width = knots._ident_width(config.order_max)
    for _, lo, hi in search._shards(config, 1) + search._shards(config, 2):
        buckets = {}
        for key, ident in itertools.chain(oracles.product_rows(config, lo, hi), knots._rows(others, lo, hi)):
            buckets.setdefault(key, []).append(ident)
        expected = {knots._key_parts(key, width): sorted(knots._knot_of(ident, width) for ident in idents)
                    for key, idents in buckets.items() if len(idents) >= 2}
        got = {(m, n, q_min): members for m, n, q_min, members in knots._shared_buckets(config, lo, hi)}
        assert got == expected, (lo, hi)


def test_enumerated_triples_match_lens_surgery():
    config = SearchConfig(order_max=3000, torus_max=60, cable_max=30, kplus_max=40, tangle_max=9,
                          slope_denominators={1, 2, 3})
    triples = list(enumerate_surgeries(config))
    assert {knot.family for knot, _, _ in triples} == set(FAMILIES)
    for knot, slope, space in triples:
        assert lens_surgery(knot, slope) == Lens(space)


def test_enumeration_is_bounded_by_order():
    # loops stop at the order bound, not at the family maxima
    big = dict(torus_max=10 ** 6, cable_max=10 ** 6, kplus_max=10 ** 6, tangle_max=10 ** 6)
    start = time.perf_counter()
    wide = list(enumerate_surgeries(SearchConfig(order_max=500, **big)))
    elapsed = time.perf_counter() - start
    narrow = dict(torus_max=500, cable_max=500, kplus_max=500, tangle_max=500)
    assert wide == list(enumerate_surgeries(SearchConfig(order_max=500, **narrow)))
    assert elapsed < 1.0


def test_pool_is_capped_at_cpu_count(monkeypatch):
    sizes = []

    class Recording(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    sequential = find_coincidences(SearchConfig(order_max=500, workers=1))
    pooled = find_coincidences(SearchConfig(order_max=500, workers=8))
    assert [r.to_json() for r in pooled] == [r.to_json() for r in sequential]
    assert sizes == ([min(8, os.cpu_count())] if os.cpu_count() > 1 else [])
    # on one core no pool starts at all
    sizes.clear()
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert find_coincidences(SearchConfig(order_max=500, workers=8)) == sequential
    assert sizes == []


def test_pool_spawns_its_workers_while_another_thread_runs(monkeypatch):
    # a process that runs threads may deadlock in a forked child, and Python 3.12+ warns on it
    methods = []

    class Recording(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, mp_context=None, **kwargs):
            methods.append(mp_context and mp_context.get_start_method())
            super().__init__(max_workers, mp_context=mp_context, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    config = SearchConfig(order_max=2000, workers=1)
    sequential = find_coincidences(config)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        # os.fork clears the error that a warnings-as-errors filter makes of its warning, so record it
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            pooled = find_coincidences(dataclasses.replace(config, workers=2))
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert [str(w.message) for w in caught] == []
    assert [r.to_json() for r in pooled] == [r.to_json() for r in sequential]
    assert methods == (["spawn"] if os.cpu_count() > 1 else [])


def test_record_json_shape():
    config = SearchConfig(families={"torus"}, torus_max=7, order_max=20, slope_denominators={1})
    record = find_coincidences(config)[0]
    obj = json.loads(record.to_json())
    assert obj["slope"] == "13/1"
    assert obj["lens"] == {"p": 13, "q_canonical": 3}
    assert {"family": "torus", "params": [3, 4], "raw_q": 3} in obj["members"]
    assert {"family": "torus", "params": [2, 7], "raw_q": 10} in obj["members"]


def test_verify_family_witnesses():
    report = verify_family("torus_torus", range(1, 21))
    assert report.passed
    first = report.checks[0]
    assert "torus(3,4)" in first.witness and "torus(2,7)" in first.witness and "13/1" in first.witness

    report = verify_family("torus_torus_half", range(1, 16))
    assert report.passed
    assert "29/2" in report.checks[0].witness

    report = verify_family("cable_kplus", range(3, 13))
    assert report.passed
    assert "cable(2,5,-1)" in report.checks[0].witness

    assert verify_family("torus_cable", range(1, 31)).passed
    assert verify_family("tangle_kplus", range(1, 13)).passed
    assert verify_family("torus_tangle", range(1, 13)).passed


def test_verify_family_takes_no_modular_inverse(monkeypatch):
    # homeomorphic decides q2 = +-q1 or q1 q2 = +-1 (mod p) by one product;
    # an inverse of a 400-digit Fibonacci order is the cost it avoids
    def forbidden(*args):
        raise AssertionError(f"pow{args} called inside lenspairs.lens")

    monkeypatch.setattr(lens, "pow", forbidden, raising=False)
    assert verify_family("torus_torus", range(1, 200)).passed


@pytest.mark.parametrize("knots,shared", [((torus(2, 3), torus(2, 5)), 0), ((torus(2, 3), torus(2, 3)), 2)])
def test_verify_fails_unless_exactly_one_shared_slope(monkeypatch, capsys, knots, shared):
    instance = tuple((knot.family, knot.params) for knot in knots)
    monkeypatch.setitem(search._VERIFY, "torus_torus", (1, 1, None, lambda n: instance))
    report = verify_family("torus_torus", range(1, 3))
    assert not report.passed
    assert [check.passed for check in report.checks] == [False, False]
    witness = f"{knots[0]} & {knots[1]} share {shared} lens slopes m/1, not one"
    assert [check.witness for check in report.checks] == [witness, witness]
    assert run(["verify", "torus_torus", "--range", "1..2"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "torus_torus: 0/2 instances verified"


@pytest.mark.parametrize("instance,culprit", [
    ((("torus", (4, 6)), ("torus", (2, 3))), 0),
    ((("torus", (2, 3)), ("cable", (2, 3, 0))), 1),
    ((("torus", (4, 6)), ("cable", (2, 3, 0))), 0),  # the first knot is checked first
    ((("torus", (2, 3, 5)), ("torus", (2, 3))), 0),
    ((("torus", (2, 3)), ("moebius", (1,))), 1),
])
def test_verify_raises_what_a_knot_descriptor_raises(monkeypatch, instance, culprit):
    # verify trusts the knots that ``search._VERIFY`` builds, so a construction
    # edited to name an invalid knot is caught by the tier-1 oracle over its
    # instances, which raises what the knot's descriptor raises
    monkeypatch.setitem(search._VERIFY, "torus_torus", (1, 1, None, lambda n: instance))
    with pytest.raises(InvalidKnot) as expected:
        KnotDescriptor(*instance[culprit])
    with pytest.raises(InvalidKnot) as raised:
        assert_constructions_valid("torus_torus")
    assert str(raised.value) == str(expected.value)


def test_verify_builds_no_knot_descriptor(monkeypatch):
    built = []
    check = KnotDescriptor.__post_init__

    def counted(self):
        built.append(self)
        check(self)

    monkeypatch.setattr(KnotDescriptor, "__post_init__", counted)
    assert torus(2, 3) == built.pop()  # the counter sees a construction
    assert verify_family("torus_cable", range(1, 200)).passed
    assert verify_no_nonintegral_pairs(40, 3, 6).clean
    assert built == []


def test_verify_checks_no_knot_and_no_lens_parameter(monkeypatch):
    # the table lemma and each construction's proof stand in for these checks, so
    # neither the verify families nor the nonintegral scan make one; nor does the
    # phi certificate (test_verify_phi_certificate_builds_no_dual_triple)
    calls = {"knot": 0, "lens": 0}

    def counted(name, check):
        def wrapper(*args):
            calls[name] += 1
            return check(*args)
        return wrapper

    monkeypatch.setattr(knots, "_check_knot", counted("knot", knots._check_knot))
    monkeypatch.setattr(lens, "_reduced_q", counted("lens", lens._reduced_q))
    # and a copy of its name that knots may import
    monkeypatch.setattr(knots, "_reduced_q", counted("lens", lens._reduced_q), raising=False)
    assert (torus(2, 3), make_lens(5, 7)) and calls == {"knot": 1, "lens": 1}  # the counters see a check
    calls.update(knot=0, lens=0)
    for family, (low, *_) in search._VERIFY.items():
        assert verify_family(family, range(low, low + 200)).passed, family
    assert verify_no_nonintegral_pairs(40, 3, 6).clean
    assert calls == {"knot": 0, "lens": 0}


@pytest.mark.parametrize("index", [True, 1.5, "3"])
def test_verify_takes_only_int_indices(capsys, index):
    for ns in ([index], [2, index]):
        with pytest.raises(InvalidIndex, match=f"^index must be an int, got {re.escape(repr(index))}$"):
            for check in search._checks("tangle_kplus", ns):
                print(check.line())
        assert capsys.readouterr().out == ""  # raised before the first line
        with pytest.raises(InvalidIndex):
            verify_family("tangle_kplus", ns)


def _tangles_sharing(monkeypatch, m, q1, q2, den):
    # torus_tangle verifies tangleHH(n) and tangleTH(n) at denominator den, and the two
    # entries of the table share the one slope m/den, with lens parameters q1 and q2
    for family, q in (("tangleHH", q1), ("tangleTH", q2)):
        slopes = lambda den, n, q=q: ((m, q),)
        monkeypatch.setitem(knots._TABLE, family, dataclasses.replace(knots._TABLE[family], slopes=slopes))
    monkeypatch.setitem(search._VERIFY, "torus_tangle", (1, den, None, lambda n: (("tangleHH", (n,)), ("tangleTH", (n,)))))


@pytest.mark.parametrize("m,q1,q2,error", [
    (64, 3, 4, NotCoprime),
    (64, 4, 3, NotCoprime),
    (64, 68, 2, NotCoprime),
    (0, 1, 1, InvalidOrder),
    (-7, 1, 2, InvalidOrder),
])
def test_verify_raises_what_make_lens_raises(monkeypatch, m, q1, q2, error):
    # verify trusts the table lemma, so a table edited to list a slope that
    # gives no lens space is caught by the tier-1 oracle of the lemma, which
    # raises what make_lens raises
    _tangles_sharing(monkeypatch, m, q1, q2, 1)
    with pytest.raises(error) as expected:
        make_lens(m, q1)
        make_lens(m, q2)
    with pytest.raises(error) as raised:
        for family in FAMILIES:
            assert_table_lemma(family)
    assert type(raised.value) is type(expected.value)
    assert str(raised.value) == str(expected.value)


def test_verify_witness_writes_the_slope_and_spaces_as_their_objects_do(monkeypatch):
    # 10/2 reduces to 5/1, and 13 reduces to 3 mod 10
    _tangles_sharing(monkeypatch, 10, 13, 7, 2)
    (check,) = verify_family("torus_tangle", [1]).checks
    knots_text = f"{tangle_hh(1)} & {tangle_th(1)}"
    assert check.witness == f"{knots_text} @ {SurgerySlope(10, 2)} -> {make_lens(10, 13)} ~ {make_lens(10, 7)}"
    assert check.witness == f"{knots_text} @ 5/1 -> L(10,3) ~ L(10,7)"
    assert not check.passed  # the two tangle knots are not certified distinct


def test_verify_witnesses_match_the_oracle_text_by_text(monkeypatch):
    # the phi certificate, which takes a minute over cable_kplus to n = 2000, writes no text
    monkeypatch.setattr(search, "_distinct", lambda *knots: "distinct")
    for family, (low, den, *_) in search._VERIFY.items():
        ns = range(low, 2001)
        for n, (first, second), check in zip(ns, search._instances(family, ns), search._checks(family, ns), strict=True):
            ((_, m, q1, q2, _),) = knots._shared_lens_slopes(*first, *second, (den,))
            assert check.witness == oracles.verify_witness(first, second, den, m, q1, q2), (family, n)
    # a planted instance of two torus knots writes its own knots among those of its construction
    low, den, walk, knots_of = search._VERIFY["tangle_kplus"]
    planted = (("torus", (3, 4)), ("torus", (2, 7)))
    monkeypatch.setitem(search._VERIFY, "tangle_kplus", (low, den, walk, lambda n: planted if n == 2 else knots_of(n)))
    first, torus_torus, third = (check.witness for check in search._checks("tangle_kplus", range(1, 4)))
    assert torus_torus == oracles.verify_witness(*planted, 1, 13, 3, 10) == "torus(3,4) & torus(2,7) @ 13/1 -> L(13,3) ~ L(13,10)"
    assert first == "tangleHH(1) & kplus(4,7) @ 93/1 -> L(93,67) ~ L(93,25)"
    assert third.startswith("tangleHH(3) & kplus(10,13) @ ")


def test_verify_phi_certificate_builds_no_dual_triple(monkeypatch):
    # the kplus knots of cable_kplus are valid by their construction, so the table's phi
    # path neither re-checks them nor builds a DualKnotTriple, and the lines stay the same
    ns = range(3, 200)
    lines = [check.line() for check in search._checks("cable_kplus", ns)]
    calls = {"triple": 0, "valid": 0}
    post_init, valid = dualknot.DualKnotTriple.__post_init__, dualknot._kplus_valid

    def triple(self):
        calls["triple"] += 1
        post_init(self)

    def counted_valid(*params):
        calls["valid"] += 1
        return valid(*params)

    monkeypatch.setattr(dualknot.DualKnotTriple, "__post_init__", triple)
    monkeypatch.setattr(dualknot, "_kplus_valid", counted_valid)
    monkeypatch.setitem(knots._TABLE, "kplus", dataclasses.replace(knots._TABLE["kplus"], valid=counted_valid))
    assert kplus_is_hyperbolic(2, 3) and calls == {"triple": 1, "valid": 1}  # the counters see a check
    calls.update(triple=0, valid=0)
    assert [check.line() for check in search._checks("cable_kplus", ns)] == lines
    assert calls == {"triple": 0, "valid": 0}


def test_verify_family_lines_format():
    lines = verify_family("torus_torus", range(1, 4)).lines()
    assert len(lines) == 4
    assert all(line.startswith("PASS torus_torus n=") for line in lines[:3])
    assert lines[3].endswith("3/3 instances verified")


def test_verify_family_checks_each_n_once_in_increasing_order():
    expected = verify_family("torus_torus", range(1, 4))
    for ns in ([3, 1, 2, 2], range(3, 0, -1), (n for n in (2, 3, 1))):
        assert verify_family("torus_torus", ns) == expected
    assert verify_family("torus_cable", range(7, 0, -2)) == verify_family("torus_cable", [1, 3, 5, 7])


def test_verify_checks_a_huge_range_without_listing_it():
    # listing range(1, 10**12) takes tens of GB; the child may map 1 GiB, so a
    # range that is listed ends in a MemoryError and not in the machine's memory
    resource = pytest.importorskip("resource")
    code = (
        "import itertools; from lenspairs import search; "
        "first = list(itertools.islice(search._checks('torus_cable', range(1, 10**12)), 3)); "
        "assert first == list(search.verify_family('torus_cable', range(1, 4)).checks), first; "
        "print('ok')"
    )
    src = os.path.dirname(os.path.dirname(search.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    limit = lambda: resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60,
                          preexec_fn=limit)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "ok\n", "")


def test_verify_family_bad_ranges():
    with pytest.raises(InvalidIndex):
        verify_family("cable_kplus", range(1, 5))
    with pytest.raises(InvalidIndex):
        verify_family("torus_torus", range(0, 3))
    with pytest.raises(InvalidIndex):
        verify_family("torus_torus", range(5, 5))
    with pytest.raises(InvalidIndex):
        verify_family("unknot_unknot", range(1, 5))


def test_no_nonintegral_pairs():
    report = verify_no_nonintegral_pairs(40, 3, 6)
    assert report.clean
    assert ((15, 2), (10, 3)) in report.pairs
    # every pair is checked at both signs for every denominator
    assert report.checked == len(report.pairs) * 4 * 2
    # every denominator 3..16 that the search allows, for parameters up to 150, within 60 s
    start = time.perf_counter()
    report = verify_no_nonintegral_pairs(150, 3, 16)
    assert time.perf_counter() - start < 60
    assert report.clean and len(report.pairs) == 2139 and report.checked == 59892


@pytest.mark.parametrize("p_max", [10, 12, 40, 60])
def test_no_nonintegral_pairs_match_the_product_grouping(p_max):
    report = verify_no_nonintegral_pairs(p_max, 3, 8)
    assert report.pairs == torus_pairs_sharing_a_product(p_max)
    # both lens slopes of each pair at each of the six denominators 3..8;
    # 10 is the least bound the scan takes, with the one pair (10,3), (6,5),
    # and (60, 3, 8) is the verify benchmark's query
    assert report.checked == 2 * len(report.pairs) * 6
    assert report.clean


def _plant_torus_parameter(monkeypatch, p, q, den, planted):
    # torus(p, q) at denominator den gets the lens parameter planted at both its slopes
    original = knots._TABLE["torus"].slopes

    def slopes(n, *params):
        found = original(n, *params)
        if (n, *params) == (den, p, q):
            return tuple((m, planted.get(m, raw)) for m, raw in found)
        return found

    monkeypatch.setitem(knots._TABLE, "torus", dataclasses.replace(knots._TABLE["torus"], slopes=slopes))


def test_no_nonintegral_pairs_reports_a_planted_collision(monkeypatch):
    # the product-30 pair at n = 3: torus(15,2) gives L(89, 12) and L(91, 12),
    # and torus(10,3) is made to give the same parameter 12 at both slopes
    checked = verify_no_nonintegral_pairs(40, 3, 6).checked
    _plant_torus_parameter(monkeypatch, 10, 3, 3, {89: 12, 91: 12})
    report = verify_no_nonintegral_pairs(40, 3, 6)
    assert report.violations == ((15, 2, 10, 3, 3, 89), (15, 2, 10, 3, 3, 91))
    assert not report.clean
    assert report.checked == checked


def test_no_nonintegral_pairs_raises_what_make_lens_raises(monkeypatch):
    # the scan trusts the table lemma too, and its tier-1 oracle catches the plant
    _plant_torus_parameter(monkeypatch, 10, 3, 3, {91: 7})
    with pytest.raises(NotCoprime) as expected:
        make_lens(91, 7)
    with pytest.raises(NotCoprime) as raised:
        assert_table_lemma("torus")
    assert str(raised.value) == str(expected.value) == "gcd(91, 7) != 1"


def test_no_nonintegral_pairs_smallest_case():
    # the product-30 pair at n = 3 gives orders 89 and 91; neither collides
    from lenspairs.lens import homeomorphic

    assert not homeomorphic(make_lens(91, 3 * 4), make_lens(91, 3 * 9))
    assert not homeomorphic(make_lens(89, 3 * 4), make_lens(89, 3 * 9))


def test_no_nonintegral_pairs_empty_scan_passes():
    report = verify_no_nonintegral_pairs(12, 3, 3)
    assert report.clean


def test_no_nonintegral_pairs_rejects_small_n():
    with pytest.raises(InvalidIndex):
        verify_no_nonintegral_pairs(40, 2, 6)


def test_no_nonintegral_pairs_rejects_an_empty_denominator_range():
    # with n_max below n_min the scan would check nothing and still report clean
    with pytest.raises(InvalidIndex):
        verify_no_nonintegral_pairs(60, 8, 3)


@pytest.mark.parametrize("p_max", [5, 9, -4])
def test_no_nonintegral_pairs_rejects_a_bound_with_no_pair(p_max):
    # below 10, the least bound with two torus knots of equal product (6*5 = 10*3),
    # the scan would check nothing and still report clean
    with pytest.raises(InvalidIndex):
        verify_no_nonintegral_pairs(p_max, 3, 8)


def test_mixed_family_product_congruences():
    # the parameter products that make each mixed pair homeomorphic
    from lenspairs.sequences import fib

    for n in range(1, 13):
        m = 27 * n * n + 45 * n + 21
        w = (3 * n + 1) * pow(3 * n + 4, -1, m) % m
        assert w * w * (18 * n * n + 33 * n + 16) % m == 1
    for n in range(1, 13):
        m = 18 * n * n + 33 * n + 15
        assert (9 * n * n + 12 * n + 4) * (18 * n + 19) % m == 1
    for n in range(3, 13):
        fn, fn2 = fib(n), fib(n + 2)
        m = 4 * fn * fn2 + (-1) ** n
        w = fn * pow(fn2, -1, m) % m
        assert 4 * fn * fn * w * w % m == (-1) ** (n + 1) % m
