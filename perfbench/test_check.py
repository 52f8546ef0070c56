"""The benchmark's checkers accept real lenspairs output and reject corrupted output.

    python3 -m pytest perfbench -q
"""

import json

import lenspairs.cli
import lenspairs.search
import pytest

import check
import child
import workloads


def output(query: dict) -> str:
    rc, out, err, _ = child.run_query(query, lenspairs)
    assert rc == 0, err
    return out


def jsonl(records) -> str:
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)


@pytest.fixture(scope="module")
def search_case():
    bounds = {"order_max": 600, "torus_max": 100, "cable_max": 100, "kplus_max": 30, "tangle_max": 5}
    query = workloads.search_query(workloads.random.Random(7), bounds, 1)
    expected = check.expected_records(check.enumerate_candidates(query["spec"]))
    return [json.loads(line) for line in output(query).splitlines()], expected


def test_search_accepts_program_output(search_case):
    records, expected = search_case
    assert len(records) > 5
    assert check.check_search(jsonl(records), expected) == []


def test_search_rejects_altered_q_canonical(search_case):
    records, expected = search_case
    records = json.loads(json.dumps(records))
    records[3]["lens"]["q_canonical"] += 1
    assert check.check_search(jsonl(records), expected)


def test_search_rejects_dropped_record(search_case):
    records, expected = search_case
    assert check.check_search(jsonl(records[:2] + records[3:]), expected)


def test_search_rejects_altered_member_and_multiplicity(search_case):
    records, expected = search_case
    records = json.loads(json.dumps(records))
    records[0]["members"][0]["raw_q"] += 1
    assert check.check_search(jsonl(records), expected)
    records = json.loads(json.dumps(search_case[0]))
    records[1]["certified_multiplicity"] = len(records[1]["members"]) + 1
    assert check.check_search(jsonl(records), expected)


@pytest.mark.parametrize("a,b", [(4, 7), (89, 34), (1, 1)])
def test_dual_accepts_program_output(a, b):
    assert check.check_dual(output(workloads.dual_query(a, b)), a, b) == []


@pytest.mark.parametrize("field,delta", [("phi", 1), ("s", 1), ("h", 1), ("k", 1)])
def test_dual_rejects_wrong_counts(field, delta):
    d = json.loads(output(workloads.dual_query(89, 34)))
    d[field] += delta
    assert check.check_dual(json.dumps(d), 89, 34)


def test_dual_brute_force_catches_consistent_but_wrong_counts():
    d = json.loads(output(workloads.dual_query(5, 8)))
    d["s"], d["ell"], d["s_prime"], d["ell_prime"] = d["s"] + 1, d["ell"] - 1, d["s_prime"] - 1, d["ell_prime"] + 1
    d["phi"] = min(d["s"], d["ell"], d["s_prime"], d["ell_prime"])
    d["hyperbolic"] = d["phi"] >= 2
    assert check.check_dual(json.dumps(d), 5, 8)


def test_verify_accepts_and_rejects():
    for family, lo, hi in workloads.VERIFY_RANGES:
        hi = min(hi, lo + 6)
        out = output(workloads.verify_query(family, lo, hi))
        assert check.check_verify(out, family, lo, hi) == []
    lines = [json.loads(line) for line in out.splitlines()]
    assert check.check_verify(jsonl(lines[:-1]), family, lo, hi)
    lines[2]["passed"] = False
    assert check.check_verify(jsonl(lines), family, lo, hi)
    lines[2]["passed"] = True
    lines[2]["witness"] = lines[2]["witness"].replace(" ~ L(", " ~ L(1")
    assert check.check_verify(jsonl(lines), family, lo, hi)


def test_unit_checks():
    assert check.check_unit(0, output({"argv": ["--jsonl", "bqf", "unit", "13"]}), 13) == []
    # 1 + sqrt(2) has norm -1
    assert check.check_unit(0, json.dumps({"delta": 8, "u": 1, "v": 1}), 8)
    # 17 + 12 sqrt(2) has norm 1 but is the square of the least unit 3 + 2 sqrt(2)
    assert check.check_unit(0, json.dumps({"delta": 8, "u": 17, "v": 12}), 8)
    assert check.check_unit(1, "", 13)
    assert check.check_unit(1, "", 244) == []


def test_failing_discriminants_are_the_seven_past_the_scan_cap():
    deltas = [q["delta"] for q in workloads.build("bqf", 1) if q["kind"] == "unit"]
    assert len(deltas) == 110
    assert [d for d in deltas if check.least_unit(d)[1] > check.UNIT_SCAN_CAP] == [97, 137, 193, 233, 241, 244, 249]
    assert check.least_unit(244) == (2 * 1766319049, 226153980)


def test_solve_checks():
    query = workloads.solve_query((1, -6, 1), 1)
    out = output(query)
    assert check.check_solve(out, (1, -6, 1), 1, 3) == []
    sols = [json.loads(line) for line in out.splitlines()]
    assert check.check_solve(jsonl(sols[:-3]), (1, -6, 1), 1, 3)      # an orbit dropped
    sols[1]["x"] += 1
    assert check.check_solve(jsonl(sols), (1, -6, 1), 1, 3)            # not a solution
    rng = workloads.random.Random(3)
    for delta in (13, 21, 28, 33, 60):
        form, m = workloads.random_form(rng, delta)
        out = output(workloads.solve_query(form, m))
        assert check.check_solve(out, form, m, 3) == []


def test_identities_and_nonintegral():
    out = output(workloads.identities_query(40))
    assert check.check_identities(out, 40) == []
    assert check.check_identities(out.replace('"failures": []', '"failures": [7]', 1), 40)
    query = {"kind": "nonintegral", "call": "verify_no_nonintegral_pairs", "args": [30, 3, 5]}
    out = output(query)
    assert check.check_nonintegral(out, 30, 3, 5) == []
    d = json.loads(out)
    d["pairs"] = d["pairs"][1:]
    assert check.check_nonintegral(json.dumps(d), 30, 3, 5)


def test_workloads_depend_only_on_the_seed():
    for name in workloads.WORKLOADS:
        assert workloads.build(name, 5) == workloads.build(name, 5)
    assert workloads.build("bqf", 5) != workloads.build("bqf", 6)
