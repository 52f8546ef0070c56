"""The query lists of the three workloads, made from a seed.

A query is a dict: ``argv`` for ``lenspairs.cli.run`` (or ``call`` and
``args`` for a public function), ``kind`` naming the checker that reads its
output, and ``workers`` > 1 when the query runs the process pool.  The same
seed always gives the same list.  This module does not import lenspairs.
"""

from __future__ import annotations

import random
from math import gcd

import check

WORKLOADS = ("search", "verify", "bqf")

FAMILIES = ("cable", "kplus", "tangleHH", "tangleTH", "torus")

SEARCH_BOUNDS = {"order_max": 50000, "torus_max": 3000, "cable_max": 3000, "kplus_max": 300, "tangle_max": 100}

VERIFY_RANGES = (
    ("torus_torus", 1, 1000),
    ("torus_torus_half", 1, 500),
    ("torus_cable", 1, 10000),
    ("tangle_kplus", 1, 2000),
    ("torus_tangle", 1, 10000),
    ("cable_kplus", 3, 16),
)

SMALL_DUALS = 24       # seeded kplus(a, b) duals with a, b <= 60, checked by brute force
BQF_DELTA_MAX = 250
SOLVE_COUNT = 3


def search_query(rng: random.Random, bounds: dict, workers: int) -> dict:
    # the seed only reorders the family and denominator lists; the output may not change
    families = rng.sample(FAMILIES, len(FAMILIES))
    denominators = rng.sample((1, 2), 2)
    spec = dict(bounds, families=families, denominators=denominators)
    argv = ["--jsonl", "search", "--families", ",".join(families), "--denominators", ",".join(map(str, denominators))]
    for key, value in bounds.items():
        argv += ["--" + key.replace("_", "-"), str(value)]
    return {"kind": "search", "argv": argv + ["--workers", str(workers)], "spec": spec, "workers": workers}


def verify_query(family: str, lo: int, hi: int) -> dict:
    return {"kind": "verify", "argv": ["--jsonl", "verify", family, "--range", f"{lo}..{hi}"],
            "family": family, "lo": lo, "hi": hi}


def dual_query(a: int, b: int) -> dict:
    return {"kind": "dual", "argv": ["--jsonl", "dual", str(a), str(b)], "a": a, "b": b}


def identities_query(top: int) -> dict:
    return {"kind": "identities", "argv": ["--jsonl", "identities", "--range", str(top)], "top": top}


def solve_query(form, m: int) -> dict:
    a, b, c = form
    return {"kind": "solve", "argv": ["--jsonl", "bqf", "solve", str(a), str(b), str(c), str(m),
                                      "--count", str(SOLVE_COUNT)],
            "form": list(form), "m": m, "count": SOLVE_COUNT}


def probe(rng: random.Random) -> list:
    """A small query per layer, so that every per-layer metric is measured on every workload."""
    bounds = {"order_max": 5000, "torus_max": 500, "cable_max": 500, "kplus_max": 60, "tangle_max": 20}
    return [
        search_query(rng, bounds, 1),
        verify_query("torus_torus", 1, 30),
        identities_query(30),
        solve_query((1, -6, 1), 1),
    ]


def random_form(rng: random.Random, delta: int):
    """A form of discriminant delta and a value m it takes at a small point."""
    b = rng.choice([x for x in range(-15, 16) if (x - delta) % 2 == 0])
    ac = (b * b - delta) // 4
    a = rng.choice([x for x in range(1, 7) if ac % x == 0]) * rng.choice((1, -1))
    form = (a, b, ac // a)
    while True:
        x, y = rng.randint(-3, 3), rng.randint(1, 3)
        m = a * x * x + b * x * y + form[2] * y * y
        if m:
            return form, m


def build(workload: str, seed: int) -> list:
    rng = random.Random(seed)
    if workload == "search":
        main = [search_query(rng, SEARCH_BOUNDS, 1)]
        main.append(dict(search_query(rng, SEARCH_BOUNDS, 2), same_output_as=0))
    elif workload == "verify":
        main = [verify_query(*r) for r in VERIFY_RANGES]
        main += [dual_query(1597, 610), dual_query(987, 377), identities_query(500)]
        main.append({"kind": "nonintegral", "call": "verify_no_nonintegral_pairs", "args": [60, 3, 8]})
        duals = []
        while len(duals) < SMALL_DUALS:
            a, b = rng.randint(1, 60), rng.randint(1, 60)
            if gcd(a, b) == 1:
                duals.append(dual_query(a, b))
        main += duals
    elif workload == "bqf":
        deltas = [d for d in range(5, BQF_DELTA_MAX + 1) if check.valid_discriminant(d)]
        main = [{"kind": "unit", "argv": ["--jsonl", "bqf", "unit", str(d)], "delta": d} for d in deltas]
        # solves only where the unit scan succeeds: the seven unreachable units already
        # fail in the queries above, on inputs that do not depend on the seed
        for d in deltas:
            if check.least_unit(d)[1] <= check.UNIT_SCAN_CAP:
                main.append(solve_query(*random_form(rng, d)))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return main + probe(rng)
