"""Independent checks of lenspairs outputs.

Nothing here imports lenspairs.  Every expected value is recomputed from the
paper's closed forms with plain modular arithmetic, a brute-force residue
walk, an exhaustive box scan, or sympy's ``diop_DN``.  Each ``check_*``
function takes what one query printed and returns a list of error strings;
an empty list means the output is right.
"""

from __future__ import annotations

import json
from functools import lru_cache
from math import gcd, isqrt

UNIT_SCAN_CAP = 10 ** 6  # the v bound of the program's linear unit scan

# ---------------------------------------------------------------------------
# closed-form surgeries and lens-space classes


def lens_class(p: int, q: int) -> int:
    """Least element of {±q, ±q^-1} mod p."""
    q %= p
    inv = pow(q, -1, p)
    return min(q, p - q, inv, p - inv)


def homeomorphic(p1: int, q1: int, p2: int, q2: int) -> bool:
    return p1 == p2 and lens_class(p1, q1) == lens_class(p2, q2)


def surgery_lens(family: str, params: tuple, m: int, n: int):
    """(p, q mod p) of the lens space from m/n-surgery, or None if not a lens."""
    if family == "torus":
        a, b = params
        return (m, n * b * b % m) if abs(n * a * b - m) == 1 else None
    if n != 1:
        return None
    if family == "cable":
        a, b, eps = params
        return (m, 4 * b * b % m) if m == 4 * a * b + eps else None
    if family == "kplus":
        a, b = params
        p = a * a + a * b + b * b
        return (p, pow(a * pow(b, -1, p), 2, p)) if m == p else None
    (k,) = params
    if family == "tangleHH":
        p = 27 * k * k + 45 * k + 21
        return (p, -(9 * k * k + 12 * k + 5) % p) if m == p else None
    if family == "tangleTH":
        p = 18 * k * k + 33 * k + 15
        return (p, -(18 * k + 19) % p) if m == p else None
    raise ValueError(f"unknown family {family!r}")


def enumerate_candidates(spec: dict) -> list:
    """Every (family, params, m, n, p, q) the search must evaluate, in its order.

    Families run in alphabetical order, parameters in increasing order, torus
    slopes by denominator then by sign, exactly as the JSONL lists members.
    """
    order_max = spec["order_max"]
    dens = sorted(spec["denominators"])
    out = []

    def add(family, params, m, n):
        out.append((family, params, m, n) + surgery_lens(family, params, m, n))

    for family in sorted(spec["families"]):
        if family == "cable":
            top = spec["cable_max"]
            for a in range(2, top + 1):
                for b in range(a + 1, top + 1):
                    if 4 * a * b - 1 > order_max:
                        break
                    if gcd(a, b) == 1:
                        for eps in (-1, 1):
                            if 4 * a * b + eps <= order_max:
                                add("cable", (a, b, eps), 4 * a * b + eps, 1)
        elif family == "kplus":
            top = spec["kplus_max"]
            for a in range(1, top + 1):
                for b in range(a, top + 1):
                    p = a * a + a * b + b * b
                    if p > order_max:
                        break
                    if gcd(a, b) == 1:
                        add("kplus", (a, b), p, 1)
        elif family in ("tangleHH", "tangleTH"):
            for k in range(1, spec["tangle_max"] + 1):
                p = 27 * k * k + 45 * k + 21 if family == "tangleHH" else 18 * k * k + 33 * k + 15
                if p > order_max:
                    break
                add(family, (k,), p, 1)
        elif family == "torus":
            top = spec["torus_max"]
            for a in range(2, top + 1):
                for b in range(a + 1, top + 1):
                    if dens[0] * a * b - 1 > order_max:
                        break
                    if gcd(a, b) != 1:
                        continue
                    for n in dens:
                        for eps in (-1, 1):
                            m = n * a * b + eps
                            if m <= order_max:
                                add("torus", (a, b), m, n)
    return out


def expected_records(candidates) -> list:
    """Buckets of two or more candidates sharing (slope, lens class), sorted.

    The enumeration lists each knot descriptor once, so no bucket holds the
    same knot twice and nothing is merged.
    """
    buckets: dict = {}
    for family, params, m, n, p, q in candidates:
        g = gcd(m, n)
        key = (p, m // g, n // g, lens_class(p, q))
        buckets.setdefault(key, []).append({"family": family, "params": list(params), "raw_q": q})
    records = [
        {"slope": f"{m}/{n}", "lens": {"p": p, "q_canonical": qc}, "members": members}
        for (p, m, n, qc), members in sorted(buckets.items())
        if len(members) >= 2
    ]
    return records


def check_search(out: str, expected: list) -> list:
    """Compare JSONL records with the independently computed buckets."""
    errors = []
    try:
        got = [json.loads(line) for line in out.splitlines()]
    except ValueError as exc:
        return [f"search output is not JSONL: {exc}"]
    if len(got) != len(expected):
        errors.append(f"search: {len(got)} records, expected {len(expected)}")
    for i, (rec, exp) in enumerate(zip(got, expected)):
        for key in ("slope", "lens", "members"):
            if rec.get(key) != exp[key]:
                errors.append(f"search record {i}: {key} {rec.get(key)!r} != {exp[key]!r}")
                break
        else:
            members = exp["members"]
            largest_family = max(sum(x["family"] == m["family"] for x in members) for m in members)
            cm = rec.get("certified_multiplicity")
            if not isinstance(cm, int) or not largest_family <= cm <= len(members):
                errors.append(
                    f"search record {i}: certified_multiplicity {cm!r} outside "
                    f"[{largest_family}, {len(members)}]"
                )
        if len(errors) > 10:
            break
    return errors


# ---------------------------------------------------------------------------
# verified families


def fibonacci(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def _pair(family: str, n: int) -> tuple[int, int]:
    if family == "fibonacci":
        return fibonacci(n + 2), fibonacci(n + 3) + fibonacci(n + 1)
    a, b = 2, 3
    for _ in range(n - 1):
        a, b = a + b, 2 * a + b
    return a, b


def _knot_str(family: str, params: tuple) -> str:
    if family == "cable":
        a, b, eps = params
        return f"cable({a},{b},{'+1' if eps > 0 else '-1'})"
    return f"{family}({','.join(map(str, params))})"


def family_instance(family: str, n: int):
    """(knot1, knot2, m, n) of instance n of a verified family, from the paper."""
    sign = (-1) ** (n + 1)
    if family == "torus_torus":
        (a0, b0), (a1, b1) = _pair("fibonacci", n), _pair("fibonacci", n + 1)
        return ("torus", (a1, b0)), ("torus", (a0, b1)), a1 * b0 + sign, 1
    if family == "torus_torus_half":
        (a0, b0), (a1, b1) = _pair("pell", n), _pair("pell", n + 1)
        return ("torus", (a0, b1)), ("torus", (b0, a1)), 2 * a0 * b1 + sign, 2
    if family == "torus_cable":
        return ("torus", (2 * n + 1, 4 * n + 4)), ("cable", (n + 1, 2 * n + 1, 1)), 8 * n * n + 12 * n + 5, 1
    if family == "cable_kplus":
        fn, fn2 = fibonacci(n), fibonacci(n + 2)
        eps = -1 if n % 2 else 1
        return ("cable", (fn, fn2, eps)), ("kplus", (fn2, fn)), 4 * fn * fn2 + eps, 1
    if family == "tangle_kplus":
        return ("tangleHH", (n,)), ("kplus", (3 * n + 1, 3 * n + 4)), 27 * n * n + 45 * n + 21, 1
    if family == "torus_tangle":
        return ("torus", (3 * n + 2, 6 * n + 7)), ("tangleTH", (n,)), 18 * n * n + 33 * n + 15, 1
    raise ValueError(f"unknown family {family!r}")


def check_verify(out: str, family: str, lo: int, hi: int) -> list:
    """Every instance passes, with the witness the paper's formulas give."""
    errors = []
    try:
        got = [json.loads(line) for line in out.splitlines()]
    except ValueError as exc:
        return [f"verify output is not JSONL: {exc}"]
    if [c.get("n") for c in got] != list(range(lo, hi + 1)):
        errors.append(f"verify {family}: instances do not cover {lo}..{hi}")
    for check in got:
        n = check.get("n")
        if check.get("family") != family or check.get("passed") is not True:
            errors.append(f"verify {family} n={n}: not a PASS: {check}")
            continue
        (f1, p1), (f2, p2), m, d = family_instance(family, n)
        l1, l2 = surgery_lens(f1, p1, m, d), surgery_lens(f2, p2, m, d)
        if l1 is None or l2 is None or not homeomorphic(*l1, *l2):
            errors.append(f"verify {family} n={n}: lens spaces are not homeomorphic")
            continue
        g = gcd(m, d)
        witness = (
            f"{_knot_str(f1, p1)} & {_knot_str(f2, p2)} @ {m // g}/{d // g} -> "
            f"L({l1[0]},{l1[1]}) ~ L({l2[0]},{l2[1]})"
        )
        if check.get("witness") != witness:
            errors.append(f"verify {family} n={n}: witness {check.get('witness')!r} != {witness!r}")
        if len(errors) > 10:
            break
    return errors


# ---------------------------------------------------------------------------
# dual knots and phi

BRUTE_FORCE_MAX_P = 20000


def brute_force_walk(p: int, q: int, k: int) -> dict:
    """Counts around k in the walk i*q mod p, i = 1 .. p-1, by direct listing."""
    walk = [i * q % p for i in range(1, p)]
    h = walk.index(k) + 1
    before, after = walk[: h - 1], walk[h:]
    s = sum(v < k for v in before)
    s_prime = sum(v < k for v in after)
    return {"h": h, "s": s, "ell": len(before) - s, "s_prime": s_prime, "ell_prime": len(after) - s_prime}


def check_dual(out: str, a: int, b: int) -> list:
    """The dual triple of kplus(a, b) and the counts obey their identities."""
    try:
        d = json.loads(out)
        p, q, k, h = d["p"], d["q"], d["k"], d["h"]
        s, ell, s2, ell2, phi = d["s"], d["ell"], d["s_prime"], d["ell_prime"], d["phi"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"dual {a} {b}: unreadable output: {exc}"]
    errors = []
    tag = f"dual {a} {b}"
    if p != a * a + a * b + b * b:
        return [f"{tag}: p={p}"]
    if q % p != pow(a * pow(b, -1, p), 2, p) or k * k % p != q % p:
        errors.append(f"{tag}: q={q} k={k} are not the lens and core parameters")
    if (h * q - k) % p:
        errors.append(f"{tag}: h*q != k mod p")
    if s + ell != h - 1 or s2 + ell2 != p - 1 - h or s + s2 != k - 1:
        errors.append(f"{tag}: counts s={s} ell={ell} s'={s2} ell'={ell2} break the walk identities")
    if phi != min(s, ell, s2, ell2) or d.get("hyperbolic") is not (phi >= 2):
        errors.append(f"{tag}: phi={phi} hyperbolic={d.get('hyperbolic')} disagree with the counts")
    if not errors and p <= BRUTE_FORCE_MAX_P:
        walk = brute_force_walk(p, q, k)
        if any(d[key] != value for key, value in walk.items()):
            errors.append(f"{tag}: counts differ from the brute-force walk {walk}")
    return errors


def check_identities(out: str, top: int) -> list:
    starts = {"cassini": 1, "fib_cross": 1, "pell_cross": 1, "pell_product": 1, "fib_quartic": 0}
    try:
        got = {d["identity"]: d for d in map(json.loads, out.splitlines())}
    except (ValueError, KeyError, TypeError) as exc:
        return [f"identities: unreadable output: {exc}"]
    if set(got) != set(starts):
        return [f"identities: got {sorted(got)}"]
    return [
        f"identities: {name} range {got[name].get('range')} failures {got[name].get('failures')}"
        for name, start in starts.items()
        if got[name].get("range") != [start, top] or got[name].get("failures") != []
    ]


def nonintegral_pairs(p_max: int) -> list:
    """Pairs of coprime (p, q) != (r, s) with equal products, larger first coordinate first."""
    by_product: dict = {}
    for p in range(3, p_max + 1):
        for q in range(2, p):
            if gcd(p, q) == 1:
                by_product.setdefault(p * q, []).append((p, q))
    pairs = []
    for product in sorted(by_product):
        group = sorted(by_product[product])
        for i, (r, s) in enumerate(group):
            for p, q in group[i + 1 :]:
                pairs.append([p, q, r, s])
    return pairs


def check_nonintegral(out: str, p_max: int, n_min: int, n_max: int) -> list:
    try:
        d = json.loads(out)
    except ValueError as exc:
        return [f"nonintegral: unreadable output: {exc}"]
    pairs = nonintegral_pairs(p_max)
    errors = []
    if d.get("pairs") != pairs:
        errors.append("nonintegral: pair list differs from the product enumeration")
    if d.get("checked") != 2 * len(pairs) * (n_max - n_min + 1):
        errors.append(f"nonintegral: checked={d.get('checked')}")
    if d.get("violations") != []:
        errors.append(f"nonintegral: violations {d.get('violations')}")
    for p, q, r, s in pairs:
        for n in range(n_min, n_max + 1):
            for eps in (-1, 1):
                m = n * p * q + eps
                if homeomorphic(m, n * q * q, m, n * s * s):
                    errors.append(f"nonintegral: the benchmark finds L({m},{n * q * q}) ~ L({m},{n * s * s})")
    return errors


# ---------------------------------------------------------------------------
# quadratic forms


def valid_discriminant(delta: int) -> bool:
    return delta > 0 and delta % 4 in (0, 1) and isqrt(delta) ** 2 != delta


@lru_cache(maxsize=None)
def least_unit(delta: int) -> tuple[int, int]:
    """(t, w): the least w >= 1 with t^2 - delta w^2 = 4, t > 0, from sympy.

    The unit is (t + w sqrt(delta)) / 2; the program prints it as u + v*rho,
    and v = w in both residue classes of delta mod 4.
    """
    from sympy.solvers.diophantine.diophantine import diop_DN

    cands = [(int(t), int(w)) for t, w in diop_DN(delta, 4) if w > 0 and t > 0]
    cands += [(2 * int(x), 2 * int(y)) for x, y in diop_DN(delta, 1) if y > 0]
    t, w = min(cands, key=lambda tw: tw[1])
    if t * t - delta * w * w != 4:
        raise AssertionError(f"sympy returned a non-unit for {delta}")
    return t, w


def unit_trace(delta: int, u: int, v: int) -> int:
    return 2 * u if delta % 4 == 0 else 2 * u + v


def check_unit(rc: int, out: str, delta: int) -> list:
    """A printed unit has norm 1 and is the least; a failure (exit 1) needs v > 10^6."""
    _, w = least_unit(delta)
    if rc != 0:
        if rc != 1 or w <= UNIT_SCAN_CAP:
            return [f"bqf unit {delta}: exited {rc}, but its unit has v = {w}"]
        return []
    try:
        d = json.loads(out)
        u, v = d["u"], d["v"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"bqf unit {delta}: unreadable output: {exc}"]
    t = unit_trace(delta, u, v)
    if d.get("delta") != delta or t * t - delta * v * v != 4:
        return [f"bqf unit {delta}: u={u} v={v} does not have norm 1"]
    if t <= 0 or v != w:
        return [f"bqf unit {delta}: u={u} v={v} is not the least unit (v = {w})"]
    return []


def automorph(form, delta: int):
    """The matrix of the least norm-1 unit acting on solutions of the form."""
    a, b, c = form
    t, w = least_unit(delta)
    return ((t - b * w) // 2, -c * w), (a * w, (t + b * w) // 2)


def apply(mat, sol, inverse=False):
    (m11, m12), (m21, m22) = mat
    if inverse:
        m11, m12, m21, m22 = m22, -m12, -m21, m11
    x, y = sol
    return m11 * x + m12 * y, m21 * x + m22 * y


def box_scan(form, m: int, bound: int) -> set:
    """All (x, y) with |x|, |y| <= bound and f(x, y) = m, by exhausting y."""
    a, b, c = form
    delta = b * b - 4 * a * c
    found = set()
    for y in range(-bound, bound + 1):
        disc = delta * y * y + 4 * a * m
        if disc < 0:
            continue
        r = isqrt(disc)
        if r * r != disc:
            continue
        for root in {r, -r}:
            num = -b * y + root
            if num % (2 * a) == 0 and abs(num // (2 * a)) <= bound:
                found.add((num // (2 * a), y))
    return found


def orbit_in_box(mat, sol, bound: int) -> set:
    """Members of the orbit of sol under ±(unit)^k with |x|, |y| <= bound."""
    limit = bound * 10 ** 6
    found = set()
    for inverse in (False, True):
        cur = sol
        for _ in range(200):
            if max(abs(cur[0]), abs(cur[1])) <= bound:
                found.add(cur)
                found.add((-cur[0], -cur[1]))
            if max(abs(cur[0]), abs(cur[1])) > limit:
                break
            cur = apply(mat, cur, inverse)
    return found


def check_solve(out: str, form, m: int, count: int) -> list:
    """Solutions satisfy the form, chains follow the unit, orbits tile the box."""
    a, b, c = form
    delta = b * b - 4 * a * c
    tag = f"bqf solve {a} {b} {c} {m}"
    try:
        sols = [(d["x"], d["y"]) for d in map(json.loads, out.splitlines())]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"{tag}: unreadable output: {exc}"]
    if not sols or len(sols) % count:
        return [f"{tag}: {len(sols)} solutions, not whole chains of {count}"]
    bad = [s for s in sols if a * s[0] ** 2 + b * s[0] * s[1] + c * s[1] ** 2 != m]
    if bad:
        return [f"{tag}: {bad[:3]} do not satisfy the form"]
    mat = automorph(form, delta)
    chains = [sols[i : i + count] for i in range(0, len(sols), count)]
    for chain in chains:
        steps = list(zip(chain, chain[1:]))
        if not (all(apply(mat, s) == t for s, t in steps) or all(apply(mat, s, True) == t for s, t in steps)):
            return [f"{tag}: chain {chain} is not a walk by the least unit"]
    reps = [chain[0] for chain in chains]
    bound = max(200, min(3000, max(max(abs(x), abs(y)) for x, y in reps)))
    orbits = [orbit_in_box(mat, rep, bound) for rep in reps]
    union = set().union(*orbits)
    if sum(map(len, orbits)) != len(union):
        return [f"{tag}: two representatives share an orbit"]
    box = box_scan(form, m, bound)
    if union != box:
        return [f"{tag}: orbits cover {len(union)} box solutions, the box scan finds {len(box)}"]
    return []
