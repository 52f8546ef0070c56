"""Integral binary quadratic forms of positive nonsquare discriminant.

Solving f(x, y) = m for f = A x^2 + B xy + C y^2 works through the quadratic
order of the same discriminant D = B^2 - 4AC: the norm-1 units of that order
act on the solution set with finitely many orbits, every orbit meets the
window 0 <= y <= W for an explicit W built from the smallest unit above 1,
and two window solutions share an orbit only at the boundaries y = 0 and
y = W.  The window solutions are the orbit representatives, and applying
the unit action walks each orbit out to infinity.

The fundamental unit comes from the period of the continued fraction of
rho = sqrt(D/4) or (1 + sqrt(D))/2 (Lenstra, "Solving the Pell equation",
Notices AMS 49, 2002), so its cost tracks the period, not the size of the
unit.  The window solutions come from Matthews' LMM method ("The
Diophantine equation x^2 - Dy^2 = N, D > 0", Expo. Math. 18, 2000): with
s = 2Ax + By the equation becomes s^2 - D y^2 = 4Am, a continued fraction
per square root of D mod |4Am/f^2| gives one solution in each class, and
each class is walked into the window.  One factorisation of 4Am per solve
gives every square divisor f and the factorisation of 4Am/f^2, from which
the square roots come, so the cost tracks sqrt|Am| and the number of
classes, not W.  Both methods walk one continued-fraction recurrence,
``_expansion``.
Every loop ends on a proven period or orbit bound, never on an iteration
count.

Everything is exact: W is handled as its integer floor, taken by ``isqrt``,
and whether it is an integer, and no float appears anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt
from typing import NamedTuple

from .arith import is_perfect_square

__all__ = [
    "DivisibilityHit",
    "DivisibilityReport",
    "FormSolution",
    "InvalidUnit",
    "NotADiscriminant",
    "NotApplicable",
    "QuadForm",
    "UnitElement",
    "apply_unit",
    "divisibility_scan",
    "fundamental_unit",
    "generate_solutions",
    "orbit_representatives",
]


class NotApplicable(ValueError):
    """Discriminant is not positive and nonsquare."""


class NotADiscriminant(ValueError):
    """Discriminant is 2 or 3 mod 4, so no quadratic order exists."""


class InvalidUnit(ValueError):
    """The unit does not have norm 1 or belongs to a different discriminant."""


@dataclass(frozen=True)
class QuadForm:
    """f(x, y) = A x^2 + B xy + C y^2 with B^2 - 4AC positive and nonsquare."""

    A: int
    B: int
    C: int

    def __post_init__(self):
        _check_discriminant(self.delta)

    @property
    def delta(self) -> int:
        return self.B * self.B - 4 * self.A * self.C

    def __call__(self, x: int, y: int) -> int:
        return self.A * x * x + self.B * x * y + self.C * y * y

    def __str__(self):
        return f"{self.A}x^2 + {self.B}xy + {self.C}y^2"


@dataclass(frozen=True)
class UnitElement:
    """u + v*rho in the order of discriminant delta.

    rho is sqrt(delta/4) for delta ≡ 0 (mod 4) and (1 + sqrt(delta))/2 for
    delta ≡ 1 (mod 4).  No validation happens here; ``apply_unit`` rejects
    elements whose norm is not 1.
    """

    delta: int
    u: int
    v: int

    def norm(self) -> int:
        # the element times its conjugate, (t^2 - delta v^2)/4 for the trace t
        t = self.trace()
        return (t * t - self.delta * self.v * self.v) // 4

    def trace(self) -> int:
        # the element plus its conjugate
        return 2 * self.u if self.delta % 4 == 0 else 2 * self.u + self.v


def _check_discriminant(delta: int) -> None:
    # positive, nonsquare and 0 or 1 mod 4, as a form's B^2 - 4AC always is
    if delta <= 0 or is_perfect_square(delta) is not None:
        raise NotApplicable(f"discriminant {delta} must be positive and nonsquare")
    if delta % 4 in (2, 3):
        raise NotADiscriminant(f"{delta} is 2 or 3 mod 4")


class FormSolution(NamedTuple):
    """An integral solution (x, y) of f(x, y) = m."""

    x: int
    y: int


def fundamental_unit(delta: int) -> UnitElement:
    """The smallest norm-1 unit greater than 1, from the continued fraction of rho.

    rho = (P_0 + sqrt(delta))/Q_0 with Q_0 = 2 and P_0 = delta mod 2.  Its
    complete quotients are (P_k + sqrt(delta))/Q_k, and the convergent p/q
    before index k gives the element p - q*rho' of norm (-1)^k Q_k/Q_0, where
    rho' is the conjugate.  The first even k > 0 with Q_k = Q_0 therefore gives
    the fundamental norm-1 unit, p - q*rho' = u + v*rho.  Q_k = Q_0 marks the
    end of each period of the expansion, so the loop ends within two periods,
    O(sqrt(delta) log delta) steps, however large the unit is.
    """
    _check_discriminant(delta)
    for k, _, big_q, p, q in _expansion(delta, isqrt(delta), delta % 2, 2):
        if k > 0 and k % 2 == 0 and big_q == 2:
            break
    if delta % 4 == 0:
        return UnitElement(delta, p, q)
    return UnitElement(delta, p - q, q)


def _window(form: QuadForm, m: int, unit: UnitElement) -> tuple[int, int | None]:
    """(floor of W, W or None): the window 0 <= y <= W holds one
    representative per orbit, and W itself comes only when it is an integer.

    W^2 = N/D with N = |A m (t -+ 2)|, where t is the trace of the
    fundamental ``unit``; the sign is - for A*m > 0 and + for A*m < 0.  Its
    floor is isqrt(N*D) // D, and W is that floor exactly when floor^2 * D = N.
    """
    t = unit.trace()
    shift = -2 if form.A * m > 0 else 2
    n, delta = abs(form.A * m * (t + shift)), form.delta
    floor = isqrt(n * delta) // delta
    return floor, floor if floor * floor * delta == n else None


def orbit_representatives(form: QuadForm, m: int) -> list[FormSolution]:
    """One solution of form = m per norm-1-unit orbit, sorted by (y, x).

    These are the solutions in the window 0 <= y <= W.  At the boundaries
    y = 0 and y = W (W integral) the two roots in x lie in one orbit, so only
    one of them is kept; everywhere else each root is its own orbit.
    """
    if m == 0:
        raise ValueError("m must be nonzero")
    return _representatives(form, m, fundamental_unit(form.delta))


def _representatives(form: QuadForm, m: int, unit: UnitElement) -> list[FormSolution]:
    # orbit_representatives for an already computed fundamental unit: every
    # solution is +-unit^k times a class seed, and each orbit is walked into
    # the window from its seed
    top, exact = _window(form, m, unit)
    a, b = form.A, form.B
    points = set()
    for s, y in _pell_classes(form.delta, 4 * a * m):
        if (s - b * y) % (2 * a) == 0:
            x = (s - b * y) // (2 * a)
            for seed in (FormSolution(x, y), FormSolution(-x, -y)):
                points.update(_orbit_in_window(form, seed, unit, top))
    by_y: dict[int, list[int]] = {}
    for x, y in points:
        by_y.setdefault(y, []).append(x)
    reps = []
    for y in sorted(by_y):
        roots = sorted(by_y[y])
        if y == 0 or y == exact:
            roots = [min(roots, key=lambda x: (abs(x), x < 0))]
        reps.extend(FormSolution(x, y) for x in roots)
    return reps


def _pell_classes(delta: int, n: int) -> list[tuple[int, int]]:
    # one solution (s, y) of s^2 - delta y^2 = n in each class under
    # +-(norm-1 units of Z[sqrt(delta)]), by Matthews' LMM: a solution with
    # gcd(s, y) = f solves the primitive equation for n' = n/f^2, and its
    # class has a root z^2 = delta mod |n'|.  Matthews takes
    # -|n'|/2 < z <= |n'|/2; z + |n'| gives the same expansion shifted by 1
    # and the same solutions, so [0, |n'|) serves as well
    root = isqrt(delta)
    # each square divisor f of n with the factorisation of |n|/f^2
    divisors = [(1, [])]
    for p, e in _factor(abs(n)):
        divisors = [
            (f * p ** i, rest + [(p, e - 2 * i)] if 2 * i < e else rest)
            for f, rest in divisors
            for i in range(e // 2 + 1)
        ]
    seeds = []
    for f, factors in divisors:
        reduced = n // (f * f)
        for z in _square_roots(delta, factors):
            sol = _lmm_solution(delta, reduced, z, root)
            if sol is not None:
                seeds.append((f * sol[0], f * sol[1]))
    return seeds


def _square_roots(delta: int, factors: list[tuple[int, int]]) -> list[int]:
    # every z in [0, n) with z^2 = delta mod n, for n given by its (prime,
    # exponent) pairs: the roots modulo each prime power of n, glued by the
    # Chinese remainder theorem
    roots, modulus = [0], 1
    for p, e in factors:
        q = p ** e
        local = _prime_power_roots(delta, p, e)
        step = pow(modulus, -1, q)
        roots = [r + modulus * ((t - r) * step % q) for r in roots for t in local]
        modulus *= q
    return roots


def _factor(n: int) -> list[tuple[int, int]]:
    # (prime, exponent) pairs of n >= 1, by trial division
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def _prime_power_roots(delta: int, p: int, e: int) -> list[int]:
    # every z in [0, p^e) with z^2 = delta mod p^e
    if p == 2:
        # a root mod 2^(k+1) is a root mod 2^k plus 0 or 2^k
        roots, q = [0], 1
        for _ in range(e):
            roots = [r + t * q for r in roots for t in (0, 1) if ((r + t * q) ** 2 - delta) % (2 * q) == 0]
            q *= 2
        return roots
    if delta % p:
        # the two roots mod p lift uniquely by Newton's step
        r = _sqrt_mod_prime(delta % p, p)
        if r is None:
            return []
        q = p
        for _ in range(e - 1):
            q *= p
            r = (r - (r * r - delta) * pow(2 * r, -1, q)) % q
        return [r, q - r]
    # delta = p^v delta' with p not dividing delta'.  If v >= e the roots are
    # the multiples of p^ceil(e/2).  Otherwise z^2 has valuation v, so v is
    # even and z = p^(v/2) w with w^2 = delta' mod p^(e-v); z is then fixed
    # mod p^(e - v/2) and every lift by that modulus is a root
    q = p ** e
    rest = delta % q
    if rest == 0:
        return list(range(0, q, p ** ((e + 1) // 2)))
    v = 0
    while rest % p == 0:
        rest //= p
        v += 1
    if v % 2:
        return []
    half, step = p ** (v // 2), p ** (e - v // 2)
    return [half * w + k * step for w in _prime_power_roots(rest, p, e - v) for k in range(half)]


def _sqrt_mod_prime(a: int, p: int) -> int | None:
    # a root of z^2 = a mod an odd prime p not dividing a, by Tonelli-Shanks
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    odd, twos = p - 1, 0
    while odd % 2 == 0:
        odd //= 2
        twos += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c, t, r = pow(z, odd, p), pow(a, odd, p), pow(a, (odd + 1) // 2, p)
    while t != 1:
        # the order of t is 2^i with i < twos
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (twos - i - 1), p)
        twos, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def _expansion(delta: int, root: int, big_p: int, big_q: int):
    # the continued fraction of (P + sqrt(delta))/Q, for Q dividing
    # delta - P^2 and root = isqrt(delta): yields (k, P_k, Q_k, A_{k-1},
    # B_{k-1}) for k = 0, 1, ..., where (P_k + sqrt(delta))/Q_k is the k-th
    # complete quotient and A/B are the convergents, A_{-1}/B_{-1} = 1/0
    a_prev, a_cur, b_prev, b_cur = 0, 1, 1, 0
    k = 0
    while True:
        yield k, big_p, big_q, a_cur, b_cur
        # floor((P + sqrt(delta))/Q), exact for either sign of Q
        quotient = (big_p + root + (big_q < 0)) // big_q
        a_prev, a_cur = a_cur, quotient * a_cur + a_prev
        b_prev, b_cur = b_cur, quotient * b_cur + b_prev
        big_p = quotient * big_q - big_p
        big_q = (delta - big_p * big_p) // big_q
        k += 1


def _lmm_solution(delta: int, n: int, z: int, root: int) -> tuple[int, int] | None:
    # the continued fraction of (z + sqrt(delta))/|n| has
    # (|n| A_{k-1} - z B_{k-1})^2 - delta B_{k-1}^2 = (-1)^k Q_k |n|, so a
    # solution of the class shows as Q_k = 1 with (-1)^k = sign(n).  The
    # quotients turn reduced and then cycle; once the first reduced state
    # recurs at the same parity of k, no new (Q_k, k mod 2) can appear.
    size = abs(n)
    cycle = None
    for k, big_p, big_q, a, b in _expansion(delta, root, z, size):
        if big_q == 1 and (k % 2 == 0) == (n > 0):
            return size * a - z * b, b
        state = (big_p, big_q, k % 2)
        if cycle is None:
            if 0 < big_p <= root and root - big_p < big_q <= root + big_p:
                cycle = state
        elif state == cycle:
            return None


def _orbit_in_window(form: QuadForm, seed: FormSolution, unit: UnitElement, top: int) -> list[FormSolution]:
    # members of the orbit of seed under the powers of unit with 0 <= y <= top.
    # Along the orbit y = c1 e^k + c2 e^-k with c1 c2 = -A m/D, so y is
    # monotone in k (A m > 0) or convex and of one sign (A m < 0): its gap to
    # [0, top] falls and then rises, and a walk stops once the gap rises
    found = []
    for inverse in (False, True):
        cur, gap = seed, _gap(seed.y, top)
        while True:
            if gap == 0:
                found.append(cur)
            nxt = apply_unit(form, cur, unit, inverse)
            nxt_gap = _gap(nxt.y, top)
            if nxt_gap > 0 and (gap == 0 or nxt_gap >= gap):
                break
            cur, gap = nxt, nxt_gap
    return found


def _gap(y: int, top: int) -> int:
    # distance from y to the interval [0, top]
    return -y if y < 0 else max(0, y - top)


def apply_unit(form: QuadForm, sol: FormSolution, unit: UnitElement, inverse: bool = False) -> FormSolution:
    """Image of a solution under the norm-1 unit action.

    The action is a 2x2 integer matrix of determinant 1 built from the unit
    and the form coefficients; ``inverse=True`` applies the adjugate.
    """
    if unit.delta != form.delta:
        raise InvalidUnit(f"unit discriminant {unit.delta} != form discriminant {form.delta}")
    if unit.norm() != 1:
        raise InvalidUnit(f"unit has norm {unit.norm()}, need 1")
    t, v = unit.trace(), unit.v
    # t is 2u for even delta and B, and 2u + v for odd delta and B, so t -+ B v is even
    a11 = (t - form.B * v) // 2
    a22 = (t + form.B * v) // 2
    a12 = form.A * v
    a21 = -form.C * v
    if inverse:
        a11, a12, a21, a22 = a22, -a12, -a21, a11
    x, y = sol
    return FormSolution(x * a11 + y * a21, x * a12 + y * a22)


def generate_solutions(form: QuadForm, m: int, count: int) -> list[FormSolution]:
    """The first ``count`` solutions of each orbit, walking towards growing y.

    From each window representative the unit action is applied in the
    direction that does not send y negative; every emitted pair is
    re-checked to satisfy the form exactly.  ``count`` must be at least 1.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if m == 0:
        raise ValueError("m must be nonzero")
    tau = fundamental_unit(form.delta)
    out = []
    for rep in _representatives(form, m, tau):
        chain = [rep]
        forward = apply_unit(form, rep, tau)
        backward = apply_unit(form, rep, tau, inverse=True)
        growing = [s for s in (forward, backward) if s.y >= rep.y]
        nxt = min(growing or [forward, backward], key=lambda s: (s.y, s.x))
        use_inverse = nxt == backward and nxt != forward
        while len(chain) < count:
            chain.append(nxt)
            nxt = apply_unit(form, nxt, tau, inverse=use_inverse)
        for sol in chain:
            if form(sol.x, sol.y) != m:
                raise AssertionError(f"orbit walk left the solution set at {sol}")
        out.extend(chain)
    return out


@dataclass(frozen=True)
class DivisibilityHit:
    """A tuple where b^2 +- c^2 turned out divisible by n*a*b*c +- 1."""

    a: int
    b: int
    c: int
    n: int
    value: int
    modulus: int


@dataclass(frozen=True)
class DivisibilityReport:
    checked: int
    counterexamples: tuple[DivisibilityHit, ...]

    @property
    def clean(self) -> bool:
        return not self.counterexamples


def divisibility_scan(a_range, b_range, c_range, n_range) -> DivisibilityReport:
    """Scan (b^2 +- c^2) mod (n*a*b*c +- 1) over gcd(a,b) = gcd(a,c) = 1.

    All four sign combinations are tried independently.  The claim under
    test (for a > 1 and n >= 3 no divisibility ever occurs) concerns
    nonzero values, so b = c with the minus sign is skipped.  Ranges are
    taken literally, which lets callers probe the a = 1 boundary where the
    claim genuinely fails.  A value of a, b, c or n below 1 raises
    ``ValueError``: there n*a*b*c +- 1 can be +-1, which divides everything.
    So does an empty range, which would check nothing and report clean.
    """
    if not all((a_range, b_range, c_range, n_range)):
        raise ValueError("the a, b, c and n ranges must not be empty")
    if any(value < 1 for values in (a_range, b_range, c_range, n_range) for value in values):
        raise ValueError("a, b, c and n must be >= 1")
    hits = []
    checked = 0
    for a in a_range:
        for b in b_range:
            if gcd(a, b) != 1:
                continue
            for c in c_range:
                if gcd(a, c) != 1:
                    continue
                for n in n_range:
                    base = n * a * b * c
                    for value in (b * b + c * c, b * b - c * c):
                        if value == 0:
                            continue
                        for modulus in (base + 1, base - 1):
                            if modulus == 0:
                                continue
                            checked += 1
                            if value % modulus == 0:
                                hits.append(DivisibilityHit(a, b, c, n, value, modulus))
    return DivisibilityReport(checked, tuple(hits))
