"""Integral binary quadratic forms of positive nonsquare discriminant.

Solving f(x, y) = m for f = A x^2 + B xy + C y^2 works through the quadratic
order of the same discriminant D = B^2 - 4AC: the norm-1 units of that order
act on the solution set with finitely many orbits, every orbit meets the
window 0 <= y <= W for an explicit W built from the smallest unit above 1,
and two window solutions share an orbit only at the boundaries y = 0 and
y = W.  So enumerating the window yields orbit representatives, and applying
the unit action walks each orbit out to infinity.

Everything is exact: W is handled as the rational W^2 plus its integer floor,
and no float appears anywhere.  ``solutions_in_box`` is a self-contained
exhaustive scan used as ground truth against the orbit machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from typing import NamedTuple

from .arith import is_perfect_square

__all__ = [
    "CapExceeded",
    "DivisibilityHit",
    "DivisibilityReport",
    "FormSolution",
    "InvalidUnit",
    "NotADiscriminant",
    "NotApplicable",
    "QuadForm",
    "UnitElement",
    "WindowBound",
    "apply_unit",
    "divisibility_scan",
    "fundamental_unit",
    "generate_solutions",
    "orbit_representatives",
    "solutions_in_box",
    "window_bound",
]


class NotApplicable(ValueError):
    """Discriminant is not positive and nonsquare."""


class NotADiscriminant(ValueError):
    """Discriminant is 2 or 3 mod 4, so no quadratic order exists."""


class CapExceeded(RuntimeError):
    """The unit search hit its iteration cap before finding a norm-1 unit."""


class InvalidUnit(ValueError):
    """The unit does not have norm 1 or belongs to a different discriminant."""


@dataclass(frozen=True)
class QuadForm:
    """f(x, y) = A x^2 + B xy + C y^2 with B^2 - 4AC positive and nonsquare."""

    A: int
    B: int
    C: int

    def __post_init__(self):
        d = self.delta
        if d <= 0 or is_perfect_square(d) is not None:
            raise NotApplicable(f"discriminant {d} must be positive and nonsquare")

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
        if self.delta % 4 == 0:
            return self.u * self.u - (self.delta // 4) * self.v * self.v
        return self.u * self.u + self.u * self.v - ((self.delta - 1) // 4) * self.v * self.v

    def trace(self) -> int:
        # the element plus its conjugate
        return 2 * self.u if self.delta % 4 == 0 else 2 * self.u + self.v


class FormSolution(NamedTuple):
    """An integral solution (x, y) of f(x, y) = m."""

    x: int
    y: int


def fundamental_unit(delta: int, cap: int = 10 ** 6) -> UnitElement:
    """The smallest norm-1 unit greater than 1, by scanning v = 1, 2, ...

    For each v the norm equation determines u through a perfect-square
    test, and the value u + v*rho grows with v, so the first hit is the
    fundamental one.  Raises CapExceeded after ``cap`` candidates.
    """
    if delta <= 0 or is_perfect_square(delta) is not None:
        raise NotApplicable(f"discriminant {delta} must be positive and nonsquare")
    if delta % 4 in (2, 3):
        raise NotADiscriminant(f"{delta} is 2 or 3 mod 4")
    if delta % 4 == 0:
        d = delta // 4
        for v in range(1, cap + 1):
            u = is_perfect_square(d * v * v + 1)
            if u is not None:
                return UnitElement(delta, u, v)
    else:
        for v in range(1, cap + 1):
            s = is_perfect_square(delta * v * v + 4)
            if s is not None:
                return UnitElement(delta, (s - v) // 2, v)
    raise CapExceeded(f"no norm-1 unit with v <= {cap} for discriminant {delta}")


class WindowBound(NamedTuple):
    """The window [0, W] on y that holds one representative per orbit.

    W is carried exactly as its square (a rational) plus the integer floor.
    """

    w_squared: Fraction
    floor: int

    @property
    def exact(self) -> int | None:
        """W itself when it is an integer, else None."""
        if self.w_squared.denominator != 1:
            return None
        return is_perfect_square(self.w_squared.numerator)


def window_bound(form: QuadForm, m: int, cap: int = 10 ** 6) -> WindowBound:
    """W^2 = |A m (t -+ 2) / D| where t is the trace of the fundamental unit.

    The sign is - for A*m > 0 and + for A*m < 0.
    """
    if m == 0:
        raise ValueError("m must be nonzero")
    return _window(form, m, fundamental_unit(form.delta, cap))


def _window(form: QuadForm, m: int, unit: UnitElement) -> WindowBound:
    # window_bound for an already computed fundamental unit
    t = unit.trace()
    shift = -2 if form.A * m > 0 else 2
    w_squared = Fraction(abs(form.A * m * (t + shift)), form.delta)
    floor = isqrt(w_squared.numerator * w_squared.denominator) // w_squared.denominator
    return WindowBound(w_squared, floor)


def _roots_in_x(form: QuadForm, m: int, y: int) -> list[int]:
    # exact integer roots of A x^2 + (B y) x + (C y^2 - m) = 0
    disc = form.delta * y * y + 4 * form.A * m
    if disc < 0:
        return []
    s = is_perfect_square(disc)
    if s is None:
        return []
    roots = []
    for sign in (s, -s) if s else (0,):
        num = -form.B * y + sign
        if num % (2 * form.A) == 0:
            roots.append(num // (2 * form.A))
    return roots


def orbit_representatives(form: QuadForm, m: int, cap: int = 10 ** 6) -> list[FormSolution]:
    """One solution of form = m per norm-1-unit orbit, sorted by (y, x).

    Solves the quadratic in x exactly for each y in the window.  At the
    boundaries y = 0 and y = W (W integral) the two roots lie in one orbit,
    so only one of them is kept; everywhere else each root is its own orbit.
    """
    return _representatives(form, m, window_bound(form, m, cap))


def _representatives(form: QuadForm, m: int, window: WindowBound) -> list[FormSolution]:
    # orbit_representatives for an already computed window
    reps = []
    for y in range(window.floor + 1):
        roots = _roots_in_x(form, m, y)
        if not roots:
            continue
        if y == 0 or y == window.exact:
            roots = [min(roots, key=lambda x: (abs(x), x < 0))]
        reps.extend(FormSolution(x, y) for x in sorted(roots))
    reps.sort(key=lambda sol: (sol.y, sol.x))
    return reps


def apply_unit(form: QuadForm, sol: FormSolution, unit: UnitElement, inverse: bool = False) -> FormSolution:
    """Image of a solution under the norm-1 unit action.

    The action is a 2x2 integer matrix of determinant 1 built from the unit
    and the form coefficients; ``inverse=True`` applies the adjugate.
    """
    if unit.delta != form.delta:
        raise InvalidUnit(f"unit discriminant {unit.delta} != form discriminant {form.delta}")
    if unit.norm() != 1:
        raise InvalidUnit(f"unit has norm {unit.norm()}, need 1")
    u, v = unit.u, unit.v
    if form.delta % 4 == 0:
        a11 = u - form.B // 2 * v
        a22 = u + form.B // 2 * v
    else:
        a11 = u + (1 - form.B) // 2 * v
        a22 = u + (1 + form.B) // 2 * v
    a12 = form.A * v
    a21 = -form.C * v
    if inverse:
        a11, a12, a21, a22 = a22, -a12, -a21, a11
    x, y = sol
    return FormSolution(x * a11 + y * a21, x * a12 + y * a22)


def generate_solutions(form: QuadForm, m: int, count: int, cap: int = 10 ** 6) -> list[FormSolution]:
    """The first ``count`` solutions of each orbit, walking towards growing y.

    From each window representative the unit action is applied in the
    direction that does not send y negative; every emitted pair is
    re-checked to satisfy the form exactly.
    """
    if count < 1:
        return []
    if m == 0:
        raise ValueError("m must be nonzero")
    tau = fundamental_unit(form.delta, cap)
    reps = _representatives(form, m, _window(form, m, tau))
    if not reps:
        return []
    out = []
    for rep in reps:
        chain = [rep]
        if count > 1:
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


def solutions_in_box(form: QuadForm, m: int, bound: int) -> list[FormSolution]:
    """All solutions with |x|, |y| <= bound, found without the unit machinery.

    Exhausts y and extracts the integer roots in x directly; serves as the
    independent ground truth for the orbit pipeline.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    a, b, c = form.A, form.B, form.C
    found = []
    for y in range(-bound, bound + 1):
        # roots of a x^2 + (b y) x + (c y^2 - m) = 0 via its own discriminant
        disc = (b * y) ** 2 - 4 * a * (c * y * y - m)
        if disc < 0:
            continue
        root = isqrt(disc)
        if root * root != disc:
            continue
        for sign in (root, -root) if root else (0,):
            num = -b * y + sign
            if num % (2 * a) == 0:
                x = num // (2 * a)
                if abs(x) <= bound:
                    found.append(FormSolution(x, y))
    found.sort(key=lambda sol: (sol.y, sol.x))
    return found


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
    claim genuinely fails.
    """
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
