import itertools
import random
from math import gcd, isqrt

import pytest

from lenspairs import bqf
from lenspairs.arith import is_perfect_square
from lenspairs.bqf import (
    DivisibilityHit,
    DivisibilityReport,
    FormSolution,
    InvalidUnit,
    NotADiscriminant,
    NotApplicable,
    QuadForm,
    UnitElement,
    apply_unit,
    divisibility_scan,
    fundamental_unit,
    generate_solutions,
    orbit_representatives,
)
from oracles import solutions_in_box, unit_matrix, unit_norm

F = QuadForm(1, -6, 1)  # discriminant 32
G = QuadForm(1, -6, -1)  # discriminant 40


def window_bound(form, m):
    # the window that orbit_representatives reads, for the form's fundamental unit
    return bqf._window(form, m, fundamental_unit(form.delta))


def naive_box(form, m, bound):
    # literal double loop, the most primitive oracle there is
    return sorted(
        (FormSolution(x, y)
         for x in range(-bound, bound + 1)
         for y in range(-bound, bound + 1)
         if form(x, y) == m),
        key=lambda s: (s.y, s.x),
    )


def window_solutions(form, m, top):
    # every solution with 0 <= y <= top, by solving the quadratic in x at each y
    sols = []
    for y in range(top + 1):
        root = is_perfect_square(form.delta * y * y + 4 * form.A * m)
        if root is not None:
            nums = {-form.B * y + root, -form.B * y - root}
            xs = sorted(num // (2 * form.A) for num in nums if num % (2 * form.A) == 0)
            sols.extend(FormSolution(x, y) for x in xs)
    return sols


def walk_representatives(form, m):
    # the y-window walk, the oracle for orbit_representatives: at y = 0 and
    # y = W the two roots share an orbit, and the one with the smaller |x|
    # (then the positive one) represents it
    top, exact = window_bound(form, m)
    reps = []
    for y, group in itertools.groupby(window_solutions(form, m, top), key=lambda sol: sol.y):
        group = list(group)
        if y == 0 or y == exact:
            group = [min(group, key=lambda sol: (abs(sol.x), sol.x < 0))]
        reps.extend(group)
    return reps


def least_unit_from_sympy(delta):
    # (t, w) with the least w >= 1 and t^2 - delta w^2 = 4, t > 0
    from sympy.solvers.diophantine.diophantine import diop_DN

    cands = [(int(t), int(w)) for t, w in diop_DN(delta, 4) if t > 0 and w > 0]
    cands += [(2 * int(x), 2 * int(y)) for x, y in diop_DN(delta, 1) if y > 0]
    return min(cands, key=lambda tw: tw[1])


def orbit_points_in_box(form, m, bound):
    # walk each representative's orbit in both directions while inside the box
    tau = fundamental_unit(form.delta)
    points = set()
    for rep in orbit_representatives(form, m):
        for inverse in (False, True):
            cur = rep
            while abs(cur.x) <= bound and abs(cur.y) <= bound:
                points.add(cur)
                cur = apply_unit(form, cur, tau, inverse=inverse)
    return points


def test_form_validation():
    with pytest.raises(NotApplicable):
        QuadForm(1, 2, 1)  # discriminant 0
    with pytest.raises(NotApplicable):
        QuadForm(1, 0, 1)  # discriminant -4
    with pytest.raises(NotApplicable):
        QuadForm(0, 3, 5)  # discriminant 9, a square
    assert F.delta == 32
    assert G.delta == 40


def test_fundamental_units():
    assert (fundamental_unit(32).u, fundamental_unit(32).v) == (3, 1)
    assert (fundamental_unit(5).u, fundamental_unit(5).v) == (1, 1)
    assert (fundamental_unit(40).u, fundamental_unit(40).v) == (19, 6)
    assert (fundamental_unit(13).u, fundamental_unit(13).v) == (4, 3)


def test_fundamental_unit_errors():
    with pytest.raises(NotApplicable):
        fundamental_unit(36)
    with pytest.raises(NotApplicable):
        fundamental_unit(-8)
    with pytest.raises(NotADiscriminant):
        fundamental_unit(7)
    unit = fundamental_unit(244)  # past v = 10^6, where a linear scan in v gives up
    assert (unit.u, unit.v) == (1766319049, 226153980)


def test_fundamental_unit_matches_sympy():
    pytest.importorskip("sympy")
    for delta in range(5, 3001):
        if delta % 4 in (2, 3) or is_perfect_square(delta) is not None:
            continue
        unit = fundamental_unit(delta)
        assert (unit.trace(), unit.v) == least_unit_from_sympy(delta), delta


def test_fundamental_unit_norm_and_minimality():
    for delta in (5, 13, 17, 32, 40, 60, 68, 96, 104, 140, 148):
        unit = fundamental_unit(delta)
        assert unit.norm() == 1
        for v in range(1, unit.v):
            smaller = (
                is_perfect_square((delta // 4) * v * v + 1)
                if delta % 4 == 0
                else is_perfect_square(delta * v * v + 4)
            )
            assert smaller is None


def test_closed_form_units():
    # for even t, disc t^2 - 4 has unit (t/2, 1) and t^2 + 4 its square (t^2/2 + 1, t)
    for t in (6, 8, 10, 12):
        low = fundamental_unit(t * t - 4)
        assert (low.u, low.v) == (t // 2, 1)
        high = fundamental_unit(t * t + 4)
        assert (high.u, high.v) == (t * t // 2 + 1, t)
    # odd t: disc t^2 - 4 gives ((t-1)/2, 1), t^2 + 4 gives ((t^2-t)/2 + 1, t)
    for t in (3, 5, 7):
        low = fundamental_unit(t * t - 4)
        assert (low.u, low.v) == ((t - 1) // 2, 1)
        high = fundamental_unit(t * t + 4)
        assert (high.u, high.v) == ((t * t - t) // 2 + 1, t)


def test_window_bound():
    # (floor of W, W when it is an integer): W^2 is 4/32, 8/32, then 1
    assert window_bound(F, 1) == (0, None)
    assert window_bound(F, -1) == (0, None)
    assert window_bound(G, 1)[0] == 0
    floor, exact = window_bound(G, -1)
    assert floor == 1 and exact == 1


def test_orbit_representatives():
    assert orbit_representatives(F, 1) == [FormSolution(1, 0)]
    assert orbit_representatives(F, -1) == []
    assert orbit_representatives(G, -1) == [FormSolution(0, 1)]
    assert orbit_representatives(G, 1) == [FormSolution(1, 0)]
    # discriminant 241: W = 9148449, so the window walk takes seconds
    assert orbit_representatives(QuadForm(1, 1, -60), 1) == [FormSolution(1, 0)]
    assert orbit_representatives(QuadForm(-1, 1, 60), -1) == [FormSolution(1, 0)]
    with pytest.raises(ValueError, match="^m must be nonzero$"):
        orbit_representatives(F, 0)


def test_representatives_match_window_walk():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    # in the two examples an orbit's window point is not the solution its
    # class is found at, so the orbit has to be walked into the window
    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.example(-4, 4, 23, 95)
    @hypothesis.example(5, -22, 11, -109)
    @hypothesis.given(st.integers(-30, 30).filter(bool), st.integers(-60, 60), st.integers(-30, 30),
                      st.integers(-300, 300).filter(bool))
    def check(a, b, c, m):
        delta = b * b - 4 * a * c
        hypothesis.assume(delta > 0 and is_perfect_square(delta) is None)
        form = QuadForm(a, b, c)
        top, _ = window_bound(form, m)
        hypothesis.assume(top <= 3000)
        assert orbit_representatives(form, m) == walk_representatives(form, m)
        if top <= 100:
            # |x| <= (|b| y + sqrt(delta y^2 + 4|a m|)) / 2|a| on the window
            bound = max(top, (abs(b) * top + isqrt(delta * top * top + 4 * abs(a * m))) // (2 * abs(a)) + 1)
            in_window = [sol for sol in solutions_in_box(form, m, bound) if 0 <= sol.y <= top]
            assert in_window == window_solutions(form, m, top)

    check()


def test_square_roots_match_sympy_when_a_repeated_odd_prime_divides_delta():
    hypothesis = pytest.importorskip("hypothesis")
    sqrt_mod = pytest.importorskip("sympy.ntheory.residue_ntheory").sqrt_mod
    st = hypothesis.strategies

    # n = p^e k with e >= 2 and delta = p^v delta': every branch of the
    # p | delta case (v >= e, v < e odd, v < e even) and a cofactor k
    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.example(3, 3, 2, 1, 1)
    @hypothesis.example(5, 4, 2, 6, 3)
    @hypothesis.example(3, 2, 5, -7, 4)
    @hypothesis.given(st.sampled_from([3, 5, 7, 11, 13]), st.integers(2, 5), st.integers(1, 7),
                      st.integers(-200, 200), st.integers(1, 60))
    def check(p, e, v, rest, k):
        n = p ** e * k
        hypothesis.assume(n <= 10 ** 5)
        delta = p ** v * rest
        assert sorted(bqf._square_roots(delta, bqf._factor(n))) == sorted(sqrt_mod(delta % n, n, all_roots=True))

    check()


def test_prime_power_roots_on_a_large_prime_dividing_delta():
    # the roots follow from the valuation of delta, with no walk over range(p)
    p = 1000003
    assert bqf._prime_power_roots(5 * p, p, 1) == [0]
    assert bqf._prime_power_roots(5 * p, p, 3) == []
    assert bqf._prime_power_roots(4 * p ** 3, p, 4) == []


def test_apply_unit():
    tau = fundamental_unit(32)
    first = apply_unit(F, FormSolution(1, 0), tau)
    assert first == FormSolution(6, 1)
    assert apply_unit(F, first, tau) == FormSolution(35, 6)
    assert apply_unit(F, first, tau, inverse=True) == FormSolution(1, 0)
    assert apply_unit(G, FormSolution(0, 1), fundamental_unit(40)) == FormSolution(6, 1)


def test_apply_unit_roundtrip():
    tau = fundamental_unit(40)
    rng = random.Random(51)
    for _ in range(50):
        sol = FormSolution(rng.randrange(-99, 100), rng.randrange(-99, 100))
        there = apply_unit(G, sol, tau)
        assert apply_unit(G, there, tau, inverse=True) == sol


def test_apply_unit_rejects_bad_units():
    with pytest.raises(InvalidUnit):
        apply_unit(F, FormSolution(1, 0), UnitElement(32, 2, 1))  # norm -4
    with pytest.raises(InvalidUnit):
        apply_unit(F, FormSolution(1, 0), fundamental_unit(40))  # wrong discriminant


def test_unit_action_matches_the_parity_formulas():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    # delta = 4k + r and a form B^2 - 4AC = delta with A dividing (B^2 - delta)/4,
    # and either the fundamental unit (with a sign) or an arbitrary u + v*rho
    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.example(8, 0, 0, 1, 1, None)
    @hypothesis.example(1, 1, 1, 1, -1, None)
    @hypothesis.example(10, 0, 6, 2, 1, (2, 1))
    @hypothesis.example(10, 0, 6, 2, 1, (1, 0))
    @hypothesis.given(st.integers(1, 250000), st.sampled_from([0, 1]), st.integers(-40, 40), st.integers(1, 30),
                      st.sampled_from([1, -1]),
                      st.none() | st.tuples(st.integers(-10 ** 6, 10 ** 6), st.integers(-10 ** 6, 10 ** 6)))
    def check(k, r, b, a, sign, uv):
        delta = 4 * k + r
        hypothesis.assume(is_perfect_square(delta) is None)
        b += (b - r) % 2
        n = (b * b - delta) // 4
        a = sign * gcd(n, a)
        form = QuadForm(a, b, n // a)
        if uv is None:
            tau = fundamental_unit(delta)
            unit = UnitElement(delta, sign * tau.u, sign * tau.v)
        else:
            unit = UnitElement(delta, *uv)
        assert unit.norm() == unit_norm(unit)
        if unit_norm(unit) != 1:
            with pytest.raises(InvalidUnit):
                apply_unit(form, FormSolution(1, 0), unit)
            return
        a11, a12, a21, a22 = unit_matrix(form, unit)
        for x, y in ((1, 0), (0, 1), (3, -7)):
            assert apply_unit(form, FormSolution(x, y), unit) == (x * a11 + y * a21, x * a12 + y * a22)
            assert apply_unit(form, FormSolution(x, y), unit, inverse=True) == (x * a22 - y * a21, -x * a12 + y * a11)

    check()


def test_generate_solutions():
    assert generate_solutions(F, 1, 3) == [FormSolution(1, 0), FormSolution(6, 1), FormSolution(35, 6)]
    assert generate_solutions(F, -1, 3) == []
    assert generate_solutions(G, -1, 2) == [FormSolution(0, 1), FormSolution(6, 1)]
    for sol in generate_solutions(G, 1, 6):
        assert G(sol.x, sol.y) == 1
    with pytest.raises(ValueError, match="^m must be nonzero$"):
        generate_solutions(F, 0, 3)


# each form has an orbit whose y grows under the inverse unit, so its walk must keep to the inverse
@pytest.mark.parametrize("form,m", [
    (QuadForm(-4, -4, 2), 2), (QuadForm(1, -2, -1), 2), (QuadForm(1, -3, -1), -3), (QuadForm(1, 0, -5), -1),
    (QuadForm(1, 0, -3), -3), (QuadForm(1, 0, -2), -2),
])
def test_generate_solutions_walks_each_orbit_towards_growing_y(form, m):
    count = 4
    sols = generate_solutions(form, m, count)
    box = set(solutions_in_box(form, m, max(max(abs(sol.x), abs(sol.y)) for sol in sols)))
    for i in range(0, len(sols), count):
        chain = sols[i:i + count]
        assert set(chain) <= box and len(set(chain)) == count
        assert [sol.y for sol in chain] == sorted(sol.y for sol in chain)


def test_generate_solutions_at_count_one_are_the_representatives():
    # F = -1 has no solutions
    for form, m in ((F, 1), (F, -1), (G, 1), (G, -1), (QuadForm(1, 1, -60), 1), (QuadForm(1, 0, -2), 7)):
        assert generate_solutions(form, m, 1) == orbit_representatives(form, m)


def test_solutions_in_box_matches_naive_oracle():
    assert solutions_in_box(F, 1, 40) == naive_box(F, 1, 40)
    assert solutions_in_box(F, 2, 40) == naive_box(F, 2, 40) == []
    assert solutions_in_box(G, -1, 25) == naive_box(G, -1, 25)
    assert solutions_in_box(QuadForm(1, -3, 1), 1, 10) == naive_box(QuadForm(1, -3, 1), 1, 10)


def test_box_is_sign_orbit_closure():
    for form, m in ((F, 1), (G, 1), (G, -1), (QuadForm(1, -3, 1), 1)):
        walked = orbit_points_in_box(form, m, 10 ** 4)
        expected = {FormSolution(-s.x, -s.y) for s in walked} | walked
        assert set(solutions_in_box(form, m, 10 ** 4)) == expected


def test_box_oracle_on_random_forms():
    rng = random.Random(53)
    cases = 0
    while cases < 50:
        a = rng.randrange(-12, 13)
        b = rng.randrange(-12, 13)
        c = rng.randrange(-12, 13)
        m = rng.randrange(-10, 11)
        if a == 0 or m == 0:
            continue
        delta = b * b - 4 * a * c
        if delta <= 0 or is_perfect_square(delta) is not None or delta % 4 in (2, 3):
            continue
        form = QuadForm(a, b, c)
        walked = orbit_points_in_box(form, m, 10 ** 4)
        expected = {FormSolution(-s.x, -s.y) for s in walked} | walked
        assert set(solutions_in_box(form, m, 10 ** 4)) == expected
        cases += 1


def test_divisible_coordinate_property():
    # positive solutions of x^2 - t*x*y + y^2 = Q have a coordinate divisible
    # by a; for x^2 - t*x*y - y^2 the divisible coordinate is y when m = Q
    # and x when m = -Q (t = Q*n*a)
    for q_val in (1, 4):
        for n in (3, 4):
            for a in (2, 3, 5):
                t = q_val * n * a
                plus = QuadForm(1, -t, 1)
                minus = QuadForm(1, -t, -1)
                for sol in solutions_in_box(plus, q_val, 10 ** 4):
                    if sol.x > 0 and sol.y > 0:
                        assert sol.x % a == 0 or sol.y % a == 0
                for sol in solutions_in_box(minus, q_val, 10 ** 4):
                    if sol.x > 0 and sol.y > 0:
                        assert sol.y % a == 0
                for sol in solutions_in_box(minus, -q_val, 10 ** 4):
                    if sol.x > 0 and sol.y > 0:
                        assert sol.x % a == 0


def test_divisibility_scan_clean_region():
    report = divisibility_scan(range(2, 3), range(1, 6), range(1, 6), range(3, 4))
    assert report.clean
    assert report.checked > 0


def test_divisibility_scan_flags_a_equal_one():
    report = divisibility_scan(range(1, 2), range(3, 4), range(8, 9), range(3, 4))
    assert any(
        (hit.a, hit.b, hit.c, hit.n, hit.value, hit.modulus) == (1, 3, 8, 3, 73, 73)
        for hit in report.counterexamples
    )


def test_divisibility_scan_skips_zero_difference():
    # b = c makes b^2 - c^2 = 0; divisibility of zero is vacuous, not a hit
    report = divisibility_scan(range(2, 3), range(1, 2), range(1, 2), range(3, 4))
    assert report.clean


def test_divisibility_scan_skips_a_zero_modulus():
    # at a = b = c = n = 1, b^2 - c^2 and n*a*b*c - 1 are 0 and skipped, so 2 over 2 is the
    # one check left, and a hit
    report = divisibility_scan(range(1, 2), range(1, 2), range(1, 2), range(1, 2))
    assert report == DivisibilityReport(1, (DivisibilityHit(1, 1, 1, 1, 2, 2),))


@pytest.mark.parametrize("position", range(4))
@pytest.mark.parametrize("low", [0, -3])
def test_divisibility_scan_rejects_values_below_one(position, low):
    # with a value below 1, n*a*b*c +- 1 can be +-1, which would divide everything
    ranges = [range(1, 3), range(1, 3), range(1, 3), range(3, 4)]
    ranges[position] = range(low, 2)
    with pytest.raises(ValueError, match="must be >= 1"):
        divisibility_scan(*ranges)


@pytest.mark.parametrize("position", range(4))
def test_divisibility_scan_rejects_an_empty_range(position):
    # an empty box checks nothing, which must not read as a clean verification
    ranges = [range(2, 4), range(1, 3), range(1, 3), range(3, 5)]
    ranges[position] = range(5, 3)
    with pytest.raises(ValueError, match="must not be empty"):
        divisibility_scan(*ranges)


def test_generate_solutions_finds_the_unit_once(monkeypatch):
    calls = []

    def counted(delta):
        calls.append(delta)
        return fundamental_unit(delta)

    monkeypatch.setattr(bqf, "fundamental_unit", counted)
    sols = generate_solutions(F, 1, 3)
    assert calls == [F.delta]
    assert sols and all(F(x, y) == 1 for x, y in sols)


def test_generate_solutions_factors_once_per_solve(monkeypatch):
    # 4Am = 4 * 441 = 2^2 3^2 7^2 has 8 square divisors, each of which once had its own factorisation
    calls = []

    def counted(n):
        calls.append(n)
        return factor(n)

    factor = bqf._factor
    monkeypatch.setattr(bqf, "_factor", counted)
    form = QuadForm(1, 0, -2)
    sols = generate_solutions(form, 441, 2)
    assert calls == [4 * 441]
    assert sols and all(form(x, y) == 441 for x, y in sols)


@pytest.mark.parametrize("count", [0, -2])
def test_generate_solutions_rejects_a_count_below_one(count):
    form = QuadForm(1, 0, -2)
    for m in (1, 0):
        with pytest.raises(ValueError, match="count must be >= 1"):
            generate_solutions(form, m, count)
