"""Solving f(x, y) = m by the norm-1 unit orbit method, exactly.

The running example is x^2 - 6xy + y^2 (discriminant 32) and its sibling
x^2 - 6xy - y^2 (discriminant 40).  The fundamental unit gives a finite
window 0 <= y <= W meeting every solution orbit; walking the orbits with
the unit action then lists all solutions.  The unit comes from a
continued-fraction period and the window solutions from the square roots
of D mod 4Am, so a ten-digit unit (discriminant 244) or a window nine
million wide (discriminant 241) costs no more than the small examples.

The paper proves with such forms the divisibility fact that rules out two
satellite knots ever sharing a lens space; the demo's last part only
checks that fact in a box, by a plain scan that uses no form or unit.
"""

from lenspairs import (
    QuadForm,
    divisibility_scan,
    fundamental_unit,
    generate_solutions,
    orbit_representatives,
)

plus = QuadForm(1, -6, 1)
minus = QuadForm(1, -6, -1)

for form in (plus, minus):
    unit = fundamental_unit(form.delta)
    print(f"{form}  (discriminant {form.delta}), fundamental unit u={unit.u}, v={unit.v}")
    for m in (1, -1):
        reps = orbit_representatives(form, m)
        sols = generate_solutions(form, m, 4)
        print(f"  m = {m:>2}: one representative per orbit in the window: {reps or 'none'}")
        if sols:
            print(f"          first solutions per orbit: {sols}")
    print()

print("a large unit: the continued-fraction period of sqrt(61) is short, the unit is not")
pell = QuadForm(1, 0, -61)
unit = fundamental_unit(pell.delta)
print(f"  {pell}  (discriminant {pell.delta}): u={unit.u}, v={unit.v}")
wide = QuadForm(1, 1, -60)
print(f"  {wide} = 1  (discriminant {wide.delta}): window nine million wide, "
      f"representatives {orbit_representatives(wide, 1)}")
print(f"          first solutions: {generate_solutions(wide, 1, 3)}")
print()

print("divisibility scan: is b^2 +- c^2 ever divisible by n*a*b*c +- 1?")
clean = divisibility_scan(range(2, 9), range(1, 31), range(1, 31), range(3, 6))
print(f"  a in 2..8, b,c in 1..30, n in 3..5: {clean.checked} checks, "
      f"{len(clean.counterexamples)} hits")
boundary = divisibility_scan(range(1, 2), range(1, 31), range(1, 31), range(3, 6))
example = next(h for h in boundary.counterexamples if (h.b, h.c) == (3, 8))
print(f"  with a = 1 the claim fails, e.g. a=1 b={example.b} c={example.c} n={example.n}: "
      f"{example.modulus} divides {example.value}")
