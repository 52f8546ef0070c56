"""Lens spaces from Dehn surgery on the five knot families.

The opening example: 5-surgery on the right-handed trefoil (the (2,3)-torus
knot) gives L(5,4), which is L(5,-1) with orientation ignored, the same
unoriented space the unknot gives.  Orientation is the whole subtlety, so
the library keeps oriented and unoriented comparison separate.
"""

from lenspairs import (
    SurgerySlope,
    cable,
    homeomorphic,
    kplus,
    lens_surgery,
    make_lens,
    oriented_homeomorphic,
    tangle_hh,
    tangle_th,
    torus,
)

trefoil = torus(2, 3)
result = lens_surgery(trefoil, SurgerySlope(5))
print(f"5-surgery on {trefoil}: {result.space}")
print(f"reverse orientation: {make_lens(result.space.p, -result.space.q)}")
print(f"same unoriented space as L(5,1)? {homeomorphic(result.space, make_lens(5, 1))}")
print(f"same oriented space as L(5,1)?   {oriented_homeomorphic(result.space, make_lens(5, 1))}")
print()

print("surgery on one representative of each family at a lens slope:")
# 3*4 + 1, 4*2*3 + 1, 2^2 + 2*3 + 3^2, and the designated tangle slopes at n = 1
for knot, m in ((torus(3, 4), 13), (cable(2, 3, 1), 25), (kplus(2, 3), 19), (tangle_hh(1), 93), (tangle_th(1), 66)):
    slope = SurgerySlope(m)
    print(f"  {str(knot):<14} @ {str(slope):>6} -> {lens_surgery(knot, slope).space}")
print()

print("a torus knot away from the lens condition:")
print(f"  {trefoil} @ 6/1  -> {lens_surgery(trefoil, SurgerySlope(6))}")
print(f"  {trefoil} @ 8/1  -> {lens_surgery(trefoil, SurgerySlope(8))}")
print()

# non-integral slopes: |n*p*q - m| = 1 is the requirement
knot = torus(3, 5)
print(f"half-integral 29/2 on {knot}: {lens_surgery(knot, SurgerySlope(29, 2)).space}")
print(f"half-integral 29/2 on {torus(2, 5)}: {lens_surgery(torus(2, 5), SurgerySlope(29, 2))}")
