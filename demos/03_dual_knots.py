"""Dual knots in lens spaces and the hyperbolicity invariant phi.

After surgery on kplus(a, b) the core of the new solid torus is a knot in
the lens space described by a triple (p, q, k).  Counting how the residue
walk i*q mod p distributes around the position of k yields four counts
whose minimum phi certifies hyperbolicity: phi >= 2 iff the knot is
hyperbolic.  Two infinite families pass the test; kplus(1, 3) fails it
because it is secretly the (3,4)-torus knot.  phi takes O(log p) steps, so
the Fibonacci family is checked out to n = 1000, where p has 419 digits.
"""

import time

from lenspairs import basic_stats, fib, kplus_dual, kplus_is_hyperbolic

for a, b in ((1, 3), (2, 3), (4, 7), (5, 2)):
    triple = kplus_dual(a, b)
    stats = basic_stats(triple)
    verdict = "hyperbolic" if stats.phi >= 2 else "not hyperbolic"
    print(
        f"kplus({a},{b}): dual in L({triple.p},{triple.q}) with k={triple.k}; "
        f"(s, ell, s', ell') = ({stats.s}, {stats.ell}, {stats.s_prime}, {stats.ell_prime}), "
        f"phi = {stats.phi} -> {verdict}"
    )

print("\nfamily kplus(3n+1, 3n+4):")
for n in (1, 5, 20, 40):
    print(f"  n={n:>2}: hyperbolic = {kplus_is_hyperbolic(3 * n + 1, 3 * n + 4)}")

print("\nfamily kplus(F(n+2), F(n)):")
for n in (3, 8, 15, 100, 1000):
    triple = kplus_dual(fib(n + 2), fib(n))
    start = time.perf_counter()
    verdict = kplus_is_hyperbolic(fib(n + 2), fib(n))
    elapsed_ms = (time.perf_counter() - start) * 1000
    print(f"  n={n:>4}: p has {len(str(triple.p)):>3} digits, hyperbolic = {verdict} ({elapsed_ms:.2f} ms)")
