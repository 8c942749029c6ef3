"""Walkthrough: the Lubich coefficient families and how their series is computed.

Run from the repository root after ``pip install -e .``:

    python demos/01_coefficient_families.py
"""

import numpy as np

from wsld import generating_polynomial, lubich_coeffs

print("Generating polynomials (exact rationals)")
print("----------------------------------------")
for nu in range(1, 6):
    poly = ", ".join(str(c) for c in generating_polynomial(nu))
    print(f"  nu={nu}:  {poly}")
print()

print("The nu=1 series, lubich_coeffs(1, alpha, K), is the classic Grunwald")
print("binomial sequence: for integer alpha it terminates exactly.")
print(f"  alpha=1: {lubich_coeffs(1, 1.0, 4)}")
print(f"  alpha=2: {lubich_coeffs(1, 2.0, 4)}")
print(f"  alpha=1.5: {np.round(lubich_coeffs(1, 1.5, 6), 6)}")
print()

print("Fractional alpha, higher nu: the polynomial is (1-z) R(z), so the")
print("series is the Grunwald one convolved with that of R^alpha, which the")
print("Miller recurrence gives up to index 200: it decays geometrically.")
l = lubich_coeffs(5, 1.8, 10)
print(f"  nu=5, alpha=1.8, first terms: {np.round(l, 6)}")
print(f"  l_0 equals p_0^alpha = (137/60)^1.8 = {(137 / 60) ** 1.8:.6f}")
print()

print("Partial sums of the series tend to zero (the symbol vanishes at 1):")
l = lubich_coeffs(4, 1.5, 10_000)
partial = np.cumsum(l)
for k in (10, 100, 1000, 10_000):
    print(f"  sum up to k={k:>6}: {partial[k]:+.3e}")
