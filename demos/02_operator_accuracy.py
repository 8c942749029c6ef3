"""Walkthrough: weighting shifted operators restores high-order accuracy.

Applies the four weighting levels to samples of u(x) = x^8 on (0, 1) and
measures against the closed-form left Riemann-Liouville derivative.  A single
nonzero shift is first order; each weighting level buys one more order, up to
four.

    python demos/02_operator_accuracy.py
"""

import numpy as np

from wsld import DEFAULT_SHIFTS, apply_operator, table1_source, wsld_scheme

ALPHA = 1.5
LEVEL_SHIFTS = {
    1: (1,),
    2: (1, -1),
    3: (1, -1, 1, 2),
    4: DEFAULT_SHIFTS.as_tuple(),
}


def interior_error(nu: int, level: int, nx: int) -> float:
    scheme = wsld_scheme(nu, ALPHA, shifts=LEVEL_SHIFTS[level])
    x = np.linspace(0.0, 1.0, nx + 1)
    approx = apply_operator(x ** 8, scheme, 1.0 / nx)
    exact = table1_source(ALPHA)(x)
    # the last m nodes read past the right boundary where the zero extension
    # no longer matches the smooth test function
    return float(np.abs(approx - exact)[: nx - scheme.m + 1].max())


print(f"Derivative order alpha = {ALPHA}; errors on u(x) = x^8 over (0, 1)\n")
for nu in (3, 4):
    print(f"base operator nu = {nu}")
    print("  level |   h=1/64     h=1/128    h=1/256    h=1/512   observed order")
    for level in (1, 2, 3, 4):
        errors = [interior_error(nu, level, nx) for nx in (64, 128, 256, 512)]
        rate = np.log2(errors[-2] / errors[-1])
        row = "  ".join(f"{e:.3e}" for e in errors)
        print(f"    {level}   |  {row}   {rate:.2f}")
    print()

print("The same weights apply to both nu = 3 and nu = 4 at levels 2 and 3,")
print("but the two families are genuinely different operators:")
for nu in (3, 4):
    weights = wsld_scheme(nu, ALPHA, shifts=(1, -1, 1, 2)).shift_weights()
    print(f"  nu={nu} (weight, shift): {weights}")
