"""Walkthrough: weighting shifted operators restores high-order accuracy.

Applies the four weighting levels to samples of u(x) = x^8 on (0, 1) and
measures against the closed-form left Riemann-Liouville derivative (the
``consistency`` suite of ``wsld convergence``).  A single nonzero shift is
first order; each weighting level buys one more order, up to four.

    python demos/02_operator_accuracy.py
"""

from wsld import run_consistency, wsld_scheme

ALPHA = 1.5

print(f"Derivative order alpha = {ALPHA}; errors on u(x) = x^8 over (0, 1)\n")
for report in run_consistency(nus=(3, 4), alpha=ALPHA):
    meta = report.metadata
    if meta["level"] == 1:
        print(f"base operator nu = {meta['nu']}")
        print("  level |   h=1/64     h=1/128    h=1/256    h=1/512   observed order")
    row = "  ".join(f"{e:.3e}" for e in report.errors)
    print(f"    {meta['level']}   |  {row}   {report.rates()[-1]:.2f}")
    if meta["level"] == 4:
        print()

print("The same weights apply to both nu = 3 and nu = 4 at levels 2 and 3,")
print("but the two families are genuinely different operators:")
for nu in (3, 4):
    weights = wsld_scheme(nu, ALPHA, shifts=(1, -1, 1, 2)).shift_weights()
    print(f"  nu={nu} (weight, shift): {weights}")
