"""Walkthrough: why the shift tuple (1,-1,1,2,1,-1,1,3) is the stable choice.

Three views of the same fact:

1. the symbol of the unshifted operator deviates at order nu, but its matrix
   has eigenvalues greater than one -- hopeless for time stepping;
2. the generating function of the symmetric part of the weighted operator is
   nonpositive on [0, pi], which certifies negative-definiteness for every
   matrix size at once (Toeplitz spectra live inside the generating
   function's range);
3. aggressive Crank-Nicolson steps stay bounded with the stable tuple and
   blow up with the unshifted operator.

    python demos/03_stability_certificates.py
"""

import numpy as np

from wsld import (
    assemble_left,
    definiteness_scan,
    eigen_probe,
    stability_probe,
    symbol_order_slope,
    table2_problem,
    wsld_scheme,
)
from wsld.spectral import scheme_symmetric_genfn

print("1. Symbol orders (log-log slope of |W(-it) - 1|)")
print("------------------------------------------------")
for nu in (3, 4, 5):
    s0 = symbol_order_slope(nu, 1.5, 0)
    s1 = symbol_order_slope(nu, 1.5, 1)
    print(f"  nu={nu}: unshifted slope {s0:.3f} (order {nu}), shifted slope {s1:.3f}")
print()

print("...but the unshifted matrix is lower triangular with diagonal")
print("p_0^alpha > 1, so all its eigenvalues exceed one:")
probe = eigen_probe(assemble_left(wsld_scheme(3, 1.5, shifts=0), 64))
print(f"  nu=3, alpha=1.5: diagonal (11/6)^1.5 = {(11 / 6) ** 1.5:.4f}, "
      f"symmetric part spans [{probe.lambda_min:.2f}, {probe.lambda_max:.2f}]")
print()

print("2. Negative-definiteness certificate for the weighted operator")
print("--------------------------------------------------------------")
for nu in (3, 4):
    scan = definiteness_scan(nu)
    print(f"  nu={nu}: sup over 99 alphas x 2048 points = {scan.max_value:.3e} "
          f"-> {'certified' if scan.passed else 'NOT negative definite'}")
x = np.linspace(0.0, np.pi, 9)
print("  sample of the generating function (nu=4, alpha=1.5):")
print("   ", np.round(scheme_symmetric_genfn(wsld_scheme(4, 1.5), x), 4))
print()

print("  dense eigenvalue probes agree with the certificate:")
for n in (8, 32, 128):
    probe = eigen_probe(assemble_left(wsld_scheme(4, 1.5), n))
    print(f"    n={n:>3}: lambda_max(H) = {probe.lambda_max:.4e} < 0")
print()

print("3. Aggressive time steps (diffusion benchmark, h=1/40)")
print("------------------------------------------------------")
problem = table2_problem(1.5, nx=80)
for ratio in (10.0, 100.0):
    result = stability_probe(problem, wsld_scheme(4, 1.5), tau_over_h=ratio,
                             n_steps=400)
    print(f"  stable tuple,   tau={ratio:>5.0f}h: sup |U| = {result.sup_norm:.3f} "
          f"({result.steps_completed} steps)")
result = stability_probe(problem, wsld_scheme(4, 1.5, shifts=0),
                         tau_over_h=10.0, n_steps=400)
print(f"  unshifted rule, tau=   10h: "
      f"{'bounded' if result.bounded else 'blow-up detected'} "
      f"after {result.steps_completed} steps")
