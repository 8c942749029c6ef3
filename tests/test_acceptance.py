"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.

Criterion 1 is known to fail in one cell: alpha=0.5, h=1/60, where the run
gives 1.1368e-06 against the frozen 9.3316e-07.  The alpha=1.8, h=1/40 cell
is also off (9.7187e-05 against 1.2005e-04), but that column is checked only
by its order.  Precision is ruled out: 50-digit mpmath agrees with double
precision in every cell.  The cause is unexplained, and the assertion stays at
the stated 2% rather than being loosened to make it green.
"""

import time

import numpy as np
import pytest

from wsld.benchmarks import (
    TOLERANCES,
    check_reports,
    run_consistency,
    run_table1,
    run_table2,
)
from wsld.coefficients import generating_polynomial, lubich_coeffs
from wsld.operators import apply_operator, assemble_left, wsld_scheme
from wsld.solver import stability_probe, table2_problem
from wsld.spectral import (
    definiteness_scan,
    eigen_probe,
    symbol_order_slope,
)

from oracles import lubich_coeffs_oracle, root_factorization


def report(number: int, passed: bool, detail: str) -> None:
    print(f"[criterion {number:02d}] {'PASS' if passed else 'FAIL'} - {detail}")


def test_criterion_01_steady_reference_table():
    t0 = time.perf_counter()
    reports = run_table1()
    failures = check_reports("table1", reports)
    order_18 = {r.metadata["alpha"]: r for r in reports}[1.8].regression_order()
    elapsed = time.perf_counter() - t0
    tol = TOLERANCES["table1"]
    detail = (f"alpha=-0.5/0.5 columns vs reference "
              f"({tol['rtol']:.0%} / ±{tol['rate_tol']}), "
              f"alpha=1.8 order {order_18:.2f} >= {tol['min_order']}, {elapsed:.2f}s")
    passed = not failures and elapsed < 1.0
    report(1, passed, detail if passed else detail + "; " + "; ".join(failures))
    assert elapsed < 1.0
    assert not failures, "\n".join(failures)


def test_criterion_02_diffusion_reference_table():
    t0 = time.perf_counter()
    reports = run_table2()
    failures = check_reports("table2", reports)
    checked = sum(len(rep.errors) for rep in reports)
    elapsed = time.perf_counter() - t0
    passed = not failures and elapsed < 120.0
    tol = TOLERANCES["table2"]
    report(2, passed,
           f"{checked} max errors within {tol['rtol']:.0%}, "
           f"rates within ±{tol['rate_tol']}, {elapsed:.1f}s")
    assert elapsed < 120.0
    assert not failures, "\n".join(failures)


def test_criterion_03_coefficient_path_equivalence():
    worst = 0.0
    for nu in (2, 3, 4, 5):
        for alpha in (-0.5, 0.5, 1.1, 1.5, 1.8):
            a = lubich_coeffs(nu, alpha, 64)
            b = lubich_coeffs_oracle(nu, alpha, 64)
            worst = max(worst, float(np.abs(a - b).max()))
    passed = worst <= 1e-10
    report(3, passed, f"recurrence vs root-convolution oracle, max |diff| = {worst:.2e}")
    assert passed


def test_criterion_04_root_reconstruction():
    worst = max(root_factorization(nu).reconstruction_error() for nu in (3, 4, 5))
    passed = worst <= 1e-12
    report(4, passed, f"re-expanded factorizations, max deviation = {worst:.2e}")
    assert passed


def test_criterion_05_symbol_orders():
    failures = []
    for nu in (3, 4, 5):
        slope = symbol_order_slope(nu, 1.5, 0)
        if abs(slope - nu) > 0.2:
            failures.append(f"nu={nu} p=0 slope {slope:.3f}")
        slope1 = symbol_order_slope(nu, 1.5, 1)
        if abs(slope1 - 1.0) > 0.2:
            failures.append(f"nu={nu} p=1 slope {slope1:.3f}")
    report(5, not failures,
           "log-log symbol slopes: nu±0.2 unshifted, 1±0.2 shifted")
    assert not failures, "; ".join(failures)


def test_criterion_06_negative_definiteness_scan():
    worst = -np.inf
    for nu in (3, 4):
        scan = definiteness_scan(nu)  # full 99 x 2048 default grids
        worst = max(worst, scan.max_value)
    passed = worst <= 1e-12
    report(6, passed, f"sup of the symmetric-part generating function = {worst:.2e}")
    assert passed


def test_criterion_07_eigenvalue_probes():
    failures = []
    for nu in (3, 4):
        for alpha in (1.1, 1.5, 1.8):
            for n in (8, 32, 128):
                probe = eigen_probe(assemble_left(wsld_scheme(nu, alpha), n))
                if probe.lambda_max >= 0:
                    failures.append(f"nu={nu} alpha={alpha} n={n}: "
                                    f"lambda_max={probe.lambda_max:.3e}")
    # unshifted operator: triangular with diagonal p0^alpha > 1
    for nu in (3, 4):
        for alpha in (1.1, 1.5, 1.8):
            matrix = assemble_left(wsld_scheme(nu, alpha, shifts=0), 32)
            diag = float(generating_polynomial(nu)[0]) ** alpha
            if not np.allclose(np.diag(matrix), diag, rtol=1e-14) or diag <= 1.0:
                failures.append(f"nu={nu} alpha={alpha}: unshifted diagonal")
    report(7, not failures,
           "lambda_max(H) < 0 on the stable tuple; unshifted diagonal = p0^alpha > 1")
    assert not failures, "; ".join(failures)


def test_criterion_08_consistency_orders():
    reports = run_consistency()  # nu in {3,4}, levels 1..4, alpha=1.5
    failures = check_reports("consistency", reports)
    details = [f"nu={rep.metadata['nu']} L{rep.metadata['level']}: {rep.rates()[-1]:.2f}"
               for rep in reports]
    report(8, not failures, "observed orders " + ", ".join(details))
    assert not failures, "; ".join(failures)


def test_criterion_09_stability_probe():
    problem = table2_problem(1.5, nx=80)  # h = 1/40
    stable = wsld_scheme(4, 1.5)
    failures = []
    for ratio in (10.0, 100.0):
        probe = stability_probe(problem, stable, tau_over_h=ratio, n_steps=400)
        if not probe.bounded or probe.sup_norm > 10.0:
            failures.append(f"stable tuple ratio={ratio}: sup={probe.sup_norm:.2e}")
    unstable = wsld_scheme(4, 1.5, shifts=0)
    probe = stability_probe(problem, unstable, tau_over_h=10.0, n_steps=400)
    if probe.bounded:
        failures.append(f"unshifted operator stayed bounded: sup={probe.sup_norm:.2e}")
    report(9, not failures,
           "aggressive steps: stable tuple bounded (<=10x scale); unshifted blows up")
    assert not failures, "; ".join(failures)


def test_criterion_10_structural_equivalences():
    rng = np.random.default_rng(2024)
    u = rng.standard_normal(51)
    h = 1.0 / 50
    worst_apply = 0.0
    worst_phi = 0.0
    for nu in (3, 4):
        scheme = wsld_scheme(nu, 1.5)
        matrix = assemble_left(scheme, 50)
        direct = apply_operator(u, scheme, h)
        worst_apply = max(worst_apply, float(
            np.abs(direct - h ** -1.5 * (matrix @ u)).max() / (h ** -1.5)))
        summed = np.zeros_like(matrix)
        for w, shift in scheme.shift_weights():
            summed += w * assemble_left(wsld_scheme(nu, 1.5, shifts=shift), 50)
        worst_phi = max(worst_phi, float(np.abs(matrix - summed).max()))
    passed = worst_apply <= 1e-13 and worst_phi <= 1e-12
    report(10, passed,
           f"matrix/convolution diff = {worst_apply:.2e} (<=1e-13), "
           f"matrix/phi-assembly diff = {worst_phi:.2e} (<=1e-12)")
    assert passed
