"""The benchmark's workloads: inputs drawn from a seed, the timed calls, the checks.

A workload is a list of cases. Each case is one call into the public ``wsld``
API (``call``) and the check of its output (``check``), which returns whether
the output is correct and its relative deviation from the workload's
reference (``None`` where the case has no reference value).

Every call looks its function up through the module that owns it at call
time (``wsld.solver.cn_solve``, not a name bound at import), so the tracer
can wrap those names without touching the package. The reference functions
(``table2_reference`` and the like) are module-level so the benchmark's own
tests can perturb them and see the checks fail.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Any, Callable

import numpy as np

import wsld
import wsld.benchmarks
import wsld.operators
import wsld.solver
import wsld.spectral

# The table2 tolerances of the CLI's convergence check
# (``wsld convergence --suite table2 --check``): 5% per cell, 0.2 per rate.
TABLE2_RTOL = 0.05
TABLE2_RATE_TOL = 0.2

# large-grid: dense Crank-Nicolson at nx = 2560 with a fixed 20 steps, so
# tau = 0.05 = 64 h; unconditional stability permits tau proportional to h.
# The error at t = 1 is ~3e-4 of max|exact|, dominated by the time step.
LARGE_NX = 2560
LARGE_NT = 20
LARGE_ALPHAS = 3
LARGE_TOL = 1e-3

# operator-apply: np.convolve is O(n^2), so 65536 dominates the run time.
# Below 4096 the truncation error of the smallest alpha rivals round-off
# and would make ref_dev jump with the seed. Round-off reads up to ~8e-15
# on the scale of APPLY_TOL; an order-1 operator reads 1e-10 or more.
APPLY_SIZES = (4096, 16384, 65536)
APPLY_TOL = 1e-13

# certify: the dense probe's limit is a 512 x 512 matrix (n = 511 intervals).
EIGEN_N = wsld.spectral.EIGEN_MAX_DIM - 1
EIGEN_ALPHAS = 16
SZEGO_GAP_TOL = 1e-3
SZEGO_SLACK = 1e-9


@dataclass
class Case:
    name: str
    call: Callable[[], Any]
    check: Callable[[Any], tuple[bool, float | None]]


@dataclass
class Workload:
    name: str
    cases: list[Case]
    alphas: list[float] = field(default_factory=list)
    # Diffusion problems built here, whose source callable the tracer wraps.
    problems: list = field(default_factory=list)


def stratified_alphas(rng: random.Random, k: int) -> list[float]:
    """One alpha in each of ``k`` equal slices of (1, 2), jittered by the seed.

    Stratifying keeps the largest deviation over the draws from jumping with
    the seed; the 5% margin keeps alpha clear of the slice edges.
    """
    return [1.0 + (j + rng.uniform(0.05, 0.95)) / k for j in range(k)]


# ---------------------------------------------------------------------------
# References (module-level so tests can perturb them)
# ---------------------------------------------------------------------------

def table2_reference(nu: int, alpha: float) -> tuple[float, ...]:
    return wsld.benchmarks.TABLE2_REFERENCE[(nu, alpha)]


def large_grid_reference(x: np.ndarray) -> np.ndarray:
    return wsld.solver.table2_exact(x, 1.0)


def apply_reference(alpha: float, x: np.ndarray) -> np.ndarray:
    """Closed-form ``D^alpha x^8 = Gamma(9)/Gamma(9-alpha) x^(8-alpha)``."""
    return math.gamma(9.0) / math.gamma(9.0 - alpha) * x ** (8.0 - alpha)


def symbol_min(scheme: wsld.operators.WsldScheme) -> float:
    """Minimum of the symmetric-part generating function over [0, pi]."""
    x = wsld.spectral.default_x_grid()
    return float(wsld.spectral.scheme_symmetric_genfn(scheme, x).min())


# ---------------------------------------------------------------------------
# table2
# ---------------------------------------------------------------------------

def _table2_call(nu: int, alpha: float):
    return wsld.benchmarks.run_table2(nus=(nu,), alphas=(alpha,))


def _table2_check(nu: int, alpha: float, reports) -> tuple[bool, float]:
    (report,) = reports
    reference = table2_reference(nu, alpha)
    if len(report.errors) != len(reference):
        return False, math.inf
    failures = wsld.benchmarks.compare_to_reference(
        report, reference, rtol=TABLE2_RTOL, rate_tol=TABLE2_RATE_TOL)
    dev = max(abs(got - want) / abs(want)
              for got, want in zip(report.errors, reference))
    return not failures, dev


def _table2(seed: int) -> Workload:
    # The paper fixes every input of Table 2, so the seed is ignored. Each
    # (nu, alpha) row is its own case: the sum of the rows' medians is the
    # time of the whole sweep, and a burst of machine noise hits one row.
    cases = [
        Case(f"nu{nu}-alpha{alpha}", partial(_table2_call, nu, alpha),
             partial(_table2_check, nu, alpha))
        for nu in (3, 4) for alpha in (1.1, 1.5, 1.8)
    ]
    return Workload("table2", cases)


# ---------------------------------------------------------------------------
# large-grid
# ---------------------------------------------------------------------------

def _cn_call(problem, scheme):
    return wsld.solver.cn_solve(problem, scheme)


def _cn_check(problem, result) -> tuple[bool, float]:
    if result.steps != problem.nt or not np.all(np.isfinite(result.u)):
        return False, math.inf
    exact = large_grid_reference(problem.grid.nodes())
    dev = float(np.abs(result.u - exact).max() / np.abs(exact).max())
    return dev <= LARGE_TOL, dev


def _large_grid(seed: int) -> Workload:
    alphas = stratified_alphas(random.Random(seed), LARGE_ALPHAS)
    problems = [wsld.solver.table2_problem(a, nx=LARGE_NX, nt=LARGE_NT)
                for a in alphas]
    cases = [
        Case(f"alpha{p.alpha:.4f}", partial(_cn_call, p, wsld.wsld_scheme(4, p.alpha)),
             partial(_cn_check, p))
        for p in problems
    ]
    return Workload("large-grid", cases, alphas=alphas, problems=problems)


# ---------------------------------------------------------------------------
# operator-apply
# ---------------------------------------------------------------------------

def _fft_abs_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    size = a.size + b.size - 1
    nfft = 1 << (size - 1).bit_length()
    full = np.fft.irfft(np.fft.rfft(a, nfft) * np.fft.rfft(b, nfft), nfft)
    return full[:size]


@dataclass
class _Apply:
    """One ``apply_operator`` call on ``x^8`` (left) or ``(1-x)^8`` (right)."""

    scheme: wsld.operators.WsldScheme
    side: str
    n: int

    def __post_init__(self) -> None:
        self.h = 1.0 / self.n
        self.x = np.linspace(0.0, 1.0, self.n + 1)
        self.u = self.x ** 8 if self.side == "left" else (1.0 - self.x) ** 8

    def call(self):
        return wsld.operators.apply_operator(self.u, self.scheme, self.h, side=self.side)

    @cached_property
    def _reference(self) -> tuple[slice, np.ndarray, np.ndarray]:
        # Nodes whose stencil stays inside [0, 1]: the zero extension past
        # the far edge does not match the smooth test function.
        m, n, alpha = self.scheme.m, self.n, self.scheme.alpha
        if self.side == "left":
            nodes, exact = slice(0, n - m + 1), apply_reference(alpha, self.x)
        else:
            nodes, exact = slice(m, n + 1), apply_reference(alpha, 1.0 - self.x)
        # Magnitude of the terms each output sums, h^-alpha (|phi| * |u|):
        # the yardstick of a round-off bound. Relative to max|exact| the
        # round-off grows like eps * h^-alpha, four decades over alpha in
        # (1, 2) at n = 65536, which would make ref_dev follow the seed.
        phi = np.abs(self.scheme.phi(n + m))
        u = self.u if self.side == "left" else self.u[::-1]
        scale = self.h ** -alpha * _fft_abs_convolve(phi, u)[m: m + n + 1]
        if self.side == "right":
            scale = scale[::-1]
        return nodes, exact[nodes], scale[nodes]

    def check(self, y) -> tuple[bool, float]:
        # The check takes the largest error, so one wrong node fails it;
        # ref_dev takes the root mean square, which round-off makes vary
        # smoothly with alpha where the largest error jumps by 50%.
        nodes, exact, scale = self._reference
        err = np.abs(y[nodes] - exact)
        ok = err.max() / scale.max() <= APPLY_TOL
        return ok, float(np.sqrt(np.mean(err ** 2) / np.mean(scale ** 2)))


def _operator_apply(seed: int) -> Workload:
    rng = random.Random(seed)
    combos = [(nu, side) for nu in (3, 4) for side in ("left", "right")]
    alphas = stratified_alphas(rng, len(combos))
    rng.shuffle(alphas)  # every (nu, side) sees every slice of (1, 2) over seeds
    cases = []
    for (nu, side), alpha in zip(combos, alphas):
        scheme = wsld.wsld_scheme(nu, alpha)
        for n in APPLY_SIZES:
            case = _Apply(scheme, side, n)
            cases.append(Case(f"nu{nu}-{side}-n{n}", case.call, case.check))
    return Workload("operator-apply", cases, alphas=alphas)


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

def _scan_call(nu: int, shifts):
    return wsld.spectral.definiteness_scan(nu, shifts=shifts)


def _scan_check(expect_pass: bool, report) -> tuple[bool, None]:
    return report.passed == expect_pass, None


def _probe_call(scheme):
    return wsld.spectral.eigen_probe(wsld.operators.assemble_left(scheme, EIGEN_N))


def _probe_check(scheme, probe) -> tuple[bool, float]:
    # Grenander-Szego: the spectrum of the symmetric part of a finite
    # section lies in [min f, max f] of its generating function f, with
    # max f = 0 at x = 0; the lowest eigenvalue approaches min f as n grows.
    f_min = symbol_min(scheme)
    gap = (probe.lambda_min - f_min) / abs(f_min)
    ok = probe.lambda_max < 0.0 and -SZEGO_SLACK <= gap <= SZEGO_GAP_TOL
    return ok, gap


def _certify(seed: int) -> Workload:
    rng = random.Random(seed)
    cases = []
    for nu in (3, 4):
        cases.append(Case(f"scan-nu{nu}", partial(_scan_call, nu, None),
                          partial(_scan_check, True)))
        # Negative control: the unshifted operator is not negative definite.
        cases.append(Case(f"control-nu{nu}", partial(_scan_call, nu, 0),
                          partial(_scan_check, False)))
    alphas = []
    for nu in (3, 4):
        for alpha in stratified_alphas(rng, EIGEN_ALPHAS):
            scheme = wsld.wsld_scheme(nu, alpha)
            alphas.append(alpha)
            cases.append(Case(f"probe-nu{nu}-alpha{alpha:.4f}",
                              partial(_probe_call, scheme),
                              partial(_probe_check, scheme)))
    return Workload("certify", cases, alphas=alphas)


_FACTORIES = {
    "table2": _table2,
    "large-grid": _large_grid,
    "operator-apply": _operator_apply,
    "certify": _certify,
}

WORKLOADS = tuple(_FACTORIES)


def build(name: str, seed: int) -> Workload:
    """Generate the inputs of workload ``name`` from ``seed``."""
    return _FACTORIES[name](seed)
