"""Convergence studies: observed orders, machine-readable reports, references.

Reports carry rows of ``(h, max error, rate)`` where the rate between two
resolutions is ``log(e0/e1) / log(h0/h1)`` -- the general two-point formula,
which also handles non-dyadic refinements such as 1/40 -> 1/60.  CSV output
uses a fixed format (scientific, five significant digits) so identical
configurations produce identical bytes.

Two reference tables are frozen here for regression checks:

* ``TABLE1_REFERENCE`` -- interior max truncation errors of the unshifted
  fifth-order operator applied to exact samples of ``x**8`` on (0, 1);
* ``TABLE2_REFERENCE`` -- max errors at ``t = 1`` of the fourth-order
  Crank-Nicolson diffusion runs with ``tau = h**2``.

The alpha = -0.5 column of the first table and its two coarsest rows
reproduce to 0.3% or better.  One checked cell does not: alpha = 0.5,
h = 1/60 gives 1.1368e-06 against 9.3316e-07.  The alpha = 1.8, h = 1/40 cell
is also off (9.7187e-05 against 1.2005e-04), but that column is checked only
by its order.  Precision is ruled out (50-digit mpmath agrees with double
precision in every cell); the cause is unexplained and the tolerance stays at
2%.  The tolerances of every suite live in :data:`TOLERANCES`, checked by
:func:`check_reports`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .operators import DEFAULT_SHIFTS, WsldScheme, apply_operator, wsld_scheme
from .solver import table1_source, table2_exact, table2_problem, cn_solve

__all__ = [
    "ConvergenceReport",
    "run_table1",
    "run_table2",
    "run_consistency",
    "TABLE1_REFERENCE",
    "TABLE2_REFERENCE",
    "compare_to_reference",
    "check_reports",
]

# Reference max errors, indexed by alpha -> one value per resolution in
# TABLE1_RESOLUTIONS.  Frozen regression targets for run_table1.
TABLE1_RESOLUTIONS = (10, 20, 40, 60)
TABLE1_REFERENCE: dict[float, tuple[float, ...]] = {
    -0.5: (8.0041e-04, 4.9935e-05, 2.1214e-06, 3.0790e-07),
    0.5: (4.0005e-03, 2.0652e-04, 7.8935e-06, 9.3316e-07),
    1.8: (6.9882e-02, 2.8034e-03, 1.2005e-04, 1.3775e-05),
}

# Reference max errors at t=1, indexed by (nu, alpha) -> one value per
# resolution in TABLE2_RESOLUTIONS (tau = h^2 throughout).
TABLE2_RESOLUTIONS = (10, 20, 40, 80)
TABLE2_REFERENCE: dict[tuple[int, float], tuple[float, ...]] = {
    (3, 1.1): (1.8349e-02, 1.4015e-03, 8.8517e-05, 5.2342e-06),
    (3, 1.5): (2.1073e-02, 1.8381e-03, 1.2004e-04, 7.5382e-06),
    (3, 1.8): (2.3337e-02, 2.3106e-03, 1.6131e-04, 1.0478e-05),
    (4, 1.1): (1.7241e-02, 7.9269e-04, 3.4558e-05, 1.4824e-06),
    (4, 1.5): (9.6037e-03, 5.2600e-04, 2.4926e-05, 1.1512e-06),
    (4, 1.8): (5.8735e-03, 3.4793e-04, 2.1158e-05, 1.3045e-06),
}


@dataclass
class ConvergenceReport:
    """Errors and observed orders of one sweep, plus identifying metadata."""

    hs: list[float]
    errors: list[float]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len(self.hs) != len(self.errors):
            raise ValueError("hs and errors must align")
        for name, values in (("hs", self.hs), ("errors", self.errors)):
            if not all(0 < v < math.inf for v in values):  # also catches NaN
                raise ValueError(f"{name} must be finite and strictly positive")

    def rates(self) -> list[float]:
        """Observed order ``log(e0/e1) / log(h0/h1)`` between consecutive rows.

        Two consecutive rows with the same step size have no rate: that
        raises ``ValueError`` naming the step size.
        """
        hs, errors = self.hs, self.errors
        for i in range(1, len(hs)):
            if hs[i] == hs[i - 1]:
                raise ValueError(f"rows {i - 1} and {i} repeat the step size "
                                 f"h={hs[i]!r}, which leaves no rate between them")
        return [math.log(errors[i - 1] / errors[i]) / math.log(hs[i - 1] / hs[i])
                for i in range(1, len(hs))]

    def regression_order(self) -> float:
        """Least-squares slope of log(error) against log(h); needs >= 3 rows."""
        hs = np.asarray(self.hs, dtype=float)
        if hs.size < 3:
            raise ValueError("order regression needs at least 3 rows")
        if np.unique(hs).size < 2:
            raise ValueError("order regression needs distinct step sizes")
        errors = np.asarray(self.errors, dtype=float)
        return float(np.polyfit(np.log(hs), np.log(errors), 1)[0])

    def to_csv(self) -> str:
        """Deterministic CSV: metadata comment, ``h,error,rate`` header, rows."""
        meta = " ".join(f"{k}={self.metadata[k]}" for k in sorted(self.metadata))
        lines = [f"# {meta}" if meta else "#", "h,error,rate"]
        rates = [None] + self.rates()
        for h, e, r in zip(self.hs, self.errors, rates):
            rate_txt = "" if r is None else f"{r:.4f}"
            lines.append(f"{h:.4e},{e:.4e},{rate_txt}")
        return "\n".join(lines) + "\n"


def _x8_error(scheme: WsldScheme, nx: int, nodes: slice) -> float:
    # Max error over ``nodes`` of the operator applied to exact samples of
    # x**8 on [0, 1], against the closed-form derivative.
    x = np.linspace(0.0, 1.0, nx + 1)
    approx = apply_operator(x ** 8, scheme, 1.0 / nx)
    return float(np.abs(approx - table1_source(scheme.alpha)(x))[nodes].max())


def run_table1(
    alphas: Sequence[float] = (-0.5, 0.5, 1.8),
    resolutions: Sequence[int] = TABLE1_RESOLUTIONS,
) -> list[ConvergenceReport]:
    """Steady benchmark: truncation orders of the unshifted fifth-order rule.

    One report per alpha; observed orders approach 5.
    """
    reports = []
    for alpha in alphas:
        # boundary nodes hold known data and are excluded
        scheme = wsld_scheme(5, alpha, shifts=0)
        errors = [_x8_error(scheme, nx, slice(1, -1)) for nx in resolutions]
        reports.append(ConvergenceReport(
            hs=[1.0 / nx for nx in resolutions],
            errors=errors,
            metadata={"suite": "table1", "nu": 5, "p": 0, "alpha": alpha},
        ))
    return reports


def run_table2(
    nus: Sequence[int] = (3, 4),
    alphas: Sequence[float] = (1.1, 1.5, 1.8),
    resolutions: Sequence[int] = TABLE2_RESOLUTIONS,
) -> list[ConvergenceReport]:
    """Diffusion benchmark: fourth-order spatial convergence at ``tau = h**2``.

    ``resolutions`` counts nodes per unit length (the domain has length 2, so
    ``nx = 2 * resolution``); one report per (nu, alpha).
    """
    shifts_txt = ",".join(str(v) for v in DEFAULT_SHIFTS)
    reports = []
    for nu in nus:
        for alpha in alphas:
            errors = []
            for res in resolutions:
                problem = table2_problem(alpha, nx=2 * res)
                scheme = wsld_scheme(nu, alpha)
                u = cn_solve(problem, scheme).u
                exact = table2_exact(problem.grid.nodes(), problem.horizon)
                errors.append(float(np.abs(u - exact).max()))
            reports.append(ConvergenceReport(
                hs=[1.0 / res for res in resolutions],
                errors=errors,
                metadata={"suite": "table2", "nu": nu, "alpha": alpha,
                          "tau": "h^2", "shifts": shifts_txt},
            ))
    return reports


_LEVEL_SHIFTS = {1: (1,), 2: (1, -1), 3: (1, -1, 1, 2), 4: DEFAULT_SHIFTS}


def run_consistency(
    nus: Sequence[int] = (3, 4),
    alpha: float = 1.5,
    levels: Sequence[int] = (1, 2, 3, 4),
    resolutions: Sequence[int] = (64, 128, 256, 512),
) -> list[ConvergenceReport]:
    """Operator-order benchmark: levels 1..4 hit their nominal orders.

    Applies each weighting level to samples of ``x**8`` on (0, 1) and
    measures against the closed-form derivative.
    """
    reports = []
    for nu in nus:
        for level in levels:
            # the trailing m nodes read past the right edge, where the zero
            # extension no longer matches the smooth test function
            scheme = wsld_scheme(nu, alpha, shifts=_LEVEL_SHIFTS[level])
            errors = [_x8_error(scheme, nx, slice(nx - scheme.m + 1))
                      for nx in resolutions]
            reports.append(ConvergenceReport(
                hs=[1.0 / nx for nx in resolutions],
                errors=errors,
                metadata={"suite": "consistency", "nu": nu, "alpha": alpha,
                          "level": level},
            ))
    return reports


def compare_to_reference(
    report: ConvergenceReport,
    reference: Sequence[float],
    rtol: float,
    rate_tol: float | None = None,
) -> list[str]:
    """Relative-error comparison against frozen reference values.

    Returns human-readable failure strings (empty means everything matched).
    When ``rate_tol`` is given the observed rates are compared against the
    rates recomputed from the reference errors.  A reference with a different
    number of entries than the report has rows raises ``ValueError``.
    """
    if len(reference) != len(report.errors):
        raise ValueError(f"reference has {len(reference)} entries for a report "
                         f"of {len(report.errors)} rows")
    failures = []
    for h, got, want in zip(report.hs, report.errors, reference):
        rel = abs(got - want) / abs(want) if want else math.inf
        if not rel <= rtol:  # a NaN or zero reference fails too
            failures.append(
                f"h={h:.4e}: error {got:.4e} vs reference {want:.4e} "
                f"(rel {rel:.2%} > {rtol:.0%})"
            )
    if rate_tol is not None:
        want_rates = ConvergenceReport(report.hs, list(reference)).rates()
        for h, got, want in zip(report.hs[1:], report.rates(), want_rates):
            if not abs(got - want) <= rate_tol:
                failures.append(
                    f"h={h:.4e}: rate {got:.4f} vs reference {want:.4f} "
                    f"(dev {abs(got - want):.3f} > {rate_tol})"
                )
    return failures


#: Acceptance tolerances of each suite, shared by ``wsld convergence`` and the
#: acceptance tests.  table1: the alpha = -0.5 and 0.5 columns are compared
#: with TABLE1_REFERENCE (``rtol``, ``rate_tol``); alpha = 1.8 is checked by
#: its regression order only (``min_order``).  consistency: the finest
#: observed rate of each level lies within ``level_tol`` of the level.
TOLERANCES: dict[str, dict[str, float]] = {
    "table1": {"rtol": 0.02, "rate_tol": 0.15, "min_order": 4.0},
    "table2": {"rtol": 0.05, "rate_tol": 0.2},
    "consistency": {"level_tol": 0.3},
}


def check_reports(suite: str, reports: Sequence[ConvergenceReport]) -> list[str]:
    """Check a suite's reports against :data:`TOLERANCES`; return failure strings.

    Reports without a frozen reference of matching length are skipped.
    """
    tol = TOLERANCES[suite]
    failures = []
    for report in reports:
        meta = report.metadata
        if suite == "consistency":
            level, rates = meta["level"], report.rates()
            if not rates:
                failures.append(f"nu={meta['nu']} level={level}: no observed order "
                                f"to check in {len(report.errors)} row(s); a rate "
                                "needs two")
                continue
            rate = rates[-1]
            if abs(rate - level) > tol["level_tol"]:
                failures.append(
                    f"nu={meta['nu']} level={level}: finest observed order "
                    f"{rate:.3f} outside {level}±{tol['level_tol']}"
                )
            continue
        if suite == "table1":
            label = f"alpha={meta['alpha']}"
            reference = TABLE1_REFERENCE.get(meta["alpha"])
        else:
            label = f"nu={meta['nu']} alpha={meta['alpha']}"
            reference = TABLE2_REFERENCE.get((meta["nu"], meta["alpha"]))
        if reference is None or len(reference) != len(report.errors):
            continue
        if suite == "table1" and meta["alpha"] not in (-0.5, 0.5):
            order = report.regression_order()
            if order < tol["min_order"]:
                failures.append(
                    f"{label}: observed order {order:.3f} < {tol['min_order']}")
            continue
        failures += [f"{label}: {msg}" for msg in compare_to_reference(
            report, reference, rtol=tol["rtol"], rate_tol=tol["rate_tol"])]
    return failures
