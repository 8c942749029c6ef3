"""Weighted and shifted Lubich difference (WSLD) operators.

High-order (up to fourth) finite-difference approximations of left and right
Riemann-Liouville fractional derivatives, built by weighting shifted Lubich
convolution operators so the low-order error terms cancel, together with

* spectral diagnostics (symbol order checks, Toeplitz generating functions,
  negative-definiteness certificates),
* a Crank-Nicolson solver for 1-D variable-coefficient space-fractional
  diffusion,
* a convergence benchmark harness with frozen reference tables.

See ``demos/`` for narrative walkthroughs and ``wsld --help`` for the CLI.
"""

from .coefficients import (
    generating_polynomial,
    lubich_coeffs,
    residual_polynomial,
)
from .operators import (
    DEFAULT_SHIFTS,
    WsldScheme,
    apply_operator,
    assemble_left,
    wsld_scheme,
)
from .spectral import (
    EigenProbe,
    ScanReport,
    definiteness_scan,
    eigen_probe,
    symbol_deviation,
    symbol_order_slope,
)
from .solver import (
    DiffusionProblem,
    Grid1D,
    ProbeResult,
    SolveResult,
    assemble_cn_system,
    cn_solve,
    solve_steady,
    stability_probe,
    table1_exact,
    table1_source,
    table2_exact,
    table2_problem,
)
from .benchmarks import (
    ConvergenceReport,
    run_consistency,
    run_table1,
    run_table2,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # coefficients
    "generating_polynomial",
    "residual_polynomial",
    "lubich_coeffs",
    # operators
    "DEFAULT_SHIFTS",
    "WsldScheme",
    "wsld_scheme",
    "assemble_left",
    "apply_operator",
    # spectral
    "symbol_deviation",
    "symbol_order_slope",
    "ScanReport",
    "definiteness_scan",
    "EigenProbe",
    "eigen_probe",
    # solver
    "Grid1D",
    "DiffusionProblem",
    "solve_steady",
    "assemble_cn_system",
    "cn_solve",
    "SolveResult",
    "ProbeResult",
    "stability_probe",
    "table1_source",
    "table1_exact",
    "table2_problem",
    "table2_exact",
    # benchmarks
    "ConvergenceReport",
    "run_table1",
    "run_table2",
    "run_consistency",
]
