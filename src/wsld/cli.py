"""Command-line interface: a formatting shell over one library call per result.

* ``coeffs``      -- emit a coefficient series as ``k,l_k`` CSV
* ``operator``    -- emit an operator matrix (or its phi series) as CSV
* ``symbol``      -- sample the shifted-operator symbol along ``z = -it``
* ``spectra``     -- the ``definiteness_scan`` rows and verdict, or an eigenvalue probe
* ``solve``       -- run a JSON-configured problem (``table1``: always unshifted nu = 5)
* ``convergence`` -- run a benchmark suite and check it against references

Exit codes: 0 all checks pass, 1 numeric check failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

import numpy as np

from . import benchmarks, solver, spectral
from .coefficients import lubich_coeffs
from .operators import assemble_left, wsld_scheme

CONFIG_ERROR = 2
NUMERIC_FAILURE = 1


def _parse_shifts(text: str) -> tuple[int, ...]:
    parts = tuple(int(v) for v in text.replace(" ", "").split(","))
    if len(parts) not in (1, 2, 4, 8):
        raise argparse.ArgumentTypeError("shifts must contain 1, 2, 4 or 8 integers")
    return parts


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _write_lines(lines: list[str], out: str | None) -> None:
    _write("\n".join(lines) + "\n", out)


def _solution_csv(out: str | None, x, u, exact) -> None:
    """``x,u,exact,error`` rows, or ``x,u`` rows when ``exact`` is None."""
    if exact is None:
        lines = ["x,u"] + [f"{xi:.9e},{ui:.16e}" for xi, ui in zip(x, u)]
    else:
        lines = ["x,u,exact,error"] + [
            f"{xi:.9e},{ui:.16e},{ei:.16e},{abs(ui - ei):.9e}"
            for xi, ui, ei in zip(x, u, exact)
        ]
    _write_lines(lines, out)


def _cmd_coeffs(args: argparse.Namespace) -> int:
    values = lubich_coeffs(args.nu, args.alpha, args.count)
    _write_lines(["k,l_k"] + [f"{k},{v:.16e}" for k, v in enumerate(values)],
                 args.out)
    return 0


def _cmd_operator(args: argparse.Namespace) -> int:
    scheme = wsld_scheme(args.nu, args.alpha, shifts=args.shifts)
    if args.phi:
        phi = scheme.phi(args.n + scheme.m)
        lines = ["k,phi_k"] + [f"{k},{v:.16e}" for k, v in enumerate(phi)]
    else:
        matrix = assemble_left(scheme, args.n)
        if args.side == "right":
            matrix = matrix.T
        lines = [",".join(f"{v:.16e}" for v in row) for row in matrix]
    _write_lines(lines, args.out)
    return 0


def _cmd_symbol(args: argparse.Namespace) -> int:
    try:
        t_min, t_max, count = args.z_range.split(",")
        t = np.geomspace(float(t_min), float(t_max), int(count))
    except ValueError:
        print("--z-range expects 'tmin,tmax,count'", file=sys.stderr)
        return CONFIG_ERROR
    dev = spectral.symbol_deviation(args.nu, args.alpha, args.p, -1j * t)
    lines = ["t,w_re,w_im,deviation"]
    lines += [
        f"{ti:.9e},{wi.real:.16e},{wi.imag:.16e},{di:.16e}"
        for ti, wi, di in zip(t, 1.0 + dev, np.abs(dev))
    ]
    _write_lines(lines, args.out)
    return 0


def _cmd_spectra(args: argparse.Namespace) -> int:
    if args.eigen:
        if args.alpha is None:
            print("--eigen needs --alpha", file=sys.stderr)
            return CONFIG_ERROR
        scheme = wsld_scheme(args.nu, args.alpha, shifts=args.shifts)
        probe = spectral.eigen_probe(assemble_left(scheme, args.n))
        _write_lines(["lambda_min,lambda_max",
                      f"{probe.lambda_min:.16e},{probe.lambda_max:.16e}"], args.out)
        return 0 if probe.lambda_max < 0 else NUMERIC_FAILURE
    # scan mode: definiteness_scan's walk, kept for the (alpha, x, f) triples
    alphas = spectral.default_alpha_grid() if args.alpha is None else [args.alpha]
    x = spectral.default_x_grid()
    scheme = wsld_scheme(args.nu, alphas[0], shifts=args.shifts)
    rows = list(spectral._genfn_rows(scheme, alphas, x))
    lines = ["alpha,x,f"]
    for a, values in rows:
        lines += [f"{a:.4f},{xi:.9e},{vi:.9e}" for xi, vi in zip(x, values)]
    _write_lines(lines, args.out)
    report = spectral._sup(rows, x)
    print(
        f"max f = {report.max_value:.3e} at alpha={report.argmax_alpha:.4f}, "
        f"x={report.argmax_x:.6f}: {'PASS' if report.passed else 'FAIL'}",
        file=sys.stderr,
    )
    return 0 if report.passed else NUMERIC_FAILURE


def _cmd_solve(args: argparse.Namespace) -> int:
    try:
        with open(args.config, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return CONFIG_ERROR
    try:
        if not isinstance(cfg, dict):
            raise TypeError(f"expected a JSON object, got {type(cfg).__name__}")
        kind = cfg.get("problem", "custom")
        alpha = cfg["alpha"]  # the library checks it, and rejects a bool
        if kind == "table1":
            grid = solver.Grid1D(0.0, 1.0, cfg.get("Nx", 10))
            bc = (0.0, 1.0) if 1.0 < alpha < 2.0 else None
            u = solver.solve_steady(wsld_scheme(5, alpha, shifts=0),
                                    solver.table1_source(alpha), grid, bc=bc)
            x = grid.nodes()
            _solution_csv(args.csv, x, u, solver.table1_exact(x))
            return 0
        if kind == "table2":
            problem = solver.table2_problem(alpha, nx=cfg.get("Nx", 20),
                                            nt=cfg.get("Nt"))
            exact = solver.table2_exact
        elif kind == "custom":
            grid = solver.Grid1D(cfg["xL"], cfg["xR"], cfg["Nx"])
            d_plus = solver.expression(cfg["d_plus"], alpha)
            d_minus_cfg = cfg["d_minus"]
            kappa = None
            # a JSON bool is an int to Python, not a ratio
            if (isinstance(d_minus_cfg, (int, float))
                    and not isinstance(d_minus_cfg, bool)):
                kappa = float(d_minus_cfg)
                d_minus = (lambda dp, k: (lambda x: k * dp(x)))(d_plus, kappa)
            else:
                d_minus = solver.expression(d_minus_cfg, alpha)
            problem = solver.DiffusionProblem(
                alpha=alpha,
                grid=grid,
                d_plus=d_plus,
                d_minus=d_minus,
                source=solver.expression(cfg.get("source", "zero_source"), alpha),
                initial=solver.expression(cfg.get("initial", "zero"), alpha),
                horizon=cfg.get("T", 1.0),
                nt=cfg["Nt"],
                kappa=kappa,
            )
            exact = None
        else:
            print(f"unknown problem kind {kind!r}", file=sys.stderr)
            return CONFIG_ERROR
    except (KeyError, TypeError, ValueError) as exc:
        print(f"bad config: {exc}", file=sys.stderr)
        return CONFIG_ERROR
    scheme = wsld_scheme(args.nu, alpha, shifts=args.shifts)
    try:
        u = solver.cn_solve(problem, scheme).u
    except RuntimeError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return NUMERIC_FAILURE
    x = problem.grid.nodes()
    want = None if exact is None else exact(x, problem.horizon)
    _solution_csv(args.csv, x, u, want)
    if want is not None:
        print(f"max error at t={problem.horizon}: {np.abs(u - want).max():.4e}",
              file=sys.stderr)
    return 0


def _cmd_convergence(args: argparse.Namespace) -> int:
    run = {"table1": benchmarks.run_table1, "table2": benchmarks.run_table2,
           "consistency": benchmarks.run_consistency}[args.suite]
    reports = run()
    failures = benchmarks.check_reports(args.suite, reports)
    if args.json:
        payload = {
            "suite": args.suite,
            "reports": [
                {
                    "metadata": r.metadata,
                    "rows": [
                        {"h": h, "error": e, "rate": rate}
                        for h, e, rate in zip(r.hs, r.errors, [None] + r.rates())
                    ],
                }
                for r in reports
            ],
            "passed": not failures,
            "failures": failures,
        }
        _write(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    else:
        _write("".join(r.to_csv() for r in reports), args.out)
    for message in failures:
        print(f"FAIL {message}", file=sys.stderr)
    print(f"{args.suite}: {'PASS' if not failures else 'FAIL'}", file=sys.stderr)
    return 0 if not failures else NUMERIC_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wsld",
        description="WSLD operators for Riemann-Liouville fractional derivatives",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", help="emit a coefficient series as CSV")
    p.add_argument("--nu", type=int, required=True, choices=(1, 2, 3, 4, 5))
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--count", type=int, required=True, metavar="K",
                   help="highest index; emits k = 0..K")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_coeffs)

    p = sub.add_parser("operator", help="emit an operator matrix or phi series")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--nu", type=int, required=True)
    p.add_argument("--shifts", type=_parse_shifts, default=None,
                   help="1, 2, 4 or 8 comma-separated shifts (default: stable tuple)")
    p.add_argument("--n", type=int, required=True, help="grid intervals N_x")
    p.add_argument("--side", choices=("left", "right"), default="left")
    p.add_argument("--phi", action="store_true", help="emit phi series instead")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_operator)

    p = sub.add_parser("symbol", help="sample the shifted symbol along z = -it")
    p.add_argument("--nu", type=int, required=True, choices=(1, 2, 3, 4, 5))
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--p", type=int, required=True, help="shift")
    p.add_argument("--z-range", default="1e-3,1e-1,20",
                   help="tmin,tmax,count (log-spaced)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_symbol)

    p = sub.add_parser("spectra", help="definiteness scan or eigenvalue probe")
    p.add_argument("--nu", type=int, required=True, choices=(3, 4))
    p.add_argument("--shifts", type=_parse_shifts, default=None)
    p.add_argument("--eigen", action="store_true",
                   help="dense eigenvalue probe instead of the scan")
    p.add_argument("--n", type=int, default=128, help="matrix size for --eigen")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_spectra)

    p = sub.add_parser("solve", help="run a problem described by a JSON config; "
                       "table1 always runs unshifted nu = 5, ignoring --nu/--shifts")
    p.add_argument("--config", required=True)
    p.add_argument("--nu", type=int, default=4, choices=(3, 4))
    p.add_argument("--shifts", type=_parse_shifts, default=None)
    p.add_argument("--csv", default=None, help="output path (default stdout)")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("convergence", help="run a benchmark suite")
    p.add_argument("--suite", required=True,
                   choices=("table1", "table2", "consistency"))
    p.add_argument("--out", default=None)
    p.add_argument("--json", action="store_true", help="structured report")
    p.set_defaults(func=_cmd_convergence)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
