"""Public surface: the exported names are pinned and resolve, and the demos run."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wsld

MODULES = ("wsld", "wsld.coefficients", "wsld.operators", "wsld.spectral",
           "wsld.solver", "wsld.benchmarks")
DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("0[1-4]_*.py"))


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ lists undefined names: {missing}"


def test_public_api_is_frozen():
    # growing the public surface is a deliberate edit of these lists
    assert sorted(wsld.__all__) == [
        "ConvergenceReport", "DEFAULT_SHIFTS", "DiffusionProblem", "EigenProbe",
        "Grid1D", "ProbeResult", "ScanReport", "SolveResult", "WsldScheme",
        "__version__", "apply_operator", "assemble_cn_system", "assemble_left",
        "cn_solve", "definiteness_scan", "eigen_probe", "generating_polynomial",
        "lubich_coeffs", "residual_polynomial", "run_consistency", "run_table1",
        "run_table2", "solve_steady", "stability_probe", "symbol_deviation",
        "symbol_order_slope", "table1_exact", "table1_source", "table2_exact",
        "table2_problem", "wsld_scheme",
    ]
    assert sorted(wsld.coefficients.__all__) == [
        "generating_polynomial", "lubich_coeffs", "residual_polynomial",
    ]
    assert sorted(wsld.operators.__all__) == [
        "DEFAULT_SHIFTS", "WsldScheme", "apply_operator", "assemble_left",
        "wsld_scheme",
    ]
    assert sorted(wsld.spectral.__all__) == [
        "EigenProbe", "ScanReport", "definiteness_scan", "eigen_probe",
        "scheme_symmetric_genfn", "symbol_deviation", "symbol_order_slope",
    ]
    assert sorted(wsld.solver.__all__) == [
        "CnSystem", "DiffusionProblem", "EXPRESSION_IDS", "Grid1D",
        "InstabilityError", "ProbeResult", "SolveResult", "assemble_cn_system",
        "cn_solve", "expression", "solve_steady", "stability_probe",
        "table1_exact", "table1_source", "table2_exact", "table2_problem",
    ]
    assert sorted(wsld.benchmarks.__all__) == [
        "ConvergenceReport", "TABLE1_REFERENCE", "TABLE2_REFERENCE",
        "check_reports", "compare_to_reference", "run_consistency", "run_table1",
        "run_table2",
    ]


def _run_python(*args: str) -> subprocess.CompletedProcess:
    # a fresh interpreter that imports this checkout's wsld
    src = str(Path(wsld.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    proc = _run_python(str(demo))
    assert proc.returncode == 0, proc.stderr


def test_import_loads_no_scipy_signal_or_fft():
    # numpy.fft serves the operators; scipy.signal would add about a second
    # and tens of MiB to every start-up
    probe = ("import sys, wsld; print(' '.join(m for m in sys.modules"
             " if m.split('.')[:2] in (['scipy', 'signal'], ['scipy', 'fft'])))")
    proc = _run_python("-c", probe)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


def test_matrix_free_solve_loads_no_scipy_sparse():
    # the band factor and product come from scipy.linalg's LAPACK and BLAS
    probe = ("import sys, wsld, wsld.solver as s\n"
             "s._step_path = lambda size, nt, scheme: 'matrix-free'\n"
             "wsld.cn_solve(wsld.table2_problem(1.5, nx=256, nt=4), wsld.wsld_scheme(4, 1.5))\n"
             "print(' '.join(m for m in sys.modules if m.split('.')[:2] == ['scipy', 'sparse']))")
    proc = _run_python("-c", probe)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


def test_table2_sweep_loads_no_scipy_linalg():
    # every run_table2 solve inverts M- with numpy.linalg; scipy.linalg would
    # add about 26 MiB to the sweep's resident memory
    probe = ("import sys, wsld\n"
             "wsld.run_table2(nus=(4,), alphas=(1.5,), resolutions=(5, 10))\n"
             "print(' '.join(m for m in sys.modules if m.split('.')[:2] == ['scipy', 'linalg']))")
    proc = _run_python("-c", probe)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


STARTUP_PROBE = """
import contextlib, io, sys
import numpy as np
import wsld, wsld.cli

scheme = wsld.wsld_scheme(4, 1.5)
wsld.lubich_coeffs(4, 1.5, 64)
u = np.linspace(0.0, 1.0, 41) ** 2
for side in ("left", "right"):
    wsld.apply_operator(u, scheme, 1.0 / 40, side=side)
wsld.definiteness_scan(4)
wsld.eigen_probe(wsld.assemble_left(scheme, 64))
for argv in (["coeffs", "--nu", "4", "--alpha", "1.5", "--count", "16"],
             ["operator", "--nu", "4", "--alpha", "1.5", "--n", "8"],
             ["symbol", "--nu", "4", "--alpha", "1.5", "--p", "1"],
             ["spectra", "--nu", "4", "--alpha", "1.5"],
             ["spectra", "--nu", "4", "--alpha", "1.5", "--eigen", "--n", "64"]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        assert wsld.cli.main(argv) == 0, argv
assert wsld.solver._step_path(17, 64, scheme) == "gemv"
wsld.cn_solve(wsld.table2_problem(1.5, nx=16, nt=64), scheme)
print(" ".join(m for m in sys.modules if m.split(".")[:2] == ["scipy", "linalg"]))
wsld.solve_steady(wsld.wsld_scheme(4, 1.5, shifts=0), np.ones(33),
                  wsld.Grid1D(0.0, 1.0, 32), bc=(0.0, 0.0))
wsld.cn_solve(wsld.table2_problem(1.5, nx=16, nt=4), scheme)
import scipy.linalg
assert wsld.solver.sla is scipy.linalg
"""


def test_only_a_factorization_loads_scipy_linalg():
    # scipy.linalg costs a fresh process about 0.2 s and 26 MiB; the
    # coefficient, operator and spectral layers, the commands built on them
    # and the inverse step path factor nothing, so they must not pay for it
    proc = _run_python("-c", STARTUP_PROBE)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


def test_frozen_benchmark_still_binds(monkeypatch):
    # perfbench/ wraps library names by attribute (solver.assemble_left,
    # solver.sla, benchmarks.cn_solve, ...); a rename in src/ would break it,
    # and its own tests are too slow for this suite
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracing = importlib.import_module("tracing")
    workloads = importlib.import_module("workloads")
    owners = (wsld.operators, wsld.operators.WsldScheme, wsld.solver,
              wsld.solver.sla, wsld.spectral, wsld.benchmarks)

    def bindings():
        return {(o.__name__, k): v for o in owners for k, v in vars(o).items()}

    for name in workloads.WORKLOADS:
        workload = workloads.build(name, 3)
        before, sources = bindings(), [p.source for p in workload.problems]
        with tracing.Tracer().installed(0, problems=workload.problems):
            patched = {k for k, v in bindings().items() if v is not before[k]}
        assert {"cn_solve", "assemble_left", "lu_factor", "definiteness_scan"} <= {
            k for _, k in patched}
        after = bindings()
        assert after.keys() == before.keys()
        assert all(after[k] is before[k] for k in before), name
        assert all(p.source is s for p, s in zip(workload.problems, sources)), name
