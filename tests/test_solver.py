"""Steady solves, Crank-Nicolson stepping, and the stability probe."""

import logging
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla

from wsld import solver
from wsld.operators import assemble_left, wsld_scheme
from wsld.solver import (
    BLOWUP_THRESHOLD,
    DiffusionProblem,
    Grid1D,
    InstabilityError,
    assemble_cn_system,
    cn_solve,
    expression,
    solve_steady,
    stability_probe,
    table1_exact,
    table1_source,
    table2_exact,
    table2_problem,
)


class TestGrid:
    def test_spacing_and_nodes(self):
        grid = Grid1D(0.0, 2.0, 8)
        assert grid.h == 0.25
        nodes = grid.nodes()
        assert nodes[0] == 0.0 and nodes[-1] == 2.0 and nodes.size == 9

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid1D(1.0, 0.0, 4)
        with pytest.raises(ValueError):
            Grid1D(0.0, 1.0, 1)
        with pytest.raises(ValueError, match="integer"):
            Grid1D(0.0, 1.0, 16.7)
        assert Grid1D(0.0, 1.0, np.int64(16)).nodes().size == 17
        # 1e400 reads as inf; an infinite or NaN endpoint, or a length that
        # overflows, would give non-finite nodes
        for x_left, x_right in ((0.0, 1e400), (-np.inf, 0.0), (np.nan, 1.0),
                                (0.0, np.nan), (-1e308, 1e308)):
            with pytest.raises(ValueError, match="finite"):
                Grid1D(x_left, x_right, 4)

    @pytest.mark.parametrize("x_left,x_right", [
        (False, 2.0), (0.0, True), (np.False_, 2.0), (0.0, np.True_)])
    def test_bool_ends_rejected(self, x_left, x_right):
        # False read as 0.0 and True as 1.0
        with pytest.raises(ValueError, match="finite x_left < x_right"):
            Grid1D(x_left, x_right, 10)


def unshifted(alpha):
    """The unshifted fifth-order rule the steady benchmark solves with."""
    return wsld_scheme(5, alpha, shifts=0)


def d15_x_exp_x(x):
    """``D^1.5 (x e^x) = sum_n (n+1) x^(n-1/2) / Gamma(n+1/2)``, 40 terms."""
    x = np.asarray(x, dtype=float)
    return sum((n + 1) / math.gamma(n + 0.5) * x ** (n - 0.5) for n in range(40))


class TestSteadySolve:
    def test_zero_source_zero_solution(self):
        grid = Grid1D(0.0, 1.0, 16)
        u = solve_steady(unshifted(-0.5), np.zeros(17), grid)
        assert np.abs(u).max() == 0.0

    @pytest.mark.parametrize("alpha", [-0.5, 0.5])
    def test_residual_near_roundoff(self, alpha):
        for nx in (10, 20, 40, 60):
            grid = Grid1D(0.0, 1.0, nx)
            u = solve_steady(unshifted(alpha), table1_source(alpha), grid)
            a = assemble_left(unshifted(alpha), nx)
            residual = grid.h ** (-alpha) * (a @ u) - table1_source(alpha)(grid.nodes())
            assert np.abs(residual).max() <= 1e-12

    def test_residual_with_boundary_constraint(self):
        # alpha in (1, 2): all equations except the replaced last one
        alpha, nx = 1.8, 10
        grid = Grid1D(0.0, 1.0, nx)
        u = solve_steady(unshifted(alpha), table1_source(alpha), grid, bc=(0.0, 1.0))
        assert u[-1] == 1.0
        a = assemble_left(unshifted(alpha), nx)
        residual = grid.h ** (-alpha) * (a @ u) - table1_source(alpha)(grid.nodes())
        assert np.abs(residual[:-1]).max() <= 1e-12

    def test_requires_boundary_values_for_derivative_orders(self):
        grid = Grid1D(0.0, 1.0, 10)
        with pytest.raises(ValueError, match="boundary"):
            solve_steady(unshifted(1.5), table1_source(1.5), grid)

    @pytest.mark.parametrize("alpha,bc", [(1.5, (0.5, 1.0)), (-0.5, (0.0, 1.0)),
                                          (0.5, (0.0, 0.0))])
    def test_rejects_boundary_values_it_cannot_impose(self, alpha, bc):
        # the zero extension fixes u(x_left) = 0, and alpha outside (1, 2)
        # has no boundary equation to replace
        with pytest.raises(ValueError, match="bc"):
            solve_steady(unshifted(alpha), table1_source(alpha), Grid1D(0.0, 1.0, 10),
                         bc=bc)

    @pytest.mark.parametrize("alpha", [1.5, -0.5])
    @pytest.mark.parametrize("bc", [(0.0,), (0.0, 1.0, 2.0), 0.0, ((0.0, 1.0),)],
                             ids=["one", "three", "scalar", "nested"])
    def test_boundary_values_must_be_a_pair(self, alpha, bc):
        # (0.0,) used to raise IndexError and a third value was dropped
        with pytest.raises(ValueError, match="bc must be two boundary values"):
            solve_steady(unshifted(alpha), table1_source(alpha), Grid1D(0.0, 1.0, 10),
                         bc=bc)

    @pytest.mark.parametrize("bc", [(False, True), (0.0, np.True_), (0.0, math.inf),
                                    (0.0, math.nan), (-math.inf, 0.0), (0.0, 1j),
                                    (0.0, "1")],
                             ids=["bools", "numpy-bool", "inf", "nan", "minus-inf",
                                  "complex", "string"])
    def test_boundary_values_must_be_finite_real_numbers(self, bc):
        # (False, True) used to solve with u(x_right) = 1, and inf or nan
        # surfaced as scipy's complaint about the matrix
        with pytest.raises(ValueError, match="bc must be finite real numbers"):
            solve_steady(unshifted(1.5), table1_source(1.5), Grid1D(0.0, 1.0, 10),
                         bc=bc)

    def test_numpy_boundary_values_are_taken(self):
        grid = Grid1D(0.0, 1.0, 10)
        want = solve_steady(unshifted(1.5), table1_source(1.5), grid, bc=(0.0, 1.0))
        got = solve_steady(unshifted(1.5), table1_source(1.5), grid,
                           bc=np.array([0.0, 1.0]))
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("alpha", [-0.5, 0.5, 1.8])
    def test_solution_converges_at_high_order(self, alpha):
        errors = []
        for nx in (10, 20, 40):
            grid = Grid1D(0.0, 1.0, nx)
            bc = (0.0, 1.0) if 1 < alpha < 2 else None
            u = solve_steady(unshifted(alpha), table1_source(alpha), grid, bc=bc)
            errors.append(np.abs(u - table1_exact(grid.nodes())).max())
        rate = np.log2(errors[0] / errors[1])
        assert rate > 4.0
        assert errors[2] < errors[1] < errors[0]

    def test_nonzero_shift_dense_path(self):
        # a shifted scheme reads past x_right, and alpha outside (1, 2) has no
        # right boundary value to make the zero extension hold there: with
        # the default nu=4 tuple at alpha = 0.5 and u = x e^x the error grew
        # 27.3 -> 75.7 over nx = 40..320; the dense non-triangular path is
        # covered by test_shifted_scheme_converges_with_zero_right_value
        alpha, nx = 0.5, 20
        grid = Grid1D(0.0, 1.0, nx)
        scheme = wsld_scheme(3, alpha, shifts=1)
        with pytest.raises(ValueError, match=r"shifted scheme \(m = 1\).*unshifted"):
            solve_steady(scheme, table1_source(alpha), grid)

    @pytest.mark.parametrize("alpha", [-0.5, 0.5])
    def test_default_tuple_rejected_outside_derivative_band(self, alpha):
        with pytest.raises(ValueError, match=r"shifted scheme \(m = 3\)"):
            solve_steady(wsld_scheme(4, alpha), table1_source(alpha),
                         Grid1D(0.0, 1.0, 20))

    def test_sample_length_mismatch(self):
        with pytest.raises(ValueError):
            solve_steady(unshifted(-0.5), np.zeros(5), Grid1D(0.0, 1.0, 10))

    def test_nan_source_rejected(self):
        f = table1_source(-0.5)(Grid1D(0.0, 1.0, 10).nodes())
        f[4] = np.nan
        with pytest.raises(ValueError, match="f must be finite at every grid node"):
            solve_steady(unshifted(-0.5), f, Grid1D(0.0, 1.0, 10))

    def test_infinite_source_rejected(self):
        # the series of D^1.5(x e^x) has an x^-0.5 term: +inf at x = 0
        grid = Grid1D(0.0, 1.0, 10)
        with np.errstate(divide="ignore"):
            assert d15_x_exp_x(grid.nodes())[0] == np.inf
            with pytest.raises(ValueError, match="f must be finite at every grid node"):
                solve_steady(unshifted(1.5), d15_x_exp_x, grid, bc=(0.0, math.e))
        f = np.zeros(11)
        f[-1] = -np.inf
        with pytest.raises(ValueError, match="f must be finite at every grid node"):
            solve_steady(unshifted(-0.5), f, grid)

    def test_shifted_scheme_rejects_nonzero_right_value(self):
        # the default nu=4 tuple reads m = 3 nodes past x_right, where the zero
        # extension puts 0; with u = x e^x the error stayed at 2.71 for every nx
        grid = Grid1D(0.0, 1.0, 40)
        f = d15_x_exp_x(grid.nodes()[1:])
        f = np.concatenate(([0.0], f))
        with pytest.raises(ValueError, match=r"shifted scheme \(m = 3\).*bc=\(0, 0\)"):
            solve_steady(wsld_scheme(4, 1.5), f, grid, bc=(0.0, math.e))

    def test_shifted_scheme_converges_with_zero_right_value(self):
        # u = x^4 (1-x)^4 vanishes smoothly at x_right, so the zero extension
        # is consistent and the default tuple keeps its fourth order
        alpha = 1.5
        g = math.gamma

        def f(x):
            return sum(math.comb(4, j) * (-1) ** j * g(5 + j) / g(5 + j - alpha)
                       * x ** (4 + j - alpha) for j in range(5))

        errors = []
        for nx in (40, 80, 160, 320):
            grid = Grid1D(0.0, 1.0, nx)
            x = grid.nodes()
            u = solve_steady(wsld_scheme(4, alpha), f, grid, bc=(0.0, 0.0))
            errors.append(np.abs(u - x ** 4 * (1 - x) ** 4).max())
        rates = np.log2(np.array(errors[:-1]) / errors[1:])
        assert np.all(rates >= 3.8), rates

    @pytest.mark.parametrize("alpha", [-0.5, 0.5, 1.8])
    def test_unshifted_matches_forward_substitution(self, alpha):
        # the unshifted matrix is lower triangular, also with the constraint
        # row; the LU solve agrees with a refined forward substitution
        for nx in (10, 20, 40, 60):
            grid = Grid1D(0.0, 1.0, nx)
            bc = (0.0, 1.0) if 1 < alpha < 2 else None
            u = solve_steady(unshifted(alpha), table1_source(alpha), grid, bc=bc)
            a = assemble_left(unshifted(alpha), nx)
            g = grid.h ** alpha * table1_source(alpha)(grid.nodes())
            if bc is not None:
                a[-1, :] = 0.0
                a[-1, -1], g[-1] = 1.0, bc[1]
            ref = sla.solve_triangular(a, g, lower=True)
            ref += sla.solve_triangular(a, g - a @ ref, lower=True)
            assert np.abs(u - ref).max() <= 1e-12 * np.abs(ref).max()


class TestProblemValidation:
    def test_negative_coefficient_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            DiffusionProblem(
                alpha=1.5, grid=Grid1D(0.0, 1.0, 8),
                d_plus=lambda x: -np.ones_like(x),
                d_minus=lambda x: np.ones_like(x),
                source=lambda x, t: np.zeros_like(x),
                initial=np.zeros_like, horizon=1.0, nt=4)

    def test_kappa_consistency_enforced(self):
        with pytest.raises(ValueError, match="kappa"):
            DiffusionProblem(
                alpha=1.5, grid=Grid1D(0.0, 1.0, 8),
                d_plus=lambda x: np.ones_like(x),
                d_minus=lambda x: np.ones_like(x),
                source=lambda x, t: np.zeros_like(x),
                initial=np.zeros_like, horizon=1.0, nt=4, kappa=2.0)

    @pytest.mark.parametrize("kappa", [
        -1.0, True, "2", np.nan, np.inf, 2j, np.bool_(True)],
        ids=["negative", "bool", "string", "nan", "inf", "complex", "numpy-bool"])
    def test_kappa_must_be_a_finite_nonnegative_real(self, kappa):
        # the zero coefficients satisfy d_minus == kappa * d_plus for -1 and
        # True, and "2" made numpy raise UFuncTypeError
        with pytest.raises(ValueError, match="kappa must be a finite real number >= 0"):
            DiffusionProblem(
                alpha=1.5, grid=Grid1D(0.0, 1.0, 8),
                d_plus=np.zeros_like, d_minus=np.zeros_like,
                source=lambda x, t: np.zeros_like(x),
                initial=np.zeros_like, horizon=1.0, nt=4, kappa=kappa)

    @pytest.mark.parametrize("kappa", [0, 0.0, np.float32(2.0), np.int64(3)])
    def test_real_kappa_accepted(self, kappa):
        problem = DiffusionProblem(
            alpha=1.5, grid=Grid1D(0.0, 1.0, 8),
            d_plus=np.ones_like, d_minus=lambda x: kappa * np.ones_like(x),
            source=lambda x, t: np.zeros_like(x),
            initial=np.zeros_like, horizon=1.0, nt=4, kappa=kappa)
        assert problem.kappa == kappa

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_nonfinite_coefficient_rejected(self, value):
        with pytest.raises(ValueError, match="finite"):
            DiffusionProblem(
                alpha=1.5, grid=Grid1D(0.0, 1.0, 8),
                d_plus=lambda x: np.full_like(x, value),
                d_minus=lambda x: 2.0 * np.full_like(x, value),
                source=lambda x, t: np.zeros_like(x),
                initial=np.zeros_like, horizon=1.0, nt=4, kappa=2.0)

    @pytest.mark.parametrize("field,bad,match", [
        ("initial", lambda x: np.full_like(x, np.nan), "initial data must be finite"),
        ("source", lambda x, t: np.full_like(x, np.inf), "source .* must be finite"),
        ("initial", lambda x: np.zeros(3), "one value per grid node"),
        ("source", lambda x, t: np.zeros(x.size + 1), "one value per grid node"),
    ])
    def test_initial_and_source_samples_checked(self, field, bad, match):
        data = dict(alpha=1.5, grid=Grid1D(0.0, 1.0, 8),
                    d_plus=np.ones_like, d_minus=np.ones_like,
                    source=lambda x, t: np.zeros_like(x),
                    initial=np.zeros_like, horizon=1.0, nt=4)
        data[field] = bad
        with pytest.raises(ValueError, match=match):
            DiffusionProblem(**data)

    @pytest.mark.parametrize("horizon", [np.nan, np.inf, 0.0, -1.0, True, np.True_])
    def test_horizon_must_be_finite_and_positive(self, horizon):
        with pytest.raises(ValueError, match="finite horizon"):
            DiffusionProblem(
                alpha=1.5, grid=Grid1D(0.0, 1.0, 8),
                d_plus=np.ones_like, d_minus=np.ones_like,
                source=lambda x, t: np.zeros_like(x),
                initial=np.zeros_like, horizon=horizon, nt=4)

    def test_alpha_range(self):
        with pytest.raises(ValueError):
            DiffusionProblem(
                alpha=0.5, grid=Grid1D(0.0, 1.0, 8),
                d_plus=np.zeros_like, d_minus=np.zeros_like,
                source=lambda x, t: np.zeros_like(x),
                initial=np.zeros_like, horizon=1.0, nt=4)

    @pytest.mark.parametrize("nt", [2.5, 4.0, "4"])
    def test_non_integer_step_count_rejected(self, nt):
        with pytest.raises(ValueError, match="nt must be an integer"):
            table2_problem(1.5, nx=8, nt=nt)

    def test_numpy_integer_step_count_accepted(self):
        problem = table2_problem(1.5, nx=8, nt=np.int64(4))
        assert cn_solve(problem, wsld_scheme(4, 1.5)).steps == 4

    def test_table2_problem_has_exact_kappa(self):
        problem = table2_problem(1.5, nx=20)
        x = problem.grid.nodes()
        np.testing.assert_array_equal(problem.d_minus(x), 2.0 * problem.d_plus(x))
        assert problem.kappa == 2.0
        assert problem.tau == pytest.approx(problem.grid.h ** 2)


class TestCrankNicolson:
    def test_zero_coefficients_give_identity_matrices(self):
        problem = DiffusionProblem(
            alpha=1.5, grid=Grid1D(0.0, 1.0, 8),
            d_plus=np.zeros_like, d_minus=np.zeros_like,
            source=lambda x, t: np.zeros_like(x),
            initial=np.zeros_like, horizon=1.0, nt=4)
        system = assemble_cn_system(problem, wsld_scheme(4, 1.5))
        np.testing.assert_array_equal(system.m_lhs, np.eye(9))
        np.testing.assert_array_equal(system.m_rhs, np.eye(9))

    @pytest.mark.parametrize("make_problem", [
        lambda: table2_problem(1.5, nx=40),
        lambda: DiffusionProblem(
            alpha=1.3, grid=Grid1D(0.0, 2.0, 40),
            d_plus=lambda x: x ** 1.3, d_minus=lambda x: 1.5 + np.cos(3 * x),
            source=lambda x, t: np.zeros_like(x),
            initial=lambda x: x * (2.0 - x), horizon=0.5, nt=20),
        # 201 columns: several fill blocks and a ragged last one
        lambda: table2_problem(1.8, nx=200, nt=10),
    ], ids=["table2", "unrelated-d-minus", "ragged-blocks"])
    def test_matrices_match_the_unfactored_formula(self, make_problem):
        problem = make_problem()
        scheme = wsld_scheme(4, problem.alpha)
        system = assemble_cn_system(problem, scheme)
        m_minus, m_plus = _cn_matrices_unfactored(problem, scheme)
        np.testing.assert_array_equal(system.m_lhs, m_minus)
        lu, piv = sla.lu_factor(m_minus)
        np.testing.assert_array_equal(system.lu[0], lu)
        np.testing.assert_array_equal(system.lu[1], piv)
        m_rhs = system.m_rhs
        off = ~np.eye(m_rhs.shape[0], dtype=bool)
        np.testing.assert_array_equal(m_rhs[off], m_plus[off])
        # 2 - (1 - cs) and 1 + cs differ by roundings of operands of size
        # 1 + |cs|; the result itself may cancel towards zero
        diag, cs = np.diag(m_rhs), np.diag(m_plus) - 1.0
        assert np.all(np.abs(diag - np.diag(m_plus)) <= 1e-15 * (1.0 + np.abs(cs)))

    def test_assembly_peak_memory(self):
        nx = 1000
        problem = table2_problem(1.5, nx=nx, nt=1)
        scheme = wsld_scheme(4, 1.5)
        tracemalloc.start()
        try:
            assemble_cn_system(problem, scheme)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * (nx + 1) ** 2 * 8

    def test_inverse_path_peak_memory(self, monkeypatch):
        # numpy.linalg.inv's own work arrays are not traced; then the doubled
        # inverse G, the propagator squared between two arrays, and the
        # steps, which hold G, T^k and a span's rows
        nx = 1000
        _force_path(monkeypatch, "gemv")
        problem = table2_problem(1.5, nx=nx, nt=300)
        tracemalloc.start()
        try:
            cn_solve(problem, wsld_scheme(4, 1.5))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3.25 * (nx + 1) ** 2 * 8

    def test_matrix_free_peak_memory(self, monkeypatch):
        # the band twice, the Krylov basis, the store of past solutions and
        # their images, and O(N) vectors: O(N (b + restart + store)); the
        # longer run fills the store and restarts it
        nx = 2560
        _force_path(monkeypatch, "matrix-free")
        scheme = wsld_scheme(4, 1.5)
        for nt in (2, solver._STORE + 2):
            problem = table2_problem(1.5, nx=nx, nt=nt)
            tracemalloc.start()
            try:
                cn_solve(problem, scheme)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 8 * (nx + 1) * 8 * (solver._BAND + solver._RESTART)
            assert peak <= 0.15 * (nx + 1) ** 2 * 8

    @pytest.mark.parametrize("path", ["getrs", "gemv"],
                             ids=["getrs-path", "inverse-path"])
    @pytest.mark.parametrize("defect", ["zero-row", "nan-coefficient"])
    # scipy.linalg.lu_factor also warns of the zero pivot
    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    def test_singular_implicit_matrix_raises(self, monkeypatch, path, defect):
        _force_path(monkeypatch, path)
        problem = table2_problem(1.5, nx=20, nt=40)
        if defect == "zero-row":
            fill = solver._cn_matrix

            def singular(*args):
                matrix = fill(*args)
                matrix[5] = 0.0
                return matrix

            monkeypatch.setattr(solver, "_cn_matrix", singular)
            error = np.linalg.LinAlgError
            message = "implicit Crank-Nicolson matrix is singular"
        else:
            # reassigned after the problem checked its coefficients; the
            # message is scipy.linalg.lu_factor's
            problem.d_plus = lambda x: np.full_like(x, np.nan)
            error, message = ValueError, "array must not contain infs or NaNs"
        with pytest.raises(error, match=f"^{message}$"):
            cn_solve(problem, wsld_scheme(4, 1.5))

    def test_grid_too_small(self):
        # the default tuple reaches m = 3 columns past the diagonal
        problem = table2_problem(1.5, nx=2, nt=1)
        scheme = wsld_scheme(4, 1.5)
        for solve in (assemble_cn_system, cn_solve):
            with pytest.raises(ValueError, match="grid too small"):
                solve(problem, scheme)

    def test_zero_data_stays_zero(self):
        problem = DiffusionProblem(
            alpha=1.5, grid=Grid1D(0.0, 2.0, 20),
            d_plus=lambda x: x ** 1.5, d_minus=lambda x: 2 * x ** 1.5,
            source=lambda x, t: np.zeros_like(x),
            initial=np.zeros_like, horizon=0.5, nt=20, kappa=2.0)
        result = cn_solve(problem, wsld_scheme(4, 1.5))
        assert result.sup_norm == 0.0

    @pytest.mark.parametrize("nu,alpha,res,reference", [
        (4, 1.5, 20, 5.2600e-04),
        (3, 1.8, 40, 1.6131e-04),
    ])
    def test_diffusion_benchmark_cells(self, nu, alpha, res, reference):
        problem = table2_problem(alpha, nx=2 * res)
        u = cn_solve(problem, wsld_scheme(nu, alpha)).u
        error = np.abs(u - table2_exact(problem.grid.nodes(), 1.0)).max()
        assert error == pytest.approx(reference, rel=0.05)

    def test_taylor_consistency_as_tau_vanishes(self):
        # one step approaches the explicit Euler update superlinearly
        problem_base = table2_problem(1.5, nx=20)
        scheme = wsld_scheme(4, 1.5)
        grid = problem_base.grid
        x = grid.nodes()
        u0 = problem_base.initial(x)
        deviations = []
        for tau in (1e-3, 5e-4, 2.5e-4):
            problem = table2_problem(1.5, nx=20, nt=1)
            problem.horizon = tau
            system = assemble_cn_system(problem, scheme)
            forcing = problem.source(x, 0.5 * tau)
            rhs = system.m_rhs @ u0 + tau * forcing
            rhs[0] = 0.0
            rhs[-1] = 0.0
            u1 = sla.lu_solve(system.lu, rhs)
            # (m_rhs - I)/(tau/2) recovers the scaled spatial operator h^-a B
            spatial = (system.m_rhs - np.eye(x.size)) / (0.5 * tau)
            euler = u0 + tau * (spatial @ u0 + forcing)
            euler[0] = 0.0
            euler[-1] = 0.0
            deviations.append(np.abs(u1 - euler).max())
        assert deviations[1] / deviations[0] < 0.65
        assert deviations[2] / deviations[1] < 0.65

    def test_temporal_order_two(self):
        # fixed fine grid, halving tau: error behaves like tau^2
        errors = []
        taus = (1 / 4, 1 / 8, 1 / 16, 1 / 32)
        for tau in taus:
            problem = table2_problem(1.5, nx=160, nt=round(1 / tau))
            u = cn_solve(problem, wsld_scheme(4, 1.5)).u
            errors.append(np.abs(u - table2_exact(problem.grid.nodes(), 1.0)).max())
        slope = np.polyfit(np.log(taus), np.log(errors), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.3)


def _problem_without_kappa(alpha, nx, nt):
    """The Table 2 problem with ``d_minus = 1.5 + cos 3x``: no constant ratio."""
    return replace(table2_problem(alpha, nx=nx, nt=nt),
                   d_minus=lambda x: 1.5 + np.cos(3 * x), kappa=None)


def _problem_with_stale_kappa(alpha, nx, nt):
    """The Table 2 problem with ``d_minus`` reassigned after ``kappa`` was checked.

    Its ``kappa = 2`` is stale, so the matrix-free path must not fuse the far
    fields of ``A`` and ``A^T`` by it.
    """
    problem = table2_problem(alpha, nx=nx, nt=nt)
    problem.d_minus = lambda x: 1.5 + np.cos(3 * x)
    return problem


def _gmres(problem, scheme):
    """The matrix-free path's solver: :class:`solver._Gmres` on the split of ``M-``."""
    return solver._Gmres(*solver._split(problem, scheme), problem.grid.nx + 1)


def _split_band(monkeypatch, problem, scheme):
    """The width and the band storage of the band ``B`` that :func:`solver._split` factors."""
    cn_band, bands = solver._cn_band, []

    def recorded(*args):
        bands.append((args[-1], cn_band(*args)))
        return bands[-1][1]

    with monkeypatch.context() as patch:
        patch.setattr(solver, "_cn_band", recorded)
        solver._split(problem, scheme)
    [band] = bands
    return band


def _force_path(monkeypatch, path):
    """Make :func:`cn_solve` take ``path`` whatever the run's shape."""
    if path is not None:
        monkeypatch.setattr(solver, "_step_path", lambda size, nt, scheme: path)


def _cn_reference(problem, scheme):
    """Reference Crank-Nicolson loop with the explicit matrix.

    Each step solves ``M- u_{n+1} = M+ u_n + tau F`` with zero boundary
    entries by ``scipy.linalg.lu_solve``.
    """
    system = assemble_cn_system(problem, scheme)
    m_rhs = system.m_rhs
    x = problem.grid.nodes()
    tau = problem.tau
    u = np.asarray(problem.initial(x), dtype=float)
    for n in range(problem.nt):
        rhs = m_rhs @ u + tau * problem.source(x, (n + 0.5) * tau)
        rhs[0] = rhs[-1] = 0.0
        u = sla.lu_solve(system.lu, rhs)
    return u


def _block_rows(path, size):
    """Steps per block of ``path`` on ``size`` unknowns, the last block aside.

    The inverse path steps spans of blocks of ``_SPAN_STEPS``; the others
    step blocks of ``_STEP_BLOCK // N``, each one sampled at once.
    """
    return solver._SPAN_STEPS if path == "gemv" else solver._STEP_BLOCK // size


def _sampled_rows(path, size, nt):
    """Steps sampled by the first call of a block sampler on ``path``."""
    span = solver._SPAN_STEPS * solver._SPAN_BLOCKS
    return min(nt, span if path == "gemv" else solver._STEP_BLOCK // size)


def _span_columns(path, size, nt):
    """The shapes of the columns of times a broadcasting source is called on."""
    span = _sampled_rows(path, size, nt)
    return [(min(span, nt - done), 1) for done in range(0, nt, span)]


def _relative(got, want):
    return float(np.abs(np.asarray(got) - want).max() / np.abs(want).max())


def _cn_per_step(problem, scheme, path):
    """The Crank-Nicolson loop of :func:`cn_solve`, one step at a time.

    Each step samples the forcing, solves on ``path`` and checks the sup norm
    before the next, as ``cn_solve`` did before it stepped in blocks.
    Returns ``(u, sup_norm)`` or raises the step's :class:`InstabilityError`.
    """
    x, tau = problem.grid.nodes(), problem.tau
    u = np.array(problem.initial(x), dtype=float)
    if path == "gemv":
        twice = solver._twice_inverse(problem, scheme)

        def twice_solution(rhs, step):
            return twice @ rhs
    elif path == "getrs":
        lu = assemble_cn_system(problem, scheme).lu

        def twice_solution(rhs, step):
            return 2.0 * sla.lu_solve(lu, rhs, check_finite=False)
    else:
        implicit, w = _gmres(problem, scheme), u

        def twice_solution(rhs, step):
            nonlocal w
            w = implicit.solve(rhs, w, step)
            return 2.0 * w
    sup = float(np.abs(u).max())
    for n in range(problem.nt):
        rhs = problem.source(x, (n + 0.5) * tau) * (0.5 * tau) + u
        rhs[0], rhs[-1] = 0.5 * u[0], 0.5 * u[-1]
        with np.errstate(invalid="ignore", over="ignore"):
            u = twice_solution(rhs, n + 1) - u
        u[0] = u[-1] = 0.0
        step_sup = float(np.abs(u).max())
        if not step_sup <= BLOWUP_THRESHOLD:
            raise InstabilityError(n + 1, (n + 1) * tau, step_sup)
        sup = max(sup, step_sup)
    return u, sup


def _plain_gmres_cycle(self, w, residual, beta, target, budget):
    """A restarted GMRES cycle without recycling, the reference of the first.

    Arnoldi on ``M- B^{-1}`` with classical Gram-Schmidt run twice, in a
    basis of its own, and Givens rotations, each in the operation order of
    :meth:`solver._Gmres._cycle`.
    """
    limit = min(solver._RESTART, budget)
    basis = np.empty((limit + 1, w.size))
    basis[0] = residual
    basis[0] /= beta
    tri = np.zeros((limit, limit))
    g = [beta] + [0.0] * limit
    cos, sin = [], []
    for j in range(limit):
        v = self._operator(basis[j])
        q = basis[: j + 1]
        h = q @ v
        v -= h @ q
        again = q @ v
        v -= again @ q
        h += again
        norm = float(np.linalg.norm(v))
        col = h.tolist()
        for i in range(j):
            col[i], col[i + 1] = (cos[i] * col[i] + sin[i] * col[i + 1],
                                  cos[i] * col[i + 1] - sin[i] * col[i])
        rho = math.hypot(col[j], norm)
        cos.append(col[j] / rho)
        sin.append(norm / rho)
        col[j] = rho
        tri[: j + 1, j] = col
        g[j + 1] = -sin[j] * g[j]
        g[j] *= cos[j]
        k = j + 1
        if abs(g[k]) <= target or norm == 0.0:
            break
        np.divide(v, norm, out=basis[k])
    y = np.array(g[:k])
    for i in range(k - 1, -1, -1):
        y[i] = (y[i] - tri[i, i + 1: k] @ y[i + 1:]) / tri[i, i]
    return w + self._precondition(y @ basis[:k]), abs(g[k]), k


def _cn_matrices_unfactored(problem, scheme, dtype=float):
    """Reference ``M- = I - cS`` and ``M+ = I + cS``, each formed in full.

    The double-precision data are converted to ``dtype`` before any
    arithmetic, which is then done in ``dtype``.
    """
    grid = problem.grid
    x = grid.nodes()
    a = assemble_left(scheme, grid.nx).astype(dtype)
    dp, dm = problem.d_plus(x).astype(dtype), problem.d_minus(x).astype(dtype)
    spatial = dp[:, None] * a + dm[:, None] * a.T
    c = dtype(problem.tau) / (2 * dtype(grid.h) ** dtype(problem.alpha))
    eye = np.eye(grid.nx + 1, dtype=dtype)
    m_minus, m_plus = eye - c * spatial, eye + c * spatial
    for m in (m_minus, m_plus):
        m[[0, -1]] = eye[[0, -1]]
    return m_minus, m_plus


def _lu_longdouble(m):
    """LU factors of ``m`` by partial-pivoting elimination, in ``m``'s dtype."""
    m = m.copy()
    perm = np.arange(m.shape[0])
    for k in range(m.shape[0] - 1):
        p = k + int(np.argmax(np.abs(m[k:, k])))
        m[[k, p]] = m[[p, k]]
        perm[[k, p]] = perm[[p, k]]
        m[k + 1:, k] /= m[k, k]
        m[k + 1:, k + 1:] -= np.outer(m[k + 1:, k], m[k, k + 1:])
    return m, perm


def _lu_solve_longdouble(lu, perm, b):
    y = b[perm]
    for i in range(1, y.size):
        y[i] -= lu[i, :i] @ y[:i]
    for i in range(y.size - 1, -1, -1):
        y[i] = (y[i] - lu[i, i + 1:] @ y[i + 1:]) / lu[i, i]
    return y


def _cn_longdouble(problem, scheme):
    """The Crank-Nicolson scheme solved in ``np.longdouble``.

    The data (operator matrix, coefficients, forcing and initial samples) are
    the double-precision ones ``cn_solve`` sees; only the arithmetic is
    extended, so the result is the exact solution of the same discrete scheme
    up to the longdouble round-off.
    """
    ld = np.longdouble
    m_minus, m_plus = _cn_matrices_unfactored(problem, scheme, ld)
    lu, perm = _lu_longdouble(m_minus)
    x = problem.grid.nodes()
    tau = ld(problem.tau)
    u = problem.initial(x).astype(ld)
    for n in range(problem.nt):
        rhs = m_plus @ u + tau * problem.source(x, (n + 0.5) * problem.tau).astype(ld)
        rhs[0] = rhs[-1] = 0
        u = _lu_solve_longdouble(lu, perm, rhs)
    return u


def _unfactored_problem():
    # a forcing that does not split into a factor in x times one in t
    return DiffusionProblem(
        alpha=1.3, grid=Grid1D(0.0, 2.0, 40),
        d_plus=lambda x: x ** 1.3, d_minus=lambda x: 0.5 * x ** 1.3,
        source=lambda x, t: np.sin(3 * x * (t + 1)),
        initial=lambda x: x * (2.0 - x), horizon=0.5, nt=200, kappa=0.5)


def _nonzero_boundary_problem(nt):
    problem = _unfactored_problem()
    problem.initial = expression("one", problem.alpha)
    problem.horizon *= nt / problem.nt
    problem.nt = nt
    return problem


def _table2_forcing_unfactored(alpha, x, t):
    """Reference Table 2 forcing: every factor evaluated on every call."""
    g = math.gamma
    c = [g(9) / g(9 - alpha), 8 * g(8) / g(8 - alpha), 24 * g(7) / g(7 - alpha),
         32 * g(6) / g(6 - alpha), 16 * g(5) / g(5 - alpha)]
    y = 2.0 - x
    bracket = (
        c[0] * (x ** (8 - alpha) + 2 * y ** (8 - alpha))
        - c[1] * (x ** (7 - alpha) + 2 * y ** (7 - alpha))
        + c[2] * (x ** (6 - alpha) + 2 * y ** (6 - alpha))
        - c[3] * (x ** (5 - alpha) + 2 * y ** (5 - alpha))
        + c[4] * (x ** (4 - alpha) + 2 * y ** (4 - alpha))
    )
    return math.cos(t + 1.0) * x ** 4 * y ** 4 - x ** alpha * math.sin(t + 1.0) * bracket


class TestStepLoop:
    @pytest.mark.parametrize("make_problem,path", [
        (lambda: table2_problem(1.5, nx=40), None),
        (_unfactored_problem, None),
        (lambda: table2_problem(1.5, nx=40, nt=40), "getrs"),
        (lambda: table2_problem(1.5, nx=40, nt=40), "matrix-free"),
        (_unfactored_problem, "matrix-free"),
    ], ids=["table2", "unfactored-source", "getrs-path", "matrix-free-path",
            "unfactored-source-matrix-free"])
    def test_matches_lu_solve_loop(self, monkeypatch, make_problem, path):
        _force_path(monkeypatch, path)
        problem = make_problem()
        scheme = wsld_scheme(4, problem.alpha)
        u = cn_solve(problem, scheme).u
        reference = _cn_reference(make_problem(), scheme)
        assert np.abs(u - reference).max() <= 1e-12 * np.abs(reference).max()

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                        reason="longdouble is plain double on this platform")
    @pytest.mark.parametrize("alpha,nx,nt", [(1.96, 320, 40), (1.5, 480, 10)])
    def test_error_against_extended_precision_oracle(self, monkeypatch, alpha, nx, nt):
        # the getrs path, the lu_solve reference loop and the matrix-free path
        # all solve the same scheme to the same bound
        problem = table2_problem(alpha, nx=nx, nt=nt)
        scheme = wsld_scheme(4, alpha)
        oracle = _cn_longdouble(problem, scheme)

        def relative_error(u):
            return float(np.abs(u - oracle).max() / np.abs(oracle).max())

        _force_path(monkeypatch, "getrs")
        assert relative_error(cn_solve(problem, scheme).u) <= 2e-11
        assert relative_error(_cn_reference(problem, scheme)) <= 2e-11
        _force_path(monkeypatch, "matrix-free")
        assert relative_error(cn_solve(problem, scheme).u) <= 2e-11

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                        reason="longdouble is plain double on this platform")
    @pytest.mark.parametrize("alpha,nx,nt", [(1.96, 40, 400), (1.1, 40, 1600)])
    def test_inverse_path_error_against_extended_precision_oracle(self, alpha, nx, nt):
        # nt >= 2 (nx + 1): each step is one gemv with the inverse of M-
        problem = table2_problem(alpha, nx=nx, nt=nt)
        scheme = wsld_scheme(4, alpha)
        oracle = _cn_longdouble(problem, scheme)
        u = cn_solve(problem, scheme).u
        assert np.abs(u - oracle).max() <= 2e-11 * np.abs(oracle).max()

    @pytest.mark.parametrize("path", ["getrs", "gemv", "matrix-free"],
                             ids=["getrs-path", "inverse-path", "matrix-free-path"])
    def test_initial_data_array_is_not_written(self, monkeypatch, path):
        _force_path(monkeypatch, path)
        problem = table2_problem(1.5, nx=40, nt=40)
        initial = problem.initial(problem.grid.nodes())
        saved = initial.copy()
        problem.initial = lambda x: initial
        cn_solve(problem, wsld_scheme(4, 1.5))
        np.testing.assert_array_equal(initial, saved)

    @pytest.mark.parametrize("nx,nt,path", [
        (640, 20, "getrs"), (40, 400, "gemv"), (2560, 20, "matrix-free")])
    def test_inverts_only_long_runs(self, monkeypatch, nx, nt, path):
        # the step-path rule picks the path: 20 steps at nx = 640 are too few
        # for the inverse (2N) and too many for matrix-free ((N/162)^2 = 15);
        # 20 steps at nx = 2560, as in the large-grid benchmark, go
        # matrix-free, as does every run past N = 1281.  The inverse comes
        # from numpy.linalg and asks scipy.linalg for nothing.
        requested = []

        def spy(module, name, label=None):
            function = getattr(module, name)

            def wrapper(*args, **kwargs):
                if label is None:  # get_lapack_funcs or get_blas_funcs
                    names = args[0]
                    requested.extend([names] if isinstance(names, str) else names)
                else:
                    requested.append(label)
                return function(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        spy(sla, "get_lapack_funcs")
        spy(sla, "get_blas_funcs")
        spy(sla, "lu_factor", "getrf")
        spy(np.linalg, "inv", "inv")
        scheme = wsld_scheme(4, 1.5)
        assert solver._step_path(nx + 1, nt, scheme) == path
        cn_solve(table2_problem(1.5, nx=nx, nt=nt), scheme)
        assert requested.count("getrf") == requested.count("getrs") == (
            1 if path == "getrs" else 0)
        assert requested.count("inv") == (1 if path == "gemv" else 0)
        assert requested.count("gbtrf") == requested.count("gbtrs") == (
            1 if path == "matrix-free" else 0)
        if path == "gemv":
            assert requested == ["inv"]

    def test_large_grids_are_not_inverted(self):
        # at N = 2561 the inversion would peak at about twice the memory of
        # the factorization: the default tuple goes matrix-free there, and
        # other tuples factor; up to N = 1281 long runs still invert
        scheme, unshifted = wsld_scheme(4, 1.5), wsld_scheme(4, 1.5, shifts=0)
        for nt in (5122, 10 ** 6):
            assert solver._step_path(2561, nt, scheme) == "matrix-free"
            assert solver._step_path(2561, nt, unshifted) == "getrs"
        assert solver._step_path(solver._DENSE_MAX_SIZE, 10 ** 6, scheme) == "gemv"

    @pytest.mark.parametrize("nx,nt,path,unshifted_path", [
        # run_table2 (nt = nx^2 / 4 >= 2N), the start-up probe, large-grid
        (20, 100, "gemv", "gemv"), (40, 400, "gemv", "gemv"),
        (80, 1600, "gemv", "gemv"), (160, 6400, "gemv", "gemv"),
        (16, 64, "gemv", "gemv"), (2560, 20, "matrix-free", "getrs"),
        # a single step is cheaper to factor up to about N = 200
        (160, 1, "getrs", "getrs"), (320, 1, "matrix-free", "getrs"),
        (640, 20, "getrs", "getrs"), (860, 28, "matrix-free", "getrs"),
        (1280, 50, "matrix-free", "getrs"), (1280, 100, "getrs", "getrs"),
        # long desk-scale runs invert once
        (640, 1281, "getrs", "getrs"), (640, 1282, "gemv", "gemv"),
        (1280, 2562, "gemv", "gemv"),
        # past N = 1281 the default tuple never factors
        (1600, 100, "matrix-free", "getrs"), (1600, 400, "matrix-free", "getrs"),
        (1600, 3202, "matrix-free", "getrs"), (1920, 100, "matrix-free", "getrs"),
        (1920, 400, "matrix-free", "getrs"), (1920, 3842, "matrix-free", "getrs"),
        (2560, 5122, "matrix-free", "getrs"),
    ])
    def test_step_path_table(self, nx, nt, path, unshifted_path):
        assert solver._step_path(nx + 1, nt, wsld_scheme(4, 1.5)) == path
        assert solver._step_path(nx + 1, nt, wsld_scheme(4, 1.5, shifts=0)) == unshifted_path

    def test_table2_runs_keep_the_inverse_path(self):
        # run_table2 steps nt = nx^2/4 >= 2N on N = nx + 1 <= 161 unknowns
        for nx in (20, 40, 80, 160):
            nt = table2_problem(1.5, nx=nx).nt
            assert solver._step_path(nx + 1, nt, wsld_scheme(4, 1.5)) == "gemv"

    @pytest.mark.parametrize("nt", [1, 200])
    def test_nonzero_boundary_data_are_zeroed(self, nt):
        scheme = wsld_scheme(4, 1.3)
        u = cn_solve(_nonzero_boundary_problem(nt), scheme).u
        reference = _cn_reference(_nonzero_boundary_problem(nt), scheme)
        assert u[0] == u[-1] == 0.0
        assert np.abs(u - reference).max() <= 1e-12 * np.abs(reference).max()

    def test_table2_forcing_block_is_bitwise_the_calls(self):
        # one call on a column of times, as a span samples it, agrees
        # bitwise with the calls at each time: every Table 2 step time and
        # 4000 more
        source = expression("table2_forcing", 1.3)
        times = [(k + 0.5) * (1.0 / nt) for nt in (100, 400, 1600, 6400)
                 for k in range(nt)]
        times += np.random.default_rng(3).uniform(0.0, 10.0, 4000).tolist()
        x = np.linspace(0.0, 2.0, 9)
        rows = source(x, np.array(times)[:, None])
        calls = np.array([source(x, t) for t in times])
        assert rows.shape == calls.shape == (len(times), x.size)
        assert rows.tobytes() == calls.tobytes()

    def test_table2_forcing_column_holds_one_array(self):
        # the second term is formed in chunks of rows and subtracted in
        # place, so sampling an inverse-path span at N = 161 holds little
        # beside the result
        source = expression("table2_forcing", 1.5)
        x = np.linspace(0.0, 2.0, 161)
        times = ((np.arange(384) + 0.5) / 6400)[:, None]
        source(x, times[:1])  # the fractional powers, cached per node array
        tracemalloc.start()
        try:
            rows = source(x, times)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rows.shape == (384, 161)
        assert peak <= 1.2 * rows.nbytes

    def test_table2_forcing_cache_follows_the_nodes(self):
        alpha = 1.5
        source = expression("table2_forcing", alpha)

        def check(x, t):
            # a call on a column of times sees each new x first, so it
            # switches the cache; the times broadcast against x
            for times in ([t, t + 0.25, 3.0 * t + 0.1], [t]):
                rows = source(x, np.reshape(times, (-1,) + (1,) * x.ndim))
                assert rows.shape == (len(times),) + x.shape
                for row, time in zip(rows, times):
                    assert row.tobytes() == source(x, time).tobytes()
                    assert row.tobytes() == _table2_forcing_unfactored(
                        alpha, x, time).tobytes()
            got = source(x, t)
            fresh = expression("table2_forcing", alpha)(x.copy(), t)
            np.testing.assert_array_equal(got, fresh)
            np.testing.assert_array_equal(got, _table2_forcing_unfactored(alpha, x, t))

        x1 = np.linspace(0.0, 2.0, 41)
        x2 = np.linspace(0.1, 1.7, 17)
        check(x1, 0.3)
        check(x1, 0.7)
        x1 *= 0.75  # same array object, new values
        check(x1, 0.7)
        check(x2, 0.7)
        check(x2[::-1].copy(), 0.7)  # same length as x2, other values
        check(x1, 0.3)
        check(x1.reshape(-1, 1), 0.3)  # same bytes, other shape
        x3 = np.linspace(0.0, 2.0, 41)
        check(x3, 0.3)
        x3[0] = -0.0  # equal to 0.0, other bytes
        check(x3, 0.3)

    @pytest.mark.parametrize("position,nt,path", [
        (1, 50, "getrs"), (20, 50, "getrs"), (39, 50, "getrs"),
        (1, 100, "gemv"), (20, 100, "gemv"), (39, 100, "gemv"),
        (20, 50, "matrix-free"),
    ], ids=["1", "20", "39", "1-nt100", "20-nt100", "39-nt100", "20-matrix-free"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    # and warns of nothing: an infinite forcing makes inf - inf in the inverse
    # path's product, whose floating-point flags numpy checks
    @pytest.mark.filterwarnings("error")
    def test_nonfinite_forcing_mid_run_reports_its_step(self, monkeypatch, value,
                                                        position, nt, path):
        _force_path(monkeypatch, path)
        problem = table2_problem(1.5, nx=40, nt=nt)
        finite_source, bad_step = problem.source, 7

        def source(x, t):
            f = finite_source(x, t)
            if t > (bad_step - 1) * problem.tau:  # step k samples t = (k - 1/2) tau
                f[position] = value
            return f

        problem.source = source
        with pytest.raises(InstabilityError) as info:
            cn_solve(problem, wsld_scheme(4, 1.5))
        err = info.value
        assert err.step == bad_step
        assert err.t == bad_step * problem.tau
        assert not np.isfinite(err.sup_norm)


_PATHS = ["getrs", "gemv", "matrix-free"]


class TestBlockStepping:
    @pytest.mark.parametrize("make_problem", [
        lambda: table2_problem(1.5, nx=40, nt=137),
        lambda: table2_problem(1.9, nx=160, nt=61),
        lambda: _nonzero_boundary_problem(137),
        # the block-sampled Table 2 forcing under nonzero initial boundary data
        lambda: replace(table2_problem(1.5, nx=40, nt=137),
                        initial=expression("one", 1.5)),
        # -0.0 on both boundary nodes, where step 1 reads U^0/2
        lambda: replace(table2_problem(1.5, nx=40, nt=137),
                        initial=lambda x: -x * (2.0 - x)),
    ], ids=["table2-nx40", "table2-nx160", "no-kappa-nonzero-boundary",
            "table2-nonzero-boundary", "table2-negative-zero-boundary"])
    @pytest.mark.parametrize("path", _PATHS)
    def test_bitwise_the_per_step_loop(self, monkeypatch, make_problem, path):
        # the inverse path's spans are the per-step loop up to the rounding
        # of their products; the other paths are bitwise
        _force_path(monkeypatch, path)
        problem = make_problem()
        rows = _block_rows(path, problem.grid.nx + 1)
        assert problem.nt > rows and problem.nt % rows  # a last, shorter block
        scheme = wsld_scheme(4, problem.alpha)
        result = cn_solve(problem, scheme)
        u, sup = _cn_per_step(make_problem(), scheme, path)
        if path == "gemv":
            assert _relative(result.u, u) <= 1e-12
            assert abs(result.sup_norm - sup) <= 1e-12 * sup
        else:
            assert result.u.tobytes() == u.tobytes()
            assert result.sup_norm == sup
        assert result.steps == problem.nt

    @pytest.mark.parametrize("path", _PATHS)
    def test_source_sampled_once_per_step_in_order(self, monkeypatch, path):
        _force_path(monkeypatch, path)
        problem = table2_problem(1.5, nx=160, nt=61)
        finite_source, times = problem.source, []

        def source(x, t):
            times.append(t)
            return finite_source(x, t)

        problem.source = source
        cn_solve(problem, wsld_scheme(4, 1.5))
        # one call per span, on the column of its times
        assert [np.shape(t) for t in times] == _span_columns(path, 161, 61)
        expected = [(n + 0.5) * problem.tau for n in range(problem.nt)]
        got = np.concatenate([np.ravel(t) for t in times])
        assert got.tobytes() == np.array(expected).tobytes()

    @pytest.mark.parametrize("path", _PATHS)
    def test_elementwise_lambda_is_called_once_per_span(self, monkeypatch, caplog,
                                                         path):
        # a plain numpy lambda broadcasts over a column of times unchanged
        _force_path(monkeypatch, path)
        problem = _nonzero_boundary_problem(137)
        forcing, shapes = problem.source, []

        def source(x, t):
            shapes.append(np.shape(t))
            return forcing(x, t)

        problem.source = source
        caplog.set_level(logging.DEBUG, logger="wsld")
        cn_solve(problem, wsld_scheme(4, problem.alpha))
        assert shapes == _span_columns(path, 41, 137)
        assert caplog.records == []  # the fallback's log line

    def test_single_precision_forcing_is_scaled_in_double(self):
        # the samples are cast to double before the tau/2 scaling, not after
        def single(x, t):
            return np.sin(3 * x * (t + 1)).astype(np.float32)

        problem = replace(_nonzero_boundary_problem(137), source=single)
        want = replace(problem, source=lambda x, t: single(x, t).astype(float))
        scheme = wsld_scheme(4, problem.alpha)
        assert cn_solve(problem, scheme).u.tobytes() == cn_solve(want, scheme).u.tobytes()

    @pytest.mark.parametrize("source,twin,named", [
        (lambda x, t: math.cos(t) * x * (2.0 - x),
         lambda x, t: np.vectorize(math.cos)(t) * x * (2.0 - x), "raised TypeError"),
        (lambda x, t: np.zeros_like(x),
         lambda x, t: np.zeros(np.broadcast(x, t).shape), "returned shape (41,)"),
    ], ids=["not-broadcast-safe", "one-row-per-call"])
    @pytest.mark.parametrize("path", _PATHS)
    def test_source_that_does_not_broadcast_is_sampled_per_step(
            self, monkeypatch, caplog, path, source, twin, named):
        # math.cos raises on a column of times, and np.zeros_like(x) returns
        # one row; each span is sampled again one step at a time, at Python
        # float times, and the run is bitwise that of a twin source that
        # broadcasts.  400 steps take two spans or more on every path, and
        # each solve that falls back logs why once, at DEBUG, through no
        # handler of its own
        _force_path(monkeypatch, path)
        caplog.set_level(logging.DEBUG, logger="wsld")
        shapes, times = [], []

        def counted(x, t):
            shapes.append(np.shape(t))
            if not np.ndim(t):
                times.append(t)
            return source(x, t)

        problem = replace(table2_problem(1.5, nx=40, nt=400), source=counted)
        shapes.clear()  # the problem's construction check
        times.clear()
        scheme = wsld_scheme(4, 1.5)
        result = cn_solve(problem, scheme)
        expected = []
        for column in _span_columns(path, 41, 400):
            expected += [column] + [()] * column[0]
        assert shapes == expected
        assert {type(t) for t in times} == {float}
        assert times == [(n + 0.5) * problem.tau for n in range(400)]
        want = cn_solve(replace(problem, source=twin), scheme)
        assert result.u.tobytes() == want.u.tobytes()
        assert result.sup_norm == want.sup_norm
        cn_solve(problem, scheme)
        assert [r.levelno for r in caplog.records] == [logging.DEBUG] * 2
        assert all(r.name == "wsld" and named in r.getMessage() for r in caplog.records)
        assert logging.getLogger("wsld").handlers == []

    @pytest.mark.parametrize("blown", [True, False], ids=["after-blowup", "alone"])
    @pytest.mark.parametrize("failing", ["source", "gmres"])
    @pytest.mark.filterwarnings("error")
    def test_later_exception_gives_way_to_an_earlier_blowup(
            self, monkeypatch, failing, blown):
        # steps bad and bad + 2 fall in the first block of 99 steps
        _force_path(monkeypatch, "matrix-free" if failing == "gmres" else "gemv")
        problem = table2_problem(1.5, nx=40, nt=100)
        finite_source, bad = problem.source, 7

        def source(x, t):
            step = round(t / problem.tau + 0.5)
            if failing == "source" and step == bad + 2:
                raise KeyError("source failed")
            f = finite_source(x, t)
            if blown and step == bad:
                f[20] = np.nan
            return f

        solve = solver._Gmres.solve

        def failing_solve(self, rhs, w, step):
            if step == bad + 2:
                raise RuntimeError(f"GMRES did not converge at step {step}")
            return solve(self, rhs, w, step)

        problem.source = source
        monkeypatch.setattr(solver._Gmres, "solve", failing_solve)
        expected = InstabilityError if blown else (
            KeyError if failing == "source" else RuntimeError)
        with pytest.raises(expected) as info:
            cn_solve(problem, wsld_scheme(4, 1.5))
        if blown:
            assert info.value.step == bad and info.value.t == bad * problem.tau
            assert math.isnan(info.value.sup_norm)
        else:
            assert type(info.value) is expected

    @pytest.mark.parametrize("fault", ["raises-after-blowup", "raises-alone",
                                       "nan", "inf"])
    @pytest.mark.parametrize("path", _PATHS)
    @pytest.mark.filterwarnings("error")
    def test_block_sampler_failure_reports_as_a_plain_source(self, monkeypatch,
                                                              fault, path):
        # steps bad and bad + 2 fall in the first span (99 steps, or the
        # inverse path's 100); the call on the span's column of times raises
        # there, or returns a non-finite row, and the source fails as the
        # plain sources of the two tests above
        _force_path(monkeypatch, path)
        problem = table2_problem(1.5, nx=40, nt=100)
        tau, bad, blocks = problem.tau, 7, []

        class Source(solver._Table2Source):
            def __call__(self, x, t):
                steps = np.rint(np.asarray(t) / tau + 0.5)
                if np.ndim(t):
                    blocks.append(np.size(t))
                if fault.startswith("raises") and np.any(steps == bad + 2):
                    raise (ValueError if np.ndim(t) else KeyError)("source failed")
                f = super().__call__(x, t)
                if fault != "raises-alone":
                    value = np.nan if fault.startswith("raises") else float(fault)
                    rows = np.reshape(steps == bad, np.shape(f)[:-1])
                    f[..., 20] = np.where(rows, value, f[..., 20])
                return f

        problem.source = Source(1.5)
        expected = KeyError if fault == "raises-alone" else InstabilityError
        with pytest.raises(expected) as info:
            cn_solve(problem, wsld_scheme(4, 1.5))
        assert blocks == [_sampled_rows(path, 41, 100)]
        if expected is InstabilityError:
            assert info.value.step == bad and info.value.t == bad * tau
            assert not np.isfinite(info.value.sup_norm)
        else:
            assert type(info.value) is KeyError

    def test_table2_forcing_is_sampled_by_blocks(self, monkeypatch):
        # a refactor that falls back to sampling one step at a time fails here
        calls = []
        per_call = solver._Table2Source.__call__

        def counted(self, x, t):
            calls.append(t)
            return per_call(self, x, t)

        monkeypatch.setattr(solver._Table2Source, "__call__", counted)
        problem = table2_problem(1.5, nx=160)
        assert calls == [problem.tau / 2]  # the problem's construction check
        cn_solve(problem, wsld_scheme(4, 1.5))
        assert [np.shape(t) for t in calls[1:]] == _span_columns("gemv", 161,
                                                                 problem.nt)


class _Products(np.ndarray):
    """An array that counts the matrix products it takes part in."""

    count = 0

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        if ufunc is np.matmul:
            _Products.count += 1
        if out is not None:
            kwargs["out"] = tuple(np.asarray(o) for o in out)
        return getattr(ufunc, method)(*(np.asarray(a) for a in inputs), **kwargs)

    def __array_function__(self, func, types, args, kwargs):
        if func is np.dot:
            _Products.count += 1
        return super().__array_function__(func, types, args, kwargs)


def _plain_source(problem):
    """``problem`` with its forcing behind a plain lambda, not the built-in class."""
    forcing = problem.source
    return replace(problem, source=lambda x, t: forcing(x, t))


#: Steps of a forced inverse-path run that takes a full span, then a last
#: span of 2 blocks and 12 steps.
_RAGGED = solver._SPAN_STEPS * (solver._SPAN_BLOCKS + 2) + 12


class TestSpanStepping:
    """The inverse path's spans against the per-step loop of the same inverse."""

    @pytest.mark.parametrize("make_problem", [
        lambda: table2_problem(1.5, nx=40),
        lambda: table2_problem(1.8, nx=160),
        # shorter than one block: no propagator, one block
        lambda: table2_problem(1.5, nx=40, nt=solver._SPAN_STEPS - 3),
        lambda: table2_problem(1.1, nx=40, nt=_RAGGED),
        lambda: replace(table2_problem(1.5, nx=40, nt=_RAGGED),
                        initial=expression("one", 1.5)),
        lambda: _nonzero_boundary_problem(_RAGGED),
        lambda: _plain_source(table2_problem(1.5, nx=40, nt=_RAGGED)),
    ], ids=["table2-nx40", "table2-nx160", "shorter-than-a-block",
            "ragged-last-span", "nonzero-boundary", "no-kappa-nonzero-boundary",
            "plain-source"])
    def test_matches_the_per_step_loop(self, monkeypatch, make_problem):
        _force_path(monkeypatch, "gemv")
        problem = make_problem()
        scheme = wsld_scheme(4, problem.alpha)
        result = cn_solve(problem, scheme)
        u, sup = _cn_per_step(make_problem(), scheme, "gemv")
        assert _relative(result.u, u) <= 1e-12
        assert abs(result.sup_norm - sup) <= 1e-12 * sup
        assert result.steps == problem.nt

    def test_spans_of_one_block_without_a_finite_propagator(self, monkeypatch):
        # a propagator that overflowed would corrupt every block start, so
        # the spans fall back to single blocks, the per-step loop
        _force_path(monkeypatch, "gemv")
        monkeypatch.setattr(solver, "_block_propagator",
                            lambda twice_t: np.full(twice_t.shape, np.inf))
        problem = table2_problem(1.5, nx=40, nt=300)
        scheme = wsld_scheme(4, 1.5)
        result = cn_solve(problem, scheme)
        u, sup = _cn_per_step(table2_problem(1.5, nx=40, nt=300), scheme, "gemv")
        assert _relative(result.u, u) <= 1e-12
        assert abs(result.sup_norm - sup) <= 1e-12 * sup

    @pytest.mark.parametrize("bad", [150, _RAGGED - 4], ids=["first-span", "second-span"])
    @pytest.mark.parametrize("fault", ["nan", "inf", "raises", "raises-after-blowup"])
    @pytest.mark.parametrize("sampler", [True, False], ids=["sampler", "plain"])
    @pytest.mark.filterwarnings("error")
    def test_failure_mid_span_reports_as_the_per_step_loop(self, monkeypatch, sampler,
                                                           fault, bad):
        # step 150 lies inside block 9 of the first span, _RAGGED - 4 in
        # block 2 of the second; a blow-up corrupts every later block
        # start, and the fill still reports the first failing step
        _force_path(monkeypatch, "gemv")
        problem = table2_problem(1.5, nx=40, nt=_RAGGED)
        tau, finite_source = problem.tau, problem.source

        def source(x, t):
            step = round(t / tau + 0.5)
            if fault.startswith("raises") and step == bad:
                raise KeyError(f"source failed at step {step}")
            f = finite_source(x, t)
            if fault in ("nan", "inf") and step == bad:
                f[20] = float(fault)
            if fault == "raises-after-blowup" and step == bad - 3:
                f[20] = np.nan
            return f

        def broadcast(x, t):
            # one row per time; a failing call is sampled again one step at
            # a time, while `source` fails on any column of times
            if np.ndim(t) == 0:
                return source(x, t)
            return np.array([source(x, time) for time in np.ravel(t)])

        problem.source = broadcast if sampler else source
        with pytest.raises(Exception) as got:
            cn_solve(problem, wsld_scheme(4, 1.5))
        problem.source = source
        with pytest.raises(Exception) as want:
            _cn_per_step(problem, wsld_scheme(4, 1.5), "gemv")
        assert type(got.value) is type(want.value)
        step = {"nan": bad, "inf": bad, "raises-after-blowup": bad - 3}.get(fault)
        if step is None:
            assert type(got.value) is KeyError
            assert str(got.value) == str(want.value)  # names the step
        else:
            assert got.value.step == want.value.step == step
            assert got.value.t == want.value.t == step * tau
            assert not np.isfinite(got.value.sup_norm)

    def test_steps_in_products_over_blocks(self, monkeypatch):
        # a refactor that falls back to one product per step fails here
        inverse = solver._twice_inverse
        monkeypatch.setattr(solver, "_twice_inverse",
                            lambda *args: inverse(*args).view(_Products))
        monkeypatch.setattr(_Products, "count", 0)
        problem = table2_problem(1.5, nx=160)
        cn_solve(problem, wsld_scheme(4, 1.5))
        assert 0 < _Products.count <= problem.nt // 4


class TestMatrixFree:
    @pytest.mark.parametrize("nx", [1280, 2560])
    @pytest.mark.parametrize("alpha,bound", [(1.2, 1e-10), (1.5, 1e-10), (1.9, 1e-8)])
    def test_agrees_with_the_dense_solve(self, monkeypatch, nx, alpha, bound):
        # 20 steps, as in the large-grid benchmark; at alpha = 1.9 the 1-norm
        # condition number of M- is about 5e10 at nx = 2560
        problem = table2_problem(alpha, nx=nx, nt=20)
        scheme = wsld_scheme(4, alpha)
        _force_path(monkeypatch, "getrs")
        dense = cn_solve(problem, scheme).u
        _force_path(monkeypatch, "matrix-free")
        u = cn_solve(problem, scheme).u
        assert np.abs(u - dense).max() <= bound * np.abs(dense).max()

    def test_converges_on_ten_thousand_unknowns(self):
        # five steps of tau = 0.2 at nx = 10240 take 70-74 iterations per
        # solve, past a restart of 40, where GMRES stalled at step 3; the
        # half-grid run, with the same tau, differs by the spatial error only
        scheme = wsld_scheme(4, 1.5)
        assert solver._step_path(10241, 5, scheme) == "matrix-free"
        u = cn_solve(table2_problem(1.5, nx=10240, nt=5), scheme).u
        coarse = cn_solve(table2_problem(1.5, nx=5120, nt=5), scheme).u
        assert np.abs(u[::2] - coarse).max() <= 1e-6 * np.abs(coarse).max()

    def test_agrees_with_the_dense_solve_at_one_step(self, monkeypatch):
        # the largest step, tau = 1, on the large-grid size: 29 iterations
        problem = table2_problem(1.5, nx=2560, nt=1)
        scheme = wsld_scheme(4, 1.5)
        assert solver._step_path(2561, 1, scheme) == "matrix-free"
        _force_path(monkeypatch, "getrs")
        dense = cn_solve(problem, scheme).u
        _force_path(monkeypatch, "matrix-free")
        u = cn_solve(problem, scheme).u
        assert np.abs(u - dense).max() <= 1e-9 * np.abs(dense).max()

    @pytest.mark.parametrize("alpha,bound", [(1.2, 1e-10), (1.5, 1e-10), (1.9, 1e-8)])
    def test_agrees_with_the_dense_solve_without_kappa(self, monkeypatch, alpha, bound):
        # no constant ratio: the far field takes one inverse FFT for D+ A_far
        # and one for D- A_far^T
        problem = _problem_without_kappa(alpha, nx=1280, nt=20)
        scheme = wsld_scheme(4, alpha)
        _force_path(monkeypatch, "getrs")
        dense = cn_solve(problem, scheme).u
        _force_path(monkeypatch, "matrix-free")
        u = cn_solve(problem, scheme).u
        assert np.abs(u - dense).max() <= bound * np.abs(dense).max()

    @pytest.mark.parametrize("make_problem,nx,shifts", [
        (table2_problem, 60, 40), (table2_problem, 200, 40), (table2_problem, 200, None),
        (_problem_without_kappa, 60, 40), (_problem_without_kappa, 200, None),
        (_problem_with_stale_kappa, 200, None)],
        ids=["60-40", "200-40", "200-None", "60-40-no-kappa", "200-None-no-kappa",
             "200-None-stale-kappa"])
    def test_matvec_is_the_dense_product(self, make_problem, nx, shifts):
        # at nx = 60 the band is b = 30 < m = 40, so phi_0..phi_9 lie below
        # its lower edge (i - j < -b), in the far field
        problem = make_problem(1.5, nx=nx, nt=4)
        scheme = wsld_scheme(3 if shifts else 4, 1.5, shifts=shifts)
        _, _, matvec, _ = solver._split(problem, scheme)
        w = np.random.default_rng(7).standard_normal(nx + 1)
        expected = assemble_cn_system(problem, scheme).m_lhs @ w
        np.testing.assert_allclose(matvec(w), expected, rtol=0,
                                   atol=1e-13 * np.abs(expected).max())

    @pytest.mark.parametrize("make_problem", [table2_problem, _problem_without_kappa],
                             ids=["kappa", "no-kappa"])
    def test_matvec_is_the_dense_product_at_the_shortest_circulant(
            self, monkeypatch, make_problem):
        # at nx = 1024 the circulant is 2n = 2048 long, not 3072: offsets n
        # and -n share a slot, which only the zero-weight Dirichlet rows read
        nx = 1024
        problem = make_problem(1.5, nx=nx, nt=4)
        scheme = wsld_scheme(4, 1.5)
        rfft, lengths = np.fft.rfft, []

        def recorded(a, n=None):
            lengths.append(np.shape(a)[-1] if n is None else n)
            return rfft(a, n)

        monkeypatch.setattr(np.fft, "rfft", recorded)
        _, _, matvec, _ = solver._split(problem, scheme)
        w = np.random.default_rng(5).standard_normal(nx + 1)
        got = matvec(w)
        # the spectrum of the circulant, then the transform of w
        assert lengths == [2 * nx, 2 * nx]
        expected = solver._cn_matrix(*solver._cn_data(problem, scheme)) @ w
        np.testing.assert_allclose(got, expected, rtol=0,
                                   atol=1e-13 * np.abs(expected).max())

    @pytest.mark.parametrize("make_problem", [table2_problem, _problem_without_kappa],
                             ids=["kappa", "no-kappa"])
    @pytest.mark.parametrize("nx,shifts", [(60, 40), (200, None)])
    def test_arnoldi_operator_is_the_preconditioned_matrix(self, make_problem, nx, shifts):
        # GMRES iterates on v - cF(B^-1 v), which is M- B^-1 v because the
        # preconditioner B is the band of M- and M- = B - cF.  The two differ
        # by the residual of the band solve, so the bound is relative to the
        # largest sum max_i sum_j |M-[i, j] z_j| of the product's terms
        problem = make_problem(1.5, nx=nx, nt=4)
        scheme = wsld_scheme(3 if shifts else 4, 1.5, shifts=shifts)
        operator, precondition, _, _ = solver._split(problem, scheme)
        v = np.random.default_rng(11).standard_normal(nx + 1)
        z = precondition(v)
        m_lhs = assemble_cn_system(problem, scheme).m_lhs
        scale = (np.abs(m_lhs) @ np.abs(z)).max()
        np.testing.assert_allclose(operator(v), m_lhs @ z, rtol=0,
                                   atol=1e-13 * scale)

    @pytest.mark.parametrize("make_problem,inverse_ffts", [
        (table2_problem, 1), (_problem_without_kappa, 2)], ids=["kappa", "no-kappa"])
    def test_one_iteration_is_one_band_solve_and_one_fft_pair(
            self, monkeypatch, make_problem, inverse_ffts):
        # a cycle of k iterations makes k + 1 gbtrs calls (one per operator
        # call, and the precondition call that maps the Krylov combination
        # back to W) and no gbmv, so no matvec call; each iteration takes
        # one rfft, and one irfft per spectrum of the far field
        problem = make_problem(1.5, nx=200, nt=4)
        calls = dict.fromkeys(["gbtrs", "gbmv", "rfft", "irfft", "operator",
                               "precondition", "matvec"], 0)

        def counted(name, function):
            def call(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)
            return call

        def counting(get_funcs):
            def get(names, *args, **kwargs):
                return tuple(counted(name, f) if name in calls else f
                             for name, f in zip(names, get_funcs(names, *args, **kwargs)))
            return get

        for getter in ("get_lapack_funcs", "get_blas_funcs"):
            monkeypatch.setattr(sla, getter, counting(getattr(sla, getter)))
        split = solver._split(problem, wsld_scheme(4, 1.5))
        implicit = solver._Gmres(*(counted(name, f) for name, f in zip(
            ["operator", "precondition", "matvec"], split)), split[3], 201)
        monkeypatch.setattr(np.fft, "rfft", counted("rfft", np.fft.rfft))
        monkeypatch.setattr(np.fft, "irfft", counted("irfft", np.fft.irfft))
        residual = np.random.default_rng(3).standard_normal(201)
        beta = float(np.linalg.norm(residual))
        _, _, taken = implicit._cycle(np.zeros(201), residual, beta, 0.0, 3)
        assert taken == 3
        assert calls == {"gbtrs": taken + 1, "gbmv": 0, "rfft": taken,
                         "irfft": inverse_ffts * taken, "operator": taken,
                         "precondition": 1, "matvec": 0}

    def test_zero_phase_then_forcing_agrees_with_the_dense_solve(self, monkeypatch):
        # until t = 0.5 every right side and W are zero, so each image is zero
        # and adds no pair to the store; then the forcing switches on
        base = table2_problem(1.5, nx=1280, nt=20)
        forcing = base.source

        def source(x, t):
            return forcing(x, t) if t > 0.5 else np.zeros_like(x)

        problem = replace(base, source=source, initial=np.zeros_like)
        scheme = wsld_scheme(4, 1.5)
        _force_path(monkeypatch, "getrs")
        dense = cn_solve(problem, scheme).u
        _force_path(monkeypatch, "matrix-free")
        u = cn_solve(problem, scheme).u
        assert np.all(np.isfinite(u)) and np.abs(dense).max() > 0
        assert np.abs(u - dense).max() <= 1e-10 * np.abs(dense).max()

    def test_only_converged_solves_are_stored(self, monkeypatch):
        problem = table2_problem(1.5, nx=200, nt=4)
        implicit = _gmres(problem, wsld_scheme(4, 1.5))
        rng = np.random.default_rng(5)
        rhs = rng.standard_normal(201)
        w = implicit.solve(rhs, np.zeros(201), 1)
        # count the steps' pairs: a first cycle of more than _RITZ
        # iterations also seeds the store with Ritz pairs
        assert implicit._stored - implicit._ritz == 1
        bad = rhs.copy()
        bad[7] = np.nan
        assert not np.all(np.isfinite(implicit.solve(bad, w, 2)))
        with monkeypatch.context() as patch:
            patch.setattr(solver, "_MAX_ITERATIONS", 0)
            with pytest.raises(RuntimeError, match="did not converge at step 3"):
                implicit.solve(rng.standard_normal(201), w, 3)
        assert implicit._stored - implicit._ritz == 1
        again = implicit.solve(2.0 * rhs, w, 4)
        np.testing.assert_allclose(again, 2.0 * w, rtol=0, atol=1e-10 * np.abs(w).max())

    def test_right_side_in_the_span_of_stored_images_takes_no_iteration(
            self, monkeypatch):
        # three random right sides have far-apart images, so R is well
        # conditioned and the lift of a combination of the stored images
        # maps onto it to about eps ||M-|| ||W||, the rounding of a mat-vec;
        # c = tau/(2 h^alpha) = 1.25 keeps that below the target
        problem = table2_problem(1.5, nx=200, nt=400)
        implicit = _gmres(problem, wsld_scheme(4, 1.5))
        rng = np.random.default_rng(13)
        w = np.zeros(201)
        for step in range(1, 4):
            w = implicit.solve(rng.standard_normal(201), w, step)
        assert implicit._stored == 3
        taken = []
        cycle = implicit._cycle

        def counted(*args):
            result = cycle(*args)
            taken.append(result[2])
            return result

        monkeypatch.setattr(implicit, "_cycle", counted)
        rhs = np.array([0.7, -1.3, 0.2]) @ implicit._images[:3]
        w = implicit.solve(rhs, w, 4)
        assert taken == []
        m_lhs = assemble_cn_system(problem, wsld_scheme(4, 1.5)).m_lhs
        assert np.linalg.norm(rhs - m_lhs @ w) <= solver._GMRES_TOL * np.linalg.norm(rhs)

    def test_cycle_lifts_a_residual_in_the_span_of_stored_images(self):
        # the cycle's projection leaves nothing outside span Q, so it takes
        # no Arnoldi step and returns w plus the lift of the projection
        problem = table2_problem(1.5, nx=200, nt=400)
        implicit = _gmres(problem, wsld_scheme(4, 1.5))
        rng = np.random.default_rng(13)
        w = np.zeros(201)
        for step in range(1, 4):
            w = implicit.solve(rng.standard_normal(201), w, step)
        residual = np.array([0.7, -1.3, 0.2]) @ implicit._images[:3]
        update, estimate, taken = implicit._cycle(w, residual, 1.0, 1e-12, 10)
        assert taken == 0 and estimate <= 1e-12
        m_lhs = assemble_cn_system(problem, wsld_scheme(4, 1.5)).m_lhs
        np.testing.assert_allclose(m_lhs @ (update - w), residual, rtol=0, atol=1e-13)

    def test_projected_guess_is_no_worse_than_the_warm_start(self, monkeypatch):
        # each step's first mat-vec is on the guess; the warm start is the
        # last step's W, which cn_solve passes in
        problem = table2_problem(1.5, nx=1280, nt=20)
        scheme = wsld_scheme(4, 1.5)
        operator, precondition, matvec, norm = solver._split(problem, scheme)
        products, residuals = [], []

        def spy_matvec(w):
            products.append(matvec(w))
            return products[-1]

        implicit = solver._Gmres(operator, precondition, spy_matvec, norm, 1281)
        monkeypatch.setattr(solver, "_Gmres", lambda *args: implicit)
        _force_path(monkeypatch, "matrix-free")
        solve = implicit.solve

        def spy_solve(rhs, w, step):
            warm = np.linalg.norm(rhs - matvec(w))
            products.clear()
            result = solve(rhs, w, step)
            residuals.append((np.linalg.norm(rhs - products[0]), warm))
            return result

        implicit.solve = spy_solve
        cn_solve(problem, scheme)
        assert len(residuals) == 20
        assert residuals[0][0] == residuals[0][1]  # nothing stored yet
        for guess, warm in residuals[1:]:
            assert guess <= warm

    def test_projected_start_halves_the_iterations(self, monkeypatch):
        # a start from the last step's W alone took 432 iterations here to a
        # target of 1e-12 ||rhs||, and 470 to the present 1e-13
        _force_path(monkeypatch, "matrix-free")
        taken = []
        cycle = solver._Gmres._cycle

        def counted(self, *args):
            result = cycle(self, *args)
            taken.append(result[2])
            return result

        monkeypatch.setattr(solver._Gmres, "_cycle", counted)
        cn_solve(table2_problem(1.5, nx=1280, nt=40), wsld_scheme(4, 1.5))
        assert sum(taken) <= 432 // 2

    def test_recycling_pins_the_iteration_count(self, monkeypatch):
        # the large-grid shape: GMRES with the projected start alone took
        # 86 + 247 + 246 = 579 iterations; recycling the store in every
        # cycle, seeded with harmonic Ritz pairs, takes 60 + 111 + 94 = 265
        taken = []
        cycle = solver._Gmres._cycle

        def counted(self, *args):
            result = cycle(self, *args)
            taken.append(result[2])
            return result

        monkeypatch.setattr(solver._Gmres, "_cycle", counted)
        for alpha in (1.1, 1.5, 1.9):
            scheme = wsld_scheme(4, alpha)
            assert solver._step_path(2561, 20, scheme) == "matrix-free"
            cn_solve(table2_problem(alpha, nx=2560, nt=20), scheme)
        assert sum(taken) <= 320

    @pytest.mark.parametrize("alpha", [1.1, 1.6, 1.9])
    def test_lift_maps_onto_the_projection_of_each_right_side(self, monkeypatch, alpha):
        # M- lift(a) = Q a holds only as well as R^-1 a is bounded: for
        # a = e_k, pair by pair, the error grows past 1 at nx = 2560, but for
        # the projection a = Q^T r of each step's right side r it stays
        # below 1e-9 ||r|| (7.5e-10 at alpha = 1.9)
        problem = table2_problem(alpha, nx=2560, nt=20)
        scheme = wsld_scheme(4, alpha)
        split = solver._split(problem, scheme)
        implicit = solver._Gmres(*split, 2561)
        monkeypatch.setattr(solver, "_Gmres", lambda *args: implicit)
        _force_path(monkeypatch, "matrix-free")
        solve, errors, matvec = implicit.solve, [], split[2]

        def spy_solve(rhs, w, step):
            k = implicit._stored
            if k:
                projection = implicit._images[:k] @ rhs
                image = matvec(implicit._lift(projection))
                errors.append(np.linalg.norm(image - projection @ implicit._images[:k])
                              / np.linalg.norm(rhs))
            return solve(rhs, w, step)

        implicit.solve = spy_solve
        cn_solve(problem, scheme)
        assert len(errors) == 19 and implicit._ritz == solver._RITZ
        assert max(errors) <= 1e-9

    def test_one_step_is_plain_gmres_bitwise(self, monkeypatch):
        # nothing is stored before the run's first cycle, so a one-step run
        # (29 iterations in one cycle) is that of GMRES without recycling
        problem = table2_problem(1.5, nx=2560, nt=1)
        scheme = wsld_scheme(4, 1.5)
        _force_path(monkeypatch, "matrix-free")
        u = cn_solve(problem, scheme).u
        monkeypatch.setattr(solver._Gmres, "_cycle", _plain_gmres_cycle)
        np.testing.assert_array_equal(u, cn_solve(problem, scheme).u)

    @pytest.mark.parametrize("nx,nt,failing,ritz", [
        (1280, 20, None, solver._RITZ), (1280, 20, "solve", 0), (1280, 20, "eig", 0),
        (200, 400, None, 0)], ids=["seeded", "solve-fails", "eig-fails", "short-cycle"])
    def test_first_cycle_seeds_the_ritz_pairs_or_nothing(self, monkeypatch, nx, nt,
                                                          failing, ritz):
        # a first cycle of 14 iterations seeds _RITZ pairs; one of 4 (c = 1.25
        # at nx = 200) seeds none, nor does one whose eigenproblem cannot be
        # set up or solved, and the run is then GMRES from the projected start
        problem = table2_problem(1.5, nx=nx, nt=nt)
        scheme = wsld_scheme(4, 1.5)
        _force_path(monkeypatch, "getrs")
        dense = cn_solve(problem, scheme).u
        implicit = _gmres(problem, scheme)
        monkeypatch.setattr(solver, "_Gmres", lambda *args: implicit)
        _force_path(monkeypatch, "matrix-free")
        if failing is not None:
            def fail(*args, **kwargs):
                raise np.linalg.LinAlgError("patched")

            monkeypatch.setattr(np.linalg, failing, fail)
        u = cn_solve(problem, scheme).u
        assert implicit._ritz == ritz and implicit._stored > ritz
        assert np.abs(u - dense).max() <= 1e-10 * np.abs(dense).max()

    def test_breakdown_in_the_first_cycle_seeds_nothing(self):
        # M acts on the first ten unknowns as a cyclic shift (and P = I), so
        # from e_0 Arnoldi meets an exact breakdown, h_{11,10} = 0, after 10
        # iterations, more than _RITZ, with the exact solution e_9
        def shift(v):
            out = v.copy()
            out[:10] = np.roll(v[:10], 1)
            return out

        # a permutation: ||M||_2 = 1
        implicit = solver._Gmres(shift, np.copy, shift, 1.0, 201)
        rhs = np.zeros(201)
        rhs[0] = 1.0
        w = implicit.solve(rhs, np.zeros(201), 1)
        assert implicit._ritz == 0 and implicit._stored == 1
        np.testing.assert_allclose(w, np.roll(rhs, 9), rtol=0, atol=1e-15)

    def test_agrees_with_the_dense_solve_for_a_shift_past_the_band(self, monkeypatch):
        # m = 40 > 32: the band widens to m, keeping phi_0.. out of the far field
        problem = table2_problem(1.5, nx=200, nt=4)
        scheme = wsld_scheme(3, 1.5, shifts=40)
        assert _split_band(monkeypatch, problem, scheme)[0] == scheme.m
        _force_path(monkeypatch, "getrs")
        dense = cn_solve(problem, scheme).u
        _force_path(monkeypatch, "matrix-free")
        u = cn_solve(problem, scheme).u
        assert np.abs(u - dense).max() <= 1e-10 * np.abs(dense).max()

    @pytest.mark.parametrize("nx", [40, 200])
    def test_band_is_bitwise_the_dense_matrix(self, monkeypatch, nx):
        problem = DiffusionProblem(
            alpha=1.3, grid=Grid1D(0.0, 2.0, nx),
            d_plus=lambda x: x ** 1.3, d_minus=lambda x: 1.5 + np.cos(3 * x),
            source=lambda x, t: np.zeros_like(x),
            initial=lambda x: x * (2.0 - x), horizon=0.5, nt=20)
        scheme = wsld_scheme(4, 1.3)
        width, near = _split_band(monkeypatch, problem, scheme)
        m_lhs = assemble_cn_system(problem, scheme).m_lhs
        assert width == min(max(solver._BAND, scheme.m), nx // 2)
        for offset in range(-width, width + 1):  # offset = i - j
            stored = near[width + offset]
            columns = slice(max(0, -offset), nx + 1 - max(0, offset))
            np.testing.assert_array_equal(stored[columns], np.diagonal(m_lhs, -offset))
            assert not stored[:columns.start].any() and not stored[columns.stop:].any()

    def test_iteration_cap_raises_naming_the_step(self, monkeypatch):
        _force_path(monkeypatch, "matrix-free")
        monkeypatch.setattr(solver, "_MAX_ITERATIONS", 1)
        with pytest.raises(RuntimeError, match=r"at step 1: 1 iterations"):
            cn_solve(table2_problem(1.5, nx=200, nt=4), wsld_scheme(4, 1.5))

    def test_true_residual_is_checked(self, monkeypatch):
        # a cycle that claims convergence without moving W fails the check
        _force_path(monkeypatch, "matrix-free")
        monkeypatch.setattr(solver._Gmres, "_cycle",
                            lambda self, w, *args: (w, 0.0, 1))
        with pytest.raises(RuntimeError, match=r"failed at step 1: after 1 "
                                               r"iterations the true residual"):
            cn_solve(table2_problem(1.5, nx=200, nt=4), wsld_scheme(4, 1.5))


class TestGmres:
    def test_solves_a_dense_run_apart_from_the_split(self):
        # numpy callables alone: a dense nonsymmetric M (condition number
        # about 10) under the Jacobi preconditioner; every solve takes one
        # cycle of 15 iterations, the first of which seeds the Ritz pairs
        rng = np.random.default_rng(29)
        size = 200
        diagonal = rng.uniform(1.0, 10.0, size)
        matrix = np.diag(diagonal) + 0.5 * rng.standard_normal((size, size)) / np.sqrt(size)
        assert not np.array_equal(matrix, matrix.T)

        def precondition(v):
            return (v.T / diagonal).T

        # ||M||_2 <= sqrt(||M||_1 ||M||_inf)
        norm = max(np.linalg.norm(matrix, 1), np.linalg.norm(matrix, np.inf))
        implicit = solver._Gmres(lambda v: matrix @ precondition(v), precondition,
                                 matrix.__matmul__, norm, size)
        w, stored, ritz = np.zeros(size), [], []
        for step in range(1, 41):
            rhs = rng.standard_normal(size)
            w = implicit.solve(rhs, w, step)
            exact = np.linalg.solve(matrix, rhs)
            floor = solver._RESIDUAL_FLOOR * np.finfo(float).eps * norm * np.linalg.norm(w)
            assert (np.linalg.norm(matrix @ (w - exact))
                    <= solver._GMRES_TOL * np.linalg.norm(rhs) + floor)
            stored.append(implicit._stored)
            ritz.append(implicit._ritz)
        # the first solve seeds the Ritz pairs and adds its own pair; the
        # steps' pairs fill the store at step 20 and restart at step 21
        assert ritz == [solver._RITZ] * 40
        assert stored[0] == solver._RITZ + 1 and max(stored) == solver._STORE
        assert stored[19] == solver._STORE and stored[20] == solver._RITZ + 1


class TestStabilityProbe:
    def test_default_tuple_bounded_at_aggressive_steps(self):
        problem = table2_problem(1.5, nx=80)
        scheme = wsld_scheme(4, 1.5)
        for ratio in (1.0, 10.0):
            probe = stability_probe(problem, scheme, tau_over_h=ratio, n_steps=200)
            assert probe.bounded
            assert probe.sup_norm <= 10.0  # exact solution scale is 1

    def test_unshifted_operator_blows_up(self):
        problem = table2_problem(1.5, nx=80)
        scheme = wsld_scheme(4, 1.5, shifts=0)
        probe = stability_probe(problem, scheme, tau_over_h=10.0, n_steps=400)
        assert not probe.bounded
        # the probe reports the step at which the run blew up
        assert 0 < probe.steps_completed < 400
        assert probe.sup_norm > BLOWUP_THRESHOLD

    def test_blowup_error_carries_step_time_and_norm(self):
        problem = table2_problem(1.5, nx=80, nt=400)
        problem.horizon = 400 * 10.0 * problem.grid.h
        with pytest.raises(InstabilityError, match="instability detected") as info:
            cn_solve(problem, wsld_scheme(4, 1.5, shifts=0))
        err = info.value
        assert isinstance(err, RuntimeError)
        assert 0 < err.step < 400
        assert err.t == pytest.approx(err.step * problem.tau)
        assert err.sup_norm > BLOWUP_THRESHOLD

    @pytest.mark.parametrize("path", ["gemv", "getrs"])
    @pytest.mark.filterwarnings("error")
    def test_blowup_inside_a_block_matches_the_per_step_loop(self, monkeypatch, path):
        # the steps after the blow-up in its block are taken, quietly, and
        # change nothing the probe reports; the inverse path's norm carries
        # the rounding of its products, which the instability amplifies
        _force_path(monkeypatch, path)
        problem, scheme = table2_problem(1.5, nx=80), wsld_scheme(4, 1.5, shifts=0)
        probe = stability_probe(problem, scheme, tau_over_h=10.0, n_steps=400)
        tau = 10.0 * problem.grid.h
        with pytest.raises(InstabilityError) as info:
            _cn_per_step(replace(problem, horizon=tau * 400, nt=400), scheme, path)
        assert info.value.step % _block_rows(path, 81)  # not a block's last
        assert not probe.bounded
        assert probe.steps_completed == info.value.step
        if path == "gemv":
            assert abs(probe.sup_norm - info.value.sup_norm) <= 1e-9 * info.value.sup_norm
        else:
            assert probe.sup_norm == info.value.sup_norm

    def test_unshifted_operator_probe_on_a_large_grid_is_dense(self, monkeypatch):
        # a short probe at N = 2561 takes a dense path for a tuple other than
        # the default, where GMRES stalls, and reports a ProbeResult
        problem = table2_problem(1.5, nx=2560)
        scheme = wsld_scheme(4, 1.5, shifts=0)
        assert solver._step_path(2561, 10, scheme) == "getrs"
        assert solver._step_path(2561, 10, wsld_scheme(4, 1.5)) == "matrix-free"
        probe = stability_probe(problem, scheme, tau_over_h=1.0, n_steps=10)
        assert probe.steps_completed == 10

    def test_zero_data_trivially_bounded(self):
        problem = DiffusionProblem(
            alpha=1.5, grid=Grid1D(0.0, 2.0, 40),
            d_plus=lambda x: x ** 1.5, d_minus=lambda x: 2 * x ** 1.5,
            source=lambda x, t: np.zeros_like(x),
            initial=np.zeros_like, horizon=1.0, nt=10, kappa=2.0)
        probe = stability_probe(problem, wsld_scheme(4, 1.5), tau_over_h=100.0,
                                n_steps=50)
        assert probe.bounded
        assert probe.sup_norm == 0.0

    @pytest.mark.parametrize("ratio", [math.nan, -1.0, 0.0, math.inf, True, np.True_])
    def test_ratio_must_be_finite_and_positive(self, ratio):
        # checked before the horizon tau_over_h * h * n_steps is formed
        with pytest.raises(ValueError, match="tau_over_h must be finite and positive"):
            stability_probe(table2_problem(1.5, nx=40), wsld_scheme(4, 1.5),
                            tau_over_h=ratio)

    def test_step_count_checked_by_name(self):
        # it was passed on as nt, whose message named a field the caller never set
        problem, scheme = table2_problem(1.5, nx=40), wsld_scheme(4, 1.5)
        for n_steps in (0, 2.5, True, -3, 4.0):
            with pytest.raises(ValueError, match="n_steps must be an integer >= 1"):
                stability_probe(problem, scheme, tau_over_h=1.0, n_steps=n_steps)
        probe = stability_probe(problem, scheme, tau_over_h=1.0, n_steps=np.int64(3))
        assert probe.bounded and probe.steps_completed == 3


class TestExpressionRegistry:
    def test_known_ids(self):
        x = np.linspace(0.0, 2.0, 5)
        np.testing.assert_allclose(expression("x^alpha", 1.5)(x), x ** 1.5)
        np.testing.assert_allclose(expression("2x^alpha", 1.5)(x), 2 * x ** 1.5)
        assert expression("table2_initial", 1.5)(x)[0] == 0.0
        np.testing.assert_allclose(expression("table2_forcing", 1.5)(x, 0.0),
                                   table2_problem(1.5, nx=4).source(x, 0.0))

    def test_zero_source_broadcasts_over_times(self):
        # one row per time, so a span samples the CLI's default source once
        x, zero = np.linspace(0.0, 2.0, 5), expression("zero_source", 1.5)
        assert zero(x, np.arange(3.0)[:, None]).shape == (3, 5)
        assert zero(x, 0.5).tobytes() == np.zeros(5).tobytes()

    def test_unknown_id(self):
        with pytest.raises(KeyError, match="unknown expression"):
            expression("cubic", 1.5)
