"""Property tests of shift weights, assembly, application, Crank-Nicolson
stability and the step-path rule over drawn schemes."""

import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from wsld.operators import apply_operator, assemble_left, wsld_scheme  # noqa: E402
from wsld import solver  # noqa: E402
from wsld.operators import DEFAULT_SHIFTS  # noqa: E402
from wsld.solver import DiffusionProblem, Grid1D, cn_solve  # noqa: E402

PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=30)

shift_tuples = st.sampled_from([1, 2, 4, 8]).flatmap(
    lambda n: st.lists(st.integers(-3, 3), min_size=n, max_size=n).map(tuple))


@st.composite
def schemes(draw):
    nu = draw(st.sampled_from([3, 4]))
    alpha = draw(st.floats(1.0, 2.0, exclude_min=True, exclude_max=True))
    shifts = draw(shift_tuples)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # non-default 8-shift tuples warn
        try:
            return wsld_scheme(nu, alpha, shifts=shifts)
        except ValueError:
            assume(False)


@PROPERTY
@given(schemes())
def test_weights_sum_to_one_and_order_follows_shift_count(scheme):
    assert sum(w for w, _ in scheme.shift_weights()) == pytest.approx(1.0, abs=1e-13)
    assert scheme.order == {1: 1, 2: 2, 4: 3, 8: 4}[len(scheme.shifts)]


@PROPERTY
@given(schemes())
def test_matrix_is_weighted_sum_of_single_shift_matrices(scheme):
    n = 12
    summed = np.zeros((n + 1, n + 1))
    for w, shift in scheme.shift_weights():
        summed += w * assemble_left(wsld_scheme(scheme.nu, scheme.alpha, shifts=shift), n)
    assert np.abs(assemble_left(scheme, n) - summed).max() <= 1e-12


@PROPERTY
@given(schemes(), st.sampled_from(["left", "right"]),
       st.integers(0, 2**32 - 1))
def test_application_matches_matrix_product(scheme, side, seed):
    u = np.random.default_rng(seed).standard_normal(31)
    h = 1.0 / 30
    a = assemble_left(scheme, 30)
    if side == "right":
        a = a.T
    direct = apply_operator(u, scheme, h, side=side)
    via_matrix = h ** (-scheme.alpha) * (a @ u)
    scale = np.abs(u).max()
    tol = 1e-13 * max(1.0, scale) * h ** -scheme.alpha
    assert np.abs(direct - via_matrix).max() <= tol


@PROPERTY
@given(st.sampled_from([3, 4]), st.integers(-3, 3), st.integers(-3, 3))
def test_clashing_pair_products_are_refused(nu, p, q):
    assume(p != q and p * q != 0)
    # (p, q, q, p) passes the pair checks, but both pairs multiply to pq
    with pytest.raises(ValueError, match="distinct shifts or shift products"):
        wsld_scheme(nu, 1.5, shifts=(p, q, q, p))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(ValueError, match="distinct shifts or shift products"):
            wsld_scheme(nu, 1.5, shifts=(p, q, q, p, 1, -1, 1, 3))


@PROPERTY
@given(st.sampled_from([3, 4]),
       st.floats(1.01, 1.99),
       st.one_of(st.just(0.0), st.floats(0.0, 4.0)),
       st.floats(0.1, 300.0),
       st.integers(8, 64))
def test_crank_nicolson_sup_norm_stays_bounded(nu, alpha, kappa, tau_over_h, nx):
    # the default tuple with d_minus = kappa * d_plus is unconditionally stable
    grid = Grid1D(0.0, 2.0, nx)
    nt = 50
    problem = DiffusionProblem(
        alpha=alpha, grid=grid,
        d_plus=lambda x: x ** alpha, d_minus=lambda x: kappa * x ** alpha,
        source=lambda x, t: np.zeros_like(x),
        initial=lambda x: x ** 2 * (2.0 - x) ** 2 * np.cos(3 * x),
        horizon=nt * tau_over_h * grid.h, nt=nt, kappa=kappa)
    u0 = problem.initial(grid.nodes())
    result = cn_solve(problem, wsld_scheme(nu, alpha))
    assert result.sup_norm <= 2.0 * np.abs(u0).max()


# the rule reads nothing but integers, so many cheap examples, drawn on a
# log scale to reach both sides of every constant
RULE = settings(PROPERTY, max_examples=200)


def log_uniform(low, high):
    """Integers in ``[2^low, 2^(high + 1)]``, about uniform in their log."""
    return st.integers(low, high).flatmap(lambda k: st.integers(2 ** k, 2 ** (k + 1)))


sizes = log_uniform(2, 20)
step_counts = log_uniform(0, 26)


@RULE
@given(sizes, sizes, step_counts)
def test_matrix_free_is_monotone_in_size(size, other, nt):
    # at a fixed step count, a larger grid never leaves the matrix-free path
    small, large = sorted((size, other))
    scheme = wsld_scheme(4, 1.5)
    if solver._step_path(small, nt, scheme) == "matrix-free":
        assert solver._step_path(large, nt, scheme) == "matrix-free"


@RULE
@given(st.one_of(st.sampled_from([3, 4]).map(lambda nu: wsld_scheme(nu, 1.5)),
                schemes()), sizes, step_counts)
def test_step_path_keeps_its_bounds(scheme, size, nt):
    # no inverse, and its four N x N arrays, past the dense cap; no GMRES
    # for an operator without the default tuple's stability
    path = solver._step_path(size, nt, scheme)
    assert path in ("getrs", "gemv", "matrix-free")
    if size > solver._DENSE_MAX_SIZE:
        assert path != "gemv"
    if scheme.shifts != DEFAULT_SHIFTS:
        assert path != "matrix-free"
