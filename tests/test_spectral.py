"""Symbol order checks, generating functions, scans, and eigenvalue probes."""

import tracemalloc

import numpy as np
import pytest

from wsld.coefficients import lubich_coeffs, residual_polynomial
from wsld.operators import assemble_left, wsld_scheme
from wsld.spectral import (
    EIGEN_MAX_DIM,
    ScanReport,
    _genfn_rows,
    default_alpha_grid,
    definiteness_scan,
    default_x_grid,
    eigen_probe,
    scheme_symmetric_genfn,
    symbol_deviation,
    symbol_order_slope,
)


def _genfn_unfactored(scheme, x):
    """Reference generating function: every factor evaluated at one alpha."""
    x = np.abs(np.asarray(x, dtype=float))
    r = np.polyval([float(c) for c in residual_polynomial(scheme.nu)][::-1],
                   np.exp(1j * x))
    alpha = scheme.alpha
    phase = alpha * (x / 2.0 - np.pi / 2.0 + np.angle(r))
    total = np.zeros_like(x)
    for w, shift in scheme.shift_weights():
        total += w * np.cos(phase - shift * x)
    return (2.0 * np.sin(x / 2.0)) ** alpha * np.abs(r) ** alpha * total


def _probe_via_full_h(a):
    """Reference probe: blocks cut from the full symmetric part ``H``."""
    n = a.shape[0]
    h = 0.5 * (a + a.T)
    k = n // 2
    h11, h12j = h[:k, :k], h[:k, n - k:][:, ::-1]
    even = np.empty((n - k, n - k))
    even[:k, :k] = h11 + h12j
    if n % 2:
        even[k, :k] = even[:k, k] = np.sqrt(2.0) * h[:k, k]
        even[k, k] = h[k, k]
    spectra = [np.linalg.eigvalsh(b) for b in (even, h11 - h12j) if b.size]
    return min(ev[0] for ev in spectra), max(ev[-1] for ev in spectra)


def _probe_via_gathers(a):
    """Reference probe: both blocks gathered from ``h`` with index arrays."""
    n = a.shape[0]
    h = 0.5 * (a[:, 0] + a[0, :])
    k = n // 2
    i = np.arange(k)
    h11, h12j = h[np.abs(i[:, None] - i)], h[n - 1 - i[:, None] - i]
    even = np.empty((n - k, n - k))
    even[:k, :k] = h11 + h12j
    if n % 2:
        even[k, :k] = even[:k, k] = np.sqrt(2.0) * h[k - i]
        even[k, k] = h[0]
    spectra = [np.linalg.eigvalsh(b) for b in (even, h11 - h12j) if b.size]
    return min(ev[0] for ev in spectra), max(ev[-1] for ev in spectra)


class TestSymbol:
    def test_deviation_rejects_zero(self):
        with pytest.raises(ValueError):
            symbol_deviation(3, 1.5, 0, 0.0)

    @pytest.mark.parametrize("nu", [3, 4, 5])
    @pytest.mark.parametrize("alpha", [1.1, 1.5, 1.8])
    def test_unshifted_slope_is_nu(self, nu, alpha):
        slope = symbol_order_slope(nu, alpha, 0)
        assert slope == pytest.approx(nu, abs=0.2)

    @pytest.mark.parametrize("nu", [3, 4, 5])
    def test_shifted_slope_is_one(self, nu):
        assert symbol_order_slope(nu, 1.5, 1) == pytest.approx(1.0, abs=0.2)

    def test_nu4_unshifted_fourth_order_bound(self):
        # |W(-it) - 1| / t^4 stays bounded along a refinement sequence
        t = np.array([0.2, 0.1, 0.05, 0.025])
        dev = np.abs(symbol_deviation(4, 1.5, 0, -1j * t))
        ratio = dev / t ** 4
        assert ratio.max() / ratio.min() < 2.0

    def test_cubic_error_coefficient_nu3(self):
        # shifted nu=3 symbol: W = 1 + z + z^2/2 + (2 - 3*alpha)/12 z^3 + ...
        alpha = 1.5
        t = np.array([0.2, 0.1, 0.05, 0.025])
        z = -1j * t
        est = (symbol_deviation(3, alpha, 1, z) - (z + z ** 2 / 2)) / z ** 3
        richardson = 2 * est[1:] - est[:-1]
        target = (2 - 3 * alpha) / 12
        assert richardson[-1].real == pytest.approx(target, abs=5e-4)
        assert abs(richardson[-1].imag) < 5e-4


class TestGeneratingFunctions:
    def test_zero_at_origin(self):
        for nu in (3, 4):
            pair = wsld_scheme(nu, 1.5, shifts=(1, -1))
            assert scheme_symmetric_genfn(pair, 0.0) == pytest.approx(0.0, abs=1e-14)
            combined = wsld_scheme(nu, 1.5)
            assert scheme_symmetric_genfn(combined, 0.0) == pytest.approx(0.0, abs=1e-13)

    def test_even_in_x(self):
        x = np.linspace(0.1, np.pi, 40)
        for nu in (3, 4):
            pair = wsld_scheme(nu, 1.7, shifts=(1, 2))
            np.testing.assert_allclose(scheme_symmetric_genfn(pair, x),
                                       scheme_symmetric_genfn(pair, -x), rtol=1e-13)

    def test_only_nu_3_and_4(self):
        # weighted schemes, and so their generating functions, need nu in {3, 4}
        with pytest.raises(ValueError):
            definiteness_scan(5, shifts=(1, -1), alpha_grid=np.array([1.5]))

    @pytest.mark.parametrize("nu,alpha,q,x", [
        (4, 1.5, -1, np.pi / 2),
        (3, 1.3, 2, 1.0),
        (4, 1.9, 3, 2.5),
    ])
    def test_closed_form_against_series_sum(self, nu, alpha, q, x):
        # independent oracle: Fourier series of the symmetric-part diagonals,
        # phi_k = w_1 l_{k+1-m} + w_q l_{k+q-m}, truncated far out
        kmax = 10_000
        m = max(1, abs(q))
        l = lubich_coeffs(nu, alpha, kmax + m)
        wp, wq = q / (q - 1), 1 / (1 - q)
        k = np.arange(kmax + 1)
        phi = np.zeros(kmax + 1)
        for w, shift in ((wp, 1), (wq, q)):
            idx = k + shift - m
            valid = idx >= 0
            phi[valid] += w * l[idx[valid]]
        series = float(np.sum(phi * np.cos((k - m) * x)))
        scheme = wsld_scheme(nu, alpha, shifts=(1, q))
        assert scheme_symmetric_genfn(scheme, x) == pytest.approx(series, abs=1e-6)

    @pytest.mark.parametrize("shifts", [(2, -3), (1, -2, 2, 3),
                                        (1, -1, 1, 2, 1, -1, 1, 3)])
    def test_series_sum_for_any_tuple(self, shifts):
        # the same oracle on the scheme's own phi, for tuples whose pairs
        # need not lead with shift 1
        kmax, x = 10_000, 1.2
        for nu, alpha in ((3, 1.4), (4, 1.7)):
            scheme = wsld_scheme(nu, alpha, shifts=shifts)
            k = np.arange(kmax + 1)
            series = float(np.sum(scheme.phi(kmax) * np.cos((k - scheme.m) * x)))
            assert scheme_symmetric_genfn(scheme, x) == pytest.approx(series, abs=1e-6)

    @pytest.mark.parametrize("nu", [3, 4])
    def test_combined_nonpositive_on_default_tuple(self, nu):
        x = default_x_grid()
        for alpha in (1.05, 1.5, 1.95):
            assert scheme_symmetric_genfn(wsld_scheme(nu, alpha), x).max() <= 1e-12


class TestDefinitenessScan:
    @pytest.mark.parametrize("nu", [3, 4])
    def test_default_tuple_passes(self, nu):
        # coarser alpha grid here; the acceptance suite runs the full one
        report = definiteness_scan(nu, alpha_grid=np.arange(1.05, 2.0, 0.05))
        assert report.passed
        assert report.max_value <= 1e-12

    def test_unshifted_scheme_fails(self):
        report = definiteness_scan(3, shifts=0,
                                   alpha_grid=np.array([1.5]))
        assert not report.passed
        assert report.max_value > 1.0

    def test_nondefault_tuple_warns_once(self):
        alphas = np.array([1.2, 1.5, 1.8])
        with pytest.warns(UserWarning, match="unverified") as record:
            definiteness_scan(4, shifts=(1, -1, 1, 3, 1, -1, 1, 2),
                              alpha_grid=alphas, x_grid=np.linspace(0.0, np.pi, 64))
        assert len(record) == 1

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            definiteness_scan(3, alpha_grid=np.array([]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_x_grid_rejected(self, bad):
        # a NaN point made every row's maximum NaN, which never beat -inf:
        # the unstable unshifted operator (43.61 on the default grid) passed
        with pytest.raises(ValueError, match="finite"):
            definiteness_scan(3, shifts=0, x_grid=np.array([bad, 3.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_alpha_grid_rejected(self, bad):
        # a NaN alpha row was skipped without a word
        with pytest.raises(ValueError, match="finite"):
            definiteness_scan(3, shifts=0, alpha_grid=[1.5, bad])

    @pytest.mark.parametrize("nu,shifts,expected", [
        (3, None, ScanReport(-0.0, 1.01, 0.0)),
        (3, 0, ScanReport(43.60922758949591, 1.99, 3.141592653589793)),
        (4, None, ScanReport(-0.0, 1.01, 0.0)),
        (4, 0, ScanReport(111.11614350018102, 1.99, 3.141592653589793)),
    ])
    def test_rows_are_the_per_alpha_genfn_bitwise(self, nu, shifts, expected):
        # the scan shares one alpha-free basis between its rows; each row must
        # still be the one-alpha generating function, bit for bit, and the
        # reports the values the per-alpha evaluation gave
        alphas, x = default_alpha_grid(), default_x_grid()
        scheme = wsld_scheme(nu, alphas[0], shifts=shifts)
        rows = list(_genfn_rows(scheme, alphas, x))
        assert [a for a, _ in rows] == list(alphas)
        for a, values in rows:
            one = wsld_scheme(nu, a, shifts=shifts)
            np.testing.assert_array_equal(values, scheme_symmetric_genfn(one, x))
            np.testing.assert_array_equal(values, _genfn_unfactored(one, x))
        report = definiteness_scan(nu, shifts=shifts)
        assert report == expected
        assert np.signbit(report.max_value) == np.signbit(expected.max_value)

    @pytest.mark.parametrize("x", [
        default_x_grid(),
        np.array([-3.0, 2.5, -1.0, 0.0, -0.0, 1.0, -1.0, 2.5, 1e-3, np.pi]),
    ], ids=["default", "negative-repeated"])
    @pytest.mark.parametrize("shifts", [(1, -1), (1, -1, 1, 2)])
    @pytest.mark.parametrize("nu", [3, 4])
    def test_repeated_shift_rows_are_bitwise(self, nu, shifts, x):
        # a row takes one cosine per distinct shift; it must still be the
        # sum over every flattened pair of the one-alpha evaluation, and the
        # report its first maximum, sign of zero included
        alphas = default_alpha_grid()
        scheme = wsld_scheme(nu, alphas[0], shifts=shifts)
        rows = [values for _, values in _genfn_rows(scheme, alphas, x)]
        reference = np.array([_genfn_unfactored(wsld_scheme(nu, a, shifts=shifts), x)
                              for a in alphas])
        np.testing.assert_array_equal(np.array(rows), reference)
        assert np.array_equal(np.signbit(rows), np.signbit(reference))
        i, j = np.unravel_index(np.argmax(reference), reference.shape)
        report = definiteness_scan(nu, shifts=shifts, x_grid=x)
        assert report == ScanReport(reference[i, j], alphas[i], x[j])
        assert np.signbit(report.max_value) == np.signbit(reference[i, j])


class TestEigenProbe:
    def test_negative_definite_default_tuple(self):
        probe = eigen_probe(assemble_left(wsld_scheme(4, 1.5), 128))
        assert probe.lambda_max < 0

    def test_unshifted_triangular_spectrum(self):
        # lower triangular: all eigenvalues sit at the diagonal value p0^alpha
        scheme = wsld_scheme(3, 1.5, shifts=0)
        matrix = assemble_left(scheme, 64)
        diag = (11 / 6) ** 1.5
        np.testing.assert_allclose(np.diag(matrix), diag, rtol=1e-15)
        assert diag > 1.0
        eigvals = np.linalg.eigvals(matrix)
        np.testing.assert_allclose(eigvals.real, diag, rtol=1e-8)
        # the symmetric part straddles the diagonal value
        probe = eigen_probe(matrix)
        assert probe.lambda_min < diag < probe.lambda_max

    @pytest.mark.parametrize("n", [64, 128])
    @pytest.mark.parametrize("nu", [3, 4])
    def test_spectral_sandwich(self, nu, n):
        # Toeplitz symmetric-part eigenvalues live inside the range of the
        # generating function (small slack for the sampled extremes)
        alpha = 1.5
        probe = eigen_probe(assemble_left(wsld_scheme(nu, alpha), n))
        values = scheme_symmetric_genfn(wsld_scheme(nu, alpha), default_x_grid())
        eps = 1e-8
        assert probe.lambda_min >= values.min() - eps
        assert probe.lambda_max <= values.max() + eps

    @pytest.mark.parametrize("shifts", [None, 0, (1, -1)])
    @pytest.mark.parametrize("nu", [3, 4])
    def test_split_matches_full_eigensolve(self, nu, shifts):
        # leading sections of a Toeplitz matrix are Toeplitz; odd and even
        # sizes exercise the bordered and the plain even block, which are
        # bitwise those cut from the full H
        for alpha in (1.1, 1.5, 1.9):
            full = assemble_left(wsld_scheme(nu, alpha, shifts=shifts),
                                 EIGEN_MAX_DIM - 1)
            for n in (*range(1, 20), 33, 64, 65, 129, 511, 512):
                a = full[:n, :n]
                h = 0.5 * (a + a.T)
                ev = np.linalg.eigvalsh(h)
                probe = eigen_probe(a)
                assert (probe.lambda_min, probe.lambda_max) == _probe_via_full_h(a)
                tol = 1e-12 * np.abs(h).max()
                assert abs(probe.lambda_min - ev[0]) <= tol, (alpha, n)
                assert abs(probe.lambda_max - ev[-1]) <= tol, (alpha, n)
                assert (probe.lambda_max < 0) == (ev[-1] < 0), (alpha, n)

    @pytest.mark.parametrize("nu,shifts", [(4, None), (3, 0)])
    def test_views_match_gathered_blocks_bitwise(self, nu, shifts):
        # both blocks are written from strided views of h; every section
        # size must give the extremes of the index-gathered blocks, bit for bit
        full = assemble_left(wsld_scheme(nu, 1.37, shifts=shifts), EIGEN_MAX_DIM - 1)
        for n in range(1, EIGEN_MAX_DIM + 1):
            a = full[:n, :n]
            probe = eigen_probe(a)
            assert (probe.lambda_min, probe.lambda_max) == _probe_via_gathers(a), n

    def test_peak_memory_below_input(self):
        # the probe forms no index array or gathered copy: its only arrays
        # of block size are the two blocks, half the input's bytes together
        matrix = assemble_left(wsld_scheme(4, 1.5), EIGEN_MAX_DIM - 1)
        eigen_probe(matrix)
        tracemalloc.start()
        try:
            eigen_probe(matrix)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.75 * matrix.nbytes

    def test_rejects_non_toeplitz(self):
        a = np.random.default_rng(7).standard_normal((6, 6))
        with pytest.raises(ValueError, match="centrosymmetric"):
            eigen_probe(a)

    @pytest.mark.parametrize("make_matrix", [
        # a Toeplitz matrix with an inf band, and one that is NaN throughout
        lambda: assemble_left(wsld_scheme(4, 1.5), 8) + np.diag(np.full(7, np.inf), 2),
        lambda: np.full((6, 6), np.nan),
    ], ids=["toeplitz-inf", "all-nan"])
    def test_rejects_nonfinite_entries(self, make_matrix):
        with pytest.raises(ValueError, match="must be finite"):
            eigen_probe(make_matrix())

    @pytest.mark.parametrize("nu", [3, 4])
    def test_accepts_every_benchmark_matrix(self, nu):
        # the certify benchmark probes the largest section at seeded alpha in
        # (1, 2); a Toeplitz section always passes the centrosymmetry check
        for alpha in np.linspace(1.001, 1.999, 17):
            matrix = assemble_left(wsld_scheme(nu, alpha), EIGEN_MAX_DIM - 1)
            probe = eigen_probe(matrix)
            assert np.isfinite(probe.lambda_min) and probe.lambda_max < 0

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            eigen_probe(np.eye(EIGEN_MAX_DIM + 2))

    def test_requires_square(self):
        with pytest.raises(ValueError):
            eigen_probe(np.zeros((3, 4)))
        with pytest.raises(ValueError):
            eigen_probe(np.zeros((0, 0)))
