"""Coefficient generation: frozen values, exact degenerations, cross-path checks."""

import math
from fractions import Fraction

import numpy as np
import pytest

from wsld.coefficients import (
    generating_polynomial,
    residual_polynomial,
    lubich_coeffs,
)

from oracles import lubich_coeffs_oracle, root_factorization

ALPHAS = (-0.5, 0.5, 1.1, 1.5, 1.8)


class TestGeneratingPolynomial:
    def test_constant_terms_are_harmonic_numbers(self):
        expected = {1: Fraction(1), 2: Fraction(3, 2), 3: Fraction(11, 6),
                    4: Fraction(25, 12), 5: Fraction(137, 60)}
        for nu, p0 in expected.items():
            assert generating_polynomial(nu)[0] == p0

    def test_known_expansions(self):
        assert generating_polynomial(2) == (Fraction(3, 2), Fraction(-2), Fraction(1, 2))
        assert generating_polynomial(3) == (
            Fraction(11, 6), Fraction(-3), Fraction(3, 2), Fraction(-1, 3))
        assert generating_polynomial(5) == (
            Fraction(137, 60), Fraction(-5), Fraction(5), Fraction(-10, 3),
            Fraction(5, 4), Fraction(-1, 5))

    def test_one_is_a_root(self):
        for nu in range(1, 6):
            assert sum(generating_polynomial(nu)) == 0

    def test_residual_polynomial_normalized(self):
        # the quotient by (1 - z) evaluates to 1 at z = 1
        for nu in range(1, 6):
            assert sum(residual_polynomial(nu)) == 1
        assert residual_polynomial(3) == (Fraction(11, 6), Fraction(-7, 6), Fraction(1, 3))

    def test_invalid_nu(self):
        for nu in (0, 6, -1):
            with pytest.raises(ValueError):
                generating_polynomial(nu)

    @pytest.mark.parametrize("nu", [True, 3.0, np.float64(4.0), "3"])
    def test_non_integer_nu_rejected(self, nu):
        # a bool is not read as nu = 1, nor a float as its integer
        with pytest.raises(ValueError, match="nu must be an integer"):
            generating_polynomial(nu)
        with pytest.raises(ValueError, match="nu must be an integer"):
            lubich_coeffs(nu, 0.5, 4)

    def test_numpy_integer_nu_accepted(self):
        assert lubich_coeffs(np.int64(3), 0.5, 4).tobytes() == \
            lubich_coeffs(3, 0.5, 4).tobytes()

    @pytest.mark.parametrize("good,bad", [(np.int64(3), 3.0), (np.int64(1), True)])
    def test_cached_polynomials_still_check_nu(self, good, bad):
        # the polynomials are cached, and 3.0 or True is an equal key to a
        # numpy integer: a cached entry must not let it through
        assert generating_polynomial(good) == generating_polynomial(int(good))
        assert residual_polynomial(good) == residual_polynomial(int(good))
        for function in (generating_polynomial, residual_polynomial):
            with pytest.raises(ValueError, match="nu must be an integer"):
                function(bad)


class TestGrunwald:
    # nu = 1: the Grunwald series of (1-z)^alpha, the first stage of every nu
    def test_length_zero(self):
        assert lubich_coeffs(1, 1.7, 0).tolist() == [1.0]

    def test_integer_orders_terminate(self):
        np.testing.assert_allclose(lubich_coeffs(1, 1.0, 3), [1, -1, 0, 0], atol=0)
        np.testing.assert_allclose(lubich_coeffs(1, 2.0, 3), [1, -2, 1, 0], atol=0)

    def test_matches_signed_binomials(self):
        alpha = 1.5
        got = lubich_coeffs(1, alpha, 8)
        want = [(-1) ** k * math.gamma(alpha + 1)
                / (math.gamma(k + 1) * math.gamma(alpha - k + 1))
                for k in range(9)]
        np.testing.assert_allclose(got, want, rtol=1e-13)

    def test_alternating_signs_for_derivative_orders(self):
        l = lubich_coeffs(1, 1.5, 10)
        assert l[0] == 1.0
        assert l[1] == -1.5
        # beyond k = 1 all coefficients of (1-z)^alpha, alpha in (1,2), are positive
        assert np.all(l[2:] > 0)

    def test_negative_kmax(self):
        with pytest.raises(ValueError):
            lubich_coeffs(1, 1.5, -1)

    @pytest.mark.parametrize("nu", [1, 2, 4])
    def test_non_integer_kmax_rejected(self, nu):
        # 3.5 gave 5 coefficients for nu = 1 and a TypeError for nu >= 2;
        # True gave 2 entries
        for kmax in (3.5, 4.0, True, "4"):
            with pytest.raises(ValueError, match="kmax must be an integer >= 0"):
                lubich_coeffs(nu, 1.5, kmax)
        np.testing.assert_array_equal(lubich_coeffs(nu, 1.5, np.int64(4)),
                                      lubich_coeffs(nu, 1.5, 4))

    @pytest.mark.parametrize("alpha", [-0.5, 0.5, 1.1, 1.5, 1.9])
    def test_bitwise_equal_to_the_recurrence_loop(self, alpha):
        # the cumulative product multiplies the same factors in the same order
        kmax = 65536
        want = np.empty(kmax + 1)
        want[0] = 1.0
        for k in range(1, kmax + 1):
            want[k] = (1.0 - (alpha + 1.0) / k) * want[k - 1]
        np.testing.assert_array_equal(lubich_coeffs(1, alpha, kmax), want)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_nonfinite_alpha(self, alpha):
        with pytest.raises(ValueError, match="alpha must be finite"):
            lubich_coeffs(1, alpha, 4)

    @pytest.mark.parametrize("alpha", [True, np.False_])
    def test_bool_alpha_rejected(self, alpha):
        with pytest.raises(ValueError, match="alpha must be finite and real"):
            lubich_coeffs(1, alpha, 4)

    @pytest.mark.parametrize("alpha", [np.float32(0.5), np.int64(2), 1])
    def test_numpy_and_integer_alpha_accepted(self, alpha):
        np.testing.assert_array_equal(lubich_coeffs(1, alpha, 4),
                                      lubich_coeffs(1, float(alpha), 4))


class TestMillerRecurrence:
    def test_degenerates_to_polynomial_itself(self):
        np.testing.assert_allclose(lubich_coeffs(2, 1.0, 3), [1.5, -2, 0.5, 0],
                                   atol=1e-15)
        np.testing.assert_allclose(
            lubich_coeffs(3, 1.0, 5), [11 / 6, -3, 1.5, -1 / 3, 0, 0], atol=1e-14)

    def test_degenerates_to_polynomial_square(self):
        np.testing.assert_allclose(
            lubich_coeffs(2, 2.0, 4), [9 / 4, -6, 11 / 2, -2, 1 / 4], rtol=1e-14)
        # nu=4, alpha=2: exact self-convolution of the polynomial
        poly = np.array([float(c) for c in generating_polynomial(4)])
        want = np.convolve(poly, poly)
        got = lubich_coeffs(4, 2.0, 8)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-14)

    def test_leading_value_is_p0_power(self):
        got = lubich_coeffs(3, 1.5, 0)
        assert got.shape == (1,)
        assert got[0] == pytest.approx((11 / 6) ** 1.5, rel=1e-15)
        for nu in (2, 3, 4, 5):
            for alpha in (1.1, 1.5, 1.9):
                p0 = float(generating_polynomial(nu)[0])
                l0 = lubich_coeffs(nu, alpha, 0)[0]
                assert l0 == pytest.approx(p0 ** alpha, rel=1e-15)
                assert l0 > 1.0

    def test_all_finite(self):
        for nu in (2, 3, 4, 5):
            for alpha in ALPHAS:
                assert np.all(np.isfinite(lubich_coeffs(nu, alpha, 200)))

    def test_partial_sums_decay(self):
        # sum_k l_k -> 0 as K grows (the symbol vanishes at z = 1); beyond a
        # burn-in the partial sums shrink monotonically in magnitude
        for nu in (2, 3, 5):
            l = lubich_coeffs(nu, 1.5, 10_000)
            partial = np.abs(np.cumsum(l))
            tail = partial[50:]
            assert np.all(np.diff(tail) < 0)
            assert tail[-1] < 1e-4

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            lubich_coeffs(6, 1.5, 4)
        with pytest.raises(ValueError):
            lubich_coeffs(3, 1.5, -2)

    @pytest.mark.parametrize("nu", [1, 3, 5])
    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_nonfinite_alpha(self, nu, alpha):
        with pytest.raises(ValueError, match="alpha must be finite"):
            lubich_coeffs(nu, alpha, 4)


class TestRootFactorization:
    def test_cubic_factor_root_value(self):
        # rationalized closed form: 4/(7 + sqrt(39) i) = (7 - sqrt(39) i)/22
        rf = root_factorization(3)
        mu = rf.roots[0]
        assert mu.real == pytest.approx(7 / 22, abs=1e-15)
        assert mu.imag == pytest.approx(-math.sqrt(39) / 22, abs=1e-15)
        assert rf.roots[1] == mu.conjugate()
        assert rf.leading == Fraction(11, 6)

    def test_conjugate_pairing(self):
        for nu in (3, 4, 5):
            roots = list(root_factorization(nu).roots)
            for r in roots:
                if abs(r.imag) > 0:
                    assert any(abs(r.conjugate() - s) < 1e-14 for s in roots)

    @pytest.mark.parametrize("nu", [3, 4, 5])
    def test_reconstruction(self, nu):
        assert root_factorization(nu).reconstruction_error() <= 1e-12

    def test_quartic_reexpansion_values(self):
        got = root_factorization(4).polynomial()
        np.testing.assert_allclose(got.real, [25 / 12, -4, 3, -4 / 3, 1 / 4],
                                   atol=1e-12)
        assert np.abs(got.imag).max() <= 1e-12

    def test_invalid_nu(self):
        with pytest.raises(ValueError):
            root_factorization(2)


class TestOraclePath:
    def test_degenerates_to_polynomial_itself(self):
        np.testing.assert_allclose(
            lubich_coeffs_oracle(3, 1.0, 3), [11 / 6, -3, 1.5, -1 / 3], atol=1e-13)
        np.testing.assert_allclose(
            lubich_coeffs_oracle(4, 1.0, 4), [25 / 12, -4, 3, -4 / 3, 1 / 4],
            atol=1e-13)

    @pytest.mark.parametrize("nu", [2, 3, 4, 5])
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_cross_path_equivalence(self, nu, alpha):
        # the production recurrence and the root-factorization convolution
        # are independent computations of the same series
        a = lubich_coeffs(nu, alpha, 64)
        b = lubich_coeffs_oracle(nu, alpha, 64)
        assert np.abs(a - b).max() <= 1e-10

    def test_desk_scale_guard(self):
        with pytest.raises(ValueError):
            lubich_coeffs_oracle(3, 1.5, 129)

    def test_invalid_nu(self):
        with pytest.raises(ValueError):
            lubich_coeffs_oracle(1, 1.5, 8)


def _miller_mpmath(nu: int, alpha: float, kmax: int) -> np.ndarray:
    # the Miller recurrence on the whole generating polynomial, carried out
    # in 40-digit arithmetic
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        p = [mpmath.mpf(c.numerator) / c.denominator for c in generating_polynomial(nu)]
        a = mpmath.mpf(alpha)
        g = [p[0] ** a]
        for k in range(1, kmax + 1):
            acc = sum(((a + 1) * j - k) * p[j] * g[k - j]
                      for j in range(1, min(k, nu) + 1))
            g.append(acc / (k * p[0]))
        return np.array([float(v) for v in g])


class TestHighPrecisionOracle:
    @pytest.mark.parametrize("nu", [3, 4, 5])
    @pytest.mark.parametrize("alpha", [-0.5, 1.1, 1.5, 1.8, 1.9])
    def test_recurrence_matches_40_digit_recurrence(self, nu, alpha):
        # relative to each coefficient across a thousand terms; nu = 5 has
        # the largest reciprocal root of R and its worst term sits at a sign
        # change of the series (k = 13 at alpha = 1.9)
        bound = 5e-12 if nu == 5 else 1e-13
        want = _miller_mpmath(nu, alpha, 1000)
        got = lubich_coeffs(nu, alpha, 1000)
        assert np.max(np.abs(got - want) / np.abs(want)) <= bound
