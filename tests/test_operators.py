"""Weights, combined coefficients, matrix assembly, and FFT application."""

import itertools
import warnings

import numpy as np
import pytest
import scipy.linalg as sla

from wsld import operators
from wsld.coefficients import lubich_coeffs
from wsld.operators import (
    DEFAULT_SHIFTS,
    _half_weights,
    apply_operator,
    assemble_left,
    wsld_scheme,
)
from wsld.solver import table1_source

from oracles import reference_shift_weights


class TestWeights:
    # _half_weights(nu, alpha, t) weights the two halves of 2, 4 or 8 shifts:
    # the shifts of a pair or the products of two pairs by the two-term rule
    # (weights2 in tests/oracles.py), two quadruples by their error constants
    # (weights4 there)
    def test_weights2_examples(self):
        assert _half_weights(4, 1.5, (1, -1)) == (0.5, 0.5)
        assert _half_weights(4, 1.5, (1, 0)) == (0.0, 1.0)
        assert _half_weights(4, 1.5, (1, 2)) == (2.0, -1.0)

    def test_weights2_rejects_equal_shifts(self):
        with pytest.raises(ValueError):
            _half_weights(4, 1.5, (2, 2))

    def test_weights2_on_pair_products(self):
        # the third-order level weights two pairs by their products pq, rs
        wa, wb = _half_weights(4, 1.5, (1, -1, 1, 2))
        assert (wa, wb) == pytest.approx((2 / 3, 1 / 3))
        assert _half_weights(4, 1.5, (1, -1, 1, 3)) == pytest.approx((3 / 4, 1 / 4))
        # degenerate pq = 0 collapses onto the first pair
        assert _half_weights(4, 1.5, (1, 0, 1, 2)) == (1.0, 0.0)

    def test_weights2_rejects_equal_products(self):
        with pytest.raises(ValueError, match="shift products"):
            _half_weights(4, 1.5, (1, 2, 2, 1))
        with pytest.raises(ValueError, match="shift products"):
            wsld_scheme(3, 1.5, shifts=(1, 2, 2, 1))

    def test_weights4_nu4_alpha_independent(self):
        for alpha in (1.1, 1.5, 1.9):
            assert _half_weights(4, alpha, DEFAULT_SHIFTS) == pytest.approx((3.0, -2.0))

    def test_weights4_nu3_affine_in_alpha(self):
        # c = -(4+3a)/12 and c_bar = -(2+a)/4 give ((6+3a)/2, -(4+3a)/2)
        for alpha in (1.1, 1.5, 1.9):
            got = _half_weights(3, alpha, DEFAULT_SHIFTS)
            want = ((6 + 3 * alpha) / 2, -(4 + 3 * alpha) / 2)
            assert got == pytest.approx(want, rel=1e-14)
        assert _half_weights(3, 1.5, DEFAULT_SHIFTS) == pytest.approx((5.25, -4.25))

    def test_weights4_rejects_equal_constants(self):
        mirrored = (1, -1, 1, 2, 1, -1, 1, 2)
        with pytest.raises(ValueError):
            _half_weights(4, 1.5, mirrored)
        # both quadruples hold a zero shift, so c = c_bar = -alpha/4 for nu=3;
        # the two roundings of -alpha/4 differ at alpha = 1.07
        with pytest.raises(ValueError, match="distinct error constants"):
            _half_weights(3, 1.07, (1, 0, -2, 2, 0, 2, 3, 1))

    def test_shift_weights_bitwise_to_the_reference(self):
        # the flattened weights, or the exception, of every tuple of 1, 2 or 4
        # shifts in -3..3 and of seeded 8-tuples are those of the level-by-level
        # reference, to the last bit (repr round-trips a float)
        def outcome(fn):
            try:
                return repr(fn())
            except (ValueError, ZeroDivisionError) as exc:
                return (type(exc), str(exc))

        span = range(-3, 4)
        tuples = [t for size in (1, 2, 4) for t in itertools.product(span, repeat=size)]
        rng = np.random.default_rng(28)
        tuples += [tuple(int(v) for v in row) for row in rng.integers(-3, 4, (1000, 8))]
        tuples += [tuple(int(v) for v in row) for row in rng.integers(-7, 8, (300, 8))]
        for nu in (3, 4):
            for alpha in (1.07, 1.37, 1.5, 1.9, -0.5):
                for t in tuples:
                    got = outcome(operators.WsldScheme(nu, alpha, t).shift_weights)
                    want = outcome(lambda: reference_shift_weights(nu, alpha, t))
                    assert got == want, (nu, alpha, t)

    @pytest.mark.parametrize("shifts", [
        (1, -1), (2, -3), (1, 0),
        (1, -1, 1, 2), (1, -2, 2, 3),
        DEFAULT_SHIFTS, (1, -1, 1, 3, 1, -1, 1, 2),
    ])
    def test_partition_of_unity_everywhere(self, shifts):
        for nu in (3, 4):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # non-default tuples warn
                scheme = wsld_scheme(nu, 1.5, shifts=shifts)
            # each level partitions unity exactly
            t = scheme.shifts
            levels = [_half_weights(nu, 1.5, t[i:i + size])
                      for size in (2, 4, 8) if size <= len(t)
                      for i in range(0, len(t), size)]
            for a, b in levels:
                assert a + b == pytest.approx(1.0, abs=1e-15)
            # the flattened level products telescope to one up to round-off
            total = sum(w for w, _ in scheme.shift_weights())
            assert total == pytest.approx(1.0, abs=1e-13)

    def test_same_weights_different_matrices_across_nu(self):
        # second- and third-order weights do not depend on nu, yet the two
        # operator families produce genuinely different matrices
        s3 = wsld_scheme(3, 1.5, shifts=(1, -1, 1, 2))
        s4 = wsld_scheme(4, 1.5, shifts=(1, -1, 1, 2))
        w3 = [w for w, _ in s3.shift_weights()]
        w4 = [w for w, _ in s4.shift_weights()]
        assert w3 == pytest.approx(w4, abs=0)
        a3 = assemble_left(s3, 12)
        a4 = assemble_left(s4, 12)
        assert np.abs(a3 - a4).max() > 1e-3


class TestScheme:
    def test_m_is_max_abs_shift(self):
        assert wsld_scheme(4, 1.5).m == 3
        assert wsld_scheme(3, 1.5, shifts=(1, -1)).m == 1
        assert wsld_scheme(3, 1.5, shifts=-2).m == 2

    def test_shift_tuple_parse(self):
        # the CLI parser is the one shift parser; it takes 1, 2, 4 or 8 shifts
        import argparse

        from wsld.cli import _parse_shifts

        parsed = _parse_shifts("1,-1,1,2,1,-1,1,3")
        assert parsed == DEFAULT_SHIFTS
        assert wsld_scheme(4, 1.5, shifts=parsed).m == 3
        assert _parse_shifts(" 1, -1 ") == (1, -1)
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_shifts("1,2,3")

    def test_order_inference_and_mismatch(self):
        assert wsld_scheme(3, 1.5, shifts=(1, -1)).order == 2
        with pytest.raises(ValueError):
            wsld_scheme(3, 1.5, shifts=(1, -1, 1))

    @pytest.mark.parametrize("alpha", [np.nan, np.inf, -np.inf])
    def test_nonfinite_alpha(self, alpha):
        with pytest.raises(ValueError, match="alpha must be finite"):
            wsld_scheme(4, alpha)

    @pytest.mark.parametrize("alpha", [True, np.True_, "1.5"])
    def test_non_real_alpha_rejected(self, alpha):
        # True passed math.isfinite and ran as alpha = 1
        with pytest.raises(ValueError, match="alpha must be finite and real"):
            wsld_scheme(4, alpha)

    @pytest.mark.parametrize("nu,shifts", [
        (True, 0), (4.0, 0), (4.0, None), (np.float64(3), None)],
        ids=["True", "4.0", "4.0-default", "float64-3-default"])
    def test_non_integer_nu_rejected(self, nu, shifts):
        # a bool is not read as nu = 1, nor a float as its integer, at
        # construction whatever the order
        with pytest.raises(ValueError, match="nu must be an integer"):
            wsld_scheme(nu, 0.5, shifts=shifts)

    def test_weighted_orders_need_nu_3_or_4(self):
        with pytest.raises(ValueError):
            wsld_scheme(5, 1.5, shifts=(1, -1))
        # single shifts are fine for every nu
        assert wsld_scheme(5, 1.5, shifts=0).order == 1

    @pytest.mark.parametrize("shifts", [(1.7, 2.2), 1.5, True, (1, True),
                                        (1, -1, 1, 2.0), "12"])
    def test_non_integer_shifts_rejected(self, shifts):
        # a fraction is not truncated, and a bool is not read as shift 1
        with pytest.raises(ValueError, match="integers"):
            wsld_scheme(3, 1.5, shifts=shifts)

    def test_numpy_integer_shifts_accepted(self):
        assert wsld_scheme(3, 1.5, shifts=np.int64(-2)).shifts == (-2,)
        scheme = wsld_scheme(4, 1.5, shifts=np.array(DEFAULT_SHIFTS))
        assert scheme.shifts == DEFAULT_SHIFTS
        assert all(type(v) is int for v in scheme.shifts)

    def test_nondefault_tuple_warns(self):
        with pytest.warns(UserWarning, match="unverified"):
            wsld_scheme(4, 1.5, shifts=(1, -1, 1, 3, 1, -1, 1, 2))

    def test_default_tuple_does_not_warn(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            wsld_scheme(4, 1.5)

    def test_weight_table_partitions(self):
        # the level weights of the default tuple, and their flattened products
        t = DEFAULT_SHIFTS
        for a, b in (_half_weights(4, 1.5, t[:2]), _half_weights(4, 1.5, t[:4]),
                     _half_weights(4, 1.5, t)):
            assert a + b == pytest.approx(1.0, abs=1e-15)
        w4a, w4b = _half_weights(4, 1.5, t)
        w3a, _ = _half_weights(4, 1.5, t[:4])
        wp, wq = _half_weights(4, 1.5, t[:2])
        flat = wsld_scheme(4, 1.5).shift_weights()
        assert flat[:2] == [((w4a * w3a) * wp, t[0]), ((w4a * w3a) * wq, t[1])]


class TestPhi:
    def test_unshifted_order1_phi_is_plain_series(self):
        scheme = wsld_scheme(4, 1.5, shifts=0)
        np.testing.assert_array_equal(scheme.phi(30), lubich_coeffs(4, 1.5, 30))

    def test_phi_partial_sums_decay(self):
        scheme = wsld_scheme(4, 1.5)
        phi = scheme.phi(20_000)
        partial = np.abs(np.cumsum(phi))
        assert np.all(np.diff(partial[100:]) < 0)
        assert partial[-1] < 1e-4

    @pytest.mark.parametrize("shifts", [None, 0, 1, (1, -1), (1, -1, 1, 2)])
    def test_bitwise_equal_to_the_index_loop(self, shifts, monkeypatch):
        # phi on a fixed coefficient series, against the indexed sum of the
        # definition: phi_k += w_j l_{k + shift_j - m} wherever that index >= 0
        l = np.random.default_rng(5).standard_normal(301)
        monkeypatch.setattr(operators, "lubich_coeffs",
                            lambda nu, alpha, kmax: l[: kmax + 1].copy())
        scheme = wsld_scheme(4, 1.5, shifts=shifts)
        for kmax in (0, 1, 2, 300):
            k = np.arange(kmax + 1)
            want = np.zeros(kmax + 1)
            for w, sh in scheme.shift_weights():
                idx = k + sh - scheme.m
                valid = idx >= 0
                want[valid] += w * l[idx[valid]]
            np.testing.assert_array_equal(scheme.phi(kmax), want)

    def test_phi_matches_weighted_matrix_assembly(self):
        # combined coefficients assembled directly vs summing the weighted
        # single-shift matrices entry by entry
        n = 24
        for nu in (3, 4):
            scheme = wsld_scheme(nu, 1.5)
            direct = assemble_left(scheme, n)
            summed = np.zeros_like(direct)
            for w, shift in scheme.shift_weights():
                single = wsld_scheme(nu, 1.5, shifts=shift)
                summed += w * assemble_left(single, n)
            assert np.abs(direct - summed).max() <= 1e-12


class TestAssembly:
    def test_unshifted_matrix_is_lower_triangular(self):
        scheme = wsld_scheme(3, 1.5, shifts=0)
        a = assemble_left(scheme, 8)
        assert np.abs(np.triu(a, 1)).max() == 0.0
        np.testing.assert_allclose(np.diag(a), (11 / 6) ** 1.5, rtol=1e-15)

    def test_first_row_single_shift(self):
        scheme = wsld_scheme(3, 1.5, shifts=1)
        a = assemble_left(scheme, 4)
        l = lubich_coeffs(3, 1.5, 5)
        np.testing.assert_allclose(a[0], [l[1], l[0], 0, 0, 0], atol=0)

    def test_toeplitz_property(self):
        a = assemble_left(wsld_scheme(4, 1.3), 16)
        assert np.array_equal(a[1:, 1:], a[:-1, :-1])

    def test_right_is_transpose(self):
        # the right operator is the left matrix transposed, which is the
        # left matrix mirrored through its anti-diagonal
        left = assemble_left(wsld_scheme(4, 1.5), 14)
        np.testing.assert_array_equal(left.T, left[::-1, ::-1])

    def test_grid_too_small(self):
        with pytest.raises(ValueError, match="grid too small"):
            assemble_left(wsld_scheme(4, 1.5), 2)

    @pytest.mark.parametrize("nu, shifts", [
        (3, None), (4, None), (3, 0), (4, 0), (5, 0), (3, 1), (4, 2), (5, 1),
    ])
    def test_bitwise_equal_to_scipy_toeplitz(self, nu, shifts):
        # the oracle: first column phi_m..phi_{m+n}, first row phi_m..phi_0
        scheme = wsld_scheme(nu, 1.5, shifts=shifts)
        m = scheme.m
        for n in (2, m, 40, 511):
            if n < max(2, m):
                continue
            phi = scheme.phi(n + m)
            row = np.zeros(n + 1)
            row[: m + 1] = phi[m::-1]
            a = assemble_left(scheme, n)
            assert a.dtype == np.float64 and a.flags.c_contiguous
            assert np.array_equal(a, sla.toeplitz(phi[m : m + n + 1], row))


class TestApplication:
    def test_zero_input(self):
        scheme = wsld_scheme(4, 1.5)
        out = apply_operator(np.zeros(21), scheme, 0.05)
        assert np.abs(out).max() == 0.0

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_matches_matrix_product(self, side):
        rng = np.random.default_rng(7)
        u = rng.standard_normal(51)
        h = 1.0 / 50
        for nu in (3, 4):
            scheme = wsld_scheme(nu, 1.5)
            a = assemble_left(scheme, 50)
            if side == "right":
                a = a.T
            direct = apply_operator(u, scheme, h, side=side)
            via_matrix = h ** (-1.5) * (a @ u)
            scale = np.abs(u).max()
            assert np.abs(direct - via_matrix).max() <= 1e-13 * max(1.0, scale) * h ** -1.5

    def test_right_convolution_form(self):
        # right operator as an explicit mirrored convolution sum
        scheme = wsld_scheme(3, 1.4)
        n, h, m = 30, 1.0 / 30, scheme.m
        u = np.linspace(0, 1, n + 1) ** 3
        phi = scheme.phi(n + m)
        expected = np.zeros(n + 1)
        for i in range(n + 1):
            acc = 0.0
            for k in range(n - i + m + 1):
                j = i + k - m
                if 0 <= j <= n:
                    acc += phi[k] * u[j]
            expected[i] = h ** (-1.4) * acc
        got = apply_operator(u, scheme, h, side="right")
        np.testing.assert_allclose(got, expected, atol=1e-10)

    def test_single_nonzero_shift_is_first_order(self):
        # halving h should roughly halve the error for the shifted rule
        errors = []
        for n in (64, 128, 256):
            x = np.linspace(0.0, 1.0, n + 1)
            scheme = wsld_scheme(3, 1.5, shifts=1)
            got = apply_operator(x ** 8, scheme, 1.0 / n)
            err = np.abs(got - table1_source(1.5)(x))[: n - scheme.m + 1].max()
            errors.append(err)
        rate = np.log2(errors[1] / errors[2])
        assert rate == pytest.approx(1.0, abs=0.3)

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("nu", [3, 4])
    def test_matches_direct_convolution(self, nu, side):
        # the direct sum np.convolve computes, against the FFT, on the scale
        # of the terms it sums: h^-alpha (|phi| * |u|).  The sizes up to 11
        # cross from the all-direct sum to the FFT, with phi_{n+m} peeled
        # off; at 1024, 6144 and 8192 the FFT is 2n long, 3072 -> 2048 at
        # 1024, and at 4096 and 5000 it is not
        scheme = wsld_scheme(nu, 1.7)
        m = scheme.m
        rng = np.random.default_rng(11)
        for n in (*range(m, 12), 31, 1024, 4096, 5000, 6144, 8192):
            u = rng.standard_normal(n + 1)
            h = 1.0 / n
            phi = scheme.phi(n + m)
            v = u if side == "left" else u[::-1]
            want = h ** -1.7 * np.convolve(phi, v)[m : m + n + 1]
            scale = h ** -1.7 * np.convolve(np.abs(phi), np.abs(v))[m : m + n + 1]
            if side == "right":
                want = want[::-1]
            got = apply_operator(u, scheme, h, side=side)
            assert np.abs(got - want).max() <= 1e-14 * scale.max()

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("h", [0.0, -0.1, np.inf, np.nan])
    def test_spacing_must_be_finite_and_positive(self, h, side):
        # a negative h would give complex values, and h = 0 a ZeroDivisionError
        with pytest.raises(ValueError, match="finite and positive"):
            apply_operator(np.ones(21), wsld_scheme(4, 1.5), h, side=side)

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("h", [True, np.True_])
    def test_spacing_must_not_be_a_bool(self, h, side):
        # True passed math.isfinite and read as h = 1
        with pytest.raises(ValueError, match="finite and positive"):
            apply_operator(np.ones(21), wsld_scheme(4, 1.5), h, side=side)

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_samples_must_be_real(self, side):
        # a complex u lost its imaginary part with only a ComplexWarning
        u = np.linspace(0.0, 1.0, 21) * (1.0 + 1.0j)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="u must be real"):
                apply_operator(u, wsld_scheme(4, 1.5), 0.05, side=side)

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_samples_must_be_finite(self, bad, side):
        # one bad node would otherwise spread through the FFT to every output
        u = np.linspace(0.0, 1.0, 41) ** 2
        u[30] = bad
        with pytest.raises(ValueError, match="u must be finite at every node"):
            apply_operator(u, wsld_scheme(4, 1.5), 1.0 / 40, side=side)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            apply_operator(np.zeros(1), wsld_scheme(3, 1.5), 0.1)
        with pytest.raises(ValueError):
            apply_operator(np.zeros((4, 4)), wsld_scheme(3, 1.5), 0.1)
