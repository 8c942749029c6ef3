"""Convolution coefficients of the Lubich fractional backward-difference family.

The order-``nu`` Lubich approximation of an ``alpha``-th Riemann-Liouville
derivative (``alpha > 0``) or integral (``alpha < 0``) uses the power-series
coefficients ``l_k`` of

    delta^alpha(z) = (sum_{i=1..nu} (1/i) (1-z)^i)^alpha,

i.e. the ``alpha``-th power of the ``nu``-step backward-difference generating
polynomial.  :func:`lubich_coeffs` computes them on one path.  It factors
``delta^alpha = (1-z)^alpha R(z)^alpha`` with ``R`` the
:func:`residual_polynomial`: the Grunwald series of ``(1-z)^alpha`` is one
cumulative product, and is the whole result for nu = 1 (``R = 1``), so
``lubich_coeffs(1, alpha, K)`` is the Grunwald series.  The series of
``R^alpha`` comes from the J.C.P. Miller recurrence on ``R``.  It decays
like ``rho^k``, with ``rho`` the largest reciprocal root of ``R``: 1/3,
0.426, 0.561 and 0.709 for nu = 2..5.  So its terms up to index 200 carry it
(``0.709^200 < 1e-29``), and one direct convolution of that prefix with the
Grunwald series gives ``l_0..l_K`` in O(200 K) work, real arithmetic
throughout.  Against a 40-digit Miller recurrence on the whole polynomial it
keeps every coefficient to about 2e-14 relative for nu <= 4 and 1e-12 for
nu = 5, over a thousand terms.

The independent cross-check, which shares no recurrence with this path,
lives in the test suite (``tests/oracles.py``): binomial series convolved
over a closed-form factorization of the polynomial into its complex roots
(Shengjin's formulas for the cubic factor, Ferrari's resolvent for the
quartic).  For K <= 64 and ``alpha`` in [-0.5, 1.9] the two agree to
2.1e-14 absolute (largest at nu = 5); the tests hold them to 1e-10.
"""

from __future__ import annotations

import functools
import math
import numbers
from fractions import Fraction

import numpy as np

__all__ = [
    "generating_polynomial",
    "residual_polynomial",
    "lubich_coeffs",
]

#: Supported generating-polynomial orders.
NU_RANGE = (1, 2, 3, 4, 5)

#: Index of the last kept term of the ``R(z)^alpha`` series in
#: :func:`lubich_coeffs`; ``0.709^200 < 1e-29`` at nu = 5.
_RESIDUAL_TERMS = 200


def _check_nu(nu: int) -> None:
    if not _is_integer(nu) or nu not in NU_RANGE:
        raise ValueError(f"nu must be an integer in 1..5, got {nu!r}")


def _check_alpha(alpha: float) -> None:
    if not (_is_real(alpha) and math.isfinite(alpha)):
        raise ValueError(f"alpha must be finite and real, got {alpha!r}")


def _is_integer(value) -> bool:
    """An integer, numpy's included, but not a bool (JSON ``true`` is no integer)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """A real number, numpy's included, but not a bool (``numpy.bool_`` is no number)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def generating_polynomial(nu: int) -> tuple[Fraction, ...]:
    """Exact rational coefficients ``p_0..p_nu`` of ``sum_{i=1..nu} (1-z)^i / i``.

    The constant term is the harmonic number ``H_nu`` (3/2, 11/6, 25/12,
    137/60 for nu = 2..5) and ``z = 1`` is always a root.
    """
    _check_nu(nu)
    return _polynomials(int(nu))[0]


def residual_polynomial(nu: int) -> tuple[Fraction, ...]:
    """Exact coefficients of ``generating_polynomial(nu)`` divided by ``(1 - z)``.

    The quotient evaluates to 1 at ``z = 1``, which normalizes the Fourier
    symbol of the operator (see :mod:`wsld.spectral`).
    """
    _check_nu(nu)
    return _polynomials(int(nu))[1]


@functools.cache
def _polynomials(nu: int) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """The generating and residual polynomials of a checked ``nu``, once each.

    The check stays outside the cache: ``3.0`` and ``numpy.int64(3)`` are
    equal keys, so a cached call could not tell them apart.
    """
    p = [Fraction(0)] * (nu + 1)
    for i in range(1, nu + 1):
        lead = Fraction(1, i)
        for k in range(i + 1):
            p[k] += lead * math.comb(i, k) * (-1) ** k
    r = [Fraction(0)] * nu
    r[0] = p[0]
    for k in range(1, nu):
        r[k] = p[k] + r[k - 1]
    if p[nu] != -r[nu - 1]:
        raise AssertionError("(1 - z) does not divide the generating polynomial")
    return tuple(p), tuple(r)


def _miller(poly: tuple[Fraction, ...], alpha: float, kmax: int) -> np.ndarray:
    """Coefficients ``g_0..g_kmax`` of ``P^alpha`` by the J.C.P. Miller recurrence.

    For ``P = sum p_j z^j`` the identity ``g' P = alpha P' g`` yields

        k p_0 g_k = sum_{j=1..min(k,deg P)} ((alpha+1) j - k) p_j g_{k-j},

    seeded with ``g_0 = p_0^alpha``.
    """
    p = [float(c) for c in poly]
    g = [p[0] ** alpha]
    for k in range(1, kmax + 1):
        acc = 0.0
        for j in range(1, min(k, len(p) - 1) + 1):
            acc += ((alpha + 1.0) * j - k) * p[j] * g[k - j]
        g.append(acc / (k * p[0]))
    return np.array(g)


def lubich_coeffs(nu: int, alpha: float, kmax: int) -> np.ndarray:
    """Coefficients ``l_0..l_kmax`` of ``delta^alpha = (1-z)^alpha R(z)^alpha``.

    The first stage is the Grunwald series of ``(1-z)^alpha``, which is the
    whole result for nu = 1: the recurrence
    ``g_k = (1 - (alpha+1)/k) g_{k-1}`` with ``g_0 = 1``, run as one in-place
    cumulative product of its factors (the signed binomial coefficients
    ``(-1)^k C(alpha, k)``).  For nu >= 2 it is convolved with the
    geometrically decaying ``R^alpha`` series up to index 200 (see the
    module docstring).  The convolution is direct, not by FFT, so the
    ``k^(-alpha-1)`` tail keeps its relative accuracy.

    Parameters
    ----------
    nu : int
        Generating-polynomial order, 1..5.
    alpha : float
        Derivative order (finite; negative values give the coefficients of
        the fractional-integral rule).
    kmax : int
        Highest retained index, an integer >= 0 (numpy's included, not a
        bool); the result has ``kmax + 1`` entries.
    """
    _check_nu(nu)
    _check_alpha(alpha)
    if not _is_integer(kmax) or kmax < 0:
        raise ValueError(f"kmax must be an integer >= 0, got {kmax!r}")
    grunwald = np.arange(kmax + 1, dtype=float)
    factors = grunwald[1:]
    np.divide(alpha + 1.0, factors, out=factors)
    np.subtract(1.0, factors, out=factors)
    grunwald[0] = 1.0
    np.cumprod(grunwald, out=grunwald)
    if nu == 1:
        return grunwald
    residual = _miller(residual_polynomial(nu), alpha, min(kmax, _RESIDUAL_TERMS))
    return np.convolve(grunwald, residual)[: kmax + 1]
