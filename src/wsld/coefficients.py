"""Convolution coefficients of the Lubich fractional backward-difference family.

The order-``nu`` Lubich approximation of an ``alpha``-th Riemann-Liouville
derivative (``alpha > 0``) or integral (``alpha < 0``) uses the power-series
coefficients ``l_k`` of

    delta^alpha(z) = (sum_{i=1..nu} (1/i) (1-z)^i)^alpha,

i.e. the ``alpha``-th power of the ``nu``-step backward-difference generating
polynomial.  This module provides two independent ways to compute them:

* :func:`lubich_coeffs` -- the production path.  It factors
  ``delta^alpha = (1-z)^alpha R(z)^alpha`` with ``R`` the
  :func:`residual_polynomial`: the Grunwald series of ``(1-z)^alpha`` is one
  cumulative product, and the series of ``R^alpha`` comes from the J.C.P.
  Miller recurrence on ``R``.  The second series decays like ``rho^k``, with
  ``rho`` the largest reciprocal root of ``R``: 1/3, 0.426, 0.561 and 0.709
  for nu = 2..5.  So its terms up to index 200 carry it
  (``0.709^200 < 1e-29``), and one direct convolution of that prefix with
  the Grunwald series gives ``l_0..l_K`` in O(200 K) work, real arithmetic
  throughout.  Against a 40-digit Miller recurrence on the whole polynomial
  it keeps every coefficient to about 2e-14 relative for nu <= 4 and 1e-12
  for nu = 5, over a thousand terms.
* :func:`lubich_coeffs_oracle` -- convolution of binomial series through a
  closed-form factorization of the polynomial over its complex roots
  (Shengjin's formulas for the cubic factor, Ferrari's resolvent for the
  quartic).  Complex arithmetic, desk scale only; kept as an independent
  cross-check of the production path.

For K <= 64 and ``alpha`` in [-0.5, 1.9] the two paths agree to 2.1e-14
absolute (largest at nu = 5); the test suite holds them to 1e-10.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "generating_polynomial",
    "residual_polynomial",
    "grunwald_coeffs",
    "lubich_coeffs",
    "lubich_coeffs_oracle",
    "RootFactorization",
    "root_factorization",
]

#: Supported generating-polynomial orders.
NU_RANGE = (1, 2, 3, 4, 5)

#: Oracle cost grows like K^nu when written as nested sums; keep it desk-scale.
ORACLE_MAX_TERMS = 128

#: Largest imaginary residue the oracle's complex intermediates may leave.
ORACLE_IMAG_TOL = 1e-12

#: Index of the last kept term of the ``R(z)^alpha`` series in
#: :func:`lubich_coeffs`; ``0.709^200 < 1e-29`` at nu = 5.
_RESIDUAL_TERMS = 200


def _check_nu(nu: int, minimum: int = 1) -> None:
    if nu not in NU_RANGE or nu < minimum:
        raise ValueError(f"nu must be an integer in {minimum}..5, got {nu!r}")


def _check_alpha(alpha: float) -> None:
    if not math.isfinite(alpha):
        raise ValueError("alpha must be finite")


def _is_integer(value) -> bool:
    """An integer, numpy's included, but not a bool (JSON ``true`` is no integer)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def generating_polynomial(nu: int) -> tuple[Fraction, ...]:
    """Exact rational coefficients ``p_0..p_nu`` of ``sum_{i=1..nu} (1-z)^i / i``.

    The constant term is the harmonic number ``H_nu`` (3/2, 11/6, 25/12,
    137/60 for nu = 2..5) and ``z = 1`` is always a root.
    """
    _check_nu(nu)
    coeffs = [Fraction(0)] * (nu + 1)
    for i in range(1, nu + 1):
        lead = Fraction(1, i)
        for k in range(i + 1):
            coeffs[k] += lead * math.comb(i, k) * (-1) ** k
    return tuple(coeffs)


def residual_polynomial(nu: int) -> tuple[Fraction, ...]:
    """Exact coefficients of ``generating_polynomial(nu)`` divided by ``(1 - z)``.

    The quotient evaluates to 1 at ``z = 1``, which normalizes the Fourier
    symbol of the operator (see :mod:`wsld.spectral`).
    """
    p = generating_polynomial(nu)
    r = [Fraction(0)] * nu
    r[0] = p[0]
    for k in range(1, nu):
        r[k] = p[k] + r[k - 1]
    if p[nu] != -r[nu - 1]:
        raise AssertionError("(1 - z) does not divide the generating polynomial")
    return tuple(r)


def grunwald_coeffs(alpha: float, kmax: int) -> np.ndarray:
    """Coefficients ``l_0..l_kmax`` of ``(1-z)^alpha`` (the nu=1 / Grunwald case).

    The recurrence ``l_k = (1 - (alpha+1)/k) l_{k-1}`` with ``l_0 = 1``, run
    as one in-place cumulative product of its factors; these are the signed
    binomial coefficients ``(-1)^k C(alpha, k)``.
    """
    _check_alpha(alpha)
    if kmax < 0:
        raise ValueError("kmax must be >= 0")
    l = np.arange(kmax + 1, dtype=float)
    factors = l[1:]
    np.divide(alpha + 1.0, factors, out=factors)
    np.subtract(1.0, factors, out=factors)
    l[0] = 1.0
    return np.cumprod(l, out=l)


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

    :func:`grunwald_coeffs` convolved with the geometrically decaying
    ``R^alpha`` series up to index 200 (see the module docstring).
    The convolution is direct, not by FFT, so the ``k^(-alpha-1)`` tail
    keeps its relative accuracy.

    Parameters
    ----------
    nu : int
        Generating-polynomial order, 1..5.
    alpha : float
        Derivative order (finite; negative values give the coefficients of
        the fractional-integral rule).
    kmax : int
        Highest retained index; the result has ``kmax + 1`` entries.
    """
    _check_nu(nu)
    _check_alpha(alpha)
    if kmax < 0:
        raise ValueError("kmax must be >= 0")
    grunwald = grunwald_coeffs(alpha, kmax)
    if nu == 1:
        return grunwald
    residual = _miller(residual_polynomial(nu), alpha, min(kmax, _RESIDUAL_TERMS))
    return np.convolve(grunwald, residual)[: kmax + 1]


@dataclass(frozen=True)
class RootFactorization:
    """Closed-form factorization ``leading * (1-z) * prod_j (1 - root_j z)``.

    ``roots`` holds the reciprocal roots of the residual polynomial
    (non-real entries occur in conjugate pairs); ``leading`` is the exact
    constant term of the generating polynomial.
    """

    nu: int
    leading: Fraction
    roots: tuple[complex, ...]

    def polynomial(self) -> np.ndarray:
        """Re-expand the factored form; should reproduce the exact coefficients."""
        poly = np.array([1.0 + 0.0j])
        for r in (1.0,) + self.roots:
            poly = np.convolve(poly, np.array([1.0, -r]))
        out = float(self.leading) * poly
        return out

    def reconstruction_error(self) -> float:
        """Max absolute deviation of the re-expanded polynomial from exact."""
        exact = np.array([float(c) for c in generating_polynomial(self.nu)])
        return float(np.abs(self.polynomial() - exact).max())


def _roots_cubic_factor() -> tuple[complex, ...]:
    # nu=3 residual (11/6)(1 - mu z)(1 - conj(mu) z): rationalizing
    # 4/(7 + sqrt(39) i) gives mu = (7 - sqrt(39) i)/22.
    mu = 4.0 / (7.0 + cmath.sqrt(39) * 1j)
    return (mu, mu.conjugate())


def _roots_quartic_factor() -> tuple[complex, ...]:
    # nu=4 residual: reciprocal roots solve the cubic a t^3 + b t^2 + c t + d = 0.
    a, b, c, d = -3.0 / 25.0, 13.0 / 25.0, -23.0 / 25.0, 1.0
    A = b * b - 3.0 * a * c
    B = b * c - 9.0 * a * d
    C = c * c - 3.0 * b * d
    disc = B * B - 4.0 * A * C
    if disc <= 0.0:
        raise AssertionError("cubic discriminant left its expected branch")
    y1 = A * b + 1.5 * a * (-B - math.sqrt(disc))
    y2 = A * b + 1.5 * a * (-B + math.sqrt(disc))
    if not (y1 > 0.0 > y2):
        raise AssertionError("Shengjin intermediates left their expected signs")
    cr1 = y1 ** (1.0 / 3.0)
    cr2 = (-y2) ** (1.0 / 3.0)
    real_root = 3.0 * a / (-b - (cr1 - cr2))
    pair = 3.0 * a / complex(-b + 0.5 * (cr1 - cr2), 0.5 * math.sqrt(3.0) * (cr1 + cr2))
    return (complex(real_root), pair, pair.conjugate())


def _roots_quintic_factor() -> tuple[complex, ...]:
    # nu=5 residual: reciprocal roots solve the monic quartic with these
    # coefficients; Ferrari reduction through one real root of the resolvent
    # cubic (solved by Shengjin's trigonometric branch, its discriminant < 0).
    b, c, d = -21.0 / 4.0, 137.0 / 12.0, -163.0 / 12.0
    rb, rc, rd = -137.0 / 24.0, 1231.0 / 192.0, 4259.0 / 1536.0
    A = rb * rb - 3.0 * rc
    B = rb * rc - 9.0 * rd
    C = rc * rc - 3.0 * rb * rd
    disc = B * B - 4.0 * A * C
    if disc >= 0.0:
        raise AssertionError("resolvent discriminant left its expected branch")
    T = (2.0 * A * rb - 3.0 * B) / (2.0 * A ** 1.5)
    theta = math.acos(T)
    y = (-rb - 2.0 * math.sqrt(A) * math.cos(theta / 3.0)) / 3.0
    M = cmath.sqrt(8.0 * y + b * b - 4.0 * c)
    N2 = b * y - d
    roots = []
    for sign in (1.0, -1.0):
        bq = b + sign * M
        cq = y + sign * N2 / M
        s = cmath.sqrt(bq * bq - 16.0 * cq)
        roots.append(4.0 / (-bq + s))
        roots.append(4.0 / (-bq - s))
    # order as (first pair, second pair) with conjugates adjacent
    return (roots[0], roots[1], roots[2], roots[3])


def root_factorization(nu: int) -> RootFactorization:
    """Factor the generating polynomial over its reciprocal roots.

    Closed forms only (no iterative root finder): the cubic factor uses
    Shengjin's formulas, the quartic factor Ferrari's resolvent.  The
    :meth:`RootFactorization.reconstruction_error` invariant guards the
    transcription; it is ~1e-16 for nu = 3, 4, 5.
    """
    _check_nu(nu, minimum=3)
    p0 = generating_polynomial(nu)[0]
    roots = {3: _roots_cubic_factor, 4: _roots_quartic_factor, 5: _roots_quintic_factor}[nu]()
    return RootFactorization(nu=nu, leading=p0, roots=roots)


def lubich_coeffs_oracle(nu: int, alpha: float, kmax: int) -> np.ndarray:
    """Coefficients of ``delta^alpha`` via nested convolution of binomial series.

    Writes ``delta^alpha = p_0^alpha (1-z)^alpha prod_j (1 - r_j z)^alpha``
    with the closed-form roots of :func:`root_factorization` and convolves the
    binomial series ``(r_j)^m l_m^{1,alpha}`` factor by factor.  The complex
    intermediates must collapse to real values; a residual imaginary part
    above :data:`ORACLE_IMAG_TOL` indicates a root-factorization bug and raises.

    Only meant as an independent oracle for :func:`lubich_coeffs`; refuses
    ``kmax`` beyond desk scale.
    """
    _check_nu(nu, minimum=2)
    if kmax < 0:
        raise ValueError("kmax must be >= 0")
    if kmax > ORACLE_MAX_TERMS:
        raise ValueError(f"oracle path is desk-scale only (kmax <= {ORACLE_MAX_TERMS})")
    if nu == 2:
        # (3/2)(1 - z)(1 - z/3): the lone extra root is rational.
        roots: tuple[complex, ...] = (complex(1.0 / 3.0),)
    else:
        roots = root_factorization(nu).roots
    leading = float(generating_polynomial(nu)[0])
    base = grunwald_coeffs(alpha, kmax)
    acc = base.astype(complex)
    powers = np.arange(kmax + 1)
    for r in roots:
        series = np.asarray(r, dtype=complex) ** powers * base
        acc = np.convolve(acc, series)[: kmax + 1]
    acc *= leading ** alpha
    worst = float(np.abs(acc.imag).max())
    if worst > ORACLE_IMAG_TOL:
        raise ArithmeticError(
            f"imaginary residue {worst:.3e} exceeds {ORACLE_IMAG_TOL:.1e}; "
            "root factorization is inconsistent"
        )
    return acc.real.copy()
