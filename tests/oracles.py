"""Test-side references: the Lubich root factorization and the weight walk.

An independent cross-check of :func:`wsld.coefficients.lubich_coeffs`.  The
production path runs the J.C.P. Miller recurrence on the residual polynomial
``R``, and so does the 40-digit ``mpmath`` oracle in ``test_coefficients.py``.
This one shares no recurrence with either: it factors the generating
polynomial over its reciprocal roots in closed form (Shengjin's formulas for
the cubic factor, Ferrari's resolvent for the quartic) and convolves the
binomial series of each factor in complex arithmetic.  Desk scale only.

For K <= 64 and ``alpha`` in [-0.5, 1.9] it agrees with the production path
to 2.1e-14 absolute (largest at nu = 5); the tests hold it to 1e-10.

:func:`reference_shift_weights` is the weight hierarchy written out level by
level: a two-term rule :func:`weights2` for shifts and pair products, a
fourth-order rule :func:`weights4` for quadruples, and the walk that
multiplies them outer weight first.  Each weight is rounded where
:meth:`wsld.operators.WsldScheme.shift_weights` rounds it, so the tests pin
that method to it bitwise, errors included.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from wsld.coefficients import NU_RANGE, generating_polynomial, lubich_coeffs

#: Oracle cost grows like K^nu when written as nested sums; keep it desk-scale.
ORACLE_MAX_TERMS = 128

#: Largest imaginary residue the oracle's complex intermediates may leave.
ORACLE_IMAG_TOL = 1e-12


def _check_nu(nu: int, minimum: int) -> None:
    if nu not in NU_RANGE or nu < minimum:
        raise ValueError(f"nu must be an integer in {minimum}..5, got {nu!r}")


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

    Refuses ``kmax`` beyond desk scale.
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
    base = lubich_coeffs(1, alpha, kmax)
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


def weights2(a: int, b: int) -> tuple[float, float]:
    """Two-term weights ``(b/(b-a), a/(a-b))`` for the values ``(a, b)``."""
    if a == b:
        raise ValueError("weighting needs distinct shifts or shift products")
    w = Fraction(b, b - a)
    return float(w), float(1 - w)


def weights4(nu: int, alpha: float, shifts: Sequence[int]) -> tuple[float, float]:
    """Fourth-order weights from the error constants of the two quadruples.

    The constant of ``(p, q, r, s)`` is ``pqrs (r + s - p - q) / (6 (rs - pq))``
    for nu = 4, minus ``alpha/4`` for nu = 3; distinctness is decided on the
    exact nu-free parts.
    """
    alpha_term = 3 * alpha if nu == 3 else 0.0
    free, consts = [], []
    for p, q, r, s in (shifts[:4], shifts[4:]):
        if p * q == r * s:
            raise ValueError("weighting needs distinct shifts or shift products")
        num, den = p * q * r * s * (r + s - p - q), r * s - p * q
        free.append(Fraction(num, den))
        consts.append((2 * num - alpha_term * den) / (12 * den))
    if free[0] == free[1]:
        raise ValueError("fourth-order weighting needs distinct error constants")
    c, c_bar = consts
    w = c_bar / (c_bar - c)
    return w, 1.0 - w


def reference_shift_weights(nu: int, alpha: float,
                            shifts: tuple[int, ...]) -> list[tuple[float, int]]:
    """``(product weight, shift)`` pairs, products formed as ``(w4 * w3) * w2``."""
    def walk(t: tuple[int, ...], outer: float) -> list[tuple[float, int]]:
        if len(t) == 1:
            return [(outer, t[0])]
        half = len(t) // 2
        if len(t) == 8:
            w_a, w_b = weights4(nu, alpha, t)
        else:
            w_a, w_b = weights2(math.prod(t[:half]), math.prod(t[half:]))
        return walk(t[:half], outer * w_a) + walk(t[half:], outer * w_b)

    return walk(shifts, 1.0)
