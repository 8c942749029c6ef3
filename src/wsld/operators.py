"""Weighted and shifted Lubich difference (WSLD) operators on a uniform grid.

A single shifted operator approximates the left Riemann-Liouville derivative
to first order only (any nonzero shift), but weighted combinations of shifted
operators cancel the low-order error terms: two shifts restore second order,
two shift pairs third order, and two pair-of-pairs fourth order.  This module
builds the combined convolution coefficients ``phi_k``, their dense Toeplitz
matrix on ``[x_L, x_R]`` (functions are zero-extended outside the domain), and
their application to grid samples in O(n log n) work: the few largest
coefficients, nearest the diagonal, summed directly, and the rest as one FFT
convolution of the shortest length that keeps wrap-around out of the outputs.
The right-derivative matrix is the transpose of the left one.  The module
needs numpy only: the Toeplitz matrix is a copy of a strided view of one
band of ``phi`` values, the band the diffusion solver also builds from.

Matrices are returned unscaled: the ``h**-alpha`` factor is deferred to the
caller so one matrix serves any grid spacing (the diffusion solver applies
``tau / (2 h**alpha)`` jointly).
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .coefficients import _check_alpha, _check_nu, _is_integer, _is_real, lubich_coeffs

__all__ = [
    "DEFAULT_SHIFTS",
    "WsldScheme",
    "wsld_scheme",
    "assemble_left",
    "apply_operator",
]


#: The eight shifts ``(p, q, r, s, p̄, q̄, r̄, s̄)`` of the proven-stable
#: fourth-order combination; every eigenvalue of the resulting operator matrix
#: has negative real part for alpha in (1, 2) (see wsld.spectral).
DEFAULT_SHIFTS = (1, -1, 1, 2, 1, -1, 1, 3)


def _half_weights(nu: int, alpha: float, t: Sequence[int]) -> tuple[float, float]:
    """Weights of the two halves of 2, 4 or 8 shifts; they sum to one.

    Two shifts ``(p, q)`` or two pairs with products ``(pq, rs)`` take the
    exact two-term rule ``(b/(b-a), a/(a-b))`` of those values ``(a, b)``,
    which cancels one error term.  Two quadruples take the quotient of their
    leading (third-order) error constants: ``pqrs (r + s - p - q) /
    (6 (rs - pq))`` for nu = 4, minus ``alpha/4`` for nu = 3 (the other nu
    :func:`wsld_scheme` admits at this order); one quotient evaluates both.
    """
    if len(t) < 8:
        half = len(t) // 2
        a, b = math.prod(t[:half]), math.prod(t[half:])
        if a == b:
            raise ValueError("weighting needs distinct shifts or shift products")
        w = Fraction(b, b - a)
        return float(w), float(1 - w)
    alpha_term = 3 * alpha if nu == 3 else 0.0
    free, consts = [], []
    for p, q, r, s in (t[:4], t[4:]):
        if p * q == r * s:
            raise ValueError("weighting needs distinct shifts or shift products")
        num, den = p * q * r * s * (r + s - p - q), r * s - p * q
        free.append(Fraction(num, den))
        consts.append((2 * num - alpha_term * den) / (12 * den))
    # the alpha term is common to both constants, so compare the exact
    # nu-free parts: two roundings of the same -alpha/4 may differ
    if free[0] == free[1]:
        raise ValueError("fourth-order weighting needs distinct error constants")
    c, c_bar = consts
    w = c_bar / (c_bar - c)
    return w, 1.0 - w


ShiftsLike = int | Sequence[int]


@dataclass(frozen=True)
class WsldScheme:
    """A WSLD operator: base rule ``nu``, derivative order ``alpha``, shifts.

    ``shifts`` holds 1, 2, 4 or 8 integers for orders 1..4 respectively.
    Construct through :func:`wsld_scheme`, which validates and warns on
    stability-unverified tuples.
    """

    nu: int
    alpha: float
    shifts: tuple[int, ...]

    @property
    def order(self) -> int:
        """Consistency order 1..4, fixed by the shift count 1, 2, 4 or 8."""
        return len(self.shifts).bit_length()

    @property
    def m(self) -> int:
        """Stencil half-width max|shift|; rows reach m columns right of the diagonal."""
        return max(abs(v) for v in self.shifts)

    def shift_weights(self) -> list[tuple[float, int]]:
        """Flatten the weight hierarchy into ``(product weight, shift)`` pairs.

        One walk over halves: the 8 shifts split into two quadruples weighted
        by their error constants, each quadruple into two pairs weighted by
        one exact two-term rule of the pair products ``(pq, rs)``, and each
        pair into two shifts weighted by the same rule of the shifts.  The
        outer weight is multiplied first, so a product is formed as
        ``(w4 * w3) * w2``.  The products telescope: weights at each level sum
        to one, so the returned weights also do.
        """
        def walk(t: tuple[int, ...], outer: float) -> list[tuple[float, int]]:
            if len(t) == 1:
                return [(outer, t[0])]
            half = len(t) // 2
            w_a, w_b = _half_weights(self.nu, self.alpha, t)
            return walk(t[:half], outer * w_a) + walk(t[half:], outer * w_b)

        return walk(self.shifts, 1.0)

    def phi(self, kmax: int) -> np.ndarray:
        """Combined convolution coefficients ``phi_0..phi_kmax``.

        ``phi_k = sum_j w_j l_{k + shift_j - m}`` with ``l`` at negative index
        treated as zero: each weighted series is added ``m - shift_j`` places
        along.
        """
        coeffs = lubich_coeffs(self.nu, self.alpha, kmax)
        m = self.m
        phi = np.zeros(kmax + 1)
        for w, sh in self.shift_weights():
            lag = m - sh
            if lag <= kmax:
                phi[lag:] += w * coeffs[: kmax + 1 - lag]
        return phi


def wsld_scheme(
    nu: int,
    alpha: float,
    shifts: ShiftsLike | None = None,
) -> WsldScheme:
    """Build a :class:`WsldScheme`; the shift count fixes the order.

    With no ``shifts`` the proven-stable default tuple is used at order 4.
    Any other fourth-order tuple is accepted but triggers an "unverified
    stability" warning: negative definiteness has only been established for
    the default tuple.  A non-finite ``alpha``, a ``nu`` or a shift that is
    not an integer (a fraction or a bool), raises ``ValueError``.
    """
    _check_alpha(alpha)
    if shifts is None:
        shifts = DEFAULT_SHIFTS
    flat = tuple(shifts) if isinstance(shifts, Iterable) else (shifts,)
    if len(flat) not in (1, 2, 4, 8) or not all(_is_integer(v) for v in flat):
        raise ValueError(f"shifts must be 1, 2, 4 or 8 integers, got {shifts!r}")
    _check_nu(nu)
    scheme = WsldScheme(nu=nu, alpha=alpha, shifts=tuple(int(v) for v in flat))
    if scheme.order >= 2 and nu not in (3, 4):
        raise ValueError("weighted combinations are defined for nu in {3, 4}")
    scheme.shift_weights()  # validates pairwise shift constraints
    if scheme.order == 4 and scheme.shifts != DEFAULT_SHIFTS:
        warnings.warn(
            "shift tuple differs from the proven-stable default; "
            "stability is unverified",
            stacklevel=2,
        )
    return scheme


def _band(scheme: WsldScheme, n: int) -> np.ndarray:
    """Toeplitz band of the matrix on ``n + 1`` nodes, ``A[i, j] = band[n + i - j]``.

    ``band`` has ``2n + 1`` entries: ``phi_{k-n+m}`` at index ``k``, zero
    where that subscript is negative.  Raises when the grid cannot contain the
    stencil (``n < max(2, m)``).
    """
    m = scheme.m
    if n < max(2, m):
        raise ValueError(f"grid too small: need n >= {max(2, m)}, got {n}")
    band = np.zeros(2 * n + 1)
    band[n - m :] = scheme.phi(n + m)
    return band


def assemble_left(scheme: WsldScheme, n: int) -> np.ndarray:
    """Dense left-derivative matrix on ``n + 1`` nodes (``h**-alpha`` deferred).

    Row ``i``, column ``j`` holds ``phi_{i-j+m}`` (zero for a negative index);
    it depends on ``i - j`` only, so the matrix is Toeplitz.  The
    right-derivative matrix is its transpose.  Raises when the grid cannot
    contain the stencil (``n < max(2, m)``).
    """
    band = _band(scheme, n)
    return sliding_window_view(band[::-1], n + 1)[::-1].copy()


def apply_operator(
    u: np.ndarray, scheme: WsldScheme, h: float, side: str = "left"
) -> np.ndarray:
    """Apply the scaled operator to grid samples by FFT convolution.

    Implements ``h**-alpha * sum_{k} phi_k u_{i-k+m}`` (left; mirrored for
    right) with indices outside ``0..n`` contributing nothing -- the zero
    extension.  The sum is split three ways:

    - the near coefficients ``phi_0..phi_{m+b}`` (``b = _NEAR = 4``), the
      largest, are summed directly by ``np.convolve``, so the FFT's
      rounding, which scales with the largest coefficient it carries, does
      not scale with them;
    - ``phi_{n+m}`` meets ``u_0`` only, in the last output, and that one
      term is added there;
    - the rest, ``phi_{m+b+1}..phi_{n+m-1}``, is convolved with ``u`` by a
      real FFT of length ``L >= max(2n, n + m + 1)``.  Their linear
      convolution spans indices ``m+b+1..2n+m-1``, so ``L >= 2n`` wraps
      none of it onto the outputs kept, ``m..m+n``; on a grid of ``2^k``
      intervals ``L = 2n``, not the ``3 * 2^k`` that ``2n + 1`` rounds up
      to.

    When ``n`` is so small that no coefficient is left for the FFT, the
    whole sum is direct.  O(n log n) work.  Matches the product with
    :func:`assemble_left` (or its transpose, for the right side) to
    round-off.  The spacing ``h`` must be a finite positive real, not a bool,
    and ``u`` real and finite at every node.
    """
    u = np.asarray(u)
    if np.iscomplexobj(u):
        raise ValueError("u must be real: the operator would drop its imaginary part")
    u = u.astype(float, copy=False)
    if u.ndim != 1 or u.size < 2:
        raise ValueError("u must be a 1-D array of at least two node values")
    if not (_is_real(h) and math.isfinite(h) and h > 0):
        raise ValueError(f"h must be finite and positive, got {h!r}")
    n = u.size - 1
    m = scheme.m
    if n < max(2, m):
        raise ValueError(f"grid too small: need n >= {max(2, m)}, got {n}")
    if side == "right":
        return apply_operator(u[::-1], scheme, h, side="left")[::-1]
    if side != "left":
        raise ValueError("side must be 'left' or 'right'")
    if not np.all(np.isfinite(u)):
        raise ValueError("u must be finite at every node")
    phi = scheme.phi(n + m)
    cut = m + _NEAR + 1  # phi_0..phi_{cut-1} are summed directly
    if n + m <= cut:  # nothing left for the FFT
        return h ** (-scheme.alpha) * np.convolve(phi, u)[m : m + n + 1]
    near, last = phi[:cut].copy(), phi[n + m]
    phi[:cut] = 0.0
    size = _fft_size(n, m)
    spectrum = np.fft.rfft(phi[: n + m], size)
    del phi
    product = np.fft.rfft(u, size)
    np.multiply(spectrum, product, out=product)
    # free the spectrum before the inverse transform allocates its output
    del spectrum
    full = np.fft.irfft(product, size)
    del product
    out = full[m : m + n + 1] + np.convolve(near, u)[m : m + n + 1]
    out[n] += last * u[0]
    out *= h ** (-scheme.alpha)
    return out


#: Coefficients ``phi_0..phi_{m + _NEAR}`` are summed directly by
#: :func:`apply_operator`, not by its FFT.  Over the 60 seeds of the
#: operator-apply benchmark, 2, 4, 8 and 12 all lower its ``ref_dev`` by a
#: median 16-22% against one FFT of every coefficient; 0 (``phi_0..phi_m``)
#: by 5% only.
_NEAR = 4


def _fft_size(n: int, m: int) -> int:
    """Shortest wrap-free circulant of the operator on ``n + 1`` nodes.

    The smallest ``2^k`` or ``3 * 2^k`` that is at least ``max(2n, n + m +
    1)``: long enough to hold ``phi_0..phi_{n+m}`` (or the two-sided
    ``phi_{d+m}``, ``-m <= d <= n``), and to keep the products of all but
    ``phi_{n+m}`` from wrapping onto the ``n + 1`` outputs kept.
    """
    minimum = max(2 * n, n + m + 1)
    size = 1 << (minimum - 1).bit_length()
    return 3 * size // 4 if 3 * size // 4 >= minimum else size
