"""Fourier-symbol and Toeplitz generating-function analysis of WSLD operators.

Three independent diagnostics of operator quality:

* the shifted-operator symbol ``W(z)``, whose Taylor deviation from 1 reveals
  the consistency order (slope nu at zero shift, slope 1 otherwise);
* the closed-form generating function of the symmetric part of any WSLD
  operator matrix, evaluated over ``x in [0, pi]``; by the Grenander-Szego
  theorem its range bounds the spectrum of ``H = (A + A^T)/2``, so a
  nonpositive generating function certifies that every eigenvalue of ``A``
  has negative real part (unconditional Crank-Nicolson stability);
* direct dense eigenvalue probes of the symmetric part at desk scale.  The
  operator matrices are Toeplitz, so their symmetric part is centrosymmetric
  and its spectrum splits into two half-size symmetric problems (Cantoni &
  Butler, Linear Algebra Appl. 13, 1976); the probe solves those.

The generating function splits into an alpha-free basis (``|R|``,
``x/2 - pi/2 + arg R``, ``2 sin(x/2)`` and the product ``s x`` for each
distinct shift ``s``) and a per-alpha row, which takes one cosine per
distinct shift; a scan builds the basis once and evaluates one row per alpha.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .coefficients import residual_polynomial
from .operators import ShiftsLike, WsldScheme, wsld_scheme

__all__ = [
    "symbol_deviation",
    "symbol_order_slope",
    "scheme_symmetric_genfn",
    "ScanReport",
    "definiteness_scan",
    "EigenProbe",
    "eigen_probe",
]

#: Dense symmetric eigensolves are kept at desk scale.
EIGEN_MAX_DIM = 512

#: A definiteness scan passes when the generating function stays below this.
SCAN_TOL = 1e-12

#: Sample points ``t`` of :func:`symbol_order_slope`, where ``z = -it``.
SLOPE_T = np.geomspace(1e-3, 1e-1, 20)


def symbol_deviation(nu: int, alpha: float, shift: int, z) -> np.ndarray:
    """``W(z) - 1`` for the shifted operator symbol, cancellation-safe.

    ``W(z) = exp(shift*z) * ((1 - e^-z)/z)^alpha * R(e^-z)^alpha`` with ``R``
    the residual polynomial normalized to ``R(1) = 1``; principal branches
    throughout.  Near ``z = 0`` the deviation is O(z^nu) for zero shift and
    O(z) otherwise, far below round-off of a direct evaluation, so everything
    is routed through ``expm1``/``log1p``:

        W - 1 = expm1(shift*z + alpha*(log1p(B-1) + log1p(R-1))),

    with ``B - 1 = (-expm1(-z) - z)/z`` and ``R - 1 = sum_k r_k expm1(-k z)``.
    """
    z = np.asarray(z, dtype=complex)
    if np.any(z == 0):
        raise ValueError("z = 0 is the limit point; evaluate at z != 0")
    r = [float(c) for c in residual_polynomial(nu)]
    b1 = (-np.expm1(-z) - z) / z
    r1 = sum(c * np.expm1(-k * z) for k, c in enumerate(r))
    exponent = shift * z + alpha * (np.log1p(b1) + np.log1p(r1))
    return np.expm1(exponent)


def symbol_order_slope(nu: int, alpha: float, shift: int) -> float:
    """Log-log slope of ``|W(-it) - 1|`` against ``t`` over :data:`SLOPE_T`.

    The slope estimates the operator's consistency order: nu for zero shift,
    1 for any nonzero shift.
    """
    dev = symbol_deviation(nu, alpha, shift, -1j * SLOPE_T)
    return float(np.polyfit(np.log(SLOPE_T), np.log(np.abs(dev)), 1)[0])


def scheme_symmetric_genfn(scheme: WsldScheme, x) -> np.ndarray:
    """Generating function of ``H = (A + A^T)/2`` for any supported scheme.

    With ``R`` the residual polynomial (:func:`wsld.coefficients.residual_polynomial`)
    evaluated at ``e^{ix}`` and ``(w_j, s_j)`` the flattened shift weights,

        f(x) = (2 sin(x/2))^alpha |R|^alpha
               * sum_j w_j cos(alpha (x/2 - pi/2 + arg R) - s_j x).

    ``f`` is even and the closed form needs a nonnegative power base, so it
    is evaluated at ``|x|``; it vanishes at ``x = 0``.
    """
    return _genfn_row(scheme, _genfn_basis(scheme, x))


_Basis = tuple[np.ndarray, np.ndarray, np.ndarray, dict[int, np.ndarray]]


def _genfn_basis(scheme: WsldScheme, x) -> _Basis:
    """The alpha-free factors of ``scheme``'s generating function at ``|x|``.

    Returns ``(|R|, x/2 - pi/2 + arg R, 2 sin(x/2), {s: s*x})`` with ``R``
    the residual polynomial at ``e^{i|x|}`` and ``s`` running over the
    distinct shifts of ``scheme``.
    """
    x = np.abs(np.asarray(x, dtype=float))
    r = np.polyval([float(c) for c in residual_polynomial(scheme.nu)][::-1],
                   np.exp(1j * x))
    angle = x / 2.0 - np.pi / 2.0 + np.angle(r)
    shifted = {shift: shift * x for shift in dict.fromkeys(scheme.shifts)}
    return np.abs(r), angle, 2.0 * np.sin(x / 2.0), shifted


def _genfn_row(scheme: WsldScheme, basis: _Basis) -> np.ndarray:
    """``scheme``'s generating function on the points of :func:`_genfn_basis`.

    One cosine per distinct shift; the weighted cosines are then summed over
    the flattened pairs in walk order, so the row does not depend on how
    often a shift repeats.
    """
    abs_r, angle, chord, shifted = basis
    alpha = scheme.alpha
    phase = alpha * angle
    cosines = {shift: np.cos(phase - sx) for shift, sx in shifted.items()}
    total = np.zeros_like(angle)
    for w, shift in scheme.shift_weights():
        total += w * cosines[shift]
    return chord ** alpha * abs_r ** alpha * total


@dataclass(frozen=True)
class ScanReport:
    """Supremum of the symmetric-part generating function over a grid."""

    max_value: float
    argmax_alpha: float
    argmax_x: float

    @property
    def passed(self) -> bool:
        return self.max_value <= SCAN_TOL


def default_alpha_grid() -> np.ndarray:
    """alpha = 1.01, 1.02, ..., 1.99."""
    return 1.01 + 0.01 * np.arange(99)


def default_x_grid() -> np.ndarray:
    """2048 uniform points on [0, pi]; dense enough to resolve the layer near 0."""
    return np.linspace(0.0, np.pi, 2048)


def definiteness_scan(
    nu: int,
    shifts: ShiftsLike | None = None,
    alpha_grid: np.ndarray | None = None,
    x_grid: np.ndarray | None = None,
) -> ScanReport:
    """Scan the generating function over an (alpha, x) grid; PASS iff sup <= SCAN_TOL.

    ``shifts`` takes 1, 2, 4 or 8 shifts as :func:`wsld.operators.wsld_scheme`
    does (default: the proven-stable tuple).  A single shift scans the plain
    shifted operator -- useful to exhibit the instability of the unshifted
    scheme, whose generating function takes large positive values.  The tuple
    is validated once, so a non-default fourth-order tuple warns once.
    """
    if alpha_grid is None:
        alpha_grid = default_alpha_grid()
    if x_grid is None:
        x_grid = default_x_grid()
    alpha_grid = np.asarray(alpha_grid, dtype=float)
    x_grid = np.asarray(x_grid, dtype=float)
    if alpha_grid.size == 0 or x_grid.size == 0:
        raise ValueError("scan grids must be non-empty")
    if not (np.all(np.isfinite(alpha_grid)) and np.all(np.isfinite(x_grid))):
        # a NaN row or point never wins the running maximum, so it would
        # read as a certified one
        raise ValueError("scan grids must be finite")
    scheme = wsld_scheme(nu, float(alpha_grid[0]), shifts=shifts)
    return _sup(_genfn_rows(scheme, alpha_grid, x_grid), x_grid)


def _genfn_rows(scheme: WsldScheme, alpha_grid, x_grid: np.ndarray):
    """Yield ``(alpha, f)``: ``scheme``'s generating function at each alpha, lazily.

    The alpha-free basis is built once; each row is bitwise what
    :func:`scheme_symmetric_genfn` returns at that alpha.
    """
    basis = _genfn_basis(scheme, x_grid)
    for a in alpha_grid:
        yield a, _genfn_row(replace(scheme, alpha=float(a)), basis)


def _sup(rows, x_grid: np.ndarray) -> ScanReport:
    """Running maximum over the ``(alpha, f)`` rows; the first maximum wins ties."""
    best = (-np.inf, np.nan, np.nan)
    for a, values in rows:
        j = int(np.argmax(values))
        if values[j] > best[0]:
            best = (float(values[j]), float(a), float(x_grid[j]))
    return ScanReport(max_value=best[0], argmax_alpha=best[1], argmax_x=best[2])


@dataclass(frozen=True)
class EigenProbe:
    """Extreme eigenvalues of the symmetric part ``H = (A + A^T)/2``.

    ``lambda_max`` bounds the real parts of the eigenvalues of ``A`` from
    above, so ``lambda_max < 0`` certifies that ``A`` is negative definite.
    """

    lambda_min: float
    lambda_max: float


def eigen_probe(matrix: np.ndarray) -> EigenProbe:
    """Extreme eigenvalues of ``H = (A + A^T)/2`` for a Toeplitz ``A`` (n <= 512).

    ``A`` must be a Toeplitz section such as :func:`wsld.operators.assemble_left`
    returns (checked bitwise).  Then ``H_ij = h_{|i-j|}`` with
    ``h_d = (A[d, 0] + A[0, d])/2`` is centrosymmetric (``H = JHJ`` with ``J``
    the exchange matrix), so with ``k = n // 2`` the spectrum of ``H`` is the
    union of two half-size symmetric problems, both read from ``h``:

    * the even block ``H11 + H12 J`` of size ``n - k``, bordered for odd ``n``
      by ``sqrt(2) H[:k, k]`` and ``H[k, k]``;
    * the odd block ``H11 - H12 J`` of size ``k``.

    Both blocks are written straight into the arrays the eigensolver reads,
    as sums and differences of two strided views of ``h``: ``H11`` is a
    sliding window over the two-sided sequence ``h_{k-1}, ..., h_1, h_0,
    ..., h_{k-1}`` and ``H12 J`` one over the reversed ``h``, so no index
    array or gathered copy is formed; each entry is the same IEEE sum or
    difference as in gathered blocks.  Each block takes an eighth of the
    flops of the full eigensolve.  The extremes agree with those of the full
    solve to round-off: the tests bound the difference by ``1e-12 max|H|``
    for sizes 1..512, and the largest seen is ``1.2e-14 max|H|``.  Any other
    matrix raises ``ValueError``, since the split would be wrong for it;
    eigensolver non-convergence surfaces as ``numpy.linalg.LinAlgError``.  A
    non-finite entry raises ``ValueError``.
    """
    values = np.asarray(matrix)
    if values.ndim != 2 or values.shape[0] != values.shape[1] or values.size == 0:
        raise ValueError("expected a non-empty square matrix")
    n = values.shape[0]
    if n > EIGEN_MAX_DIM:
        raise ValueError(f"dense probe limited to dimension {EIGEN_MAX_DIM}")
    if not np.all(np.isfinite(values)):
        raise ValueError("matrix entries must be finite")
    if not np.array_equal(values[1:, 1:], values[:-1, :-1]):
        raise ValueError("expected a Toeplitz matrix, whose symmetric part is "
                         "centrosymmetric")
    h = 0.5 * (values[:, 0] + values[0, :])
    k = n // 2
    even, odd = np.empty((n - k, n - k)), np.empty((k, k))
    if k:
        # H11[i, j] = h[|i - j|] and H12J[i, j] = h[n - 1 - i - j], as views
        h11 = sliding_window_view(np.concatenate((h[k - 1:0:-1], h[:k])), k)[::-1]
        h12j = sliding_window_view(h[::-1], k)[:k]
        np.add(h11, h12j, out=even[:k, :k])
        np.subtract(h11, h12j, out=odd)
    if n % 2:
        even[k, :k] = even[:k, k] = np.sqrt(2.0) * h[k:0:-1]
        even[k, k] = h[0]
    spectra = [np.linalg.eigvalsh(block) for block in (even, odd) if block.size]
    return EigenProbe(lambda_min=float(min(ev[0] for ev in spectra)),
                      lambda_max=float(max(ev[-1] for ev in spectra)))
