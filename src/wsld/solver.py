"""Steady and time-dependent fractional-diffusion solves with WSLD operators.

Two problem families:

* a steady one-sided problem ``D^alpha u = f`` on the grid, solved with the
  operator matrix of any scheme by one LU factorization and one refinement
  sweep;
* the variable-coefficient space-fractional diffusion equation

      u_t = d_plus(x) * D_left^alpha u + d_minus(x) * D_right^alpha u + f(x, t)

  on ``(x_L, x_R)`` with homogeneous Dirichlet boundaries (the zero
  extension the operators assume), advanced by Crank-Nicolson:

      [I - tau/(2 h^alpha) (D+ A + D- A^T)] U^{n+1}
          = [I + tau/(2 h^alpha) (D+ A + D- A^T)] U^n + tau F^{n+1/2}.

The system matrix ``M- = I - cS`` (``c = tau/(2 h^alpha)``) is time
independent.  The explicit matrix ``M+ = I + cS`` equals ``2I - M-``, so
``M- U^{n+1} = (2I - M-) U^n + tau F`` reads ``U^{n+1} = 2W - U^n`` with
``M- W = U^n + (tau/2) F``: each step solves with ``M-``, for the forcing
at the half step, by one of three paths.

* ``getrs``: ``M-`` is written from O(N) data (the Toeplitz band of ``phi``
  values and the coefficient samples) into one N x N array, LU-factored
  there once, and each step is one LAPACK ``getrs`` call.
* ``gemv``, the inverse path: ``M-`` is written the same way and inverted
  once by ``numpy.linalg.inv``; the inverse ``G`` is doubled in place
  (exactly) and ``M-`` dropped.  A step is
  ``U^{n+1} = G (U^n + (tau/2) F) - U^n``, a product with ``G``, and the
  path holds two N x N arrays, ``G`` and the block propagator ``T^16``
  (formed once by four squarings).
* matrix-free: no N x N array is formed.  Two parts solve ``M- W = rhs``.
  The split (:func:`_split`) writes ``M- = B - cF``: the band ``B``,
  ``|i - j| <= b`` (``b = 32``, or the scheme's shift ``m`` if larger),
  LU-factored once by LAPACK ``gbtrf``, and the far field ``F`` of the
  Toeplitz operator, applied by FFT.  It hands GMRES four callables:
  ``M- B^{-1} v = v - cF(B^{-1} v)`` (one ``gbtrs`` and one real FFT pair,
  two inverse transforms when the problem carries no ``kappa``), ``B^{-1}``,
  ``M-`` for the true residual, and a bound on ``||M-||``.  The GMRES
  (:class:`_Gmres`) knows only those; it recycles a store of the solutions
  of up to 20 past steps and of the 8 harmonic Ritz vectors of the run's
  first cycle.  A solve starts from the projection of ``rhs`` onto their
  images, and every cycle minimises over them as well as its Krylov space,
  at O(N) dot products per stored pair, so a solve starts no worse than
  from the last step's ``W`` (the README gives the iterations this saves).
  Memory is O(N (b + restart + 28)).

:func:`_step_path` picks the path from the run's size ``N`` and step count
``nt`` by three constants: the default shift tuple goes matrix-free past
N = 1281 and for runs of at most ``(N / 162)^2`` steps; up to N = 1281,
runs of at least 2N steps take the inverse path, and the rest ``getrs``.

All three paths share one step loop (:class:`_Spans`), which advances in
spans of steps so that the work around the solve is done once per span:
the forcing of a span's steps is sampled into one array by one call of the
source on the column of their times (the Table 2 forcing holds no other
array of that size while it samples), scaled and zeroed on the boundary at
once, and the sup norms of its states are
taken at once, so the first failing step is found in step order.  A path
gives the loop its solve and, on the inverse path, ``T^16``, and one block
rule per path sets the span: up to 20 blocks of 16 steps on the inverse
path, taken by three sweeps of GEMMs over the blocks' rows (the particular
sweep over every block's rows, the last block's included), and one block
of ``max(1, 4096 // N)`` steps on the others (from N = 2049 on, one step),
whose one sweep is the per-step loop.  A solve that must call its source
once per step is logged once, at DEBUG on the ``wsld`` logger.

With the proven-stable shift tuple the spatial operator is negative definite
and the stepping is unconditionally stable; with a plain unshifted operator it
visibly blows up (see :func:`stability_probe`).

``scipy.linalg`` is imported, not with the module, only where numpy has no
routine: by the LU factors the ``getrs`` path, :func:`assemble_cn_system` and
:func:`solve_steady` reuse, and by the band LU of the matrix-free path.  So
``import wsld``, every layer that factors nothing, and the inverse path,
which every Table 2 solve takes, need numpy only.  The attribute
``solver.sla`` still resolves to ``scipy.linalg`` (loading it), for callers
that patch its ``lu_factor`` and ``lu_solve``; the functions here look those
names up on the module at each call, so a patch takes effect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .coefficients import _is_integer, _is_real
from .operators import DEFAULT_SHIFTS, WsldScheme, _band, _fft_size, assemble_left

__all__ = [
    "Grid1D",
    "DiffusionProblem",
    "solve_steady",
    "CnSystem",
    "assemble_cn_system",
    "SolveResult",
    "InstabilityError",
    "cn_solve",
    "ProbeResult",
    "stability_probe",
    "table1_source",
    "table1_exact",
    "table2_problem",
    "table2_exact",
    "expression",
    "EXPRESSION_IDS",
]


def __getattr__(name: str):
    if name == "sla":
        import scipy.linalg

        return scipy.linalg
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


#: Sup-norm threshold beyond which a time-stepping run is declared blown up.
BLOWUP_THRESHOLD = 1e10

#: Half-width ``b`` of the band ``|i - j| <= b`` of ``M-`` that the
#: matrix-free path stores and factors as its preconditioner (widened to a
#: scheme's shift ``m`` past it).
_BAND = 32
#: GMRES restart length: Krylov vectors held at once by the matrix-free path.
#: It must exceed the iterations a step takes under the band preconditioner
#: on the largest grids run, or restarting stalls a solve short of the target
#: within the iteration cap.
_RESTART = 80
#: Rows of the matrix-free path's recycle space: up to ``_RITZ`` harmonic
#: Ritz pairs, then up to ``_STORE - _RITZ`` converged steps' pairs, which
#: restart behind the Ritz pairs when full.  More steps' pairs in a small
#: space condition ``R`` worse, so the steps' share stays small enough that a
#: small grid's true residual keeps well inside its bound.
_STORE = 28
#: Harmonic Ritz vectors of smallest ``|theta|`` that the run's first GMRES
#: cycle, when it takes more than this many iterations, leaves in the store.
_RITZ = 8
#: An image whose part outside the stored ones is at most this fraction of
#: its norm adds no pair to the store: zero, or within four orders of the
#: rounding, a few ``eps``, that Gram-Schmidt leaves of an image already
#: stored.
_NEGLIGIBLE = 1e-12
#: GMRES iterations allowed per time step before the solve fails.
_MAX_ITERATIONS = 200
#: GMRES stops when its recursive residual estimate is at most this times
#: ``||rhs||``.  A start projected from past solutions lands each solve near
#: this target, not orders of magnitude below it as a start from the last
#: ``W`` alone did on small grids, and near a steady state the steps'
#: residuals add up, so the target sits an order of magnitude below the
#: agreement with the LU path that a long run must keep.
_GMRES_TOL = 1e-13
#: The true residual after convergence may exceed the stopping target by the
#: rounding of one mat-vec, at most this many ``eps ||M-|| ||W||``.
_RESIDUAL_FLOOR = 100.0


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid ``x_i = x_left + i h`` with ``h = (x_right - x_left)/nx``."""

    x_left: float
    x_right: float
    nx: int

    def __post_init__(self) -> None:
        if not (_is_real(self.x_left) and _is_real(self.x_right)
                and self.x_left < self.x_right
                and math.isfinite(self.x_right - self.x_left)):
            raise ValueError("need finite x_left < x_right")
        if not _is_integer(self.nx) or self.nx < 2:
            raise ValueError("nx must be an integer >= 2")

    @property
    def h(self) -> float:
        return (self.x_right - self.x_left) / self.nx

    def nodes(self) -> np.ndarray:
        return np.linspace(self.x_left, self.x_right, self.nx + 1)


@dataclass
class DiffusionProblem:
    """Data of one diffusion run: coefficients, forcing and initial data.

    The boundary data are zero.  At the grid nodes the coefficients must be
    finite and nonnegative, and the initial data and the forcing at the first
    half step ``tau/2`` finite.  ``source`` must broadcast over an array
    ``t`` as ufuncs do: :func:`cn_solve` calls it once per span with the 1-D
    nodes and the column of the span's times, and only if that call raises
    or returns any shape but one row per time, once per step with a float.
    A source that returns that shape but is not elementwise in ``t`` (one
    that reduces over ``t``, say) goes undetected.  ``kappa`` optionally
    records the constant ratio ``d_minus = kappa*d_plus`` assumed by the
    unconditional-stability result; when given, it must be a finite real
    number >= 0 (not a bool), and the sampled coefficients are checked
    against it exactly.
    """

    alpha: float
    grid: Grid1D
    d_plus: Callable[[np.ndarray], np.ndarray]
    d_minus: Callable[[np.ndarray], np.ndarray]
    source: Callable[[np.ndarray, float], np.ndarray]
    initial: Callable[[np.ndarray], np.ndarray]
    horizon: float
    nt: int
    kappa: float | None = None

    def __post_init__(self) -> None:
        if not 1.0 < self.alpha < 2.0:
            raise ValueError("diffusion problems need alpha in (1, 2)")
        if not _is_integer(self.nt) or self.nt < 1:
            raise ValueError("nt must be an integer >= 1")
        if not (_is_real(self.horizon) and self.horizon > 0
                and math.isfinite(self.horizon)):
            raise ValueError("need a finite horizon > 0")
        kappa = self.kappa
        if kappa is not None and not (_is_real(kappa) and math.isfinite(kappa)
                                      and kappa >= 0):
            raise ValueError(f"kappa must be a finite real number >= 0, got {kappa!r}")
        x = self.grid.nodes()
        dp = np.asarray(self.d_plus(x), dtype=float)
        dm = np.asarray(self.d_minus(x), dtype=float)
        for name, values in (("d_plus", dp), ("d_minus", dm),
                             ("initial data", self.initial(x)),
                             ("source at t = tau/2", self.source(x, self.tau / 2))):
            values = np.asarray(values, dtype=float)
            if values.shape != x.shape:
                raise ValueError(f"{name} must have one value per grid node")
            if not np.all(np.isfinite(values)):
                raise ValueError(f"{name} must be finite at every grid node")
        if np.any(dp < 0) or np.any(dm < 0):
            raise ValueError("diffusion coefficients must be nonnegative")
        if self.kappa is not None and not np.array_equal(dm, self.kappa * dp):
            raise ValueError("d_minus must equal kappa * d_plus exactly")

    @property
    def tau(self) -> float:
        return self.horizon / self.nt


def solve_steady(
    scheme: WsldScheme,
    f: Callable[[np.ndarray], np.ndarray] | np.ndarray,
    grid: Grid1D,
    bc: tuple[float, float] | None = None,
) -> np.ndarray:
    """Solve ``h^-alpha A u = f`` on the grid nodes, ``A`` the scheme's matrix.

    The matrix is LU-factored and the solution takes one refinement sweep,
    which keeps the residual near round-off.  ``bc``, when given, is a pair
    ``(left, right)`` of finite real numbers, not bools.  For ``alpha in
    (1, 2)`` the problem carries a second boundary value; the last equation
    is replaced by the constraint ``u(x_right) = bc[1]``, and the zero
    extension fixes the left value, so ``bc[0]`` must be 0.  A shifted
    scheme (``m > 0``) reads ``m`` nodes past ``x_right``, where the zero
    extension puts 0, so it also needs ``bc[1] = 0``.

    Integral orders (``alpha < 0``) and ``alpha in (0, 1)`` need no
    constraint and take no ``bc``: the first equation already pins
    ``u(x_left)`` whenever ``f(x_left) = 0``.  With no right boundary value
    nothing makes the zero extension past ``x_right`` hold, so these orders
    need an unshifted scheme (``m = 0``).
    """
    alpha = scheme.alpha
    matrix = assemble_left(scheme, grid.nx)
    x = grid.nodes()
    rhs = np.asarray(f(x) if callable(f) else f, dtype=float)
    if rhs.shape != x.shape:
        raise ValueError("f samples must match the grid nodes")
    if not np.all(np.isfinite(rhs)):
        raise ValueError("f must be finite at every grid node")
    g = grid.h ** alpha * rhs
    if bc is not None and np.shape(bc) != (2,):
        raise ValueError(f"bc must be two boundary values (left, right), got {bc!r}")
    if bc is not None and not all(_is_real(v) and math.isfinite(v) for v in bc):
        raise ValueError(f"bc must be finite real numbers (not bools), got {bc!r}")
    if 1.0 < alpha < 2.0:
        # the two-sided boundary data leave one value the one-sided operator
        # cannot see; replace the last equation with the constraint
        if bc is None or bc[0] != 0.0:
            raise ValueError("alpha in (1, 2) needs boundary values bc=(0, right)")
        if scheme.m > 0 and bc[1] != 0.0:
            raise ValueError(
                f"a shifted scheme (m = {scheme.m}) reads past x_right, where the "
                "zero extension is 0; it needs bc=(0, 0)")
        matrix[-1, :] = 0.0
        matrix[-1, -1] = 1.0
        g[-1] = bc[1]
    elif bc is not None:
        raise ValueError("bc applies only to alpha in (1, 2)")
    elif scheme.m > 0:
        raise ValueError(
            f"a shifted scheme (m = {scheme.m}) reads past x_right, where the zero "
            "extension is 0; alpha outside (1, 2) has no right boundary value "
            "to make that hold, so it needs an unshifted scheme")
    import scipy.linalg as sla

    lu = sla.lu_factor(matrix)
    u = sla.lu_solve(lu, g)
    u += sla.lu_solve(lu, g - matrix @ u)
    return u


@dataclass
class CnSystem:
    """The implicit Crank-Nicolson matrix ``M-`` as O(N) data, with its LU factors.

    ``M- = I - c (D+ A + D- A^T)`` is defined by the Toeplitz band of the
    operator matrix, ``A[i, j] = band[n + i - j]``, the coefficient samples
    ``d_plus`` and ``d_minus`` at the nodes, and ``c = tau / (2 h^alpha)``.
    Neither ``M-`` nor the explicit matrix is stored: :attr:`m_lhs` and
    :attr:`m_rhs` form them on demand.
    """

    band: np.ndarray
    d_plus: np.ndarray
    d_minus: np.ndarray
    c: float
    lu: tuple

    @property
    def m_lhs(self) -> np.ndarray:
        """The implicit matrix ``M-``, as a new array on each read.

        It is formed by the fill that :func:`assemble_cn_system` factors, so
        it is bitwise the matrix behind :attr:`lu`.
        """
        return _cn_matrix(self.band, self.d_plus, self.d_minus, self.c)

    @property
    def m_rhs(self) -> np.ndarray:
        """The explicit matrix ``M+ = 2I - M-``, as a new array on each read.

        Off the diagonal ``M+ = cS = -M-`` exactly.  On the Dirichlet rows both
        matrices are identity rows, and ``2I - I = I`` there too.
        """
        return 2.0 * np.eye(self.d_plus.size) - self.m_lhs


#: Columns per block of the ``D- A^T`` term: the temporary holds this many.
_BLOCK = 64
#: Entries of the forcing array of a span on the ``getrs`` and matrix-free
#: paths: :func:`cn_solve` advances them ``max(1, _STEP_BLOCK // N)`` steps
#: per span, so the array holds at most ``_STEP_BLOCK`` doubles up to
#: N = 2048, and from N = 2049 on a span is one step.
_STEP_BLOCK = 4096
#: Steps per block of the inverse path's spans.  A power of two: the block
#: propagator ``T^k`` is formed by ``log2 k`` squarings.
_SPAN_STEPS = 16
#: Blocks per span of the inverse path: the rows of each product of a
#: sweep.  A span's arrays hold ``(_SPAN_STEPS + 4) _SPAN_BLOCKS`` rows, and
#: sampling its forcing ``_SPAN_STEPS _SPAN_BLOCKS`` more.  20 and 24 blocks
#: step ``run_table2`` equally fast, but 24 raise its peak RSS by about
#: 0.5 MiB (the README gives the runs).
_SPAN_BLOCKS = 20
#: Message of the error a singular implicit matrix raises on every dense path.
_SINGULAR = "implicit Crank-Nicolson matrix is singular"


def _cn_matrix(band: np.ndarray, dp: np.ndarray, dm: np.ndarray,
               c: float) -> np.ndarray:
    """Form ``M- = I - c (D+ A + D- A^T)`` in one Fortran-ordered array.

    ``A`` and ``A^T`` are read as strided views of ``band``, and the
    ``D- A^T`` term is added in column blocks, so no temporary is larger
    than ``_BLOCK`` columns.  Each entry is ``fl(dp_i A_ij) + fl(dm_i A_ji)``
    times ``-c``, plus 1 on the diagonal: the IEEE operations of the
    unfactored formula.  The Dirichlet rows (first and last) are identity
    rows.  Fortran order lets LAPACK factor the array in place.
    """
    size = dp.size  # n + 1
    a = sliding_window_view(band[::-1], size)[::-1]  # a[i, j] = band[n + i - j]
    a_t = sliding_window_view(band, size)[::-1]  # a_t[i, j] = band[n + j - i]
    out = np.empty((size, size), order="F")
    np.multiply(dp[:, None], a, out=out)
    tmp = np.empty((size, _BLOCK), order="F")
    for start in range(0, size, _BLOCK):
        cols = slice(start, start + _BLOCK)
        part = tmp[:, : min(_BLOCK, size - start)]
        np.multiply(dm[:, None], a_t[:, cols], out=part)
        out[:, cols] += part
    out *= -c
    out.flat[:: size + 1] += 1.0
    out[0, :] = 0.0
    out[0, 0] = 1.0
    out[-1, :] = 0.0
    out[-1, -1] = 1.0
    return out


def _cn_data(problem: DiffusionProblem, scheme: WsldScheme):
    """The O(N) data of ``M-``: the band of ``phi``, ``d_plus``, ``d_minus``, ``c``."""
    grid = problem.grid
    x = grid.nodes()
    return (_band(scheme, grid.nx), np.asarray(problem.d_plus(x), dtype=float),
            np.asarray(problem.d_minus(x), dtype=float),
            problem.tau / (2.0 * grid.h ** problem.alpha))


def assemble_cn_system(problem: DiffusionProblem, scheme: WsldScheme) -> CnSystem:
    """Build the implicit matrix ``M- = I - c (D+ A + D- A^T)`` and factor it.

    The matrix is written once into one N x N array and LU-factored in that
    array; the operator matrix ``A`` is never formed, only its O(N) band of
    ``phi`` values.  Each entry goes through the IEEE operations of the
    unfactored formula, so it is bitwise that formula's.  The Dirichlet rows
    (first and last) are identity rows; ``M+ = 2I - M-`` then holds on them
    too, because ``M+`` has the same identity rows.  Raises when the grid
    cannot contain the stencil (``nx < max(2, m)``), and on a numerically
    singular implicit matrix, which cannot occur when the spatial operator
    part is negative definite.
    """
    band, dp, dm, c = _cn_data(problem, scheme)
    import scipy.linalg as sla

    lu, piv = sla.lu_factor(_cn_matrix(band, dp, dm, c), overwrite_a=True)
    if not np.all(np.isfinite(lu)) or np.any(np.diag(lu) == 0.0):
        raise np.linalg.LinAlgError(_SINGULAR)
    return CnSystem(band=band, d_plus=dp, d_minus=dm, c=c, lu=(lu, piv))


def _twice_inverse(problem: DiffusionProblem, scheme: WsldScheme) -> np.ndarray:
    """``2 M-^{-1}`` in Fortran order, from one ``numpy.linalg.inv``.

    ``M-`` is filled as for :func:`assemble_cn_system`, in Fortran order, so
    its transpose is a C-ordered view; ``numpy.linalg.inv`` inverts that
    view by LAPACK ``gesv`` on the identity, and the transpose of the result
    is ``M-^{-1}``.  So the transpose ``2 M-^{-T}`` is C-ordered, and a
    product of C-ordered rows with it is one GEMM with no transposed
    operand.  ``M-`` is freed on return and the doubling is exact.  While
    ``inv`` runs it holds about four N x N arrays (``M-``, its working
    copy, the identity and the result).  The errors are those of
    :func:`assemble_cn_system`: ``ValueError`` on a non-finite entry of
    ``M-`` (coefficients reassigned after the problem checked them), and
    ``numpy.linalg.LinAlgError`` on a singular ``M-``.
    """
    matrix = np.asarray_chkfinite(_cn_matrix(*_cn_data(problem, scheme)))
    try:
        twice_t = np.linalg.inv(matrix.T)
    except np.linalg.LinAlgError:
        raise np.linalg.LinAlgError(_SINGULAR) from None
    if not np.all(np.isfinite(twice_t)):
        raise np.linalg.LinAlgError(_SINGULAR)
    twice_t *= 2.0
    return twice_t.T


def _cn_band(band: np.ndarray, dp: np.ndarray, dm: np.ndarray, c: float,
             width: int) -> np.ndarray:
    """The band ``|i - j| <= width`` of ``M-`` in LAPACK band storage.

    Row ``width + i - j``, column ``j`` holds ``M-[i, j]`` (the BLAS ``gbmv``
    layout with ``kl = ku = width``); slots outside the matrix hold 0.  Each
    entry takes the IEEE operations of :func:`_cn_matrix`, so it is bitwise
    that entry of the dense matrix, identity Dirichlet rows included.
    """
    size = dp.size
    n = size - 1
    offset = np.arange(-width, width + 1)[:, None]  # i - j
    rows = np.arange(size) + offset  # i
    outside = (rows < 0) | (rows > n)
    np.clip(rows, 0, n, out=rows)
    out = dp[rows] * band[n + offset]
    out += dm[rows] * band[n - offset]
    out *= -c
    out[width] += 1.0
    out[outside | (rows == 0) | (rows == n)] = 0.0
    out[width, [0, -1]] = 1.0
    return np.asfortranarray(out)


def _split(problem: DiffusionProblem, scheme: WsldScheme):
    """The split ``M- = B - cF`` of the matrix-free path, as :class:`_Gmres` takes it.

    ``F = D+ A_far + D- A_far^T``: ``B`` is the band ``|i - j| <= b`` of
    ``M-`` with its identity Dirichlet rows, LU-factored once by LAPACK
    ``gbtrf``, and ``A_far`` the Toeplitz operator whose coefficients
    ``phi_k``, ``|k - m| <= b``, are set to zero.  Keeping the near
    coefficients out of the FFT keeps its rounding out of the product.

    ``F`` takes one real FFT of ``w``.  The two-sided sequence
    ``a_d = phi_{d+m}`` of ``A_far`` (``A_far[i, j] = a_{i-j}``) sits in a
    circulant of length ``L >= max(2n, n + m + 1)``, as in
    :func:`~wsld.operators.apply_operator`; ``A_far^T`` is its circular
    reversal, whose spectrum is the conjugate.  At ``L = 2n`` the offsets
    ``d = n`` and ``d = -n`` share a slot, so row 0 of ``A_far w`` and row
    ``n`` of ``A_far^T w`` take ``a_n`` for the zero ``a_{-n}``; those are
    the Dirichlet rows, whose weights are zero, so no kept row wraps.  With
    a constant ratio ``d_minus = kappa d_plus``, ``F w = D+ (A_far +
    kappa A_far^T) w`` takes one inverse FFT from the single spectrum of
    ``a + kappa reverse(a)``; otherwise ``F`` takes two.  The spectra are taken once,
    with ``c`` and the coefficient samples, zero on the Dirichlet rows,
    folded into their weights.

    Returns ``operator``, ``M- B^{-1} v = v - cF(B^{-1} v)`` by one ``gbtrs``
    and one ``F``; ``precondition``, ``B^{-1}`` by ``gbtrs``; ``matvec``,
    ``M-`` as ``B`` by BLAS ``gbmv`` minus ``cF``; and a bound on ``||M-||_2``.
    """
    import scipy.linalg as sla

    n, m = problem.grid.nx, scheme.m
    band, dp, dm, c = _cn_data(problem, scheme)
    # the band reaches past the shift m, where gbmv's 2 width < n + 1
    # allows, so that it holds the largest coefficients phi_0, phi_1, ...
    width = min(max(_BAND, m), n // 2)
    near = _cn_band(band, dp, dm, c, width)
    factor = np.zeros((3 * width + 1, n + 1), order="F")
    factor[width:] = near
    gbtrf, gbtrs = sla.get_lapack_funcs(("gbtrf", "gbtrs"), (factor,))
    lu, piv, info = gbtrf(factor, width, width, overwrite_ab=True)
    if info != 0:
        raise np.linalg.LinAlgError(
            "band of the implicit Crank-Nicolson matrix is singular")
    gbmv, = sla.get_blas_funcs(("gbmv",), (near,))
    phi = band[n - m:]  # phi_0..phi_{n+m}
    length = _fft_size(n, m)
    circulant = np.zeros(length)  # circulant[d mod L] = a_d
    circulant[: n + 1] = phi[m:]
    circulant[length - m:] = phi[:m]
    offsets = np.arange(-width, width + 1)  # the band's d = i - j
    circulant[offsets[offsets >= -m]] = 0.0
    spectrum = np.fft.rfft(circulant)
    weight, weight_t = c * dp, c * dm
    weight[[0, -1]] = weight_t[[0, -1]] = 0.0
    # the problem checked the ratio when it was built; its fields may
    # have been reassigned since, so check it again
    kappa = None if problem.kappa is None else float(problem.kappa)
    if kappa is not None and np.array_equal(dm, kappa * dp):
        spectrum += kappa * spectrum.conj()
        far = [(weight, spectrum)]
    else:
        far = [(weight, spectrum), (weight_t, spectrum.conj())]

    def far_field(w):  # cF w: one forward real FFT and one inverse per spectrum
        transform = np.fft.rfft(w, length)
        y = np.zeros(w.size)
        for weight, kernel in far:
            y += weight * np.fft.irfft(kernel * transform, length)[: w.size]
        return y

    def precondition(v):
        z, info = gbtrs(lu, width, width, v, piv)
        if info != 0:
            raise ValueError(f"illegal value in argument {-info} of LAPACK gbtrs")
        return z

    def matvec(w):
        y = gbmv(w.size, w.size, width, width, 1.0, near, w)
        y -= far_field(w)
        return y

    # ||M-||_1 and ||M-||_inf are at most this, so ||M-||_2 is too
    norm = 1.0 + c * (dp.max() + dm.max()) * float(np.abs(phi).sum())
    return (lambda v: v - far_field(precondition(v))), precondition, matvec, norm


def _orthogonalise(q: np.ndarray, v: np.ndarray):
    """Classical Gram-Schmidt run twice on ``v``: ``(r, h)``, ``v = h q + r``, ``q r = 0``."""
    h = q @ v
    v = v - h @ q
    again = q @ v
    v -= again @ q
    h += again
    return v, h


class _Gmres:
    """``M W = rhs`` for a run of right sides: right-preconditioned, recycled GMRES.

    GMRES iterates on ``operator``, ``v -> M P v``; ``precondition`` applies
    ``P`` (to a vector or an array's columns), ``matvec`` ``M`` for the true
    residual only, and ``norm`` bounds ``||M||_2``.  Vectors hold ``size``
    entries.  :func:`_split` gives ``M = M-`` and ``P = B^{-1}``.

    Every solve has the same ``M``, so the solves share a recycle space
    (GCRO-DR: Parks, de Sturler, Mackey, Johnson & Maiti, SIAM J. Sci.
    Comput. 28, 2006).  A store of up to ``_STORE`` pairs ``M W_k = Y_k``
    holds the raw solutions ``W`` and an orthonormal basis ``Q`` of the
    images, with the triangle ``R`` of ``Y = QR``; the solution whose image
    is ``Q a`` is ``lift(a) = W R^{-1} a``.  Each pair's own residual is
    that of its solve, but ``R^{-1}`` grows as the images of nearby steps
    grow alike, so ``M lift(a) = Q a`` holds only as well as ``R^{-1} a``
    is bounded.  So the projection ``a = Q^T rhs`` of a step's right side
    serves only as a start, and each solve still meets its own residual
    target.  :meth:`solve` starts from ``lift(Q^T rhs)`` (Fischer, CMAME
    163, 1998), and each GMRES cycle minimises over ``span Q`` plus its
    Krylov space.  The run's first cycle seeds the store with its harmonic
    Ritz pairs (Morgan, SIAM J. Sci. Comput. 24, 2002), the approximate
    eigenvectors of smallest eigenvalue that restarting would otherwise
    lose.  Memory is O(size (restart + store)).
    """

    def __init__(self, operator, precondition, matvec, norm: float, size: int) -> None:
        import scipy.linalg as sla

        self._operator, self._precondition, self._matvec = operator, precondition, matvec
        self._norm = norm
        # rows 0.._stored-1 hold Q; a cycle's Krylov basis follows them, so
        # that one product orthogonalises against both
        self._space = np.empty((_STORE + _RESTART + 1, size))
        self._images = self._space[:_STORE]
        self._solutions = np.empty((_STORE, size))  # W
        self._tri = np.zeros((_STORE, _STORE))  # R
        self._trtrs, = sla.get_lapack_funcs(("trtrs",), (self._tri,))
        self._stored = 0
        self._ritz = 0  # the Ritz pairs: rows 0.._ritz-1, kept on restarts
        self._first = True  # no cycle has run yet

    def _lift(self, coefficients: np.ndarray) -> np.ndarray:
        """``W R^{-1} a``: the combination of stored solutions whose image is ``Q a``."""
        k = self._stored
        a, info = self._trtrs(self._tri[:k, :k], coefficients)
        if info != 0:
            raise ValueError(f"illegal value in argument {-info} of LAPACK trtrs")
        return a @ self._solutions[:k]

    def solve(self, rhs: np.ndarray, w: np.ndarray, step: int) -> np.ndarray:
        """``W`` with ``M W = rhs``, by restarted GMRES from a projected guess.

        The guess is ``lift(Q^T rhs)``: the combination of the stored
        solutions whose image is the orthogonal projection of ``rhs`` onto
        the stored images, so of all such combinations it leaves the least
        residual.  The last step's ``W`` is among them, so the guess is no
        worse than that warm start up to rounding.  Before any pair is
        stored the guess is ``w``.

        GMRES stops when its recursive residual estimate is at most
        ``_GMRES_TOL ||rhs||``.  The true residual is then checked once
        against that target plus the rounding floor of the mat-vec; past the
        bound, or past ``_MAX_ITERATIONS``, it raises ``RuntimeError`` naming
        ``step``.  A right side that is not finite returns a ``W`` that is
        not finite, which the step's sup-norm check reports.  A converged
        ``W`` and its image ``rhs - residual``, the right side less the true
        residual just checked, join the store (:meth:`_store`) at no further
        mat-vec.
        """
        target = _GMRES_TOL * float(np.linalg.norm(rhs))
        if not math.isfinite(target):
            return w + rhs
        k = self._stored
        if k:
            w = self._lift(self._images[:k] @ rhs)
        iterations, converged = 0, False
        while True:
            residual = rhs - self._matvec(w)
            beta = float(np.linalg.norm(residual))
            if not math.isfinite(beta):
                return w + residual
            if converged or beta <= target:
                break
            if iterations >= _MAX_ITERATIONS:
                raise RuntimeError(
                    f"GMRES did not converge at step {step}: {iterations} "
                    f"iterations reached a residual of {beta:.3e} against "
                    f"the target {target:.3e}")
            w, estimate, taken = self._cycle(w, residual, beta, target,
                                             _MAX_ITERATIONS - iterations)
            iterations += taken
            converged = estimate <= target
        floor = _RESIDUAL_FLOOR * np.finfo(float).eps * self._norm * float(
            np.linalg.norm(w))
        if not beta <= target + floor:
            raise RuntimeError(
                f"GMRES failed at step {step}: after {iterations} iterations "
                f"the true residual is {beta:.3e}, past the bound "
                f"{target + floor:.3e}")
        self._store(rhs - residual, w)
        return w

    def _store(self, image: np.ndarray, w: np.ndarray) -> None:
        """Add the pair ``M W = image`` to the store.

        The image is orthogonalised against ``Q`` (:func:`_orthogonalise`);
        its coefficients and the norm of what is left make the new column of
        ``R``, and ``W`` is kept as it is.  An image left zero or negligible
        next to its norm before orthogonalisation is skipped, since its
        direction is already stored or lost to rounding.  When the steps'
        pairs are full, they restart with this pair behind the Ritz pairs.
        """
        if self._stored - self._ritz == _STORE - _RITZ:
            self._stored = self._ritz
        k = self._stored
        before = float(np.linalg.norm(image))
        image, column = _orthogonalise(self._images[:k], image)
        norm = float(np.linalg.norm(image))
        if not norm > _NEGLIGIBLE * before:
            return
        self._tri[:k, k] = column
        self._tri[k, k] = norm
        np.divide(image, norm, out=self._images[k])
        self._solutions[k] = w
        self._stored += 1

    def _cycle(self, w, residual, beta, target, budget):
        """One GMRES cycle of at most ``min(_RESTART, budget)`` iterations.

        The residual's part in ``span Q`` is taken by the lift of its
        projection, and Arnoldi on ``M P`` orthogonalises each vector
        against ``Q`` and the Krylov basis (:func:`_orthogonalise`), keeping
        the coefficients ``C`` on ``Q``.  So ``M P V_k = Q C + V_{k+1} H``
        and the least residual over ``span Q`` plus the Krylov space is that
        of ``H``, reduced by Givens rotations that keep it triangular:
        ``|g[k]|`` is the residual estimate after ``k`` iterations.  The
        update is ``P V_k y`` plus the lift of the projection less ``C y``.
        The run's first cycle, with nothing stored, seeds the store
        (:meth:`_seed`).  Returns the new iterate, the estimate and ``k``.
        """
        space, stored = self._space, self._stored
        basis = space[stored:]
        limit = min(_RESTART, budget)
        if stored:
            residual, projection = _orthogonalise(space[:stored], residual)
            beta = float(np.linalg.norm(residual))
            if not beta > target:
                return w + self._lift(projection), beta, 0
        np.divide(residual, beta, out=basis[0])
        hessenberg = np.zeros((limit + 1, limit))
        cross = np.empty((stored, limit))  # C
        tri = np.zeros((limit, limit))
        g = [beta] + [0.0] * limit
        cos, sin = [], []
        for j in range(limit):
            v, h = _orthogonalise(space[: stored + j + 1], self._operator(basis[j]))
            norm = float(np.linalg.norm(v))
            cross[:, j] = h[:stored]
            col = h[stored:].tolist()
            hessenberg[: j + 1, j] = col
            hessenberg[j + 1, j] = norm
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
            if norm == 0.0:
                break
            np.divide(v, norm, out=basis[k])  # the Ritz images read it
            if abs(g[k]) <= target:
                break
        y = np.array(g[:k])
        for i in range(k - 1, -1, -1):
            y[i] = (y[i] - tri[i, i + 1: k] @ y[i + 1:]) / tri[i, i]
        w = w + self._precondition(y @ basis[:k])
        if stored:
            w += self._lift(projection - cross[:, :k] @ y)
        if self._first:
            self._first = False
            if not stored and k > _RITZ and norm != 0.0:
                self._seed(hessenberg[: k + 1, :k], basis[: k + 1])
        return w, abs(g[k]), k

    def _seed(self, hessenberg: np.ndarray, basis: np.ndarray) -> None:
        """Store the harmonic Ritz pairs of a cycle with nothing stored.

        The harmonic Ritz values ``theta`` of ``M P`` on the Krylov space are
        the eigenvalues of ``H_k + h_{k+1,k}^2 H_k^{-T} e_k e_k^T`` (Morgan
        2002).  The first ``_RITZ`` real and imaginary parts ``p`` of the
        eigenvectors, in order of ``|theta|``, give the pairs
        ``M (P V_k p) = V_{k+1} (H p)``: the images cost no mat-vec, and the
        solutions one application of ``P``.  A singular ``H_k`` or an
        eigensolve that fails leaves the store empty.
        """
        k = hessenberg.shape[1]
        square = hessenberg[:k].copy()
        try:
            square[:, -1] += hessenberg[k, k - 1] ** 2 * np.linalg.solve(
                square.T, np.eye(k)[-1])
            theta, vectors = np.linalg.eig(square)
        except np.linalg.LinAlgError:
            return
        parts = []
        # a conjugate pair spans the real and imaginary parts of either vector
        for i in sorted(np.flatnonzero(theta.imag >= 0), key=lambda i: abs(theta[i])):
            parts.append(vectors[:, i].real)
            if theta[i].imag:
                parts.append(vectors[:, i].imag)
        ritz = np.array(parts[:_RITZ]).T
        images = (hessenberg @ ritz).T @ basis
        solutions = self._precondition((ritz.T @ basis[:k]).T).T
        for image, solution in zip(images, solutions):
            self._store(image, solution)
        self._ritz = self._stored


#: Most unknowns a dense path is chosen for where another is offered: past
#: it the default shift tuple goes matrix-free, and no tuple is inverted.
#: ``numpy.linalg.inv`` holds about four N x N arrays where a factorization
#: holds one, so past it the inverse path would peak at about twice the
#: memory of ``getrs`` (the README gives the measured peaks).
_DENSE_MAX_SIZE = 1281
#: Short runs of the default shift tuple go matrix-free while
#: ``nt <= (N / _SHORT_RUN_SCALE)^2``: the factorization they skip costs
#: O(N^3) and a GMRES iteration O(N (b + log N)), so the steps one
#: factorization outweighs grow about like ``N^2``.
_SHORT_RUN_SCALE = 162
#: Runs of at least this many steps per unknown invert ``M-`` once.
_INVERT_STEPS_PER_ROW = 2


def _step_path(size: int, nt: int, scheme: WsldScheme) -> str:
    """The step path for ``nt`` steps of ``scheme`` on ``size`` unknowns.

    ``"matrix-free"`` for the default shift tuple past
    :data:`_DENSE_MAX_SIZE` unknowns, and for ``nt <= (N / 162)^2`` below
    it; ``"gemv"`` for ``nt >= 2N`` up to :data:`_DENSE_MAX_SIZE`;
    ``"getrs"`` for the rest.  A longer run at the same ``N`` has a smaller
    ``tau``, so ``M-`` is closer to ``I`` and its GMRES solves are easier
    than those of the short runs the rule already sends to GMRES.

    The constants come from paired timings of the forced paths at a few
    shapes, which the README records.

    ``"matrix-free"`` is offered for the default shift tuple only, whose
    operator has every eigenvalue in the left half plane.  Other tuples
    carry no such bound, and GMRES can stall on them (the README gives a
    measured case).
    """
    if scheme.shifts == DEFAULT_SHIFTS and (
            size > _DENSE_MAX_SIZE or nt * _SHORT_RUN_SCALE ** 2 <= size ** 2):
        return "matrix-free"
    if size <= _DENSE_MAX_SIZE and nt >= _INVERT_STEPS_PER_ROW * size:
        return "gemv"
    return "getrs"


@dataclass(frozen=True)
class SolveResult:
    """State ``u`` at ``t = horizon``, the step count and the running sup norm."""

    u: np.ndarray
    steps: int
    sup_norm: float


class InstabilityError(RuntimeError):
    """A time step whose sup norm is beyond ``BLOWUP_THRESHOLD`` or not finite."""

    def __init__(self, step: int, t: float, sup_norm: float) -> None:
        super().__init__(
            f"instability detected at step {step} (t={t:.6g}): "
            f"sup norm {sup_norm:.3e}"
        )
        self.step = step
        self.t = t
        self.sup_norm = sup_norm


def _block_propagator(twice_t: np.ndarray) -> np.ndarray:
    """``(T^T)^k`` for ``T = G - I`` with its Dirichlet rows zeroed, ``k = _SPAN_STEPS``.

    ``twice_t`` is ``G^T``, ``G = 2 M-^{-1}``, so ``T^T`` is ``G^T - I``
    with its first and last columns zeroed.  It is formed in one copy of
    ``G^T`` and squared ``log2 k`` times, each square written into the other
    of two N x N arrays; the one not returned is freed on return.  So while
    it runs it holds three N x N arrays with ``G^T``, and afterwards two.
    """
    power = twice_t.copy()
    power.flat[:: power.shape[0] + 1] -= 1.0
    power[:, :: power.shape[0] - 1] = 0.0
    spare = np.empty_like(power)
    # an unstable operator may overflow; the caller checks the result
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_SPAN_STEPS.bit_length() - 1):
            np.matmul(power, power, out=spare)
            power, spare = spare, power
    return power


class _Spans:
    """The Crank-Nicolson steps: a span of up to ``k B`` steps in ``2k`` solves over ``B`` rows.

    A path gives ``solve(rows, out, step)``, which writes ``G`` times each
    of ``rows`` into ``out``, ``G = 2 M-^{-1}``, and optionally the block
    propagator ``T^k``.  With ``f_n = (tau/2) F`` a step is
    ``U^{n+1} = Z (G (U^n + f_n) - U^n)``, where ``Z`` zeroes the Dirichlet
    entries.  From a state that vanishes on the boundary this is the linear
    recurrence ``U^{n+1} = T U^n + Z G f_n``, ``T = Z (G - I)``.  Step 1
    reads ``U^0/2`` on the boundary, where ``U^0`` need not vanish; writing
    ``U^0/2`` there into ``f_0`` and zero into ``U^0`` gives it the same
    right side (a -0.0 there reads +0.0).  So the recurrence splits exactly
    into a particular part from a zero start and the propagation of a start
    (Gander & Güttel, SIAM J. Sci. Comput. 35, 2013).  A span is cut into
    blocks of ``k`` steps, at most ``B = _SPAN_BLOCKS`` of them, the last
    padded with zero forcing, and takes three sweeps:

    1. particular: every block takes its ``k`` steps from zero, which
       leaves ``P_b``; the last block's is unused, but a product over all
       ``B`` rows is faster than one over ``B - 1``;
    2. coarse: the block starts follow from ``S_{b+1} = T^k S_b + P_b``,
       one matrix-vector product per block with ``T^k``;
    3. fill: every block takes its ``k`` steps from its start, and each
       state overwrites the forcing row it was stepped with.

    The states are held as rows, so a step of a sweep is one solve of all
    its blocks' rows.  After the fill the forcing array holds the span's
    states in step order.  They are those of one solve per step up to the
    rounding of the solves, which ``T^k`` carries from block to block.
    Without a propagator a span is one block, of ``k`` steps at most, and
    takes the fill alone: that sweep is the per-step loop, stepped on
    vectors, and only there may ``solve`` raise.  The steps hold ``(k + 4)
    B`` rows of N doubles besides what the path holds.
    """

    def __init__(self, solve, power, k: int, nt: int, size: int, initial) -> None:
        self._solve, self._power, self._k = solve, power, k
        blocks = 1 if power is None else min(_SPAN_BLOCKS, -(-nt // k))
        self.forcing = np.empty((blocks * k, size))
        self._forcing_rows = list(self.forcing[:k])  # a one-block span's
        # the block starts, the particular sweep's two states and a right side
        self._starts, self._x, self._y, self._rhs = np.empty((4, blocks, size))
        self.state = self._starts[0]
        self.state[...] = initial

    def advance(self, count: int, done: int):
        """Take the span's first ``count`` steps, after ``done`` steps.

        Returns the steps taken and the exception that stopped them, or
        ``None``.
        """
        k, forcing, solve = self._k, self.forcing, self._solve
        size = forcing.shape[1]
        if done == 0:
            u = self.state
            forcing[0, :: size - 1] = 0.5 * u[:: size - 1]
            u[:: size - 1] = 0.0
        # the Dirichlet entries of the states: scalars of vectors, columns of rows
        first, last = 0, -1
        if count <= k:
            rows, u, rhs = self._forcing_rows[:count], self.state, self._rhs[0]
        else:
            blocks = -(-count // k)
            forcing[count: blocks * k] = 0.0
            per_block = forcing[: blocks * k].reshape(blocks, k, size)
            # particular: every block from zero, into x; the last block's
            # result is unused, but a whole span's rows make a faster GEMM
            x, y, rhs = (a[:blocks] for a in (self._x, self._y, self._rhs))
            solve(per_block[:, 0], x, None)
            x[:, :: size - 1] = 0.0
            for j in range(1, k):
                np.add(x, per_block[:, j], out=rhs)
                solve(rhs, y, None)
                y -= x
                y[:, :: size - 1] = 0.0
                x, y = y, x
            # coarse: S_{b+1} = S_b (T^T)^k + P_b
            starts = self._starts[:blocks]
            for b in range(blocks - 1):
                np.matmul(starts[b], self._power, out=starts[b + 1])
                starts[b + 1] += x[b]
            rows, u, rhs = per_block.swapaxes(0, 1), starts, self._rhs[:blocks]
            first, last = (slice(None), 0), (slice(None), -1)
        # fill: each state over the forcing row it is stepped with; on one
        # block this is the per-step loop, whose overhead short runs feel
        add = np.add
        try:
            for step, row in enumerate(rows, done + 1):
                add(u, row, rhs)
                solve(rhs, row, step)
                row -= u
                row[first] = row[last] = 0.0
                u = row
        except Exception as exc:
            return step - done - 1, exc
        return count, None


def _stepper(path: str, problem: DiffusionProblem, scheme: WsldScheme,
             initial) -> _Spans:
    """The steps of ``path`` from ``initial``: its solve, and its block propagator.

    The inverse path solves by one product with the C-ordered ``G^T`` and
    steps spans of up to ``_SPAN_BLOCKS`` blocks of ``_SPAN_STEPS``, with
    ``T^k`` as the propagator unless the run is one block or ``T^k`` is not
    finite.  ``getrs`` and matrix-free solve one step at a time, with no
    propagator, in spans of one block of ``max(1, _STEP_BLOCK // N)`` steps
    (at most ``nt``).
    """
    size, nt = problem.grid.nx + 1, problem.nt
    power, k = None, max(1, min(nt, _STEP_BLOCK // size))
    if path == "gemv":
        twice_t = _twice_inverse(problem, scheme).T
        k = _SPAN_STEPS
        if nt > k:
            power = _block_propagator(twice_t)
            if not np.isfinite(power).all():
                power = None

        def solve(rows, out, step):
            np.matmul(rows, twice_t, out=out)
    elif path == "getrs":
        import scipy.linalg as sla

        lu, piv = assemble_cn_system(problem, scheme).lu
        getrs, = sla.get_lapack_funcs(("getrs",), (lu,))

        def solve(rhs, out, step):
            w, info = getrs(lu, piv, rhs, overwrite_b=True)
            if info != 0:
                raise ValueError(f"illegal value in argument {-info} of LAPACK getrs")
            np.multiply(w, 2.0, out=out)
    else:
        implicit = _Gmres(*_split(problem, scheme), size)
        # the first guess is the initial data as given, boundary included;
        # later guesses are projected from the store
        w = np.array(initial, dtype=float)

        def solve(rhs, out, step):
            nonlocal w
            w = implicit.solve(rhs, w, step)
            np.multiply(w, 2.0, out=out)
    return _Spans(solve, power, k, nt, size, initial)


def _sample_forcing(source, x: np.ndarray, times: np.ndarray, scale: float,
                    forcing: np.ndarray):
    """Write ``scale * source(x, times[k])`` into ``forcing[k]``, in step order.

    The source is called once with the column of times; if that raises, or
    returns anything but one row per time, the times are sampled again one
    at a time, each as a Python float.  Returns ``(count, failure,
    fallback)``: the rows written before the first exception in step order
    and that exception, or ``len(times)`` and ``None``; and why the span was
    sampled one step at a time, or ``None``.  The product is taken in double
    precision whatever the samples' dtype.
    """
    rows = forcing[: times.size]
    try:
        block = source(x, times[:, None])
        if np.shape(block) == rows.shape:
            np.multiply(block, scale, out=rows, dtype=float)
            return times.size, None, None
        fallback = f"the call on {times.size} times returned shape {np.shape(block)}"
    except Exception as exc:
        fallback = f"the call on {times.size} times raised {type(exc).__name__}"
    for k, t in enumerate(times.tolist()):
        try:
            np.multiply(source(x, t), scale, out=forcing[k], dtype=float)
        except Exception as exc:
            return k, exc, fallback
    return times.size, None, fallback


def cn_solve(problem: DiffusionProblem, scheme: WsldScheme) -> SolveResult:
    """Advance the Crank-Nicolson scheme to ``t = horizon``.

    Each step samples the forcing ``F`` at the half step ``t_{n+1/2}``,
    solves ``M- W = U^n + (tau/2) F`` and sets ``U^{n+1} = 2W - U^n``.  This
    is the step ``M- U^{n+1} = M+ U^n + tau F`` with ``M+ = 2I - M-``.  The
    solve takes the ``getrs``, inverse or matrix-free path of the module
    docstring, which :func:`_step_path` picks from ``nt`` and
    ``N = nx + 1``; no argument selects it.  A matrix-free GMRES solve that
    does not converge within its iteration cap, or whose true residual
    exceeds the stopping target plus the mat-vec's rounding floor, raises
    ``RuntimeError`` naming the step, the iterations and the residual.

    One step loop (:class:`_Spans`) serves every path and advances in
    spans: of one block of ``max(1, 4096 // N)`` steps on the ``getrs`` and
    matrix-free paths, and of up to 20 blocks of 16 steps on the inverse
    path (fewer in the last span).  A span first samples the forcing of
    each of its steps into one array, at the times ``(n + 1/2) tau``, and
    scales it by ``tau/2``; then it steps, writing each ``U^{n+1}`` over its
    forcing row, so the array holds the states in step order; then it takes
    every step's sup norm at once.  The span is sampled by one call of the
    source on the column of its times (see :class:`DiffusionProblem`); if
    that call fails, the span is sampled again one step at a time, each
    time a Python float, in step order, so a failure keeps its step.  The
    first span of a solve that falls back so is logged at DEBUG on the
    ``wsld`` logger, with the exception's type or the returned shape.  So
    the source may be called for steps past a failing one, up to the end of
    its span.  On the ``getrs``
    and matrix-free paths a span is one block, stepped one solve at a time,
    so the results are bitwise those of checking each step as it is taken.
    The inverse path takes its steps from the block starts of its span, so
    its states are those of one product per step up to the rounding of the
    products; every step it reports is still the first failing one in step
    order.

    The initial data are copied first, so the array ``problem.initial``
    returns is never written.  The boundary entries of the right-hand side
    are ``U^n/2``, which the identity rows map to ``U^{n+1} = 0`` there; that
    zero is then written exactly.  So from step 2 on ``U^n`` is 0 there, and
    the span zeroes the boundary entries of its scaled forcing once, which
    leaves ``U^n + 0 = U^n/2``.  The initial data need not vanish on the
    boundary, so step 1 writes ``U^0/2`` into the boundary entries of its
    forcing and zero into those of ``U^0``, which leaves the same right
    side (a -0.0 there reads +0.0).  A forcing value on a boundary node is
    thus never used, finite or not.  A step whose sup norm exceeds
    ``BLOWUP_THRESHOLD`` or is not finite, including one whose forcing is
    not finite at an interior node, aborts with :class:`InstabilityError`,
    which carries the step, its time and the norm.  The first failure in step order is raised: an exception from
    the source or the solve at a later step of the same span gives way to
    a blow-up before it.
    """
    size, nt, tau = problem.grid.nx + 1, problem.nt, problem.tau
    x, source = problem.grid.nodes(), problem.source
    initial = problem.initial(x)
    steps = _stepper(_step_path(size, nt, scheme), problem, scheme, initial)
    forcing = steps.forcing
    sup = float(np.abs(steps.state).max())
    done, logged = 0, False
    while done < nt:
        times = (np.arange(done, min(done + len(forcing), nt)) + 0.5) * tau
        # an exception is raised after the steps before it are checked
        count, failure, fallback = _sample_forcing(source, x, times, 0.5 * tau,
                                                   forcing)
        if fallback is not None and not logged:
            import logging  # only here: a solve that samples by spans skips it

            logging.getLogger("wsld").debug(
                "cn_solve samples the forcing one step at a time: %s", fallback)
            logged = True
        # the right side is U^n/2 on the boundary: U^n is 0 there after step 1
        forcing[:count, 0] = forcing[:count, -1] = 0.0
        # a right side that is not finite makes inf - inf in the products;
        # the sup-norm check reports its step, so the stepping is quiet
        with np.errstate(invalid="ignore", over="ignore"):
            stepped, error = steps.advance(count, done)
        if error is not None:
            count, failure = stepped, error
        states = forcing[:count]
        norms = np.maximum(states.max(axis=1), -states.min(axis=1))
        blown = np.flatnonzero(~(norms <= BLOWUP_THRESHOLD))  # also catches NaN
        if blown.size:
            step = done + int(blown[0]) + 1
            raise InstabilityError(step, step * tau, float(norms[blown[0]]))
        if failure is not None:
            raise failure
        sup = max(sup, float(norms.max()))
        steps.state[...] = forcing[count - 1]  # the next span's start
        done += count
    return SolveResult(u=steps.state.copy(), steps=nt, sup_norm=sup)


@dataclass(frozen=True)
class ProbeResult:
    """Outcome of an aggressive-step stability probe (blow-up is data, not error)."""

    bounded: bool
    sup_norm: float
    steps_completed: int


def stability_probe(
    problem: DiffusionProblem,
    scheme: WsldScheme,
    tau_over_h: float,
    n_steps: int = 400,
) -> ProbeResult:
    """Run ``n_steps`` with the aggressive step ``tau = tau_over_h * h``.

    Reports the running sup norm; crossing ``BLOWUP_THRESHOLD`` marks the run
    unbounded, with the first step at which it blew up in
    ``steps_completed`` and that step's sup norm.  The run stops at the end
    of the span of steps holding that step (see :func:`cn_solve`): the
    steps after it in the span are taken
    quietly, with no floating-point warning, and change nothing reported.
    On the inverse path the reported norm carries the rounding of the
    span's products, relative to the state, so an unstable run amplifies
    it.  With the negative-definite default tuple the sup norm stays of the
    order of the solution scale for any ratio; the unshifted operator
    diverges within tens of steps.  ``tau_over_h`` must be finite and
    positive, and ``n_steps`` an integer >= 1.
    """
    if not (_is_real(tau_over_h) and math.isfinite(tau_over_h) and tau_over_h > 0):
        raise ValueError(f"tau_over_h must be finite and positive, got {tau_over_h!r}")
    if not _is_integer(n_steps) or n_steps < 1:
        raise ValueError(f"n_steps must be an integer >= 1, got {n_steps!r}")
    tau = tau_over_h * problem.grid.h
    probe_problem = replace(problem, horizon=tau * n_steps, nt=n_steps)
    try:
        result = cn_solve(probe_problem, scheme)
    except InstabilityError as exc:
        return ProbeResult(bounded=False, sup_norm=exc.sup_norm,
                           steps_completed=exc.step)
    return ProbeResult(bounded=True, sup_norm=result.sup_norm,
                       steps_completed=result.steps)


# ---------------------------------------------------------------------------
# Built-in benchmark problems
# ---------------------------------------------------------------------------

def table1_source(alpha: float) -> Callable[[np.ndarray], np.ndarray]:
    """Right-hand side whose exact solution on (0, 1) is ``x**8``."""
    scale = math.gamma(9.0) / math.gamma(9.0 - alpha)
    return lambda x: scale * np.asarray(x, dtype=float) ** (8.0 - alpha)


def table1_exact(x: np.ndarray) -> np.ndarray:
    return np.asarray(x, dtype=float) ** 8


def table2_exact(x: np.ndarray, t: float) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return math.sin(t + 1.0) * x ** 4 * (2.0 - x) ** 4


#: Bytes of the chunks of rows in which a Table 2 forcing sample on a column
#: of times forms its second term.  A numpy ufunc copies each operand it
#: broadcasts through a buffer of up to 8192 elements, so a chunk costs
#: about twice its bytes; a 384 x 161 sample peaks at 1.15 times its own
#: bytes under tracemalloc.
_SAMPLE_CHUNK = 1 << 15


class _Table2Source:
    """Forcing of the Table 2 problem, ``f(x, t)``.

    The fractional powers depend on ``x`` alone: they are computed once per
    node array, in a one-entry cache keyed by the shape and the bytes of the
    last ``x`` (so ``-0.0`` and ``0.0`` are different keys).  A sample
    multiplies in the order of the unfactored formula,
    ``(x^4 cos) (2-x)^4 - (x^alpha sin) bracket``, with ``np.cos`` and
    ``np.sin`` of ``t + 1``.  ``t`` may be a scalar or an array that
    broadcasts against ``x``, such as a column of times, and each row of a
    column's sample is bitwise the sample at its time, which the test suite
    checks on 10^4 times.  A sample on a column of times is the one array
    of its size the call holds: the second term is formed in chunks of
    rows of ``_SAMPLE_CHUNK`` bytes, each subtracted from the first in
    place.
    """

    def __init__(self, alpha: float) -> None:
        g = math.gamma
        self._alpha = alpha
        self._c = [g(9) / g(9 - alpha), 8 * g(8) / g(8 - alpha),
                   24 * g(7) / g(7 - alpha), 32 * g(6) / g(6 - alpha),
                   16 * g(5) / g(5 - alpha)]
        self._cache = None  # (key, x**4, (2-x)**4, x**alpha, bracket), replaced as a whole

    def _factors(self, x: np.ndarray):
        """``(x^4, (2-x)^4, x^alpha, bracket)`` of the node array ``x``, cached."""
        key = (x.shape, x.tobytes())
        entry = self._cache
        if entry is None or entry[0] != key:
            alpha, c, y = self._alpha, self._c, 2.0 - x
            bracket = (
                c[0] * (x ** (8 - alpha) + 2 * y ** (8 - alpha))
                - c[1] * (x ** (7 - alpha) + 2 * y ** (7 - alpha))
                + c[2] * (x ** (6 - alpha) + 2 * y ** (6 - alpha))
                - c[3] * (x ** (5 - alpha) + 2 * y ** (5 - alpha))
                + c[4] * (x ** (4 - alpha) + 2 * y ** (4 - alpha))
            )
            entry = self._cache = (key, x ** 4, y ** 4, x ** alpha, bracket)
        return entry[1:]

    def __call__(self, x: np.ndarray, t) -> np.ndarray:
        x4, y4, xa, bracket = self._factors(np.asarray(x, dtype=float))
        shifted = np.asarray(t) + 1.0
        cos, sin = np.cos(shifted), np.sin(shifted)
        if shifted.ndim <= np.ndim(x4):
            out = x4 * cos
            out *= y4
            part = xa * sin
            part *= bracket
            out -= part
            return out
        # t leads with axes of its own, as a column of times does: the
        # second term is formed in chunks of rows, each subtracted in place,
        # so that the result is the one array of its size.  Each product
        # broadcasts one operand, which numpy buffers (see _SAMPLE_CHUNK)
        out = np.empty(np.broadcast_shapes(np.shape(x4), shifted.shape),
                       np.result_type(x4, cos))
        np.copyto(out, x4)
        out *= cos
        out *= y4
        rows = max(1, _SAMPLE_CHUNK // out[0].nbytes)
        part = np.empty_like(out[:rows])
        for start in range(0, len(out), rows):
            chunk = part[: len(out) - start]
            np.copyto(chunk, xa)
            chunk *= sin[start: start + rows]
            chunk *= bracket
            out[start: start + rows] -= chunk
        return out


def table2_problem(alpha: float, nx: int, nt: int | None = None) -> DiffusionProblem:
    """The diffusion benchmark on (0, 2): ``d+ = x^alpha``, ``d- = 2 x^alpha``.

    Exact solution ``sin(t+1) x^4 (2-x)^4``, horizon ``T = 1``; the default
    time step follows the ``tau = h^2`` rule.  The coefficient ratio is the
    constant ``kappa = 2`` demanded by the unconditional-stability result.
    """
    grid = Grid1D(0.0, 2.0, nx)
    if nt is None:
        nt = round(1.0 / grid.h ** 2)
    return DiffusionProblem(
        alpha=alpha,
        grid=grid,
        d_plus=lambda x: np.asarray(x, dtype=float) ** alpha,
        d_minus=lambda x: 2.0 * np.asarray(x, dtype=float) ** alpha,
        source=_Table2Source(alpha),
        initial=lambda x: table2_exact(x, 0.0),
        horizon=1.0,
        nt=nt,
        kappa=2.0,
    )


# Expression ids accepted by the JSON problem config (see wsld.cli).
_EXPRESSIONS: dict[str, Callable[[float], Callable]] = {
    "x^alpha": lambda alpha: (lambda x: np.asarray(x, dtype=float) ** alpha),
    "2x^alpha": lambda alpha: (lambda x: 2.0 * np.asarray(x, dtype=float) ** alpha),
    "zero": lambda alpha: (lambda x: np.zeros_like(np.asarray(x, dtype=float))),
    "one": lambda alpha: (lambda x: np.ones_like(np.asarray(x, dtype=float))),
    "x^8": lambda alpha: table1_exact,
    "table1_source": table1_source,
    "table2_forcing": _Table2Source,
    "table2_initial": lambda alpha: (lambda x: table2_exact(x, 0.0)),
    "zero_source": lambda alpha: (lambda x, t: np.zeros(np.broadcast(x, t).shape)),
}

EXPRESSION_IDS = tuple(sorted(_EXPRESSIONS))


def expression(name: str, alpha: float) -> Callable:
    """Resolve a built-in expression id to a callable for the given alpha."""
    try:
        factory = _EXPRESSIONS[name]
    except KeyError:
        raise KeyError(
            f"unknown expression id {name!r}; available: {', '.join(EXPRESSION_IDS)}"
        ) from None
    return factory(alpha)
