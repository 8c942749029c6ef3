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
independent, so it is LU-factored once.  It is written from O(N) data (the
Toeplitz band of ``phi`` values and the coefficient samples) into one N x N
array, which LAPACK factors in place.  The explicit matrix ``M+ = I + cS``
equals ``2I - M-``, so ``M- U^{n+1} = (2I - M-) U^n + tau F`` reads
``U^{n+1} = 2W - U^n`` with ``M- W = U^n + (tau/2) F``: each step samples the
forcing at the half step and forms ``U^{n+1}`` from the stored factors by one
of two paths, chosen from the run's shape.  A run of fewer than ``2N`` steps
on ``N`` unknowns solves with one LAPACK ``getrs`` call per step.  A longer
run inverts ``M-`` once (LAPACK ``getri``) and takes each step as one BLAS
``gemv``, ``U^{n+1} = 2 M-^{-1} (U^n + (tau/2) F) - U^n``: two triangular
solves cost about twice a matrix-vector product of the same size, so the
inversion pays for itself after about ``N`` to ``2N`` steps.
With the proven-stable shift tuple the spatial operator is negative definite
and the stepping is unconditionally stable; with a plain unshifted operator it
visibly blows up (see :func:`stability_probe`).

``scipy.linalg`` is imported by the first factorization, not with the module,
so ``import wsld`` and every layer that factors nothing need numpy only.  The
attribute ``solver.sla`` still resolves to ``scipy.linalg`` (loading it), for
callers that patch its ``lu_factor`` and ``lu_solve``; the functions here look
those names up on the module at each call, so a patch takes effect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .coefficients import _is_integer
from .operators import WsldScheme, _band, assemble_left

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

#: :func:`cn_solve` inverts ``M-`` once when a run takes at least this many
#: steps per matrix row.  With BLAS on one thread, one ``getri`` costs as much
#: as the per-step saving of ``gemv`` over ``getrs`` summed over 0.9N, 1.1N
#: and 2.0N steps at N = 161, 641 and 1281.
_INVERT_STEPS_PER_ROW = 2


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid ``x_i = x_left + i h`` with ``h = (x_right - x_left)/nx``."""

    x_left: float
    x_right: float
    nx: int

    def __post_init__(self) -> None:
        if not (self.x_left < self.x_right
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
    half step ``tau/2`` finite.  ``kappa`` optionally records the constant
    ratio ``d_minus = kappa*d_plus`` assumed by the unconditional-stability
    result; when given, the sampled coefficients are checked against it
    exactly.
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
        if not (self.horizon > 0 and math.isfinite(self.horizon)):
            raise ValueError("need a finite horizon > 0")
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
    ``(left, right)``.  For ``alpha in (1, 2)`` the problem carries a second
    boundary value; the last equation is replaced by the constraint
    ``u(x_right) = bc[1]``, and the zero extension fixes the left value, so
    ``bc[0]`` must be 0.  A shifted scheme (``m > 0``) reads
    ``m`` nodes past ``x_right``, where the zero extension puts 0, so it also
    needs ``bc[1] = 0``.

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
    grid = problem.grid
    band = _band(scheme, grid.nx)
    x = grid.nodes()
    dp = np.asarray(problem.d_plus(x), dtype=float)
    dm = np.asarray(problem.d_minus(x), dtype=float)
    c = problem.tau / (2.0 * grid.h ** problem.alpha)
    import scipy.linalg as sla

    lu, piv = sla.lu_factor(_cn_matrix(band, dp, dm, c), overwrite_a=True)
    if not np.all(np.isfinite(lu)) or np.any(np.diag(lu) == 0.0):
        raise np.linalg.LinAlgError("implicit Crank-Nicolson matrix is singular")
    return CnSystem(band=band, d_plus=dp, d_minus=dm, c=c, lu=(lu, piv))


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


def cn_solve(problem: DiffusionProblem, scheme: WsldScheme) -> SolveResult:
    """Advance the Crank-Nicolson scheme to ``t = horizon``.

    The implicit matrix ``M-`` is factored once.  Each step samples the
    forcing ``F`` at the half step ``t_{n+1/2}``, solves
    ``M- W = U^n + (tau/2) F`` and sets ``U^{n+1} = 2W - U^n``.  This is the
    step ``M- U^{n+1} = M+ U^n + tau F`` with ``M+ = 2I - M-``.  A run of
    ``nt >= 2N`` steps on ``N = nx + 1`` unknowns inverts ``M-`` once from its
    factors (LAPACK ``getri``, into a new array, so ``CnSystem.lu`` stays the
    factors) and takes each step as one BLAS ``gemv`` that writes
    ``2 M-^{-1} rhs - U^n`` over ``U^n``.  A shorter run, where the inversion
    would not pay for itself, calls LAPACK ``getrs`` on the stored factors
    once per step (the routine behind ``scipy.linalg.lu_solve``, without its
    per-call wrapper).  The initial data are copied first, so the array
    ``problem.initial`` returns is never written.  The boundary entries of
    the right-hand side are ``U^n/2``, which the identity rows map to
    ``U^{n+1} = 0`` there; that zero is then written exactly.  A step whose
    sup norm exceeds ``BLOWUP_THRESHOLD`` or is not finite, including one
    whose forcing is not finite, aborts with :class:`InstabilityError`, which
    carries the step, its time and the norm.
    """
    system = assemble_cn_system(problem, scheme)
    lu, piv = system.lu
    import scipy.linalg as sla

    inverse = None
    if problem.nt >= _INVERT_STEPS_PER_ROW * lu.shape[0]:
        getri, = sla.get_lapack_funcs(("getri",), (lu,))
        inverse, info = getri(lu, piv)  # a new Fortran array; lu is kept
        if info != 0:
            raise ValueError(f"LAPACK getri failed with info = {info}")
        gemv, = sla.get_blas_funcs(("gemv",), (inverse,))
    else:
        getrs, = sla.get_lapack_funcs(("getrs",), (lu,))
    grid = problem.grid
    x = grid.nodes()
    tau = problem.tau
    # a copy: the gemv step writes U^{n+1} over U^n in place
    u = np.array(problem.initial(x), dtype=float)
    sup = float(np.abs(u).max())
    for n in range(problem.nt):
        t_half = (n + 0.5) * tau
        rhs = u + 0.5 * tau * problem.source(x, t_half)
        rhs[0], rhs[-1] = 0.5 * u[0], 0.5 * u[-1]
        if inverse is not None:
            u = gemv(2.0, inverse, rhs, beta=-1.0, y=u, overwrite_y=True)
        else:
            w, info = getrs(lu, piv, rhs, overwrite_b=True)
            if info != 0:
                raise ValueError(f"illegal value in argument {-info} of LAPACK getrs")
            u = 2.0 * w - u
        u[0] = u[-1] = 0.0
        step_sup = float(np.abs(u).max())
        if not step_sup <= BLOWUP_THRESHOLD:  # also catches NaN
            raise InstabilityError(n + 1, (n + 1) * tau, step_sup)
        sup = max(sup, step_sup)
    return SolveResult(u=u, steps=problem.nt, sup_norm=sup)


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

    Reports the running sup norm; crossing ``BLOWUP_THRESHOLD`` stops the run
    and marks it unbounded, with the step at which it blew up in
    ``steps_completed``.  With the negative-definite default tuple the sup
    norm stays of the order of the solution scale for any ratio; the
    unshifted operator diverges within tens of steps.  ``tau_over_h`` must be
    finite and positive, and ``n_steps`` an integer >= 1.
    """
    if not (math.isfinite(tau_over_h) and tau_over_h > 0):
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


def _table2_source(alpha: float) -> Callable[[np.ndarray, float], np.ndarray]:
    """Forcing of the Table 2 problem, ``f(x, t)``.

    The fractional powers depend on ``x`` alone: they are computed once per
    node array, in a one-entry cache keyed by the shape and the bytes of the
    last ``x`` (so ``-0.0`` and ``0.0`` are different keys).  Each call
    multiplies in the order of the unfactored formula, so the samples are
    bitwise those of evaluating it in full.
    """
    g = math.gamma
    c = [g(9) / g(9 - alpha), 8 * g(8) / g(8 - alpha), 24 * g(7) / g(7 - alpha),
         32 * g(6) / g(6 - alpha), 16 * g(5) / g(5 - alpha)]
    cache = None  # (key, x**4, (2-x)**4, x**alpha, bracket), replaced as a whole

    def f(x: np.ndarray, t: float) -> np.ndarray:
        nonlocal cache
        x = np.asarray(x, dtype=float)
        key = (x.shape, x.tobytes())
        entry = cache
        if entry is None or entry[0] != key:
            y = 2.0 - x
            bracket = (
                c[0] * (x ** (8 - alpha) + 2 * y ** (8 - alpha))
                - c[1] * (x ** (7 - alpha) + 2 * y ** (7 - alpha))
                + c[2] * (x ** (6 - alpha) + 2 * y ** (6 - alpha))
                - c[3] * (x ** (5 - alpha) + 2 * y ** (5 - alpha))
                + c[4] * (x ** (4 - alpha) + 2 * y ** (4 - alpha))
            )
            entry = cache = (key, x ** 4, y ** 4, x ** alpha, bracket)
        _, x4, y4, xa, bracket = entry
        return math.cos(t + 1.0) * x4 * y4 - xa * math.sin(t + 1.0) * bracket

    return f


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
        source=_table2_source(alpha),
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
    "table2_forcing": _table2_source,
    "table2_initial": lambda alpha: (lambda x: table2_exact(x, 0.0)),
    "zero_source": lambda alpha: (lambda x, t: np.zeros_like(np.asarray(x, dtype=float))),
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
