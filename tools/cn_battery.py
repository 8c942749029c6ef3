"""Bitwise battery of the Crank-Nicolson solver: one sha256 digest over 870 runs.

Run from a checkout, with one BLAS thread so that the products round the same
way from run to run:

    OPENBLAS_NUM_THREADS=1 python3 tools/cn_battery.py

It imports ``wsld`` from the checkout's ``src/`` and prints one line, the
digest.  Two trees whose solver steps every run bitwise alike print the same
digest, so a refactor of the step loop, the step paths or the forcing
sampling that claims to change no output is checked by running this script
on both trees.  ``--verbose`` also prints each case's id, outcome and digest.

A change that moves the rounding of some runs on purpose (a new span size on
the inverse path, say) is checked by tolerance instead:

    OPENBLAS_NUM_THREADS=1 python3 tools/cn_battery.py --save before.npz
    # ... on the changed tree:
    OPENBLAS_NUM_THREADS=1 python3 tools/cn_battery.py --compare before.npz

``--save`` writes each case's id, outcome (``ok`` or the exception's type),
failing step (the step an exception names, or -1), solution and sup norm to
an ``.npz`` file.  ``--compare`` runs the battery and prints, per step path,
the worst relative deviation from the saved runs of the solution (in the
max norm) and of the sup norm over the cases that succeed on both sides, and
lists every case whose outcome or failing step differs; it exits with 1 if
any does.  Both also print the digest.

The cases are every combination of

* the step path, forced: ``getrs``, ``matrix-free`` and ``gemv``;
* ``nx`` in {40, 160, 320} and ``nt`` in {5, 10, 61, 137, 270, 300};
* the default scheme ``wsld_scheme(4, alpha)`` and the unshifted
  ``wsld_scheme(4, alpha, shifts=0)``;
* eight problems: Table 2 at alpha = 1.5 and 1.9; the unfactored source
  ``sin(3x(t+1))`` with ``d+ = x^1.3``, ``d- = 0.5 x^1.3``, alpha = 1.3 and
  horizon ``0.5 nt / 200``, with and without ``kappa = 0.5``; that problem
  with initial data 1 (nonzero boundary data under a plain source); Table 2
  with initial data ``1 + x``; Table 2 and the unfactored problem with
  initial data ``-x(2-x)``, which is -0.0 on both boundary nodes.

Six runs at scale follow, on the path the solver's rule picks, which is
matrix-free for each: Table 2 at alpha = 1.1, 1.5 and 1.9, with 20 steps at
nx = 2560 and with 5 steps at nx = 10240 (about 1 s in all).

A case's digest is sha256 over the solution's bytes, ``repr`` of its sup
norm and its step count, or over the exception's type and message; the
printed digest is sha256 over the 870 case digests in order.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from wsld import solver  # noqa: E402
from wsld.operators import wsld_scheme  # noqa: E402
from wsld.solver import DiffusionProblem, Grid1D, cn_solve, table2_problem  # noqa: E402

PATHS = ("getrs", "matrix-free", "gemv")
NX = (40, 160, 320)
NT = (5, 10, 61, 137, 270, 300)
#: ``(nx, nt)`` of the runs at scale, each at every alpha of ``SCALE_ALPHAS``.
SCALE = ((2560, 20), (10240, 5))
SCALE_ALPHAS = (1.1, 1.5, 1.9)


def _unfactored(nx: int, nt: int, kappa: float | None) -> DiffusionProblem:
    # a forcing that does not split into a factor in x times one in t
    return DiffusionProblem(
        alpha=1.3, grid=Grid1D(0.0, 2.0, nx),
        d_plus=lambda x: x ** 1.3, d_minus=lambda x: 0.5 * x ** 1.3,
        source=lambda x, t: np.sin(3 * x * (t + 1)),
        initial=lambda x: x * (2.0 - x), horizon=0.5 * nt / 200, nt=nt,
        kappa=kappa)


def _with_initial(problem: DiffusionProblem, initial) -> DiffusionProblem:
    problem.initial = initial
    return problem


def _negative_bump(x):
    return -x * (2.0 - x)


PROBLEMS = {
    "table2-1.5": lambda nx, nt: table2_problem(1.5, nx, nt),
    "table2-1.9": lambda nx, nt: table2_problem(1.9, nx, nt),
    "unfactored": lambda nx, nt: _unfactored(nx, nt, None),
    "unfactored-kappa": lambda nx, nt: _unfactored(nx, nt, 0.5),
    "unfactored-one": lambda nx, nt: _with_initial(
        _unfactored(nx, nt, 0.5), lambda x: np.ones_like(x)),
    "table2-one-plus-x": lambda nx, nt: _with_initial(
        table2_problem(1.5, nx, nt), lambda x: 1.0 + x),
    "table2-negative-zero": lambda nx, nt: _with_initial(
        table2_problem(1.5, nx, nt), _negative_bump),
    "unfactored-negative-zero": lambda nx, nt: _with_initial(
        _unfactored(nx, nt, 0.5), _negative_bump),
}


def _case(problem: DiffusionProblem, shifts):
    """``(outcome, failing step, u, sup norm, digest)`` of one run.

    A failed run has an empty ``u`` and a NaN sup norm; its failing step is
    the exception's ``step``, or the one its message names, or -1.
    """
    digest = hashlib.sha256()
    scheme = (wsld_scheme(4, problem.alpha) if shifts is None
              else wsld_scheme(4, problem.alpha, shifts=shifts))
    try:
        result = cn_solve(problem, scheme)
    except Exception as exc:  # the outcome is data here
        outcome = type(exc).__name__
        digest.update(f"{outcome}: {exc}".encode())
        named = re.search(r"\bstep (\d+)", str(exc))
        step = getattr(exc, "step", int(named[1]) if named else -1)
        return outcome, step, np.empty(0), float("nan"), digest.hexdigest()
    digest.update(result.u.tobytes())
    digest.update(repr(result.sup_norm).encode())
    digest.update(repr(result.steps).encode())
    return "ok", -1, result.u, result.sup_norm, digest.hexdigest()


def run(verbose: bool = False):
    """The battery's digest and its cases, ``(id, path, outcome, step, u, sup)``."""
    total = hashlib.sha256()
    outcomes: dict[str, int] = {}
    cases = []

    def record(case_id, path, problem, shifts):
        outcome, step, u, sup, digest = _case(problem, shifts)
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
        total.update(digest.encode())
        cases.append((case_id, path, outcome, step, u, sup))
        if verbose:
            print(f"{case_id}: {outcome} {digest}")

    original = solver._step_path
    try:
        for path, nx, nt, shifts, name in itertools.product(
                PATHS, NX, NT, (None, 0), PROBLEMS):
            solver._step_path = lambda size, steps, scheme, path=path: path
            scheme = "default" if shifts is None else "unshifted"
            record(f"{path} nx={nx} nt={nt} {scheme} {name}", path,
                   PROBLEMS[name](nx, nt), shifts)
    finally:
        solver._step_path = original
    for (nx, nt), alpha in itertools.product(SCALE, SCALE_ALPHAS):
        path = solver._step_path(nx + 1, nt, wsld_scheme(4, alpha))
        if path != "matrix-free":
            raise SystemExit(f"nx={nx} nt={nt} alpha={alpha} takes {path}, not matrix-free")
        record(f"rule nx={nx} nt={nt} alpha={alpha}", "rule",
               table2_problem(alpha, nx, nt), None)
    if verbose:
        print(", ".join(f"{n} {k}" for k, n in sorted(outcomes.items())))
    return total.hexdigest(), cases


def save(path: str, cases) -> None:
    """Write the cases to ``path``, the solutions end to end with their offsets."""
    ids, paths, outcomes, steps, us, sups = zip(*cases)
    offsets = np.cumsum([0] + [u.size for u in us])
    np.savez(path, ids=np.array(ids), paths=np.array(paths),
             outcomes=np.array(outcomes), steps=np.array(steps),
             u=np.concatenate(us), offsets=offsets, sup_norms=np.array(sups))


def _deviation(got: np.ndarray, want: np.ndarray) -> float:
    """``max |got - want| / max |want|``, 0 where both are 0."""
    scale = float(np.abs(want).max(initial=0.0))
    gap = float(np.abs(got - want).max(initial=0.0))
    return gap / scale if scale else gap


def compare(path: str, cases) -> int:
    """Print the deviations of ``cases`` from the runs saved at ``path``.

    Returns 1 if a case's id, outcome or failing step differs, else 0.
    """
    with np.load(path) as archive:
        saved = dict(archive)
    if saved["ids"].tolist() != [case[0] for case in cases]:
        print(f"{path} holds other cases than this battery")
        return 1
    offsets = saved["offsets"]
    worst: dict[str, list] = {}
    differing = []
    for k, (case_id, step_path, outcome, step, u, sup) in enumerate(cases):
        row = worst.setdefault(step_path, [0, 0, 0.0, 0.0])
        row[0] += 1
        was = (str(saved["outcomes"][k]), int(saved["steps"][k]))
        if (outcome, step) != was:
            differing.append(f"{case_id}: {was[0]} at step {was[1]} -> "
                             f"{outcome} at step {step}")
        elif outcome == "ok":
            row[1] += 1
            row[2] = max(row[2], _deviation(u, saved["u"][offsets[k]: offsets[k + 1]]))
            row[3] = max(row[3], _deviation(np.array(sup), saved["sup_norms"][k]))
    print(f"{'path':<12} {'cases':>5} {'ok':>5} {'u rel dev':>10} {'sup rel dev':>11}")
    for step_path, (count, ok, u_dev, sup_dev) in worst.items():
        print(f"{step_path:<12} {count:>5} {ok:>5} {u_dev:>10.3g} {sup_dev:>11.3g}")
    print(f"{len(differing)} cases differ in outcome or failing step")
    for line in differing:
        print(line)
    return 1 if differing else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--verbose", action="store_true",
                        help="print each case's outcome and digest")
    parser.add_argument("--save", metavar="PATH.npz",
                        help="write each case's outcome, failing step, u and sup norm")
    parser.add_argument("--compare", metavar="PATH.npz",
                        help="print the deviations from the runs saved by --save")
    args = parser.parse_args(argv)
    digest, cases = run(args.verbose)
    print(digest)
    if args.save:
        save(args.save, cases)
    return compare(args.compare, cases) if args.compare else 0


if __name__ == "__main__":
    sys.exit(main())
