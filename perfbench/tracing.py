"""Spans around the calls into each ``wsld`` layer, recorded from outside.

While installed, the tracer replaces the module attributes each layer calls
through with wrappers that record a span: name, start, end, parent span, run
id, whether it raised, and counts computed from the arguments and result
array sizes. Spans stay in memory; :func:`layer_metrics` turns the spans of
one run into the per-layer metrics, with self time being a span's duration
minus the time its child spans cover. Nothing in ``src/`` changes.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, NamedTuple

import wsld.benchmarks
import wsld.operators
import wsld.solver
import wsld.spectral

# (name, unit, better) of every per-layer metric, in report order.
LAYER_METRICS = (
    ("coefficients.lubich_coeffs.calls", "count", "lower"),
    ("coefficients.lubich_coeffs.terms", "count", "lower"),
    ("coefficients.lubich_coeffs.self_s", "s", "lower"),
    ("coefficients.lubich_coeffs.useful_ratio", "1", "higher"),
    ("operators.phi.calls", "count", "lower"),
    ("operators.phi.self_s", "s", "lower"),
    ("operators.assemble_left.calls", "count", "lower"),
    ("operators.assemble_left.self_s", "s", "lower"),
    ("operators.apply_operator.calls", "count", "lower"),
    ("operators.apply_operator.self_s", "s", "lower"),
    ("operators.apply_operator.flops", "flop", "lower"),
    ("solver.assemble_cn_system.self_s", "s", "lower"),
    ("solver.lu_factor.calls", "count", "lower"),
    ("solver.lu_factor.s", "s", "lower"),
    ("solver.lu_factor.flops", "flop", "lower"),
    ("solver.cn_system.bytes", "B", "lower"),
    ("solver.steps", "count", "lower"),
    ("solver.step_us", "us", "lower"),
    ("solver.source.s", "s", "lower"),
    ("solver.lu_solve.calls", "count", "lower"),
    ("solver.lu_solve.s", "s", "lower"),
    ("solver.cn_solve.self_s", "s", "lower"),
    ("solver.matvec.flops", "flop", "lower"),
    ("solver.cn_solve.failures", "count", "lower"),
    ("spectral.definiteness_scan.calls", "count", "lower"),
    ("spectral.definiteness_scan.self_s", "s", "lower"),
    ("spectral.genfn.points", "count", "lower"),
    ("spectral.eigen_probe.calls", "count", "lower"),
    ("spectral.eigen_probe.self_s", "s", "lower"),
    ("benchmarks.run_table2.self_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

# Counts of work and their ratio; they must repeat exactly from run to run.
EXACT_METRICS = tuple(name for name, unit, _ in LAYER_METRICS
                      if unit in ("count", "flop", "B")
                      ) + ("coefficients.lubich_coeffs.useful_ratio",)


class Span(NamedTuple):
    run: int
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    failed: bool
    counts: dict | None


# Counts derived from arguments and results ("computed" metrics).

def _lubich_counts(args, kwargs, result) -> dict:
    return {"terms": int(result.size), "key": (args[0], args[1])}


def _apply_counts(args, kwargs, result) -> dict:
    # A right-side call recurses into a left-side one, which does the
    # convolution: only that inner call counts flops.
    if kwargs.get("side", "left") != "left":
        return {"flops": 0}
    nodes, scheme = len(args[0]), args[1]
    return {"flops": 2 * nodes * (nodes + scheme.m)}


def _system_counts(args, kwargs, result) -> dict:
    lu, piv = result.lu
    return {"bytes": result.m_lhs.nbytes + result.m_rhs.nbytes + lu.nbytes + piv.nbytes}


def _cn_counts(args, kwargs, result) -> dict:
    nodes = result.u.size
    return {"steps": result.steps, "flops": 2 * result.steps * nodes * nodes}


def _lu_factor_counts(args, kwargs, result) -> dict:
    nodes = args[0].shape[0]
    return {"flops": 2 * nodes ** 3 // 3}


def _scan_counts(args, kwargs, result) -> dict:
    alphas = kwargs.get("alpha_grid")
    xs = kwargs.get("x_grid")
    if alphas is None:
        alphas = wsld.spectral.default_alpha_grid()
    if xs is None:
        xs = wsld.spectral.default_x_grid()
    return {"points": len(alphas) * len(xs)}


class Tracer:
    """Records spans of the calls made while :meth:`installed` is active."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._run = 0

    def wrap(self, name: str, fn: Callable,
             counts: Callable[[tuple, dict, Any], dict] | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(span_id, parent, name, start, time.perf_counter(), True, None)
                raise
            end = time.perf_counter()
            self._close(span_id, parent, name, start, end, False,
                        counts(args, kwargs, result) if counts else None)
            return result
        return traced

    def _close(self, span_id, parent, name, start, end, failed, counts) -> None:
        self._stack.pop()
        self.spans.append(Span(self._run, span_id, parent, name, start, end,
                               failed, counts))

    @contextmanager
    def installed(self, run: int, problems=()):
        """Wrap the names each layer calls through, for one run; then restore."""
        ops, sol, spec, bench = wsld.operators, wsld.solver, wsld.spectral, wsld.benchmarks
        originals = {}

        def patch(owner, attr, name, counts=None, wrapper=None):
            fn = originals[(owner, attr)] = getattr(owner, attr)
            setattr(owner, attr, wrapper or self.wrap(name, fn, counts))

        def traced_problem(*args, **kwargs):
            problem = originals[(bench, "table2_problem")](*args, **kwargs)
            problem.source = self.wrap("solver.source", problem.source)
            return problem

        self._run = run
        saved_sources = [(p, p.source) for p in problems]
        try:
            patch(ops, "lubich_coeffs", "coefficients.lubich_coeffs", _lubich_counts)
            patch(ops.WsldScheme, "phi", "operators.phi")
            patch(ops, "assemble_left", "operators.assemble_left")
            patch(sol, "assemble_left", "operators.assemble_left")
            patch(ops, "apply_operator", "operators.apply_operator", _apply_counts)
            patch(sol, "assemble_cn_system", "solver.assemble_cn_system", _system_counts)
            patch(sol, "cn_solve", "solver.cn_solve", _cn_counts)
            patch(bench, "cn_solve", "solver.cn_solve", _cn_counts)
            # solver calls scipy.linalg through its module object ``sla``
            patch(sol.sla, "lu_factor", "solver.lu_factor", _lu_factor_counts)
            patch(sol.sla, "lu_solve", "solver.lu_solve")
            patch(bench, "table2_problem", None, wrapper=traced_problem)
            patch(spec, "definiteness_scan", "spectral.definiteness_scan", _scan_counts)
            patch(spec, "eigen_probe", "spectral.eigen_probe")
            patch(bench, "run_table2", "benchmarks.run_table2")
            for problem, source in saved_sources:
                problem.source = self.wrap("solver.source", source)
            yield self
        finally:
            for (owner, attr), fn in originals.items():
                setattr(owner, attr, fn)
            for problem, source in saved_sources:
                problem.source = source

    def take(self) -> list[Span]:
        """Return the spans recorded so far and forget them."""
        spans, self.spans = self.spans, []
        return spans


def write_spans(path, spans: list[Span]) -> None:
    """Write spans as gzip-compressed JSON lines."""
    with gzip.open(path, "wt") as out:
        for s in spans:
            out.write(json.dumps({"run": s.run, "id": s.id, "parent": s.parent,
                                  "name": s.name, "start": s.start, "end": s.end,
                                  "failed": s.failed}) + "\n")


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one run's spans (no ``trace.overhead_s``)."""
    duration = {s.id: s.end - s.start for s in spans}
    name_of = {s.id: s.name for s in spans}
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += duration[s.id]
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    counted: dict[str, int] = defaultdict(int)
    needed: dict[tuple, int] = {}
    failures = 0
    cn_stepping = 0.0
    for s in spans:
        calls[s.name] += 1
        total[s.name] += duration[s.id]
        self_s[s.name] += duration[s.id] - child_time[s.id]
        if s.name == "solver.cn_solve":
            failures += s.failed
            cn_stepping += duration[s.id]
        elif s.name == "solver.assemble_cn_system" and name_of.get(s.parent) == "solver.cn_solve":
            cn_stepping -= duration[s.id]
        for key, value in (s.counts or {}).items():
            if key == "key":
                needed[value] = max(needed.get(value, 0), s.counts["terms"])
            else:
                counted[f"{s.name}.{key}"] += value
    terms = counted["coefficients.lubich_coeffs.terms"]
    steps = counted["solver.cn_solve.steps"]
    return {
        "coefficients.lubich_coeffs.calls": calls["coefficients.lubich_coeffs"],
        "coefficients.lubich_coeffs.terms": terms,
        "coefficients.lubich_coeffs.self_s": self_s["coefficients.lubich_coeffs"],
        # 1 when nothing was computed: no work was wasted.
        "coefficients.lubich_coeffs.useful_ratio": sum(needed.values()) / terms if terms else 1.0,
        "operators.phi.calls": calls["operators.phi"],
        "operators.phi.self_s": self_s["operators.phi"],
        "operators.assemble_left.calls": calls["operators.assemble_left"],
        "operators.assemble_left.self_s": self_s["operators.assemble_left"],
        "operators.apply_operator.calls": calls["operators.apply_operator"],
        "operators.apply_operator.self_s": self_s["operators.apply_operator"],
        "operators.apply_operator.flops": counted["operators.apply_operator.flops"],
        "solver.assemble_cn_system.self_s": self_s["solver.assemble_cn_system"],
        "solver.lu_factor.calls": calls["solver.lu_factor"],
        "solver.lu_factor.s": total["solver.lu_factor"],
        "solver.lu_factor.flops": counted["solver.lu_factor.flops"],
        "solver.cn_system.bytes": counted["solver.assemble_cn_system.bytes"],
        "solver.steps": steps,
        "solver.step_us": 1e6 * cn_stepping / steps if steps else 0.0,
        "solver.source.s": total["solver.source"],
        "solver.lu_solve.calls": calls["solver.lu_solve"],
        "solver.lu_solve.s": total["solver.lu_solve"],
        "solver.cn_solve.self_s": self_s["solver.cn_solve"],
        "solver.matvec.flops": counted["solver.cn_solve.flops"],
        "solver.cn_solve.failures": failures,
        "spectral.definiteness_scan.calls": calls["spectral.definiteness_scan"],
        "spectral.definiteness_scan.self_s": self_s["spectral.definiteness_scan"],
        "spectral.genfn.points": counted["spectral.definiteness_scan.points"],
        "spectral.eigen_probe.calls": calls["spectral.eigen_probe"],
        "spectral.eigen_probe.self_s": self_s["spectral.eigen_probe"],
        "benchmarks.run_table2.self_s": self_s["benchmarks.run_table2"],
        "trace.spans": len(spans),
    }
