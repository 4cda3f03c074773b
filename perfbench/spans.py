"""Per-layer spans recorded from outside the solver.

Each span wraps one function at the module where its caller looks it up,
so the wrapper sees exactly the calls the solver makes (for example
solver.conic_cover_points, not cover.conic_cover_points).  A span's self
time is its duration minus the time of wrapped spans nested inside it.
High-frequency helpers such as eval_form stay unwrapped to keep the
overhead low.  A function that a later version of the program no longer
has is reported as absent rather than failing the run.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass, field
from typing import Callable, Optional


def _len(args: tuple, result: object) -> int:
    return len(result)  # type: ignore[arg-type]


def _candidates(args: tuple, result: object) -> int:
    return len(args[0])


def _sweep_witnesses(args: tuple, result: object) -> int:
    return len(result[1])  # type: ignore[index]


def _found(args: tuple, result: object) -> int:
    return int(result is not None)


@dataclass(frozen=True)
class Span:
    """One wrapped function: the metric prefix, where it is looked up, and
    an optional count computed from the call's arguments and result."""

    name: str
    modules: tuple[str, ...]
    attr: str
    count: Optional[Callable[[tuple, object], int]] = None


SPANS = (
    Span("solver.reduce", ("blocksel.solver",), "reduce", _len),
    Span("solver.solve_block", ("blocksel.solver",), "solve_block"),
    Span("solver.solve_diagonal", ("blocksel.solver",), "solve_diagonal"),
    Span("solver.finish", ("blocksel.solver",), "finish", _candidates),
    Span("linalg.residual_quadratic", ("blocksel.solver",), "residual_quadratic"),
    Span("linalg.quadratic_minimum", ("blocksel.solver",), "quadratic_minimum"),
    Span("linalg.least_squares", ("blocksel.solver",), "least_squares"),
    Span("arrangement.sweep_1d", ("blocksel.solver",), "sweep_1d", _sweep_witnesses),
    Span("arrangement.enumerate_cells", ("blocksel.solver",), "enumerate_cells", _len),
    Span("arrangement.merge_hyperplanes", ("blocksel.solver",), "merge_hyperplanes", _len),
    Span("cover.line_cover_points", ("blocksel.solver",), "line_cover_points", _len),
    Span("cover.conic_cover_points", ("blocksel.solver",), "conic_cover_points", _len),
    Span("roots.isolate_real_roots", ("blocksel.cover", "blocksel.arrangement"), "isolate_real_roots"),
    Span("lp.strict_sign_witness", ("blocksel.arrangement",), "strict_sign_witness", _found),
    Span("separable.build_d", ("blocksel.solver",), "build_d", _len),
    Span("separable.chain_solve", ("blocksel.solver",), "chain_solve"),
    Span("model.make_solution", ("blocksel.solver",), "make_solution"),
    Span("model.validate", ("blocksel.solver", "blocksel.cli"), "validate"),
    Span("cli.load_instance", ("blocksel.cli",), "load_instance"),
)


@dataclass
class Totals:
    calls: float = 0
    s: float = 0.0
    self_s: float = 0.0
    count: float = 0


@dataclass
class Recorder:
    """Span totals for one process; install() wraps the functions in place."""

    totals: dict[str, Totals] = field(default_factory=dict)
    absent: list[str] = field(default_factory=list)
    _stack: list[list[float]] = field(default_factory=list)

    def install(self) -> None:
        for span in SPANS:
            found = False
            for module_name in span.modules:
                module = importlib.import_module(module_name)
                func = getattr(module, span.attr, None)
                if func is None:
                    continue
                setattr(module, span.attr, self._wrap(span, func))
                found = True
            if found:
                self.totals[span.name] = Totals()
            else:
                self.absent.append(span.name)

    def _wrap(self, span: Span, func: Callable) -> Callable:
        stack = self._stack
        name = span.name
        count = span.count

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            frame = [0.0]  # time covered by nested wrapped spans
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                took = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += took
                totals = self.totals[name]
                totals.calls += 1
                totals.s += took
                totals.self_s += took - frame[0]
            if count is not None:
                totals.count += count(args, result)
            return result

        return wrapper

    def snapshot(self) -> dict:
        return {
            "totals": {name: vars(t).copy() for name, t in self.totals.items()},
            "absent": list(self.absent),
        }


# Per-layer metrics: (metric name, span, field, unit).  Field "ratio" is the
# counter over the call count.
METRICS = (
    ("solver.solve_block.self_s", "solver.solve_block", "self_s", "s"),
    ("solver.solve_diagonal.self_s", "solver.solve_diagonal", "self_s", "s"),
    ("solver.finish.s", "solver.finish", "s", "s"),
    ("solver.finish.candidates", "solver.finish", "count", "count"),
    ("solver.reduce.subproblems", "solver.reduce", "count", "count"),
    ("linalg.residual_quadratic.calls", "linalg.residual_quadratic", "calls", "count"),
    ("linalg.residual_quadratic.s", "linalg.residual_quadratic", "s", "s"),
    ("linalg.quadratic_minimum.calls", "linalg.quadratic_minimum", "calls", "count"),
    ("linalg.quadratic_minimum.s", "linalg.quadratic_minimum", "s", "s"),
    ("linalg.least_squares.calls", "linalg.least_squares", "calls", "count"),
    ("arrangement.sweep_1d.s", "arrangement.sweep_1d", "s", "s"),
    ("arrangement.sweep_1d.witnesses", "arrangement.sweep_1d", "count", "count"),
    ("arrangement.enumerate_cells.s", "arrangement.enumerate_cells", "s", "s"),
    ("arrangement.enumerate_cells.cells", "arrangement.enumerate_cells", "count", "count"),
    ("arrangement.merge_hyperplanes.surfaces", "arrangement.merge_hyperplanes", "count", "count"),
    ("cover.line_cover_points.s", "cover.line_cover_points", "s", "s"),
    ("cover.line_cover_points.witnesses", "cover.line_cover_points", "count", "count"),
    ("cover.conic_cover_points.s", "cover.conic_cover_points", "s", "s"),
    ("cover.conic_cover_points.witnesses", "cover.conic_cover_points", "count", "count"),
    ("roots.isolate_real_roots.calls", "roots.isolate_real_roots", "calls", "count"),
    ("roots.isolate_real_roots.s", "roots.isolate_real_roots", "s", "s"),
    ("lp.strict_sign_witness.calls", "lp.strict_sign_witness", "calls", "count"),
    ("lp.strict_sign_witness.s", "lp.strict_sign_witness", "s", "s"),
    ("lp.strict_sign_witness.feasible_ratio", "lp.strict_sign_witness", "ratio", "ratio"),
    ("separable.build_d.s", "separable.build_d", "s", "s"),
    ("separable.build_d.exchanges", "separable.build_d", "count", "count"),
    ("separable.chain_solve.calls", "separable.chain_solve", "calls", "count"),
    ("separable.chain_solve.s", "separable.chain_solve", "s", "s"),
    ("model.make_solution.s", "model.make_solution", "s", "s"),
    ("model.validate.s", "model.validate", "s", "s"),
    ("cli.load_instance.s", "cli.load_instance", "s", "s"),
)


def _per_pass(snapshots: list[dict]) -> dict[str, Totals]:
    """Span totals averaged over the traced passes."""
    passes = len(snapshots)
    merged: dict[str, Totals] = {}
    for snap in snapshots:
        for name, t in snap["totals"].items():
            acc = merged.setdefault(name, Totals())
            acc.calls += t["calls"] / passes
            acc.s += t["s"] / passes
            acc.self_s += t["self_s"] / passes
            acc.count += t["count"] / passes
    return merged


def layer_metrics(snapshots: list[dict]) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Per-pass mean of every per-layer metric over the traced passes.

    Returns the metrics and the span names absent from the program; an
    absent span's metrics read 0.
    """
    absent = sorted({name for snap in snapshots for name in snap["absent"]})
    merged = _per_pass(snapshots)
    out: dict[str, tuple[float, str]] = {}
    for metric, span, what, unit in METRICS:
        t = merged.get(span, Totals())
        if what == "ratio":
            value = t.count / t.calls if t.calls else 0.0
        else:
            value = getattr(t, what)
        out[metric] = (value, unit)
    return out, absent


def self_time_table(snapshots: list[dict]) -> list[tuple[str, float, float, int]]:
    """(span, self seconds, inclusive seconds, calls) per pass, by self time."""
    rows = [(name, t.self_s, t.s, round(t.calls)) for name, t in _per_pass(snapshots).items()]
    return sorted(rows, key=lambda row: -row[1])
