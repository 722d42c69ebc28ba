"""Spans around the calls into each screwspec layer, for the traced run.

The wrappers are installed from here, at the name each caller looks up
(``screwspec.sweep.truncation_solve``, ``screwspec.oracle.eigh_tridiagonal``,
the entries of ``screwspec.verify.CHECKS``, ...), so the package itself is
not changed.  A wrapper records a span only while ``Tracer.active`` is set,
which the benchmark does around each timed operation: library calls made
by the output checks are not traced.  Spans stay in memory and are written
out when the run ends.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import time
from typing import Any, Callable

VERIFY_CHECKS = (
    "series-residual",
    "series-residual-alternate-denominator",
    "change-of-variable",
    "separation-identity",
    "truncation-self-consistency",
    "closed-form-audit",
    "ab-periodicity",
    "flat-oracle-validation",
    "outer-gamma-monotonicity",
    "rotation-affinity",
)

CLI_COMMANDS = ("energy", "sweep", "oracle", "verify")

MODULES = ("params", "operators", "series", "spectrum", "oracle", "sweep", "verify", "cli")

# (unit, better) of every per-layer metric, in the order they are reported
PER_LAYER = {
    "params.validate_calls": ("count", "lower"),
    "params.validate_ms": ("ms", "lower"),
    "spectrum.table_calls": ("count", "lower"),
    "spectrum.table_ms": ("ms", "lower"),
    "spectrum.truncation_self_ms": ("ms", "lower"),
    "spectrum.closed_form_self_ms": ("ms", "lower"),
    "spectrum.roots_returned": ("count", "lower"),
    "spectrum.roots_confirmed_ratio": ("ratio", "higher"),
    "series.coefficients_ms": ("ms", "lower"),
    "series.residual_ms": ("ms", "lower"),
    "operators.lhs_calls": ("count", "lower"),
    "operators.lhs_ms": ("ms", "lower"),
    "oracle.solves": ("count", "lower"),
    "oracle.grid_points": ("count", "lower"),
    "oracle.eigensolve_ms": ("ms", "lower"),
    "oracle.self_ms": ("ms", "lower"),
    "oracle.solves_to_tol": ("count", "lower"),
    "oracle.accepted_per_solve": ("ratio", "higher"),
    "sweep.points": ("count", "higher"),
    "sweep.gap_rows": ("count", "higher"),
    "sweep.self_ms": ("ms", "lower"),
    "sweep.csv_ms": ("ms", "lower"),
    **{f"verify.{name}_ms": ("ms", "lower") for name in VERIFY_CHECKS},
    "cli.interpreter_ms": ("ms", "lower"),
    "cli.import_ms": ("ms", "lower"),
    **{f"cli.{name}_ms": ("ms", "lower") for name in CLI_COMMANDS},
    "cli.stdout_bytes": ("bytes", "lower"),
    "trace.op_ms": ("ms", "lower"),
    "trace.self_share": ("ratio", "higher"),
}


class Tracer:
    """Spans as parallel lists: name, start, end, parent index, attributes."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.attrs: dict[int, dict[str, Any]] = {}
        self.stack: list[int] = []
        self.active = False

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self.stack.pop()

    def add(self, name: str, start: float, end: float, attrs: dict | None = None) -> int:
        """A finished span under the innermost open one (or a root)."""
        idx = len(self.names)
        self.names.append(name)
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(self.stack[-1] if self.stack else -1)
        if attrs:
            self.attrs[idx] = attrs
        return idx

    def records(self) -> list[list]:
        return [
            [self.names[i], self.starts[i], self.ends[i], self.parents[i], self.attrs.get(i, {})]
            for i in range(len(self.names))
        ]

    def merge(self, records: list[list], parent: int) -> None:
        """Append spans written by another process under span ``parent``."""
        offset = len(self.names)
        for name, start, end, par, attrs in records:
            self.names.append(name)
            self.starts.append(start)
            self.ends.append(end)
            self.parents.append(parent if par < 0 else par + offset)
            if attrs:
                self.attrs[len(self.names) - 1] = attrs

    def write(self, path) -> None:
        import gzip

        with gzip.open(path, "wt") as fh:
            for rec in self.records():
                fh.write(json.dumps(rec) + "\n")


def _wrap(tracer: Tracer, name: str, fn: Callable, attrs: Callable | None = None) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        idx = tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        except BaseException as exc:
            tracer.attrs[idx] = {"raised": type(exc).__name__}
            raise
        finally:
            tracer.close(idx)
        if attrs is not None:
            tracer.attrs[idx] = attrs(args, kwargs, out)
        return out

    traced.__bench_original__ = fn
    return traced


def _grid_points(args, kwargs, out) -> dict:
    grid = kwargs.get("grid", args[1] if len(args) > 1 else None)
    return {"points": grid.n_points}


def _sweep_attrs(args, kwargs, out) -> dict:
    spec = kwargs.get("spec", args[1] if len(args) > 1 else None)
    return {"points": spec.steps, "gaps": sum(row.energy is None for row in out)}


def install(tracer: Tracer, screwspec) -> Callable[[], None]:
    """Wrap every layer's public calls; returns a function that undoes it."""
    import importlib

    modules = [screwspec] + [importlib.import_module(f"screwspec.{m}") for m in MODULES]
    oracle = screwspec.oracle
    undo: list[tuple[object, str, object]] = []

    def patch(owner, attr, value) -> None:
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def wrap_everywhere(fn, name, attrs=None) -> None:
        traced = _wrap(tracer, name, fn, attrs)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    patch(module, attr, traced)

    wrap_everywhere(screwspec.spectrum.lambda_polynomials, "spectrum.table")
    wrap_everywhere(screwspec.spectrum.truncation_solve, "spectrum.truncation",
                    lambda a, k, out: {"roots": len(out)})
    wrap_everywhere(screwspec.spectrum.ground_state_closed_form, "spectrum.closed_form")
    wrap_everywhere(screwspec.series.series_coefficients, "series.coefficients")
    wrap_everywhere(screwspec.series.series_residual, "series.residual")
    wrap_everywhere(screwspec.operators.radial_lhs, "operators.lhs")
    wrap_everywhere(screwspec.operators.transformed_lhs, "operators.lhs")
    wrap_everywhere(oracle.oracle_eigenvalues, "oracle.solve", _grid_points)
    patch(oracle, "eigh_tridiagonal", _wrap(tracer, "oracle.eigensolve", oracle.eigh_tridiagonal))
    wrap_everywhere(screwspec.sweep.sweep_rows, "sweep.rows", _sweep_attrs)
    wrap_everywhere(screwspec.sweep.rows_to_csv, "sweep.csv")

    params_cls = screwspec.params.PhysicalParams
    patch(params_cls, "__init__", _wrap(tracer, "params.validate", params_cls.__init__))
    plain_replace = dataclasses.replace

    def replace(obj, /, **changes):
        if isinstance(obj, params_cls) and tracer.active:
            idx = tracer.open("params.replace")
            try:
                return plain_replace(obj, **changes)
            finally:
                tracer.close(idx)
        return plain_replace(obj, **changes)

    patch(dataclasses, "replace", replace)

    def traced_check(check):
        @functools.wraps(check)
        def run(*args, **kwargs):
            if not tracer.active:
                return check(*args, **kwargs)
            idx = tracer.open("verify")
            try:
                result = check(*args, **kwargs)
            finally:
                tracer.close(idx)
            tracer.names[idx] = f"verify.{result.name}"
            return result

        return run

    verify = screwspec.verify
    patch(verify, "CHECKS", tuple(traced_check(c) for c in verify.CHECKS))

    def uninstall() -> None:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return uninstall


def per_layer(tracer: Tracer, rounds: int, counters: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics per round of the workload's fixed list.

    ``*_ms`` metrics are self times (span duration minus the time its
    child spans cover), except ``verify.*_ms`` and the ``cli.<command>_ms``
    metrics, which are the whole time of one check or one command.
    """
    n = len(tracer.names)
    child = [0.0] * n
    for i in range(n):
        par = tracer.parents[i]
        if par >= 0:
            child[par] += tracer.ends[i] - tracer.starts[i]
    count: dict[str, int] = {}
    self_s: dict[str, float] = {}
    whole_s: dict[str, float] = {}
    attr_sum: dict[str, float] = {}
    raised: dict[str, int] = {}
    for i, name in enumerate(tracer.names):
        dur = tracer.ends[i] - tracer.starts[i]
        count[name] = count.get(name, 0) + 1
        whole_s[name] = whole_s.get(name, 0.0) + dur
        self_s[name] = self_s.get(name, 0.0) + dur - child[i]
        for key, value in tracer.attrs.get(i, {}).items():
            if key == "raised":
                raised[name] = raised.get(name, 0) + 1
            else:
                attr_sum[f"{name}.{key}"] = attr_sum.get(f"{name}.{key}", 0) + value

    per = 1.0 / max(rounds, 1)

    def ms(value: float) -> float:
        return value * 1e3 * per

    solves = count.get("oracle.solve", 0)
    op_s = whole_s.get("bench.op", 0.0)
    out = {
        "params.validate_calls": count.get("params.validate", 0) * per,
        "params.validate_ms": ms(self_s.get("params.validate", 0.0) + self_s.get("params.replace", 0.0)),
        "spectrum.table_calls": count.get("spectrum.table", 0) * per,
        "spectrum.table_ms": ms(self_s.get("spectrum.table", 0.0)),
        "spectrum.truncation_self_ms": ms(self_s.get("spectrum.truncation", 0.0)),
        "spectrum.closed_form_self_ms": ms(self_s.get("spectrum.closed_form", 0.0)),
        "spectrum.roots_returned": attr_sum.get("spectrum.truncation.roots", 0) * per,
        "spectrum.roots_confirmed_ratio": (
            counters.get("roots_confirmed", 0) / counters["roots_checked"]
            if counters.get("roots_checked") else 0.0
        ),
        "series.coefficients_ms": ms(self_s.get("series.coefficients", 0.0)),
        "series.residual_ms": ms(self_s.get("series.residual", 0.0)),
        "operators.lhs_calls": count.get("operators.lhs", 0) * per,
        "operators.lhs_ms": ms(self_s.get("operators.lhs", 0.0)),
        "oracle.solves": solves * per,
        "oracle.grid_points": attr_sum.get("oracle.solve.points", 0) * per,
        "oracle.eigensolve_ms": ms(self_s.get("oracle.eigensolve", 0.0)),
        "oracle.self_ms": ms(self_s.get("oracle.solve", 0.0)),
        "oracle.solves_to_tol": counters.get("solves_to_tol", 0.0),
        "oracle.accepted_per_solve": (solves - raised.get("oracle.solve", 0)) / solves if solves else 0.0,
        "sweep.points": attr_sum.get("sweep.rows.points", 0) * per,
        "sweep.gap_rows": attr_sum.get("sweep.rows.gaps", 0) * per,
        "sweep.self_ms": ms(self_s.get("sweep.rows", 0.0)),
        "sweep.csv_ms": ms(self_s.get("sweep.csv", 0.0)),
    }
    for name in VERIFY_CHECKS:
        out[f"verify.{name}_ms"] = ms(whole_s.get(f"verify.{name}", 0.0))
    out["cli.interpreter_ms"] = ms(whole_s.get("cli.interpreter", 0.0))
    out["cli.import_ms"] = ms(whole_s.get("cli.import", 0.0))
    for name in CLI_COMMANDS:
        out[f"cli.{name}_ms"] = ms(whole_s.get(f"cli.{name}", 0.0))
    out["cli.stdout_bytes"] = counters.get("stdout_bytes", 0) * per
    out["trace.op_ms"] = op_s * 1e3 / count["bench.op"] if count.get("bench.op") else 0.0
    out["trace.self_share"] = 1.0 - self_s.get("bench.op", 0.0) / op_s if op_s else 0.0
    return out
