"""Command-line surface.

Thin veneer over the library: every number printed here is produced by
a single library call, so CLI output equals direct API output bit for
bit.  Commands: energy, sweep, oracle, verify, wavefunction.  ``--out
PATH`` writes to a file the bytes standard output would get.

A command either completes or raises; :func:`main` alone turns the
exception into one JSON object ``{"error": CODE, "message": ...}`` on
standard error and an exit status, never a stack trace:

=================  ====  ==================================================
error              exit  when
=================  ====  ==================================================
invalid-input      1     a malformed flag, a flag the command does not offer,
                         an invalid parameter, a square or a level's energy,
                         discriminant or diagnostics that overflow, a grid
                         residual that is not finite, an output path that
                         cannot be written (a directory, or one in no
                         directory, is refused before any work)
grid-too-coarse    1     a finite-difference grid fails the residual gate
no-real-level      2     no real level at these parameters (a negative
                         closed-form discriminant also gives
                         ``"discriminant"``)
truncation-failed  3     the roots of c_{n+1} cannot be trusted: at any
                         order where its top coefficient is so small that
                         its companion matrix leaves the float range (n = 1
                         with ``energy --gamma 5e307 --method truncation``)
=================  ====  ==================================================

Success is exit 0.  ``verify`` also exits 1 when a check fails; its report
names the check, and no JSON error is printed.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import json
import math
import os
import re
import sys
from pathlib import Path
from typing import Sequence

from .oracle import (
    DEFAULT_POINTS,
    DEFAULT_RESIDUAL_TOL,
    GridMode,
    GridSpec,
    OracleAccuracyError,
    OracleResult,
    flat_exact_spectrum,
    oracle_csv,
    oracle_eigenvalues,
)
from .params import InvalidParameterError, Model, PhysicalParams
from .series import eval_psi_x_derivatives
from .spectrum import (
    EnergyLevel,
    NegativeDiscriminantError,
    TruncationError,
    ground_state_closed_form,
    ground_state_wavefunction,
    level_series,
    levels_to_csv,
    levels_to_json,
    truncation_solve,
)
from .sweep import SweepSpec, rows_to_csv, rows_to_json, sweep_rows
from .verify import DEFAULT_SEED, run_verification

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """argparse whose errors :func:`main` reports as ``invalid-input``.

    A negative value in exponent notation, such as ``--Omega -1e-3``, reads
    as a number: argparse's own pattern for negative numbers has no exponent.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")

    def error(self, message: str) -> None:  # type: ignore[override]
        raise InvalidParameterError(message)


class _NoRealLevel(Exception):
    """The truncation condition has no real root (``no-real-level``)."""


class _ChecksFailed(Exception):
    """A ``verify`` report holds a failed check (exit 1, no JSON error)."""


def _error_json(code: str, message: str, **extra: object) -> None:
    payload: dict[str, object] = {"error": code, "message": message}
    payload.update(extra)
    print(json.dumps(payload), file=sys.stderr)


def _refuse_unwritable(path: str | None) -> None:
    """Refuse, before any work, an output path that is a directory or lies in none."""
    if path is None or path == "-":
        return
    if Path(path).is_dir():
        reason = errno.EISDIR
    elif not Path(path).parent.is_dir():
        reason = errno.ENOENT
    else:
        return
    raise InvalidParameterError(f"cannot write {path}: {os.strerror(reason)}")


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:  # what only the write reveals, such as permissions
        raise InvalidParameterError(f"cannot write {path}: {exc.strerror}") from exc


def _emit(text: str, out: str) -> None:
    """``text`` ending in one newline, on standard output for ``-`` or else in file ``out``."""
    if not text.endswith("\n"):
        text += "\n"
    if out == "-":
        sys.stdout.write(text)
    else:
        _write(out, text)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--model",
        choices=[m.value for m in Model],
        default=Model.OSCILLATOR.value,
        help="radial potential family (default oscillator)",
    )
    parser.add_argument("--mass", type=float, default=1.0)
    parser.add_argument(
        "--omega0",
        type=float,
        default=None,
        help="trap frequency (default 1.0 for oscillator, fixed 0 otherwise)",
    )
    parser.add_argument("--gamma", type=float, default=0.0)
    parser.add_argument("--delta", type=float, default=0.0)
    parser.add_argument("--beta", type=float, default=0.5)
    parser.add_argument("--Omega", type=float, default=0.0)
    parser.add_argument("--flux", type=float, default=0.0)
    parser.add_argument("--k", type=float, default=1.0)
    parser.add_argument("--ell", type=int, default=1)
    parser.add_argument("--out", default="-", help="output path, or - for stdout")


def _add_format(parser: argparse.ArgumentParser, default: str) -> None:
    parser.add_argument(
        "--format", choices=["csv", "json"], default=None, help=f"default {default}"
    )


# the PhysicalParams fields read verbatim from the flag of the same name
_PARAM_FLAGS = ("mass", "gamma", "delta", "beta", "Omega", "flux", "k", "ell")


def _params_from(args: argparse.Namespace) -> PhysicalParams:
    model = Model(args.model)
    omega0 = args.omega0
    if omega0 is None:
        omega0 = 1.0 if model is Model.OSCILLATOR else 0.0
    plain = {name: getattr(args, name) for name in _PARAM_FLAGS}
    return PhysicalParams(model=model, omega0=omega0, **plain)


def _spectral_params_from(args: argparse.Namespace) -> PhysicalParams:
    """The flags' params with ``Omega`` and ``delta`` zero, for commands that print no energy.

    Spectral values, psi and the oracle depend on neither; the flags are still validated.
    """
    return dataclasses.replace(_params_from(args), Omega=0.0, delta=0.0)


def _levels(p: PhysicalParams, args: argparse.Namespace) -> list[EnergyLevel]:
    """The levels ``energy`` and ``wavefunction`` use: ``--method``, ``--n``, ``--branch``.

    Raises where there are none.  A branch is the level with that label,
    or else (roots past n = 1 carry none) the lowest for ``minus`` and the
    highest for ``plus``.
    """
    if args.method == "closed-form":
        if args.n != 1:
            raise InvalidParameterError("the closed form covers n = 1 only")
        levels = ground_state_closed_form(p)
    else:
        levels = truncation_solve(p, args.n)
        if not levels:
            raise _NoRealLevel(
                f"the order-{args.n} truncation condition has no real root at these parameters"
            )
    if args.branch == "all":
        return levels
    labelled = [lv for lv in levels if lv.branch == args.branch]
    return labelled or [levels[0] if args.branch == "minus" else levels[-1]]


def _cmd_energy(args: argparse.Namespace) -> None:
    levels = _levels(_params_from(args), args)
    _emit(levels_to_csv(levels) if args.format == "csv" else levels_to_json(levels), args.out)


GNUPLOT_STUB = """# gnuplot stub for a sweep produced by `screwspec sweep`
set datafile separator ","
set key autotitle columnhead
set xlabel "{param}"
set ylabel "energy"
plot "{data}" using 1:4 with linespoints
"""


def _cmd_sweep(args: argparse.Namespace) -> None:
    if args.gnuplot and args.format == "json":
        raise InvalidParameterError("--gnuplot plots CSV columns; it cannot read --format json")
    spec = SweepSpec(
        parameter=args.param,
        start=args.start,
        stop=args.stop,
        steps=args.steps,
        method=args.method,
        branch=args.branch,
    )
    # the axis replaces the swept field's flag, so the base takes its start; an --ell
    # flag is always an integer, and an ell axis off the integers is sweep_values' error
    if spec.parameter != "ell":
        setattr(args, spec.parameter, spec.start)
    rows = sweep_rows(_params_from(args), spec)
    if args.format == "json":
        _emit(rows_to_json(rows), args.out)
    else:
        _emit(rows_to_csv(rows), args.out)
    if args.gnuplot:
        data = "sweep.csv" if args.out == "-" else args.out
        _write(args.gnuplot, GNUPLOT_STUB.format(param=spec.parameter, data=data))


def _cmd_oracle(args: argparse.Namespace) -> None:
    if args.mode == "core" and args.rmax is not None:
        raise InvalidParameterError("--rmax does not apply to the core grid; it ends at beta")
    if args.mode == "all" and args.rmin is not None:
        raise InvalidParameterError(
            "--rmin does not apply to --mode all: the outer grid starts at beta, "
            "where the core grid ends"
        )
    p = _spectral_params_from(args)
    modes = list(GridMode) if args.mode == "all" else [GridMode(args.mode)]
    results = []
    for mode in modes:
        overrides: dict[str, float] = {}
        if args.rmin is not None:
            overrides["r_min"] = args.rmin
        if args.rmax is not None and mode is not GridMode.CORE:
            overrides["r_max"] = args.rmax
        grid = dataclasses.replace(GridSpec.default(mode, p, args.points), **overrides)
        results.append(
            oracle_eigenvalues(p, grid, args.neigs, residual_tol=args.residual_tol)
        )
    _emit(oracle_csv(results), args.out)
    if args.report:
        print(_oracle_report(p, results), file=sys.stderr)


def _oracle_report(p: PhysicalParams, results: list[OracleResult]) -> str:
    """The grids just solved, lined up with the n = 1 predictions at ``p``.

    Pure juxtaposition: the report adjudicates nothing.  It lists each
    grid, the exact flat ladder where a flat grid was solved for the
    oscillator, and each closed-form level and truncation root with its
    nearest eigenvalue on every outer and core grid.
    """
    lines = [f"oracle report ({p.model.value} model)"]
    for result in results:
        vals = ", ".join(f"{v:.10g}" for v in result.eigenvalues)
        lines.append(
            f"  {result.mode.value:5s} grid ({result.r_min:.6g}, {result.r_max:.6g}), "
            f"n = {result.n_points}: [{vals}]"
        )
    flat = [result for result in results if result.mode is GridMode.FLAT]
    if flat and p.model is Model.OSCILLATOR:
        exact = (flat_exact_spectrum(p, i) for i in range(len(flat[0].eigenvalues)))
        lines.append(f"  flat exact:            [{', '.join(f'{v:.10g}' for v in exact)}]")
    predictions = []
    try:
        closed = ground_state_closed_form(p)
        predictions = [(f"closed-{lv.branch.value}", lv.spectral) for lv in closed]
    except NegativeDiscriminantError as exc:
        lines.append(f"  closed form: none (negative discriminant ({exc.discriminant:.17g}))")
    roots = truncation_solve(p, 1)
    predictions += [(f"truncation-{i}", lv.spectral) for i, lv in enumerate(roots)]
    for source, value in predictions:
        line = f"  {source}: {value:.10g}"
        for result in results:
            if result.mode is not GridMode.FLAT:
                near = float(min(result.eigenvalues, key=lambda v: abs(v - value)))
                line += f" | nearest {result.mode.value} {near:.10g} (dist {abs(near - value):.3e})"
        lines.append(line)
    return "\n".join(lines)


def _cmd_verify(args: argparse.Namespace) -> None:
    report = run_verification(seed=args.seed, fast=args.fast)
    _emit(report.to_json() if args.format == "json" else report.to_text(), args.out)
    if not report.overall_pass:
        raise _ChecksFailed


def _cmd_wavefunction(args: argparse.Namespace) -> None:
    p = _spectral_params_from(args)
    if not 0.0 < args.xmax < math.inf:
        raise InvalidParameterError(f"xmax must be positive and finite: got {args.xmax}")
    if args.samples < 1:
        raise InvalidParameterError(f"samples must be >= 1: got {args.samples}")
    (level,) = _levels(p, args)
    if args.method == "closed-form":
        sol = ground_state_wavefunction(p, level.branch)
    else:
        sol = level_series(p, level)
    lines = ["x,r,psi,dpsi_dx"]
    for i in range(1, args.samples + 1):
        x = args.xmax * i / args.samples
        r = p.beta * x**0.5
        f, f1, _ = eval_psi_x_derivatives(sol, x)
        lines.append(f"{x:.17g},{r:.17g},{f:.17g},{f1:.17g}")
    _emit("\n".join(lines) + "\n", args.out)


def build_parser() -> _Parser:
    parser = _Parser(prog="screwspec", description="screw-dislocation bound states")
    sub = parser.add_subparsers(dest="command", required=True)

    energy = sub.add_parser("energy", help="quantised levels at one parameter point")
    _add_common(energy)
    _add_format(energy, "json")
    energy.add_argument("--n", type=int, default=1, help="truncation order")
    energy.add_argument("--branch", choices=["plus", "minus", "all"], default="all")
    energy.add_argument(
        "--method", choices=["closed-form", "truncation"], default="closed-form"
    )
    energy.set_defaults(func=_cmd_energy)

    sweep = sub.add_parser("sweep", help="one-parameter sweep of the n = 1 levels")
    _add_common(sweep)
    _add_format(sweep, "csv")
    sweep.add_argument("--param", required=True)
    sweep.add_argument("--from", dest="start", type=float, required=True)
    sweep.add_argument("--to", dest="stop", type=float, required=True)
    sweep.add_argument("--steps", type=int, required=True)
    sweep.add_argument("--branch", choices=["plus", "minus", "all"], default="all")
    sweep.add_argument(
        "--method", choices=["closed-form", "truncation"], default="closed-form"
    )
    sweep.add_argument(
        "--gnuplot", default=None,
        help="also write a gnuplot script stub for the CSV output to this path",
    )
    sweep.set_defaults(func=_cmd_sweep)

    oracle = sub.add_parser("oracle", help="finite-difference eigenvalues")
    _add_common(oracle)
    oracle.add_argument(
        "--mode", choices=["outer", "core", "flat", "all"], default="all"
    )
    oracle.add_argument("--points", type=int, default=DEFAULT_POINTS)
    oracle.add_argument("--rmin", type=float, default=None)
    oracle.add_argument("--rmax", type=float, default=None)
    oracle.add_argument("--neigs", type=int, default=5)
    oracle.add_argument("--residual-tol", type=float, default=DEFAULT_RESIDUAL_TOL)
    oracle.add_argument(
        "--report",
        action="store_true",
        help="also print the oracle-vs-predictions juxtaposition to stderr",
    )
    oracle.set_defaults(func=_cmd_oracle)

    verify = sub.add_parser("verify", help="run the named check suite")
    verify.add_argument("--out", default="-", help="output path, or - for stdout")
    verify.add_argument("--format", choices=["text", "json"], default="text")
    verify.add_argument("--seed", type=int, default=DEFAULT_SEED)
    verify.add_argument("--fast", action="store_true", help="shrink random draw counts")
    verify.set_defaults(func=_cmd_verify)

    wavefunction = sub.add_parser(
        "wavefunction", help="sampled ground-state profile as CSV"
    )
    _add_common(wavefunction)
    wavefunction.add_argument("--n", type=int, default=1)
    wavefunction.add_argument("--branch", choices=["plus", "minus"], default="minus")
    wavefunction.add_argument(
        "--method", choices=["closed-form", "truncation"], default="closed-form"
    )
    wavefunction.add_argument("--xmax", type=float, default=0.9)
    wavefunction.add_argument("--samples", type=int, default=200)
    wavefunction.set_defaults(func=_cmd_wavefunction)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command; the table in the module docstring gives the exit status."""
    try:
        args = build_parser().parse_args(argv)
        for path in (args.out, getattr(args, "gnuplot", None)):
            _refuse_unwritable(path)
        args.func(args)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except _ChecksFailed:
        return 1
    except NegativeDiscriminantError as exc:
        _error_json("no-real-level", str(exc), discriminant=exc.discriminant)
        return 2
    except _NoRealLevel as exc:
        _error_json("no-real-level", str(exc))
        return 2
    except OracleAccuracyError as exc:
        _error_json("grid-too-coarse", str(exc))
        return 1
    except TruncationError as exc:
        _error_json("truncation-failed", str(exc))
        return 3
    except ValueError as exc:  # InvalidParameterError and argparse's errors among them
        _error_json("invalid-input", str(exc))
        return 1
    except OverflowError as exc:  # a square or a level's number leaves the float range
        _error_json("invalid-input", f"overflow at these parameters: {exc}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
