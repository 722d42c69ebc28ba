"""Command-line surface.

Thin veneer over the library: every number printed here is produced by
a single library call, so CLI output equals direct API output bit for
bit.  Commands: energy, sweep, oracle, verify, wavefunction.

Exit codes: 0 success, 1 invalid input (including malformed flags, flags
a command does not read, and grids too coarse for the accuracy gate), 2
when no real level exists for the requested parameters, 3 when the
truncation order is too high for its polynomial roots to be trusted.
Expected failures print a machine-readable JSON object on standard error,
never a stack trace.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import Sequence

from .oracle import (
    GridMode,
    GridSpec,
    OracleAccuracyError,
    oracle_csv,
    oracle_eigenvalues,
    oracle_vs_closed_form_report,
)
from .params import InvalidParameterError, Model, PhysicalParams
from .series import eval_psi_x_derivatives
from .spectrum import (
    Branch,
    NegativeDiscriminantError,
    TruncationError,
    ground_state_closed_form,
    ground_state_wavefunction,
    level_series,
    levels_to_json,
    truncation_solve,
)
from .sweep import SweepSpec, rows_to_csv, rows_to_json, sweep_rows
from .verify import DEFAULT_SEED, run_verification

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """argparse with the package's error contract (JSON + exit 1)."""

    def error(self, message: str) -> None:  # type: ignore[override]
        _error_json("invalid-input", message)
        raise SystemExit(1)


def _error_json(code: str, message: str, **extra: object) -> None:
    payload: dict[str, object] = {"error": code, "message": message}
    payload.update(extra)
    print(json.dumps(payload), file=sys.stderr)


def _emit(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        Path(out).write_text(text)


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


def _params_from(args: argparse.Namespace) -> PhysicalParams:
    model = Model(args.model)
    omega0 = args.omega0
    if omega0 is None:
        omega0 = 1.0 if model is Model.OSCILLATOR else 0.0
    return PhysicalParams(
        model=model,
        mass=args.mass,
        omega0=omega0,
        gamma=args.gamma,
        delta=args.delta,
        beta=args.beta,
        Omega=args.Omega,
        flux=args.flux,
        k=args.k,
        ell=args.ell,
    )


def _levels_csv(levels) -> str:
    lines = ["n,ell,branch,energy,spectral,discriminant,termination_defect,c1_over_c0"]
    for lv in levels:
        branch = lv.branch.value if lv.branch is not None else ""
        disc = "" if lv.discriminant is None else f"{lv.discriminant:.17g}"
        lines.append(
            f"{lv.n},{lv.ell},{branch},{lv.energy:.17g},{lv.spectral:.17g},"
            f"{disc},{lv.termination_defect:.17g},{lv.c1_over_c0:.17g}"
        )
    return "\n".join(lines) + "\n"


def _cmd_energy(args: argparse.Namespace) -> int:
    p = _params_from(args)
    if args.method == "closed-form":
        if args.n != 1:
            _error_json("invalid-input", "the closed form covers n = 1 only")
            return 1
        try:
            levels = ground_state_closed_form(p)
        except NegativeDiscriminantError as exc:
            _error_json(
                "no-real-level",
                f"negative discriminant: {exc}",
                discriminant=exc.discriminant,
            )
            return 2
    else:
        levels = truncation_solve(p, args.n)
        if not levels:
            _error_json(
                "no-real-level",
                f"the order-{args.n} truncation condition has no real root "
                "at these parameters",
            )
            return 2
    if args.branch != "all":
        picked = [lv for lv in levels if lv.branch is not None and lv.branch.value == args.branch]
        if not picked and levels:
            # n >= 2 roots carry no branch label; fall back to position
            idx = 0 if args.branch == "minus" else len(levels) - 1
            picked = [levels[idx]]
        levels = picked
    if not levels:
        _error_json("no-real-level", f"no {args.branch}-branch level here")
        return 2
    if args.format == "csv":
        _emit(_levels_csv(levels), args.out)
    else:
        _emit(levels_to_json(levels), args.out)
    return 0


GNUPLOT_STUB = """# gnuplot stub for a sweep produced by `screwspec sweep`
set datafile separator ","
set key autotitle columnhead
set xlabel "{param}"
set ylabel "energy"
plot "{data}" using 1:4 with linespoints
"""


def _cmd_sweep(args: argparse.Namespace) -> int:
    p = _params_from(args)
    spec = SweepSpec(
        parameter=args.param,
        start=args.start,
        stop=args.stop,
        steps=args.steps,
        method=args.method,
        branch=args.branch,
    )
    rows = sweep_rows(p, spec)
    if args.format == "json":
        _emit(rows_to_json(rows), args.out)
    else:
        _emit(rows_to_csv(rows), args.out)
    if args.gnuplot:
        data = args.out if args.out not in (None, "-") else "sweep.csv"
        Path(args.gnuplot).write_text(
            GNUPLOT_STUB.format(param=spec.parameter, data=data)
        )
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    if args.mode == "core" and args.rmax is not None:
        _error_json("invalid-input", "--rmax does not apply to the core grid; it ends at beta")
        return 1
    p = _params_from(args)
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
        report = oracle_vs_closed_form_report(
            p, n_points=args.points, n_eigs=args.neigs, residual_tol=args.residual_tol
        )
        print(report.to_text(), file=sys.stderr)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    report = run_verification(seed=args.seed, fast=args.fast)
    if args.format == "json":
        _emit(report.to_json(), args.out)
    else:
        _emit(report.to_text(), args.out)
        if args.out not in (None, "-"):
            print(report.to_text())
    return 0 if report.overall_pass else 1


def _cmd_wavefunction(args: argparse.Namespace) -> int:
    p = _params_from(args)
    if args.xmax <= 0:
        _error_json("invalid-input", f"xmax must be positive: got {args.xmax}")
        return 1
    if args.samples < 1:
        _error_json("invalid-input", f"samples must be >= 1: got {args.samples}")
        return 1
    branch = Branch(args.branch)
    if args.method == "closed-form":
        if args.n != 1:
            _error_json("invalid-input", "the closed form covers n = 1 only")
            return 1
        try:
            sol = ground_state_wavefunction(p, branch).solution
        except NegativeDiscriminantError as exc:
            _error_json(
                "no-real-level",
                f"negative discriminant: {exc}",
                discriminant=exc.discriminant,
            )
            return 2
    else:
        levels = truncation_solve(p, args.n)
        if not levels:
            _error_json("no-real-level", "no real truncation root here")
            return 2
        level = levels[0] if branch is Branch.MINUS else levels[-1]
        sol = level_series(p, level)
    if args.xmax >= 1.0 and sol.polynomial_degree is None:
        _error_json(
            "invalid-input",
            "xmax must stay below 1 for a non-terminating series",
        )
        return 1
    lines = ["x,r,psi,dpsi_dx"]
    for i in range(1, args.samples + 1):
        x = args.xmax * i / args.samples
        r = p.beta * x**0.5
        f, f1, _ = eval_psi_x_derivatives(sol, x)
        lines.append(f"{x:.17g},{r:.17g},{f:.17g},{f1:.17g}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


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
        "--gnuplot", default=None, help="also write a gnuplot script stub to this path"
    )
    sweep.set_defaults(func=_cmd_sweep)

    oracle = sub.add_parser("oracle", help="finite-difference eigenvalues")
    _add_common(oracle)
    oracle.add_argument(
        "--mode", choices=["outer", "core", "flat", "all"], default="all"
    )
    oracle.add_argument("--points", type=int, default=4000)
    oracle.add_argument("--rmin", type=float, default=None)
    oracle.add_argument("--rmax", type=float, default=None)
    oracle.add_argument("--neigs", type=int, default=5)
    oracle.add_argument("--residual-tol", type=float, default=1e-6)
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except NegativeDiscriminantError as exc:
        _error_json("no-real-level", str(exc), discriminant=exc.discriminant)
        return 2
    except OracleAccuracyError as exc:
        _error_json("grid-too-coarse", str(exc))
        return 1
    except TruncationError as exc:
        _error_json("truncation-failed", str(exc))
        return 3
    except (InvalidParameterError, ValueError) as exc:
        _error_json("invalid-input", str(exc))
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
