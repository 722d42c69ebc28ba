"""The four workloads: fixed operation lists generated from a seed.

Every workload is a list of operations built once from ``--seed`` by one
single-threaded generator.  A run repeats the whole list (a round) until
its time is up, so the mix of operations is the same in every run and
every round.  An operation is a call into screwspec (timed), a check of
its output (not timed), and a fingerprint of the output, so that a
repeat of an operation that was already checked in this run only needs
its output compared with the checked one.

Parameter ranges are chosen so that every seeded operation has a real
answer that the checks can confirm: the sweeps that cross a gap are built
to spend exactly half their axis in it, the truncation orders stop where
the companion-matrix roots still pass the high-precision check, and the
grid points keep the oracle's residual gate satisfied from N = 4000 up.
The only operations that fail are the fixed slice in ``levels``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import checks as C
import screwspec as S

WORKLOADS = ("sweep", "levels", "grids", "cli")

SWEEP_STEPS = 2001
LEVEL_ORDERS = tuple(range(2, 19))
LEVEL_POINTS_PER_MODEL = 10
README_POINT = dict(model="oscillator", mass=1.0, omega0=2.0, beta=0.5, k=0.5, ell=2, flux=0.75)
# orders that fail every time today: roots that fail the sign-change check, and
# the order past which lambda_polynomials raises a bare AssertionError
FAILING_ORDERS = (40, 80)
GRID_SIZES = (4000, 6000, 8000, 16000, 40000)
GRID_MODES = ("outer", "core", "flat")
N_EIGS = 5

# time to tolerance: the flat grid doubles n_points from TOL_START until its lowest
# N_EIGS eigenvalues are within TOL_REL of the exact spectrum (about four doublings today)
TOL_REL = 1.7e-6
TOL_START = 500
TOL_MAX = 256000
TOL_PROBES = 3
TOL_REPEATS = 3  # where the probes run after the timed rounds, each runs this often

@dataclass
class Op:
    """One operation of a workload's fixed list."""

    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], dict]  # raises checks.CheckError; returns counters
    fingerprint: Callable[[Any], Any]
    expect_fail: bool = False


@dataclass
class Workload:
    name: str
    ops: list[Op]
    tail_quantile: float | None  # None: runs have too few operations for a tail
    min_rounds: int
    probes: list[Op] = field(default_factory=list)  # time to tolerance, timed apart from ops
    probes_each_round: bool = False  # False: the probes run TOL_REPEATS times after the rounds
    warm_up: Callable[[], None] = lambda: None


def _rng(name: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(name)])


def _params(**kw) -> S.PhysicalParams:
    kw["model"] = S.Model(kw["model"])
    return S.PhysicalParams(**kw)


def _min_rounds(quantile: float, completed_per_round: int) -> int:
    """Rounds needed for ten completed operations beyond ``quantile``."""
    return math.ceil(10.0 / (1.0 - quantile) / completed_per_round - 1e-9)


# ---------------------------------------------------------------------------
# time to tolerance (the grids workload times it; the others run it afterwards)


def _tol_point(rng) -> S.PhysicalParams:
    u = rng.uniform
    return _params(model="oscillator", mass=u(0.9, 1.1), omega0=u(0.9, 1.1), beta=u(0.3, 0.7),
                   k=u(0.3, 1.5), ell=int(rng.integers(0, 3)), flux=u(0.0, 1.0),
                   gamma=u(0.0, 0.5), delta=u(-0.5, 0.5), Omega=u(-0.5, 0.5))


def time_to_tol(p, exact: np.ndarray) -> tuple[int, int, np.ndarray]:
    """Double n_points until the flat grid is within TOL_REL; (n, solves, eigenvalues)."""
    oracle = S.oracle
    n, solves = TOL_START, 0
    while True:
        solves += 1
        try:
            res = oracle.oracle_eigenvalues(p, oracle.GridSpec.default(oracle.GridMode.FLAT, p, n), N_EIGS)
        except oracle.OracleAccuracyError:
            res = None  # too coarse for the residual gate: one more doubling
        if res is not None and np.max(np.abs(res.eigenvalues - exact) / exact) <= TOL_REL:
            return n, solves, res.eigenvalues
        if n >= TOL_MAX:
            raise RuntimeError(f"flat grid not within {TOL_REL:g} by n_points = {n}")
        n *= 2


def _tol_op(p) -> Op:
    exact = C.flat_exact(p, N_EIGS)

    def check(out) -> dict:
        n, solves, eigenvalues = out
        if solves != int(math.log2(n // TOL_START)) + 1:
            raise C.CheckError(f"{solves} solves to reach n_points = {n}")
        err = C.check_flat(p, n, eigenvalues)
        if not err <= TOL_REL:
            raise C.CheckError(f"time-to-tolerance stopped at error {err:.3e}")
        return {}

    return Op("time-to-tol", lambda: time_to_tol(p, exact), check,
              lambda out: (out[0], out[1], tuple(out[2])))


def _probes(rng, count: int) -> list[Op]:
    return [_tol_op(_tol_point(rng)) for _ in range(count)]


# ---------------------------------------------------------------------------
# sweep


def _closed_form_gap_edge(base) -> float:
    """|iota| below which the closed form has no real level, found by bisection."""

    ell = base.ell + 12  # keeps the flux positive; the closed form sees ell and flux only through iota

    def discriminant(iota: float) -> float:
        p = dataclasses.replace(base, ell=ell, flux=ell - base.beta * base.k - iota)
        try:
            return S.spectrum.ground_state_closed_form(p)[0].discriminant
        except S.spectrum.NegativeDiscriminantError as exc:
            return exc.discriminant

    lo, hi = 0.0, 10.0
    if not discriminant(lo) < 0 < discriminant(hi):
        raise RuntimeError("closed-form gap edge not bracketed")
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if discriminant(mid) < 0 else (lo, mid)
    return hi


def _truncation_gap_edge(base) -> float:
    """|iota| below which c_2 has no real root (inverse-square model: omega = 0).

    From the series recurrence, c_2 in x = 1/2 + j - iota^2 - P is proportional
    to x^2 + 2 x + 4 (1 + j)(1/2 + j - iota^2), real iff iota^2 >= 1/2 + j - 1/(4 (1 + j)).
    """
    j = math.sqrt(2.0 * base.mass * base.gamma + 0.25)
    return math.sqrt(0.5 + j - 1.0 / (4.0 * (1.0 + j)))


def _sweep_op(base, parameter: str, start: float, stop: float, method: str,
              steps: int = SWEEP_STEPS) -> Op:
    spec = S.sweep.SweepSpec(parameter=parameter, start=start, stop=stop, steps=steps, method=method)

    def call():
        rows = S.sweep.sweep_rows(base, spec)
        return rows, S.sweep.rows_to_csv(rows)

    def check(out) -> dict:
        rows, csv = out
        C.check_sweep_rows(base, parameter, method, rows, start, stop, steps)
        C.check_sweep_csv(rows, csv)
        if parameter == "Omega":
            C.check_omega_affine(base, rows)
        if parameter == "flux":
            shifted = S.sweep.SweepSpec(parameter="flux", start=start + 1.0, stop=stop + 1.0,
                                        steps=steps, method=method)
            C.check_flux_shift(rows, S.sweep.sweep_rows(dataclasses.replace(base, ell=base.ell + 1), shifted))
        if method == "truncation":
            present = sum(r.energy is not None for r in rows)
            return {"roots_checked": present, "roots_confirmed": present}
        return {}

    return Op(f"sweep:{base.model.value}:{parameter}:{method}", call, check, lambda out: out[1])


def build_sweep(seed: int, smoke: bool = False) -> Workload:
    """Four closed-form and eight truncation sweeps.

    Closed-form sweeps cost about half as much as truncation sweeps, so
    the times form two clusters.  With a third of the sweeps closed-form,
    the median and the 75th percentile both fall inside the truncation
    cluster instead of on the boundary between the two.
    """
    rng = _rng("sweep", seed)
    u = rng.uniform
    steps = 41 if smoke else SWEEP_STEPS

    def osc(ell: int, flux: float) -> S.PhysicalParams:
        # a trap strong enough that no iota leaves a gap
        return _params(model="oscillator", mass=u(0.9, 1.1), omega0=u(3.0, 4.0),
                       beta=u(0.45, 0.6), k=u(0.3, 1.0), ell=ell, flux=flux,
                       gamma=u(0.0, 0.2), delta=u(-0.5, 0.5), Omega=u(-0.5, 0.5))

    def inv(ell: int, flux: float) -> S.PhysicalParams:
        return _params(model="inverse-square", mass=u(0.9, 1.1), beta=u(0.4, 0.6),
                       k=u(0.3, 1.0), ell=ell, flux=flux, gamma=u(0.0, 0.5),
                       Omega=u(-0.5, 0.5))

    def flux_sweep(method: str) -> tuple:
        f0 = u(0.0, 1.0)
        return osc(int(rng.integers(1, 4)), f0), "flux", f0, f0 + 2.0, method

    def omega_sweep(method: str, model: str) -> tuple:
        # inverse square at ell 4-5 stays clear of the gap (|iota| > 2.4)
        base = osc(int(rng.integers(1, 4)), u(0.0, 1.0)) if model == "oscillator" else \
            inv(int(rng.integers(4, 6)), u(0.0, 1.0))
        return base, "Omega", base.Omega - 1.0, base.Omega + 1.0, method

    def beta_sweep(method: str, model: str) -> tuple:
        make = osc if model == "oscillator" else inv
        base = make(int(rng.integers(3, 5)) if model == "oscillator" else int(rng.integers(4, 6)),
                    u(0.0, 0.5))
        return base, "beta", u(0.15, 0.25), u(0.75, 0.85), method

    def gap_sweep(method: str) -> tuple:
        # inverse square: the flux axis spends exactly half its length in the gap |iota| < s
        base = inv(8, 0.0)
        edge = _closed_form_gap_edge(base) if method == "closed-form" else _truncation_gap_edge(base)
        f0 = base.ell - base.beta * base.k - edge * (1.0 + 2.0 * u(0.0, 1.0))
        return dataclasses.replace(base, flux=f0), "flux", f0, f0 + 4.0 * edge, method

    cf, tr = "closed-form", "truncation"
    sweeps = [
        flux_sweep(cf), omega_sweep(cf, "oscillator"), gap_sweep(cf), beta_sweep(cf, "inverse-square"),
        flux_sweep(tr), flux_sweep(tr), omega_sweep(tr, "oscillator"), beta_sweep(tr, "oscillator"),
        gap_sweep(tr), omega_sweep(tr, "inverse-square"), omega_sweep(tr, "inverse-square"),
        beta_sweep(tr, "inverse-square"),
    ]
    ops = [_sweep_op(*sweep, steps=steps) for sweep in sweeps]
    probes = _probes(rng, 1 if smoke else TOL_PROBES)

    def warm_up() -> None:
        for base, parameter, start, stop, method in sweeps:
            spec = S.sweep.SweepSpec(parameter=parameter, start=start, stop=stop, steps=21, method=method)
            S.sweep.rows_to_csv(S.sweep.sweep_rows(base, spec))

    quantile = 0.75
    return Workload("sweep", ops, quantile, 1 if smoke else _min_rounds(quantile, len(ops)),
                    probes, False, warm_up)


# ---------------------------------------------------------------------------
# levels


def _level_point(rng, model: str) -> S.PhysicalParams:
    u = rng.uniform
    osc = model == "oscillator"
    return _params(model=model, mass=u(0.5, 2.0), beta=u(0.15, 0.85), k=u(0.2, 2.0),
                   ell=int(rng.integers(-3, 5)), omega0=u(0.5, 2.0) if osc else 0.0,
                   gamma=u(0.0, 1.0), delta=u(-0.5, 0.5) if osc else 0.0,
                   Omega=u(-1.0, 1.0), flux=u(0.0, 2.0))


def _level_op(p, n: int, expect_fail: bool = False) -> Op:
    return Op(f"levels:n={n}", lambda: S.spectrum.truncation_solve(p, n),
              lambda levels: C.check_truncation(p, n, levels),
              lambda levels: tuple((lv.spectral, lv.energy) for lv in levels), expect_fail)


def build_levels(seed: int, smoke: bool = False) -> Workload:
    rng = _rng("levels", seed)
    orders = LEVEL_ORDERS[:3] if smoke else LEVEL_ORDERS
    per_model = 1 if smoke else LEVEL_POINTS_PER_MODEL
    points = [_level_point(rng, model) for _ in range(per_model)
              for model in ("oscillator", "inverse-square")]
    ops = [_level_op(p, n) for p in points for n in orders]
    fixed = _params(**README_POINT)
    ops += [_level_op(fixed, n, expect_fail=True) for n in FAILING_ORDERS]
    probes = _probes(rng, 1 if smoke else TOL_PROBES)

    def warm_up() -> None:
        for n in orders:
            S.spectrum.truncation_solve(points[0], n)

    quantile = 0.99
    completed = len(ops) - len(FAILING_ORDERS)
    return Workload("levels", ops, quantile, 1 if smoke else _min_rounds(quantile, completed),
                    probes, False, warm_up)


# ---------------------------------------------------------------------------
# grids


def _grid_point(rng) -> S.PhysicalParams:
    u = rng.uniform
    return _params(model="oscillator", mass=u(0.8, 1.25), omega0=u(0.8, 1.25), beta=u(0.3, 0.7),
                   k=u(0.3, 1.5), ell=int(rng.integers(0, 3)), flux=u(0.0, 1.0),
                   gamma=u(0.0, 0.5), delta=u(-0.5, 0.5), Omega=u(-0.5, 0.5))


def _solve(p, mode: str, n: int):
    oracle = S.oracle
    return oracle.oracle_eigenvalues(p, oracle.GridSpec.default(oracle.GridMode(mode), p, n), N_EIGS)


def _grid_op(p, mode: str, n: int) -> Op:
    def check(res) -> dict:
        if res.n_points != n or res.mode.value != mode:
            raise C.CheckError(f"result is for {res.mode.value} N={res.n_points}")
        if mode == "flat":
            C.check_flat(p, n, res.eigenvalues)
            return {}
        C.check_finite_ascending(res.eigenvalues, N_EIGS)
        shifted = dataclasses.replace(p, flux=p.flux + 1.0, ell=p.ell + 1)
        C.check_same_spectrum(res.eigenvalues, _solve(shifted, mode, n).eigenvalues,
                              "(flux, ell) -> (flux + 1, ell + 1)")
        rotated = dataclasses.replace(p, Omega=p.Omega + 0.5)
        C.check_same_spectrum(res.eigenvalues, _solve(rotated, mode, n).eigenvalues,
                              "a change of Omega")
        raised = dataclasses.replace(p, gamma=p.gamma + 0.25)
        C.check_not_lower(res.eigenvalues, _solve(raised, mode, n).eigenvalues)
        return {}

    return Op(f"grids:{mode}:{n}", lambda: _solve(p, mode, n), check,
              lambda res: tuple(res.eigenvalues))


def build_grids(seed: int, smoke: bool = False) -> Workload:
    rng = _rng("grids", seed)
    sizes = GRID_SIZES[:1] if smoke else GRID_SIZES
    ops = [_grid_op(_grid_point(rng), mode, n) for n in sizes for mode in GRID_MODES]
    probes = _probes(rng, 1 if smoke else TOL_PROBES)

    def warm_up() -> None:
        for mode in GRID_MODES:
            _solve(_grid_point(np.random.default_rng(0)), mode, GRID_SIZES[0])

    quantile = 0.9
    return Workload("grids", ops, quantile, 1 if smoke else _min_rounds(quantile, len(ops)),
                    probes, True, warm_up)


# ---------------------------------------------------------------------------
# cli


class CliRunner:
    """Runs screwspec commands in fresh processes, one at a time.

    Untraced, a command is ``python -m screwspec.cli``.  With a tracer,
    it starts through ``launcher.py``, which installs the same span
    wrappers in the child and writes its spans to a file that is merged
    under the current operation's span.
    """

    def __init__(self, root: str, results_dir: str) -> None:
        src = os.path.join(root, "src")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        self.root = root
        self.results_dir = results_dir
        self.tracer = None
        self.stdout_bytes = 0
        self.max_rss_kb = 0

    def run(self, args: list[str]) -> tuple[str, int]:
        """(stdout, exit code) of one command."""
        spans_path = None
        start = time.perf_counter()
        if self.tracer is None:
            argv = [sys.executable, "-m", "screwspec.cli", *args]
        else:
            spans_path = os.path.join(self.results_dir, f"child-spans-{os.getpid()}.json")
            launcher = os.path.join(os.path.dirname(os.path.abspath(__file__)), "launcher.py")
            argv = [sys.executable, launcher, spans_path, repr(start), "--", *args]
        with open(os.path.join(self.results_dir, "cli-stderr.log"), "ab") as err:
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, cwd=self.root,
                                    env=self.env)
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.stdout_bytes += len(out)
        self.max_rss_kb = max(self.max_rss_kb, usage.ru_maxrss)
        if spans_path is not None:
            with open(spans_path) as fh:
                self.tracer.merge(json.load(fh), self.tracer.stack[-1])
            os.remove(spans_path)
        return out.decode(), proc.returncode


def _cli_point(rng) -> S.PhysicalParams:
    # trap strong enough (M w0 beta > 0.9) that the closed form is real at every flux,
    # and flat-channel index small enough for the default 4000-point grids
    u = rng.uniform
    return _params(model="oscillator", mass=u(0.95, 1.05), omega0=u(1.4, 1.5), beta=u(0.7, 0.8),
                   k=u(0.3, 0.7), ell=int(rng.integers(0, 2)), flux=u(0.0, 1.0),
                   gamma=u(0.0, 0.1), delta=u(-0.5, 0.5), Omega=u(-0.5, 0.5))


def _cli_flags(p) -> list[str]:
    flags = ["--model", p.model.value]
    for name in ("mass", "omega0", "gamma", "delta", "beta", "Omega", "flux", "k"):
        flags += [f"--{name}", repr(getattr(p, name))]
    return flags + ["--ell", str(p.ell)]


def _cli_op(p, runner: CliRunner, steps: int, fast: bool) -> Op:
    flags = _cli_flags(p)
    f0 = p.flux
    commands = {
        "energy": ["energy", *flags],
        "sweep": ["sweep", *flags, "--param", "flux", "--from", repr(f0), "--to", repr(f0 + 1.0),
                  "--steps", str(steps)],
        "oracle": ["oracle", *flags, "--mode", "all"],
        "verify": ["verify", "--format", "json", *(["--fast"] if fast else [])],
    }

    def call() -> dict:
        return {name: runner.run(args) for name, args in commands.items()}

    def check(outs) -> dict:
        for name, (_, code) in outs.items():
            if code != 0:
                raise C.CheckError(f"`screwspec {name}` exited with {code}")
        want = {
            "energy": S.spectrum.levels_to_json(S.spectrum.ground_state_closed_form(p)) + "\n",
            "sweep": S.sweep.rows_to_csv(S.sweep.sweep_rows(p, S.sweep.SweepSpec(
                parameter="flux", start=f0, stop=f0 + 1.0, steps=steps))),
            "oracle": S.oracle.oracle_csv([_solve(p, mode, 4000) for mode in GRID_MODES]),
        }
        for name, text in want.items():
            C.check_same_text(f"screwspec {name}", outs[name][0], text)
        C.check_verify_json(outs["verify"][0], len(S.verify.CHECKS))
        return {}

    def fingerprint(outs):
        # verify's JSON carries timings, so only its verdicts identify a repeat
        try:
            report = json.loads(outs["verify"][0])
            verdicts = (report["overall"], tuple(c["status"] for c in report["checks"]))
        except (ValueError, KeyError, TypeError):
            verdicts = outs["verify"]
        return tuple(outs[name] for name in ("energy", "sweep", "oracle")) + (verdicts,)

    return Op("cli:session", call, check, fingerprint)


def build_cli(seed: int, smoke: bool = False, runner: CliRunner | None = None) -> Workload:
    rng = _rng("cli", seed)
    op = _cli_op(_cli_point(rng), runner, 41 if smoke else SWEEP_STEPS, fast=smoke)
    probes = _probes(rng, 1 if smoke else TOL_PROBES)
    return Workload("cli", [op], None, 1 if smoke else 3, probes)


def build(name: str, seed: int, smoke: bool = False, runner: CliRunner | None = None) -> Workload:
    if name == "cli":
        return build_cli(seed, smoke, runner)
    return {"sweep": build_sweep, "levels": build_levels, "grids": build_grids}[name](seed, smoke)
