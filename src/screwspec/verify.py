"""Self-verification suite: every spectral claim is re-measured on demand.

Each check is a named, independently runnable measurement with a fixed
tolerance.  Statuses:

* ``PASS``: measured value within tolerance.
* ``FAIL``: out of tolerance, or the check machinery raised.
* ``DISCREPANT-DOCUMENTED``: an audit check found a real disagreement
  between two documented routes (alternate recurrence denominator,
  closed forms vs truncation roots).  These are findings, not failures:
  the suite records them with the numbers printed in full and still
  passes.

Randomised checks draw from a seeded generator, so a report is exactly
reproducible from its ``seed`` field.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .operators import gaussian_probe
from .oracle import (
    GridMode,
    GridSpec,
    flat_exact_spectrum,
    oracle_eigenvalues,
    separation_residual,
)
from .params import Model, PhysicalParams, SpectralParameter, derive_params
from .series import (
    OVERFLOW_LIMIT,
    SeriesOverflowError,
    SeriesSolution,
    _seed,
    _triple,
    changeofvar_consistency,
    series_coefficients,
    series_residual,
)
from .spectrum import (
    ab_periodicity_check,
    closed_form_discriminant,
    compare_closed_form_vs_truncation,
    ground_state_closed_form,
    lambda_polynomials,
    truncation_solve,
)
from .sweep import SweepSpec, sweep_rows

__all__ = [
    "DEFAULT_SEED",
    "CheckResult",
    "VerifyReport",
    "run_verification",
]

DEFAULT_SEED = 20260814

SERIES_TERMS = 200

RESIDUAL_POINTS = (0.1, 0.3, 0.5)


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named check."""

    name: str
    status: str
    measured: float | None
    tolerance: float | None
    detail: str
    elapsed_s: float


@dataclass(frozen=True)
class VerifyReport:
    """All check outcomes plus the overall verdict.

    ``overall_pass`` is True iff no check FAILed; DISCREPANT-DOCUMENTED
    findings do not fail the suite.
    """

    checks: tuple[CheckResult, ...]
    overall_pass: bool
    wall_time_s: float
    seed: int
    fast: bool

    def to_text(self) -> str:
        mode = "fast" if self.fast else "full"
        lines = [
            f"verification report (seed {self.seed}, {mode} mode, "
            f"{self.wall_time_s:.2f} s wall)"
        ]
        for c in self.checks:
            meas = "-" if c.measured is None else f"{c.measured:.3e}"
            tol = "-" if c.tolerance is None else f"{c.tolerance:.1e}"
            lines.append(
                f"  [{c.status:<22s}] {c.name:<36s} measured {meas:>10s}"
                f"  tol {tol:>8s}  ({c.elapsed_s:.2f} s)"
            )
            if c.detail:
                for ln in c.detail.splitlines():
                    lines.append(f"      {ln}")
        lines.append(f"overall: {'PASS' if self.overall_pass else 'FAIL'}")
        return "\n".join(lines)

    def to_json(self) -> str:
        payload = {
            "seed": self.seed,
            "fast": self.fast,
            "wall_time_s": self.wall_time_s,
            "overall": "PASS" if self.overall_pass else "FAIL",
            "checks": [dataclasses.asdict(c) for c in self.checks],
        }
        return json.dumps(payload, indent=2)

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def _random_params(rng: np.random.Generator, model: Model) -> PhysicalParams:
    osc = model is Model.OSCILLATOR
    return PhysicalParams(
        model=model,
        mass=float(rng.uniform(0.5, 2.0)),
        beta=float(rng.uniform(0.15, 0.85)),
        k=float(rng.uniform(0.2, 2.0)),
        ell=int(rng.integers(-3, 5)),
        omega0=float(rng.uniform(0.5, 2.0)) if osc else 0.0,
        gamma=float(rng.uniform(0.0, 1.0)),
        delta=float(rng.uniform(-0.5, 0.5)) if osc else 0.0,
        Omega=float(rng.uniform(-1.0, 1.0)),
        flux=float(rng.uniform(0.0, 2.0)),
    )


def _random_params_with_closed_form(
    rng: np.random.Generator, model: Model, shift: int = 0
) -> PhysicalParams:
    """Rejection-sample until the n = 1 closed form is real.

    ``shift`` additionally requires reality at flux + shift (used by the
    periodicity check, whose shifted configurations share one iota).
    """
    for _ in range(5000):
        p = _random_params(rng, model)
        if closed_form_discriminant(p) < 0:
            continue
        if shift and closed_form_discriminant(dataclasses.replace(p, flux=p.flux + shift)) < 0:
            continue
        return p
    raise RuntimeError("could not sample parameters with a real closed form")


def _spectral(rng: np.random.Generator, p: PhysicalParams) -> SpectralParameter:
    return SpectralParameter(value=float(rng.uniform(-10.0, 10.0)), model=p.model)


def _run(
    name: str,
    tolerance: float | None,
    body: Callable[[], tuple[str, float | None, str]],
) -> CheckResult:
    start = time.perf_counter()
    try:
        status, measured, detail = body()
    except Exception as exc:  # noqa: BLE001 - a crashed check is a FAIL, not an abort
        status, measured, detail = "FAIL", None, f"{type(exc).__name__}: {exc}"
    return CheckResult(
        name=name,
        status=status,
        measured=measured,
        tolerance=tolerance,
        detail=detail,
        elapsed_s=time.perf_counter() - start,
    )


def check_series_residual(rng: np.random.Generator, fast: bool = False) -> CheckResult:
    """Transformed-operator residual of the N=200 series, both models."""
    tol = 1e-9
    draws = 10 if fast else 50

    def body() -> tuple[str, float | None, str]:
        worst = 0.0
        for model in Model:
            for _ in range(draws):
                p = _random_params(rng, model)
                s = _spectral(rng, p)
                sol = series_coefficients(p, s, SERIES_TERMS)
                rep = series_residual(sol, p, s, RESIDUAL_POINTS)
                worst = max(worst, rep.max_residual)
        status = "PASS" if worst <= tol else "FAIL"
        return status, worst, f"{2 * draws} parameter draws, {SERIES_TERMS} terms"

    return _run("series-residual", tol, body)


def _alternate_coefficients(
    p: PhysicalParams, spectral: SpectralParameter, n_terms: int
) -> SeriesSolution:
    """:func:`series_coefficients` with the denominator (i + 3/2 + j)(i + 2)."""
    d = derive_params(p)
    scaled = spectral.value * p.beta**2
    c = np.empty(n_terms + 1)
    c[0] = 1.0
    c[1] = _seed(d.iota, d.j, d.omega, scaled)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_terms - 1):
            d1, d2, _ = _triple(i, d.iota, d.j, d.omega, scaled)
            nxt = (d1 * c[i + 1] + d2 * c[i]) / ((i + 1.5 + d.j) * (i + 2.0))
            if not math.isfinite(nxt) or abs(nxt) > OVERFLOW_LIMIT:
                raise SeriesOverflowError(i + 2)
            c[i + 2] = nxt
    return SeriesSolution(
        coeffs=c, power=0.25 + d.j / 2.0, gauss_factor=d.omega / 2.0, model=p.model
    )


def check_series_residual_alternate(
    rng: np.random.Generator, fast: bool = False
) -> CheckResult:
    """Audit of the alternate recurrence denominator (expected to disagree)."""
    tol = 1e-9
    draws = 5 if fast else 10

    def body() -> tuple[str, float | None, str]:
        worst = 0.0
        for model in Model:
            for _ in range(draws):
                p = _random_params(rng, model)
                s = _spectral(rng, p)
                sol = _alternate_coefficients(p, s, SERIES_TERMS)
                rep = series_residual(sol, p, s, RESIDUAL_POINTS)
                worst = max(worst, rep.max_residual)
        if worst > tol:
            return (
                "DISCREPANT-DOCUMENTED",
                worst,
                "alternate denominator (i + 3/2 + j)(i + 2) fails the operator "
                "residual; the consistent form (i + 2 + j)(i + 2) is the default",
            )
        return "PASS", worst, "alternate denominator unexpectedly agrees"

    return _run("series-residual-alternate-denominator", tol, body)


def check_changeofvar(rng: np.random.Generator, fast: bool = False) -> CheckResult:
    """Radial operator vs its x-space form on random analytic probes."""
    tol = 1e-10
    draws = 20 if fast else 100

    def body() -> tuple[str, float | None, str]:
        worst = 0.0
        for idx in range(draws):
            model = Model.OSCILLATOR if idx % 2 == 0 else Model.INVERSE_SQUARE
            p = _random_params(rng, model)
            probe = gaussian_probe(
                width=float(rng.uniform(0.3, 2.0)), center=float(rng.uniform(0.2, 2.5))
            )
            while True:
                x = float(rng.uniform(0.05, 4.0))
                if abs(x - 1.0) >= 0.05:
                    break
            r = p.beta * math.sqrt(x)
            value = float(rng.uniform(-10.0, 10.0))
            worst = max(worst, changeofvar_consistency(p, value, probe, r))
        status = "PASS" if worst <= tol else "FAIL"
        return status, worst, f"{draws} (params, probe, r) draws"

    return _run("change-of-variable", tol, body)


def check_separation(rng: np.random.Generator, fast: bool = False) -> CheckResult:
    """Full 3-d operator vs the separated radial operator."""
    tol = 1e-8
    draws = 8 if fast else 30

    def body() -> tuple[str, float | None, str]:
        worst = 0.0
        for idx in range(draws):
            model = Model.OSCILLATOR if idx % 2 == 0 else Model.INVERSE_SQUARE
            p = _random_params(rng, model)
            probe = gaussian_probe(
                width=float(rng.uniform(0.3, 2.0)), center=float(rng.uniform(0.0, 1.5))
            )
            while True:
                r = float(rng.uniform(0.05, 3.0))
                if abs(r - p.beta) >= 0.02:
                    break
            energy = float(rng.uniform(-2.0, 5.0))
            worst = max(
                worst,
                separation_residual(
                    p,
                    energy,
                    probe,
                    r,
                    angle=float(rng.uniform(0.0, 2.0 * math.pi)),
                    z=float(rng.uniform(-2.0, 2.0)),
                ),
            )
        status = "PASS" if worst <= tol else "FAIL"
        return status, worst, f"{draws} random (params, probe, r, E) draws"

    return _run("separation-identity", tol, body)


def check_truncation(rng: np.random.Generator, fast: bool = False) -> CheckResult:
    """Roots of the truncation condition really are roots, for n = 1, 2, 3."""
    tol = 1e-10
    draws = 6 if fast else 20

    def body() -> tuple[str, float | None, str]:
        worst = 0.0
        n_levels = 0
        for model in Model:
            for _ in range(draws):
                p = _random_params(rng, model)
                for n in (1, 2, 3):
                    table = lambda_polynomials(p, n + 2)
                    levels = truncation_solve(p, n)
                    if len(levels) > n + 1:
                        return "FAIL", None, f"{len(levels)} roots at order n = {n}"
                    coeffs = table.entry(n + 1)
                    for lv in levels:
                        scale = float(
                            np.polynomial.polynomial.polyval(
                                abs(lv.spectral), np.abs(coeffs)
                            )
                        )
                        rel = abs(table.eval(n + 1, lv.spectral)) / max(scale, 1e-300)
                        worst = max(worst, rel)
                        n_levels += 1
        status = "PASS" if worst <= tol else "FAIL"
        return status, worst, f"{n_levels} roots across n in (1, 2, 3), both models"

    return _run("truncation-self-consistency", tol, body)


def check_closed_form_audit(rng: np.random.Generator, fast: bool = False) -> CheckResult:
    """Closed-form n = 1 pair vs the exact truncation quadratic (audit)."""
    tol = 1e-8
    draws = 8 if fast else 30

    def body() -> tuple[str, float | None, str]:
        agree = 0
        discrepant = 0
        worst: float | None = None
        sample = None
        for model in Model:
            for _ in range(draws):
                p = _random_params_with_closed_form(rng, model)
                cmp = compare_closed_form_vs_truncation(p)
                for pr in cmp.pairs:
                    if pr.label == "AGREE":
                        agree += 1
                    else:
                        discrepant += 1
                        if sample is None:
                            sample = cmp
                    if pr.rel_diff is not None:
                        worst = pr.rel_diff if worst is None else max(worst, pr.rel_diff)
        detail = f"{agree} AGREE, {discrepant} DISCREPANT over {2 * draws} parameter sets"
        if discrepant:
            detail += "\n" + sample.to_text()
            return "DISCREPANT-DOCUMENTED", worst, detail
        return "PASS", worst, detail

    return _run("closed-form-audit", tol, body)


def check_ab_periodicity(rng: np.random.Generator, fast: bool = False) -> CheckResult:
    """Flux shift by nu quanta equals relabelling ell by -nu."""
    tol = 1e-12
    draws = 6 if fast else 20

    def body() -> tuple[str, float | None, str]:
        worst = 0.0
        for idx in range(draws):
            model = Model.OSCILLATOR if idx % 2 == 0 else Model.INVERSE_SQUARE
            for nu in (1, 2, 3):
                p = _random_params_with_closed_form(rng, model, shift=nu)
                for pick in (0, 1):
                    chk = ab_periodicity_check(
                        p, nu, lambda q: ground_state_closed_form(q)[pick].energy
                    )
                    worst = max(worst, chk.abs_diff)
                if idx % 4 == 0:
                    chk = ab_periodicity_check(
                        p, nu, lambda q: truncation_solve(q, 1)[0].energy
                    )
                    worst = max(worst, chk.abs_diff)
        status = "PASS" if worst <= tol else "FAIL"
        return status, worst, f"{draws} baselines, nu in (1, 2, 3), both branches"

    return _run("ab-periodicity", tol, body)


def _flat_params(gamma: float, ell: int) -> PhysicalParams:
    return PhysicalParams(
        model=Model.OSCILLATOR,
        mass=1.0,
        omega0=1.0,
        gamma=gamma,
        beta=0.5,
        k=1.0,
        ell=ell,
        flux=0.0,
    )


def check_flat_oracle(rng: np.random.Generator, fast: bool = False) -> CheckResult:
    """Flat-mode grid eigenvalues vs the exact oscillator spectrum."""
    tol = 5e-4
    gammas = (0.0,) if fast else (0.0, 0.5)
    ells = (0, 1) if fast else (0, 1, 2)

    def body() -> tuple[str, float | None, str]:
        worst = 0.0
        ratios: list[float] = []
        for gamma in gammas:
            for ell in ells:
                p = _flat_params(gamma, ell)
                exact = np.array([flat_exact_spectrum(p, i) for i in range(5)])
                fine = oracle_eigenvalues(
                    p, GridSpec.default(GridMode.FLAT, p, 4000), 5
                )
                coarse = oracle_eigenvalues(
                    p,
                    GridSpec.default(GridMode.FLAT, p, 2000),
                    5,
                    residual_tol=None,
                )
                err_fine = np.abs(fine.eigenvalues - exact) / exact
                err_coarse = np.abs(coarse.eigenvalues - exact) / exact
                worst = max(worst, float(err_fine.max()))
                ratios.extend((err_coarse / err_fine).tolist())
        bad = [f"{q:.2f}" for q in ratios if not 3.5 <= q <= 4.5]
        detail = (
            f"{len(gammas) * len(ells)} channels, lowest 5 levels; grid-doubling "
            f"ratios in [{min(ratios):.3f}, {max(ratios):.3f}]"
        )
        if worst > tol:
            return "FAIL", worst, detail
        if bad:
            return "FAIL", worst, detail + f"; ratios outside [3.5, 4.5]: {bad}"
        return "PASS", worst, detail

    return _run("flat-oracle-validation", tol, body)


def check_outer_monotonicity(
    rng: np.random.Generator, fast: bool = False
) -> CheckResult:
    """Lowest outer-mode eigenvalues are non-decreasing in gamma."""
    tol = 1e-12
    gammas = (0.0, 0.5) if fast else (0.0, 0.25, 0.5)

    def body() -> tuple[str, float | None, str]:
        spectra = []
        for gamma in gammas:
            p = PhysicalParams(
                model=Model.OSCILLATOR,
                mass=1.0,
                omega0=1.0,
                gamma=gamma,
                beta=0.5,
                k=1.0,
                ell=1,
                flux=0.25,
            )
            res = oracle_eigenvalues(p, GridSpec.default(GridMode.OUTER, p, 4000), 5)
            spectra.append(res.eigenvalues)
        worst_drop = 0.0
        for lo, hi in zip(spectra, spectra[1:]):
            drop = float((lo - hi).max())  # positive if some level decreased
            worst_drop = max(worst_drop, drop)
        status = "PASS" if worst_drop <= tol else "FAIL"
        return (
            status,
            worst_drop,
            f"gamma ladder {gammas}, lowest 5 outer levels, worst decrease",
        )

    return _run("outer-gamma-monotonicity", tol, body)


def check_rotation_affinity(
    rng: np.random.Generator, fast: bool = False
) -> CheckResult:
    """Sweep energies are affine in Omega with slope -iota."""
    tol = 1e-12

    def body() -> tuple[str, float | None, str]:
        worst_fit = 0.0
        worst_slope = 0.0
        for model in Model:
            p = _random_params_with_closed_form(rng, model)
            iota = derive_params(p).iota
            for method in ("closed-form", "truncation"):
                spec = SweepSpec(
                    parameter="Omega",
                    start=-1.0,
                    stop=1.0,
                    steps=7,
                    method=method,
                    branch="all",
                )
                rows = sweep_rows(p, spec)
                for branch in ("minus", "plus"):
                    pts = [
                        (row.param_value, row.energy)
                        for row in rows
                        if row.branch == branch and row.energy is not None
                    ]
                    if len(pts) < 3:
                        continue
                    xs = np.array([q[0] for q in pts])
                    ys = np.array([q[1] for q in pts])
                    slope, intercept = np.polyfit(xs, ys, 1)
                    fit = np.abs(slope * xs + intercept - ys).max()
                    worst_fit = max(worst_fit, float(fit))
                    worst_slope = max(worst_slope, abs(slope + iota))
        ok = worst_fit <= tol and worst_slope <= 1e-10
        return (
            "PASS" if ok else "FAIL",
            worst_fit,
            f"slope error {worst_slope:.3e} (tol 1e-10), both models and methods",
        )

    return _run("rotation-affinity", tol, body)


CHECKS = (
    check_series_residual,
    check_series_residual_alternate,
    check_changeofvar,
    check_separation,
    check_truncation,
    check_closed_form_audit,
    check_ab_periodicity,
    check_flat_oracle,
    check_outer_monotonicity,
    check_rotation_affinity,
)


def run_verification(seed: int = DEFAULT_SEED, fast: bool = False) -> VerifyReport:
    """Run every check with one seeded generator; see module docstring."""
    rng = np.random.default_rng(seed)
    start = time.perf_counter()
    results = tuple(check(rng, fast) for check in CHECKS)
    wall = time.perf_counter() - start
    overall = all(c.status != "FAIL" for c in results)
    return VerifyReport(
        checks=results,
        overall_pass=overall,
        wall_time_s=wall,
        seed=seed,
        fast=fast,
    )
