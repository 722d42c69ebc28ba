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

A check is one function of plain floats, decorated with its name and
tolerance; the decorator adds it to :data:`CHECKS`, which runs the checks
in the order they are defined::

    @_check("my-check", 1e-10)
    def check_mine(rng, fast, tol) -> Outcome:
        worst = ...  # draw from rng, fewer draws when fast
        return ("PASS" if worst <= tol else "FAIL"), worst, "what was measured"

The decorator makes it ``check_mine(rng, fast=False) -> CheckResult``:
it times the measurement and reports an exception as FAIL with measured
None.  A check decorated after the module is imported stays out of
:data:`CHECKS`.

The audits have no other caller, so they live here rather than in the
modules they audit: the alternate recurrence denominator, the closed-form
and flux-periodicity comparisons, and the two operator identities,
:func:`changeofvar_consistency` (radial operator against its x-space
form) and :func:`separation_residual` (full 3-d equation against the
radial one), with the analytic probes they apply the operators to
(:func:`gaussian_probe`).  ``separation-identity`` draws spectral values
and maps them forward with :func:`params.spectral_to_energy`, so it
checks the energy map every route reports through.
"""

from __future__ import annotations

import cmath
import dataclasses
import functools
import json
import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .operators import radial_lhs, transformed_lhs
from .oracle import GridMode, GridSpec, flat_exact_spectrum, oracle_eigenvalues
from .params import (
    InvalidParameterError, Model, PhysicalParams, _require_int, derive_params, spectral_to_energy
)
from .series import (
    OVERFLOW_LIMIT,
    SeriesOverflowError,
    SeriesSolution,
    _seed,
    _triple,
    series_coefficients,
    series_residual,
)
from .spectrum import (
    closed_form_discriminant,
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
    """All check outcomes, from which :attr:`overall_pass` follows."""

    checks: tuple[CheckResult, ...]
    wall_time_s: float
    seed: int
    fast: bool

    @property
    def overall_pass(self) -> bool:
        """True iff no check FAILed; DISCREPANT-DOCUMENTED findings do not fail the suite."""
        return all(c.status != "FAIL" for c in self.checks)

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
    rng: np.random.Generator, model: Model, shift: int = 0, truncation: bool = False
) -> PhysicalParams:
    """Rejection-sample until the n = 1 closed form is real.

    ``shift`` additionally requires reality at flux + shift (used by the
    periodicity check, whose shifted configurations share one iota), and
    ``truncation`` a real root of c_2 there as well.
    """
    for _ in range(5000):
        p = _random_params(rng, model)
        if closed_form_discriminant(p) < 0:
            continue
        if shift:
            q = dataclasses.replace(p, flux=p.flux + shift)
            if closed_form_discriminant(q) < 0 or (truncation and not truncation_solve(q, 1)):
                continue
        return p
    raise RuntimeError("could not sample parameters with a real closed form")


# a check's (status, measured, detail)
Outcome = tuple[str, float | None, str]

# a string: evaluating np.random here would load it with every import screwspec
Measurement = Callable[["np.random.Generator", bool, float], Outcome]


# every check decorated so far, in definition order; CHECKS is this list at the end of import
_decorated: list[Callable[..., CheckResult]] = []


def _check(name: str, tolerance: float) -> Callable[[Measurement], Callable[..., CheckResult]]:
    """Make ``measure(rng, fast, tol) -> Outcome`` a named check; see the module docstring."""

    def decorate(measure: Measurement) -> Callable[..., CheckResult]:
        @functools.wraps(measure)
        def check(rng: np.random.Generator, fast: bool = False) -> CheckResult:
            start = time.perf_counter()
            try:
                status, measured, detail = measure(rng, fast, tolerance)
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

        _decorated.append(check)
        return check

    return decorate


def _worst_series_residual(
    rng: np.random.Generator, draws: int, coefficients: Callable[..., SeriesSolution]
) -> float:
    """Worst transformed-operator residual of ``coefficients`` over ``draws`` draws per model."""
    worst = 0.0
    for model in Model:
        for _ in range(draws):
            p = _random_params(rng, model)
            s = float(rng.uniform(-10.0, 10.0))
            sol = coefficients(p, s, SERIES_TERMS)
            worst = max(worst, series_residual(sol, p, s, RESIDUAL_POINTS))
    return worst


@_check("series-residual", 1e-9)
def check_series_residual(rng: np.random.Generator, fast: bool, tol: float) -> Outcome:
    """Transformed-operator residual of the N=200 series, both models."""
    draws = 10 if fast else 50
    worst = _worst_series_residual(rng, draws, series_coefficients)
    status = "PASS" if worst <= tol else "FAIL"
    return status, worst, f"{2 * draws} parameter draws, {SERIES_TERMS} terms"


def _alternate_coefficients(p: PhysicalParams, spectral: float, n_terms: int) -> SeriesSolution:
    """:func:`series_coefficients` with the denominator (i + 3/2 + j)(i + 2)."""
    d = derive_params(p)
    iota2, scaled = d.iota**2, spectral * p.beta**2
    c = np.empty(n_terms + 1)
    c[0] = 1.0
    c[1] = _seed(iota2, d.j, d.omega, scaled)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_terms - 1):
            d1, d2, _ = _triple(i, iota2, d.j, d.omega, scaled)
            nxt = (d1 * c[i + 1] + d2 * c[i]) / ((i + 1.5 + d.j) * (i + 2.0))
            if not math.isfinite(nxt) or abs(nxt) > OVERFLOW_LIMIT:
                raise SeriesOverflowError(i + 2)
            c[i + 2] = nxt
    return SeriesSolution(coeffs=c, power=0.25 + d.j / 2.0, gauss_factor=d.omega / 2.0)


@_check("series-residual-alternate-denominator", 1e-9)
def check_series_residual_alternate(rng: np.random.Generator, fast: bool, tol: float) -> Outcome:
    """Audit of the alternate recurrence denominator (expected to disagree)."""
    worst = _worst_series_residual(rng, 5 if fast else 10, _alternate_coefficients)
    if worst > tol:
        return (
            "DISCREPANT-DOCUMENTED",
            worst,
            "alternate denominator (i + 3/2 + j)(i + 2) fails the operator "
            "residual; the consistent form (i + 2 + j)(i + 2) is the default",
        )
    return "PASS", worst, "alternate denominator unexpectedly agrees"


# an analytic probe: t -> (f(t), f'(t), f''(t))
_Probe = Callable[[float], tuple[float, float, float]]


def gaussian_probe(width: float = 1.0, center: float = 0.0) -> _Probe:
    """Gaussian bump ``exp(-width (t - center)^2)``: ``t -> (f, f', f'')``, exact."""
    if width <= 0:
        raise ValueError(f"width must be positive: got {width}")

    def probe(t: float) -> tuple[float, float, float]:
        u = t - center
        f = math.exp(-width * u**2)
        return f, -2.0 * width * u * f, (4.0 * width**2 * u**2 - 2.0 * width) * f

    return probe


def changeofvar_consistency(
    p: PhysicalParams,
    spectral_value: float,
    probe: _Probe,
    r: float,
) -> float:
    """Mismatch between the radial operator and its x-space form on a probe.

    The probe is a function of x; composing with ``x(r) = r^2/beta^2``
    and applying the chain rule, the transformed operator must equal
    ``beta^2`` times the radial one.  Returns the normalised absolute
    mismatch (zero to rounding for any twice-differentiable probe).
    Requires ``r > 0`` with ``|r - beta| >= 1e-6``.
    """
    x = r**2 / p.beta**2
    fx, dfx, d2fx = probe(x)
    # chain rule: d/dr = (2r/beta^2) d/dx
    dxdr = 2.0 * r / p.beta**2
    psi = fx
    dpsi = dfx * dxdr
    d2psi = d2fx * dxdr**2 + dfx * 2.0 / p.beta**2
    radial = radial_lhs(p, spectral_value, r, psi, dpsi, d2psi)
    trans = transformed_lhs(p, spectral_value, x, fx, dfx, d2fx)
    diff = abs(trans - p.beta**2 * radial)
    scale = max(1.0, abs(trans), abs(p.beta**2 * radial))
    return diff / scale


@_check("change-of-variable", 1e-10)
def check_changeofvar(rng: np.random.Generator, fast: bool, tol: float) -> Outcome:
    """Radial operator vs its x-space form on random analytic probes."""
    draws = 20 if fast else 100
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


def separation_residual(
    p: PhysicalParams,
    spectral: float,
    probe: _Probe,
    r: float,
    angle: float = 0.7,
    z: float = 0.3,
) -> float:
    """Mismatch between the full 3-d stationary equation and the radial one.

    The 3-d side is assembled from the raw inverse-metric components of
    the dislocated medium (g^rr = 1, g^phiphi = 1/(r^2-b^2),
    g^phiz = -b/(r^2-b^2), g^zz = r^2/(r^2-b^2), volume factor r/(r^2-b^2)
    in the radial first-derivative term), with the phases acting
    analytically (d_phi -> i(ell - flux) after minimal coupling,
    d_z -> i k) and the rotation operator i Omega (D_phi - beta d_z).
    The radial side is :func:`operators.radial_lhs` at ``spectral`` times
    the same phase, and the 3-d side takes the energy that
    :func:`params.spectral_to_energy` maps it to, the map every route
    reports its levels through.  The two agree identically for every
    spectral value; the returned normalised modulus is rounding noise
    unless the composition iota = ell - flux - beta*k or the energy map
    is broken somewhere.  Requires ``r > 0`` with ``r != beta``.
    """
    g = r * r - p.beta * p.beta
    energy = spectral_to_energy(p, spectral)
    lm = p.ell - p.flux  # the 3-d side keeps its own algebra: it is what the check compares
    f, d1, d2 = probe(r)
    phase = cmath.exp(1j * (p.ell * angle + p.k * z))
    angular = -(lm * lm - 2.0 * p.beta * lm * p.k + p.k * p.k * r * r) / g
    kinetic = -(d2 + (r / g) * d1 + angular * f) / (2.0 * p.mass)
    rotation = 1j * p.Omega * (1j * lm - 1j * p.beta * p.k) * f
    potential = (
        0.5 * p.mass * p.omega0**2 * r**2 + p.gamma / r**2 + p.delta - energy
    ) * f
    lhs3d = (kinetic + rotation + potential) * phase
    radial = radial_lhs(p, spectral, r, f, d1, d2)
    target = -(phase * radial) / (2.0 * p.mass)
    scale = max(
        1.0,
        abs(kinetic) + abs(rotation) + abs(potential),
        abs(radial) / (2.0 * p.mass),
    )
    return abs(lhs3d - target) / scale


@_check("separation-identity", 1e-8)
def check_separation(rng: np.random.Generator, fast: bool, tol: float) -> Outcome:
    """Full 3-d operator vs the separated radial operator."""
    draws = 8 if fast else 30
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
        spectral = float(rng.uniform(-10.0, 10.0))
        worst = max(
            worst,
            separation_residual(
                p,
                spectral,
                probe,
                r,
                angle=float(rng.uniform(0.0, 2.0 * math.pi)),
                z=float(rng.uniform(-2.0, 2.0)),
            ),
        )
    status = "PASS" if worst <= tol else "FAIL"
    return status, worst, f"{draws} random (params, probe, r, spectral) draws"


@_check("truncation-self-consistency", 1e-10)
def check_truncation(rng: np.random.Generator, fast: bool, tol: float) -> Outcome:
    """Roots of the truncation condition really are roots, for n = 1, 2, 3."""
    draws = 6 if fast else 20
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
                        np.polynomial.polynomial.polyval(abs(lv.spectral), np.abs(coeffs))
                    )
                    rel = abs(table.eval(n + 1, lv.spectral)) / max(scale, 1e-300)
                    worst = max(worst, rel)
                    n_levels += 1
    status = "PASS" if worst <= tol else "FAIL"
    return status, worst, f"{n_levels} roots across n in (1, 2, 3), both models"


def _audit_pairs(p: PhysicalParams, tol: float) -> tuple[list[float], list[tuple]]:
    """The n = 1 truncation roots at ``p``, and each closed-form level against them.

    One (level, nearest root, relative difference, label) per branch; with
    no real root the nearest root and the difference are None.
    """
    roots = [lv.spectral for lv in truncation_solve(p, 1)]
    pairs = []
    for lv in ground_state_closed_form(p):
        near = rel = None
        if roots:
            near = min(roots, key=lambda t: abs(t - lv.spectral))
            rel = abs(near - lv.spectral) / max(1.0, abs(near), abs(lv.spectral))
        label = "AGREE" if rel is not None and rel <= tol else "DISCREPANT-DOCUMENTED"
        pairs.append((lv, near, rel, label))
    return roots, pairs


def _audit_text(p: PhysicalParams, tol: float) -> str:
    """The audit at ``p`` with the truncation quadratic, every number in full."""
    c, b, a = lambda_polynomials(p, 2).entry(2).tolist()
    roots, pairs = _audit_pairs(p, tol)
    lines = [
        f"closed-form audit ({p.model.value} model)",
        f"  truncation quadratic: ({a:.17g}) s^2 + ({b:.17g}) s + ({c:.17g}) = 0",
        f"  truncation roots:  {[f'{s:.17g}' for s in roots]}",
        f"  closed form:       {[f'{lv.spectral:.17g}' for lv, *_ in pairs]}",
    ]
    for lv, near, rel, label in pairs:
        near_text = "none" if near is None else f"{near:.17g}"
        rel_text = "n/a" if rel is None else f"{rel:.3e}"
        lines.append(
            f"  {lv.branch.value}: closed {lv.spectral:.17g} vs nearest root "
            f"{near_text} (rel diff {rel_text}) -> {label}"
        )
    lines.append(f"  existence: {'both-populated' if roots else 'closed-form-only'}")
    return "\n".join(lines)


@_check("closed-form-audit", 1e-8)
def check_closed_form_audit(rng: np.random.Generator, fast: bool, tol: float) -> Outcome:
    """Closed-form n = 1 pair vs the exact truncation quadratic (audit)."""
    draws = 8 if fast else 30
    agree = 0
    discrepant = 0
    worst: float | None = None
    sample = None
    for model in Model:
        for _ in range(draws):
            p = _random_params_with_closed_form(rng, model)
            for _, _, rel, label in _audit_pairs(p, tol)[1]:
                if label == "AGREE":
                    agree += 1
                else:
                    discrepant += 1
                    if sample is None:
                        sample = p
                if rel is not None:
                    worst = rel if worst is None else max(worst, rel)
    detail = f"{agree} AGREE, {discrepant} DISCREPANT over {2 * draws} parameter sets"
    if discrepant:
        detail += "\n" + _audit_text(sample, tol)
        return "DISCREPANT-DOCUMENTED", worst, detail
    return "PASS", worst, detail


def _shift_gap(
    p: PhysicalParams, nu: int, energies: Callable[[PhysicalParams], list[float]]
) -> float:
    """max over the levels of |E(flux + nu) - E(ell - nu)|: both shifts give the same iota."""
    flux_shifted = energies(dataclasses.replace(p, flux=p.flux + nu))
    relabelled = energies(dataclasses.replace(p, ell=p.ell - nu))
    return max(abs(a - b) for a, b in zip(flux_shifted, relabelled, strict=True))


@_check("ab-periodicity", 1e-12)
def check_ab_periodicity(rng: np.random.Generator, fast: bool, tol: float) -> Outcome:
    """Flux shift by nu quanta equals relabelling ell by -nu."""
    draws = 6 if fast else 20
    worst = 0.0
    for idx in range(draws):
        model = Model.OSCILLATOR if idx % 2 == 0 else Model.INVERSE_SQUARE
        for nu in (1, 2, 3):
            # every fourth baseline also checks the lowest truncation root
            truncation = idx % 4 == 0
            p = _random_params_with_closed_form(rng, model, nu, truncation)
            pair = _shift_gap(p, nu, lambda q: [lv.energy for lv in ground_state_closed_form(q)])
            worst = max(worst, pair)
            if truncation:
                lowest = _shift_gap(p, nu, lambda q: [truncation_solve(q, 1)[0].energy])
                worst = max(worst, lowest)
    status = "PASS" if worst <= tol else "FAIL"
    return status, worst, f"{draws} baselines, nu in (1, 2, 3), both branches"


def _unit_params(gamma: float, ell: int, flux: float) -> PhysicalParams:
    """The oscillator with unit mass, trap and k, at beta = 1/2."""
    return PhysicalParams(
        model=Model.OSCILLATOR,
        mass=1.0,
        omega0=1.0,
        gamma=gamma,
        beta=0.5,
        k=1.0,
        ell=ell,
        flux=flux,
    )


@_check("flat-oracle-validation", 5e-4)
def check_flat_oracle(rng: np.random.Generator, fast: bool, tol: float) -> Outcome:
    """Flat-mode grid eigenvalues vs the exact oscillator spectrum."""
    gammas = (0.0,) if fast else (0.0, 0.5)
    ells = (0, 1) if fast else (0, 1, 2)
    worst = 0.0
    ratios: list[float] = []
    for gamma in gammas:
        for ell in ells:
            p = _unit_params(gamma, ell, 0.0)
            exact = np.array([flat_exact_spectrum(p, i) for i in range(5)])
            fine = oracle_eigenvalues(p, GridSpec.default(GridMode.FLAT, p, 4000), 5)
            coarse = oracle_eigenvalues(
                p, GridSpec.default(GridMode.FLAT, p, 2000), 5, residual_tol=None
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


@_check("outer-gamma-monotonicity", 1e-12)
def check_outer_monotonicity(rng: np.random.Generator, fast: bool, tol: float) -> Outcome:
    """Lowest outer-mode eigenvalues are non-decreasing in gamma."""
    gammas = (0.0, 0.5) if fast else (0.0, 0.25, 0.5)
    spectra = []
    for gamma in gammas:
        p = _unit_params(gamma, 1, 0.25)
        res = oracle_eigenvalues(p, GridSpec.default(GridMode.OUTER, p, 4000), 5)
        spectra.append(res.eigenvalues)
    worst_drop = 0.0
    for lo, hi in zip(spectra, spectra[1:]):
        drop = float((lo - hi).max())  # positive if some level decreased
        worst_drop = max(worst_drop, drop)
    status = "PASS" if worst_drop <= tol else "FAIL"
    return status, worst_drop, f"gamma ladder {gammas}, lowest 5 outer levels, worst decrease"


@_check("rotation-affinity", 1e-12)
def check_rotation_affinity(rng: np.random.Generator, fast: bool, tol: float) -> Outcome:
    """Sweep energies are affine in Omega with slope -iota."""
    worst_fit = 0.0
    worst_slope = 0.0
    for model in Model:
        p = _random_params_with_closed_form(rng, model)
        iota = derive_params(p).iota
        for method in ("closed-form", "truncation"):
            spec = SweepSpec(
                parameter="Omega", start=-1.0, stop=1.0, steps=7, method=method, branch="all"
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


CHECKS = tuple(_decorated)


def run_verification(seed: int = DEFAULT_SEED, fast: bool = False) -> VerifyReport:
    """Run every check with one seeded generator; see module docstring."""
    seed = _require_int("seed", seed)
    if seed < 0:
        raise InvalidParameterError(f"seed must be >= 0: got {seed}")
    rng = np.random.default_rng(seed)
    start = time.perf_counter()
    results = tuple(check(rng, fast) for check in CHECKS)
    wall = time.perf_counter() - start
    return VerifyReport(checks=results, wall_time_s=wall, seed=seed, fast=fast)
