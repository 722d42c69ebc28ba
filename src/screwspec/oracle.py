"""Finite-difference oracle for the radial problem.

Everything here is an independent measurement route: no series, no
recurrence, no closed forms.  The radial equation is brought to
Liouville normal form with ``psi = |r^2 - beta^2|^(-1/4) u``, giving

    -u'' + U(r) u = spectral * u,
    U(r) = (mass omega0 r)^2 + 2 mass gamma / r^2 + iota^2/(r^2-beta^2)
           - (r^2 + 2 beta^2) / (4 (r^2 - beta^2)^2),

which is discretised on a uniform grid with Dirichlet ends and solved
with a Sturm-sequence tridiagonal eigensolver.

Near r = 0 the potential behaves like c0 / r^2, and for c0 close to the
critical value -1/4 a naive diagonal converges only like 1/log(h).  The
default grids therefore start exactly at r = 0 and replace the c0 / r^2
samples by a matched diagonal that annihilates the exact power r^nu,
nu = 1/2 + sqrt(c0 + 1/4), restoring clean O(h^2) convergence in every
channel.  Whether a grid gets the matched diagonal follows from the grid
alone: flat and core grids that start at r = 0 do, every other grid
samples U directly.

Each eigenpair is back-substituted into the first-derivative form of the
radial equation and the normalised residual is measured on the interior
of the grid; residuals above ``residual_tol`` raise
:class:`OracleAccuracyError` (grid too coarse) rather than returning
silently wrong numbers.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .operators import Probe, radial_lhs
from .params import (
    InvalidParameterError,
    Model,
    PhysicalParams,
    derive_params,
    energy_to_spectral,
)
from .spectrum import (
    EnergyLevel,
    NegativeDiscriminantError,
    ground_state_closed_form,
    truncation_solve,
)

__all__ = [
    "GridMode",
    "GridSpec",
    "OracleResult",
    "OracleReport",
    "OracleAccuracyError",
    "effective_potential",
    "oracle_eigenvalues",
    "flat_exact_spectrum",
    "separation_residual",
    "oracle_vs_closed_form_report",
    "oracle_csv",
]

EDGE_EPS = 1e-6

DEFAULT_POINTS = 4000

DEFAULT_RESIDUAL_TOL = 1e-6

RESIDUAL_TRIM = 0.05


class GridMode(str, Enum):
    """Which radial region (and which limit) the oracle measures.

    * ``outer``: r in (beta, r_max), the full potential.
    * ``core``: r in (0, beta), the full potential inside the dislocation
      radius.
    * ``flat``: the beta -> 0 limit of the problem, where the oscillator
      spectrum is known exactly and validates the whole pipeline.
    """

    OUTER = "outer"
    CORE = "core"
    FLAT = "flat"


class OracleAccuracyError(RuntimeError):
    """The discretised eigenpairs fail the back-substitution residual gate."""


@dataclass(frozen=True)
class GridSpec:
    """Uniform Dirichlet grid: n_points interior nodes on (r_min, r_max).

    Flat and core grids with ``r_min == 0`` use the matched diagonal at
    the r = 0 singularity; every other grid uses the plain sampled
    diagonal.
    """

    mode: GridMode
    r_min: float
    r_max: float
    n_points: int = DEFAULT_POINTS

    def __post_init__(self) -> None:
        if self.n_points < 64:
            raise InvalidParameterError(
                f"n_points must be at least 64: got {self.n_points}"
            )
        if not self.r_max > self.r_min >= 0.0:
            raise InvalidParameterError(
                f"need r_max > r_min >= 0: got ({self.r_min}, {self.r_max})"
            )

    @staticmethod
    def default(
        mode: GridMode, p: PhysicalParams, n_points: int = DEFAULT_POINTS
    ) -> "GridSpec":
        """Default measurement grid for a mode.

        Outer and flat grids extend to several trap lengths (or a fixed
        box of 40 for the untrapped model); the outer grid starts a small
        eps above the dislocation radius where the potential diverges,
        while flat and core grids start exactly at r = 0 so the matched
        diagonal applies.
        """
        mode = GridMode(mode)
        if p.omega0 > 0:
            r_far = max(10.0, 6.0 / math.sqrt(p.mass * p.omega0))
        else:
            r_far = 40.0
        if mode is GridMode.OUTER:
            return GridSpec(mode=mode, r_min=p.beta + EDGE_EPS, r_max=r_far, n_points=n_points)
        if mode is GridMode.CORE:
            return GridSpec(mode=mode, r_min=0.0, r_max=p.beta - EDGE_EPS, n_points=n_points)
        return GridSpec(mode=mode, r_min=0.0, r_max=r_far, n_points=n_points)


@dataclass(frozen=True)
class OracleResult:
    """Lowest eigenvalues of one grid, with per-pair residual norms."""

    mode: GridMode
    eigenvalues: np.ndarray
    residual_norms: np.ndarray
    n_points: int
    r_min: float
    r_max: float


def _singular_coefficient(p: PhysicalParams, mode: GridMode) -> float:
    """Coefficient c0 of the r -> 0 singularity c0 / r^2 of U."""
    d = derive_params(p)
    if mode is GridMode.FLAT:
        iota_flat = p.ell - p.flux
        return iota_flat**2 + 2.0 * p.mass * p.gamma - 0.25
    if mode is GridMode.CORE:
        return 2.0 * p.mass * p.gamma
    raise ValueError("the outer grid does not reach r = 0")


def effective_potential(
    p: PhysicalParams, mode: GridMode, r: float | np.ndarray
) -> float | np.ndarray:
    """Liouville-normal-form potential U(r) for one mode.

    Flat mode is the beta -> 0 limit: the dislocation terms collapse
    onto the centrifugal one, ``U = (M w0 r)^2 + (2 M gamma +
    (ell-flux)^2 - 1/4)/r^2``.  Input r must avoid the singular points
    (0, and beta for the outer/core modes).
    """
    mode = GridMode(mode)
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0):
        raise ValueError("r must be positive")
    d = derive_params(p)
    trap = (p.mass * p.omega0 * r) ** 2
    if mode is GridMode.FLAT:
        c0 = _singular_coefficient(p, mode)
        out = trap + c0 / r**2
    else:
        g = r**2 - p.beta**2
        if np.any(g == 0):
            raise ValueError(f"r must differ from beta = {p.beta}")
        out = (
            trap
            + 2.0 * p.mass * p.gamma / r**2
            + d.iota**2 / g
            - (r**2 + 2.0 * p.beta**2) / (4.0 * g**2)
        )
    return out if out.ndim else float(out)


def _assemble(p: PhysicalParams, grid: GridSpec) -> tuple[np.ndarray, float, np.ndarray]:
    """Interior nodes, spacing, and the diagonal of the tridiagonal matrix."""
    n = grid.n_points
    h = (grid.r_max - grid.r_min) / (n + 1)
    idx = np.arange(1, n + 1, dtype=float)
    r = grid.r_min + idx * h
    if grid.r_min == 0.0 and grid.mode in (GridMode.FLAT, GridMode.CORE):
        c0 = _singular_coefficient(p, grid.mode)
        nu = 0.5 + math.sqrt(c0 + 0.25)
        up = (idx + 1.0) ** nu
        down = np.where(idx > 1, idx - 1.0, 0.0) ** nu
        w = (up - 2.0 * idx**nu + down) / (idx**nu * h * h)
        rest = effective_potential(p, grid.mode, r) - c0 / r**2
        diag = 2.0 / h**2 + rest + w
    else:
        diag = 2.0 / h**2 + effective_potential(p, grid.mode, r)
    return r, h, diag


def _first_form_pieces(
    p: PhysicalParams, mode: GridMode, r: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Damping p(r) and potential W(r) of psi'' + p psi' + (spectral - W) psi = 0."""
    d = derive_params(p)
    trap = (p.mass * p.omega0 * r) ** 2
    if mode is GridMode.FLAT:
        iota_flat = p.ell - p.flux
        damp = 1.0 / r
        pot = trap + (2.0 * p.mass * p.gamma + iota_flat**2) / r**2
    else:
        g = r**2 - p.beta**2
        damp = r / g
        pot = trap + 2.0 * p.mass * p.gamma / r**2 + d.iota**2 / g
    return damp, pot


def _residual_norms(
    p: PhysicalParams,
    grid: GridSpec,
    r: np.ndarray,
    h: float,
    eigenvalues: np.ndarray,
    vectors: np.ndarray,
) -> np.ndarray:
    """Back-substitution residuals of each eigenpair in first-derivative form.

    The eigenvector is mapped back to psi, differentiated with central
    differences, and the normalised RMS residual of the radial equation
    is taken over the interior band (5% trimmed at each end, away from
    the endpoint singularities where the probe stencil is unreliable).
    """
    if grid.mode is GridMode.FLAT:
        weight = r ** (-0.5)
    else:
        weight = np.abs(r**2 - p.beta**2) ** (-0.25)
    damp, pot = _first_form_pieces(p, grid.mode, r)
    trim = max(5, int(RESIDUAL_TRIM * (len(r) - 2)))
    norms = np.empty(eigenvalues.shape)
    for jcol in range(vectors.shape[1]):
        psi = weight * vectors[:, jcol]
        d1 = (psi[2:] - psi[:-2]) / (2.0 * h)
        d2 = (psi[2:] - 2.0 * psi[1:-1] + psi[:-2]) / h**2
        mid = slice(1, -1)
        res = d2 + damp[mid] * d1 + (eigenvalues[jcol] - pot[mid]) * psi[mid]
        terms = (
            np.abs(d2)
            + np.abs(damp[mid] * d1)
            + np.abs((eigenvalues[jcol] - pot[mid]) * psi[mid])
        )
        band = slice(trim, len(res) - trim)
        norms[jcol] = np.linalg.norm(res[band]) / np.linalg.norm(terms[band])
    return norms


def oracle_eigenvalues(
    p: PhysicalParams,
    grid: GridSpec,
    n_eigs: int = 5,
    residual_tol: float | None = DEFAULT_RESIDUAL_TOL,
) -> OracleResult:
    """Lowest ``n_eigs`` spectral values of the discretised radial problem.

    Raises :class:`OracleAccuracyError` when any back-substitution
    residual exceeds ``residual_tol`` (pass None to skip the gate, e.g.
    for deliberate coarse-grid convergence studies).
    """
    if n_eigs < 1:
        raise InvalidParameterError(f"n_eigs must be >= 1: got {n_eigs}")
    if n_eigs > grid.n_points // 4:
        raise InvalidParameterError(
            f"n_eigs = {n_eigs} is too large for {grid.n_points} grid points"
        )
    if grid.mode is GridMode.OUTER and grid.r_min < p.beta:
        raise InvalidParameterError(
            f"an outer grid must start at or above beta = {p.beta}: got r_min = {grid.r_min}"
        )
    if grid.mode is GridMode.CORE and grid.r_max > p.beta:
        raise InvalidParameterError(
            f"a core grid must end at or below beta = {p.beta}: got r_max = {grid.r_max}"
        )
    r, h, diag = _assemble(p, grid)
    off = np.full(grid.n_points - 1, -1.0 / h**2)
    eigenvalues, vectors = eigh_tridiagonal(
        diag, off, select="i", select_range=(0, n_eigs - 1)
    )
    norms = _residual_norms(p, grid, r, h, eigenvalues, vectors)
    if residual_tol is not None and np.any(norms > residual_tol):
        worst = float(norms.max())
        raise OracleAccuracyError(
            f"grid too coarse for mode {grid.mode.value}: worst back-substitution "
            f"residual {worst:.3e} exceeds {residual_tol:.1e}; increase n_points "
            f"(currently {grid.n_points})"
        )
    return OracleResult(
        mode=grid.mode,
        eigenvalues=eigenvalues,
        residual_norms=norms,
        n_points=grid.n_points,
        r_min=grid.r_min,
        r_max=grid.r_max,
    )


def flat_exact_spectrum(p: PhysicalParams, n_r: int) -> float:
    """Exact flat-limit spectral value ``2 M w0 (2 n_r + 1 + s)``.

    ``s = sqrt((ell - flux)^2 + 2 M gamma)`` is the effective angular
    index of the beta -> 0 problem.  Only the oscillator model has a
    discrete flat spectrum.
    """
    if p.model is not Model.OSCILLATOR:
        raise InvalidParameterError(
            "the flat exact spectrum requires the oscillator model"
        )
    if n_r < 0:
        raise InvalidParameterError(f"n_r must be >= 0: got {n_r}")
    s = math.sqrt((p.ell - p.flux) ** 2 + 2.0 * p.mass * p.gamma)
    return 2.0 * p.mass * p.omega0 * (2 * n_r + 1 + s)


def separation_residual(
    p: PhysicalParams,
    energy: float,
    probe: Probe,
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
    The radial side is :func:`operators.radial_lhs` at the spectral value
    2 M (E - delta + Omega iota) - k^2 times the same phase.  The two
    agree identically for every energy; the returned normalised modulus
    is rounding noise unless the composition iota = ell - flux - beta*k
    is broken somewhere.
    """
    if r <= 0:
        raise ValueError(f"r must be positive: got {r}")
    g = r * r - p.beta * p.beta
    if g == 0:
        raise ValueError(f"r must differ from beta = {p.beta}")
    lm = p.ell - p.flux
    f, d1, d2 = probe.f(r), probe.df(r), probe.d2f(r)
    phase = cmath.exp(1j * (p.ell * angle + p.k * z))
    angular = -(lm * lm - 2.0 * p.beta * lm * p.k + p.k * p.k * r * r) / g
    kinetic = -(d2 + (r / g) * d1 + angular * f) / (2.0 * p.mass)
    rotation = 1j * p.Omega * (1j * lm - 1j * p.beta * p.k) * f
    potential = (
        0.5 * p.mass * p.omega0**2 * r**2 + p.gamma / r**2 + p.delta - energy
    ) * f
    lhs3d = (kinetic + rotation + potential) * phase
    spectral = energy_to_spectral(p, energy)
    radial = radial_lhs(p, spectral.value, r, f, d1, d2)
    target = -(phase * radial) / (2.0 * p.mass)
    scale = max(
        1.0,
        abs(kinetic) + abs(rotation) + abs(potential),
        abs(radial) / (2.0 * p.mass),
    )
    return abs(lhs3d - target) / scale


@dataclass(frozen=True)
class MatchRecord:
    """Distance of one predicted spectral value to the oracle lists."""

    source: str
    spectral: float
    nearest_outer: float
    dist_outer: float
    nearest_core: float
    dist_core: float


@dataclass(frozen=True)
class OracleReport:
    """Side-by-side dump of predictions and oracle spectra.

    Pure juxtaposition: the report adjudicates nothing, it lines up the
    closed forms, the truncation roots, and the grid eigenvalues so a
    reader can see where each number falls.
    """

    params: PhysicalParams
    closed: tuple[EnergyLevel, ...]
    closed_empty_reason: str | None
    truncation: tuple[EnergyLevel, ...]
    outer: OracleResult
    core: OracleResult
    flat: OracleResult
    flat_exact: tuple[float, ...] | None
    matches: tuple[MatchRecord, ...]

    def to_text(self) -> str:
        lines = [f"oracle report ({self.params.model.value} model)"]
        for result in (self.outer, self.core, self.flat):
            vals = ", ".join(f"{v:.10g}" for v in result.eigenvalues)
            lines.append(
                f"  {result.mode.value:5s} grid ({result.r_min:.6g}, {result.r_max:.6g}), "
                f"n = {result.n_points}: [{vals}]"
            )
        if self.flat_exact is not None:
            vals = ", ".join(f"{v:.10g}" for v in self.flat_exact)
            lines.append(f"  flat exact:            [{vals}]")
        if self.closed_empty_reason:
            lines.append(f"  closed form: none ({self.closed_empty_reason})")
        for rec in self.matches:
            lines.append(
                f"  {rec.source}: {rec.spectral:.10g} | nearest outer "
                f"{rec.nearest_outer:.10g} (dist {rec.dist_outer:.3e}) | nearest core "
                f"{rec.nearest_core:.10g} (dist {rec.dist_core:.3e})"
            )
        return "\n".join(lines)


def oracle_vs_closed_form_report(
    p: PhysicalParams,
    n_points: int = DEFAULT_POINTS,
    n_eigs: int = 5,
    residual_tol: float | None = DEFAULT_RESIDUAL_TOL,
) -> OracleReport:
    """Run all three default grids and line the results up with predictions."""
    outer = oracle_eigenvalues(
        p, GridSpec.default(GridMode.OUTER, p, n_points), n_eigs, residual_tol
    )
    core = oracle_eigenvalues(
        p, GridSpec.default(GridMode.CORE, p, n_points), n_eigs, residual_tol
    )
    flat = oracle_eigenvalues(
        p, GridSpec.default(GridMode.FLAT, p, n_points), n_eigs, residual_tol
    )
    flat_exact = None
    if p.model is Model.OSCILLATOR:
        flat_exact = tuple(flat_exact_spectrum(p, i) for i in range(n_eigs))
    closed: tuple[EnergyLevel, ...] = ()
    reason = None
    try:
        closed = tuple(ground_state_closed_form(p))
    except NegativeDiscriminantError as exc:
        reason = f"negative discriminant ({exc.discriminant:.17g})"
    trunc = tuple(truncation_solve(p, 1))
    matches = []
    for source, value in [
        (f"closed-{lv.branch.value}", lv.spectral) for lv in closed
    ] + [(f"truncation-{i}", lv.spectral) for i, lv in enumerate(trunc)]:
        no = min(outer.eigenvalues, key=lambda v: abs(v - value))
        nc = min(core.eigenvalues, key=lambda v: abs(v - value))
        matches.append(
            MatchRecord(
                source=source,
                spectral=value,
                nearest_outer=float(no),
                dist_outer=abs(float(no) - value),
                nearest_core=float(nc),
                dist_core=abs(float(nc) - value),
            )
        )
    return OracleReport(
        params=p,
        closed=closed,
        closed_empty_reason=reason,
        truncation=trunc,
        outer=outer,
        core=core,
        flat=flat,
        flat_exact=flat_exact,
        matches=tuple(matches),
    )


def oracle_csv(results: Iterable[OracleResult] | Sequence[OracleResult]) -> str:
    """Eigenvalue table as CSV (17 significant digits, byte-stable)."""
    lines = ["mode,index,lambda,residual_norm,n_points,r_min,r_max"]
    for result in results:
        for i, (lam, rn) in enumerate(zip(result.eigenvalues, result.residual_norms)):
            lines.append(
                f"{result.mode.value},{i},{lam:.17g},{rn:.17g},"
                f"{result.n_points},{result.r_min:.17g},{result.r_max:.17g}"
            )
    return "\n".join(lines) + "\n"
