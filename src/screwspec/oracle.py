"""Finite-difference oracle for the radial problem.

Everything here is an independent measurement route: no series, no
recurrence, no closed forms.  The module imports nothing from the
package but :mod:`screwspec.params`, so the grid never sees the other
routes; lining its eigenvalues up against theirs is the CLI's
``oracle --report``.  The radial equation is brought to
Liouville normal form with ``psi = |r^2 - b^2|^(-1/4) u``, giving

    -u'' + U(r) u = spectral * u,
    U(r) = (mass omega0 r)^2 + 2 mass gamma / r^2 + iota^2/(r^2-b^2)
           - (r^2 + 2 b^2) / (4 (r^2 - b^2)^2),

with b = beta on the outer and core grids.  The flat grid is the same
problem at b = 0, where iota = ell - flux: the beta -> 0 limit, whose
oscillator spectrum is known exactly.  U is discretised on a uniform
grid with Dirichlet ends.  The lowest eigenpairs of the tridiagonal
matrix come from Sturm-sequence bisection and inverse iteration
(LAPACK ``stebz`` and ``stein``).  Bisection only
has to place each eigenvalue well inside its gap for ``stein`` to
resolve the vector, so it stops at tau, a thousandth of 3 pi^2 / L^2 on
a grid of length L: the fundamental gap of a convex potential on an
interval of that length (Andrews & Clutterbuck, JAMS 24, 2011).  Each
eigenvalue is then the Rayleigh quotient of its vector, whose error is
second order in the vector's: closer than bisection to full precision,
whose error scales with the norm of the matrix, about 4 / h^2.  Where
two bisection values lie within tau of each other, or a quotient lands
more than tau from its bisection value, ``stein`` may not have
separated the vectors, and the solve is redone with bisection to full
precision.

Near r = 0 the potential behaves like c0 / r^2, with c0 = 2 mass gamma
plus, at b = 0, iota^2 - 1/4.  For c0 close to the critical value -1/4
a naive diagonal converges only like 1/log(h).  The default grids
therefore start exactly at r = 0 and replace the c0 / r^2 samples by a
matched diagonal that annihilates the exact power r^nu, nu = 1/2 +
sqrt(c0 + 1/4), restoring clean O(h^2) convergence in every channel.
Whether a grid gets the matched diagonal follows from the grid alone:
flat and core grids that start at r = 0 do, every other grid samples U
directly.

Each eigenpair is back-substituted into the first-derivative form of the
radial equation and the normalised residual is measured on the interior
of the grid; residuals above ``residual_tol`` raise
:class:`OracleAccuracyError` (grid too coarse) rather than returning
silently wrong numbers.

scipy, which supplies the eigensolver, is imported on the first solve
and not with the module: ``import screwspec`` and the commands that never
reach the oracle (``energy``, ``sweep``, ``wavefunction``) need numpy
alone, and importing ``scipy.linalg`` would more than double their
start-up time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .params import InvalidParameterError, Model, PhysicalParams

__all__ = [
    "GridMode",
    "GridSpec",
    "OracleResult",
    "OracleAccuracyError",
    "oracle_eigenvalues",
    "flat_exact_spectrum",
    "oracle_csv",
]

EDGE_EPS = 1e-6

DEFAULT_POINTS = 4000

DEFAULT_RESIDUAL_TOL = 1e-6

RESIDUAL_TRIM = 0.05

# bisection tolerance as a fraction of the gap bound 3 pi^2 / L^2
BISECTION_GAP_FRACTION = 1e-3


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
    diagonal.  ``mode`` may be given by its value, as ``"outer"``.
    """

    mode: GridMode
    r_min: float
    r_max: float
    n_points: int = DEFAULT_POINTS

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "mode", GridMode(self.mode))
        except ValueError:
            raise InvalidParameterError(f"unknown grid mode {self.mode!r}") from None
        if isinstance(self.n_points, bool) or not isinstance(self.n_points, (int, np.integer)):
            raise InvalidParameterError(f"n_points must be an integer: got {self.n_points!r}")
        object.__setattr__(self, "n_points", int(self.n_points))
        if self.n_points < 64:
            raise InvalidParameterError(
                f"n_points must be at least 64: got {self.n_points}"
            )
        if not 0.0 <= self.r_min < self.r_max < math.inf:
            raise InvalidParameterError(
                f"need finite r_max > r_min >= 0: got ({self.r_min}, {self.r_max})"
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
        if p.omega0 > 0:
            r_far = max(10.0, 6.0 / math.sqrt(p.mass * p.omega0))
        else:
            r_far = 40.0
        # ==, not is: a mode given by its value is checked by GridSpec itself
        if mode == GridMode.OUTER:
            return GridSpec(mode=mode, r_min=p.beta + EDGE_EPS, r_max=r_far, n_points=n_points)
        if mode == GridMode.CORE:
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


def _coefficients(
    p: PhysicalParams, mode: GridMode, r: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The radial equation at the nodes r, in both of its forms.

    Returns ``(c0, damp, W, U, weight)``: ``psi'' + damp psi' +
    (spectral - W) psi = 0``, its Liouville normal form ``-u'' + U u =
    spectral u`` with ``psi = weight * u``, and the coefficient of U's
    c0 / r^2 singularity at r = 0.  The outer and core grids take the
    formulas at b = beta; the flat grid is the same problem at b = 0.
    """
    b = 0.0 if mode is GridMode.FLAT else p.beta
    iota = p.ell - p.flux - b * p.k  # its own copy: the oracle is a check's independent side
    g = r**2 - b**2
    pot = (p.mass * p.omega0 * r) ** 2 + 2.0 * p.mass * p.gamma / r**2 + iota**2 / g
    normal = pot - (r**2 + 2.0 * b**2) / (4.0 * g**2)
    c0 = 2.0 * p.mass * p.gamma + (iota**2 - 0.25 if b == 0.0 else 0.0)
    return c0, r / g, pot, normal, np.abs(g) ** -0.25


def _assemble(
    p: PhysicalParams, grid: GridSpec
) -> tuple[float, np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Spacing, the diagonal of the tridiagonal matrix, and the residual gate's inputs.

    The gate's inputs are ``(weight, damp, W)`` of :func:`_coefficients`.
    A grid that starts at r = 0 (flat or core: an outer grid starts at or
    above beta) takes the matched diagonal there.
    """
    n = grid.n_points
    h = (grid.r_max - grid.r_min) / (n + 1)
    idx = np.arange(1, n + 1, dtype=float)
    r = grid.r_min + idx * h
    c0, damp, pot, normal, weight = _coefficients(p, grid.mode, r)
    if grid.r_min == 0.0:
        nu = 0.5 + math.sqrt(c0 + 0.25)
        up = (idx + 1.0) ** nu
        down = np.where(idx > 1, idx - 1.0, 0.0) ** nu
        w = (up - 2.0 * idx**nu + down) / (idx**nu * h * h)
        diag = 2.0 / h**2 + (normal - c0 / r**2) + w
    else:
        diag = 2.0 / h**2 + normal
    return h, diag, (weight, damp, pot)


def _residual_norms(
    h: float,
    gate: tuple[np.ndarray, np.ndarray, np.ndarray],
    eigenvalues: np.ndarray,
    vectors: np.ndarray,
) -> np.ndarray:
    """Back-substitution residuals of each eigenpair in first-derivative form.

    The eigenvector is mapped back to psi, differentiated with central
    differences, and the normalised RMS residual of the radial equation
    is taken over the interior band (5% trimmed at each end, away from
    the endpoint singularities where the probe stencil is unreliable).
    """
    weight, damp, pot = gate
    trim = max(5, int(RESIDUAL_TRIM * (len(weight) - 2)))
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
        # np.sum, not np.linalg.norm: a BLAS reduction wakes OpenBLAS's
        # thread pool, which then competes with the next eigensolve
        norms[jcol] = math.sqrt(np.sum(res[band] ** 2) / np.sum(terms[band] ** 2))
    return norms


def eigh_tridiagonal(d, e, **kwargs):
    """:func:`scipy.linalg.eigh_tridiagonal`, imported on the first solve.

    ``oracle_eigenvalues`` looks this name up when it runs, so a profiler
    can replace it on the module to time the eigensolve alone.
    """
    from scipy.linalg import eigh_tridiagonal as solve

    return solve(d, e, **kwargs)


def _lowest_eigenpairs(
    diag: np.ndarray, off: np.ndarray, n_eigs: int, tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Lowest ``n_eigs`` eigenpairs of the symmetric tridiagonal (diag, off).

    Bisection stops at ``tol``; each eigenvalue is the Rayleigh quotient
    of its ``stein`` vector v, taken as
    (sum r_i v_i^2 - sum off_i (v_{i+1} - v_i)^2) / sum v_i^2 with r the
    row sums.  Written so, it never subtracts two sums of the size of
    the matrix norm: the row sums are exact differences of the stored
    entries, and where ``off`` <= 0 the second sum only adds.

    Bisection values closer than ``tol`` leave their vectors to ``stein``
    unresolved, and a quotient more than ``tol`` from its bisection value
    means ``stein`` did not separate them; either way the pairs are
    recomputed with bisection to full precision.
    """
    select = dict(select="i", select_range=(0, n_eigs - 1))
    values, vectors = eigh_tridiagonal(diag, off, tol=tol, **select)
    rows = diag.copy()
    rows[:-1] += off
    rows[1:] += off
    quotients = np.empty(n_eigs)
    for jcol in range(n_eigs):  # one column at a time: no n x n_eigs temporaries
        v = vectors[:, jcol]
        weight = v * v
        step = np.diff(v)
        quotients[jcol] = (np.sum(rows * weight) - np.sum(off * step**2)) / np.sum(weight)
    if np.all(np.diff(values) > tol) and np.all(np.abs(quotients - values) <= tol):
        return quotients, vectors
    return eigh_tridiagonal(diag, off, tol=0.0, **select)


def oracle_eigenvalues(
    p: PhysicalParams,
    grid: GridSpec,
    n_eigs: int = 5,
    residual_tol: float | None = DEFAULT_RESIDUAL_TOL,
) -> OracleResult:
    """Lowest ``n_eigs`` spectral values of the discretised radial problem.

    Raises :class:`OracleAccuracyError` when any back-substitution
    residual exceeds ``residual_tol`` (pass None to skip the gate, e.g.
    for deliberate coarse-grid convergence studies).  A tolerance that is
    NaN, zero or negative is rejected with :class:`InvalidParameterError`,
    and so is a grid on which the potential overflows or a residual is
    not finite.
    """
    if residual_tol is not None and not residual_tol > 0.0:
        raise InvalidParameterError(f"residual_tol must be positive: got {residual_tol}")
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
    with np.errstate(all="ignore"):
        h, diag, gate = _assemble(p, grid)
    if not np.isfinite(diag).all():
        raise InvalidParameterError(
            f"the potential on the {grid.mode.value} grid overflows at these parameters"
        )
    off = np.full(grid.n_points - 1, -1.0 / h**2)
    gap = 3.0 * math.pi**2 / (grid.r_max - grid.r_min) ** 2
    eigenvalues, vectors = _lowest_eigenpairs(diag, off, n_eigs, BISECTION_GAP_FRACTION * gap)
    with np.errstate(all="ignore"):
        norms = _residual_norms(h, gate, eigenvalues, vectors)
    if not np.isfinite(norms).all():
        raise InvalidParameterError(
            f"the residual on the {grid.mode.value} grid is not finite at these parameters"
        )
    if residual_tol is not None and not np.all(norms <= residual_tol):
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
