"""Power-series solutions of the radial equation in the variable x = r^2/beta^2.

Writing the radial solution as

    psi(x) = x^(1/4 + j/2) * exp(-omega x / 2) * G(x),
    G(x) = sum_{i>=0} c_i x^i,

the x -> 0 singular behaviour cancels and the coefficients obey a
three-term recurrence

    c_{i+2} = (d1(i) c_{i+1} + d2(i) c_i) / d3(i),

    d1(i) = (i + omega + 3/2 + j)(i + 1)
            - (iota^2 + P - 1/2 - j - 2 omega (1 + j)) / 4
    d2(i) = -omega i + (P - omega (3 + 2 j)) / 4
    d3(i) = (i + 2 + j)(i + 2)

with P = spectral * beta^2, seeded by c_0 = 1 and

    c_1 = (2 omega (1 + j) - iota^2 - P + 1/2 + j) / (4 (1 + j)).

The seed is the i = -1 row of the same recurrence (d2(-1) multiplies the
absent c_{-1}, and d1(-1)/d3(-1) reproduces c_1), which pins the index
convention.  For the inverse-square model omega = 0 and the identical
code path applies.

The alternate denominator d3(i) = (i + 3/2 + j)(i + 2) is inconsistent
with the seed row above; it lives only in the ``verify`` audit, which
measures its O(1) operator residual.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .operators import Probe, radial_lhs, transformed_lhs
from .params import (
    Model,
    PhysicalParams,
    SpectralParameter,
    derive_params,
)

__all__ = [
    "RecurrenceTriple",
    "SeriesSolution",
    "ResidualReport",
    "SeriesOverflowError",
    "ConvergenceWarning",
    "recurrence_triple",
    "series_coefficients",
    "eval_psi_x",
    "eval_psi_x_derivatives",
    "series_residual",
    "changeofvar_consistency",
    "coefficients_csv",
]

OVERFLOW_LIMIT = 1e300

RESIDUAL_MARGIN = 1e-3  # evaluation points must stay this far from x = 0 and x = 1


class SeriesOverflowError(OverflowError):
    """A series coefficient left the representable range."""

    def __init__(self, index: int) -> None:
        super().__init__(
            f"series coefficient c_{index} exceeded {OVERFLOW_LIMIT:g}; "
            "the requested parameters are outside the usable range"
        )
        self.index = index


class ConvergenceWarning(UserWarning):
    """Series evaluated where convergence is not guaranteed (x >= 1)."""


@dataclass(frozen=True)
class RecurrenceTriple:
    """The three recurrence factors (d1, d2, d3) at one index."""

    d1: float
    d2: float
    d3: float


@dataclass(frozen=True)
class SeriesSolution:
    """Radial solution ``x^power * exp(-gauss_factor x) * sum c_i x^i``.

    ``polynomial_degree`` is set when the sum is known to terminate, in
    which case evaluation is exact for every ``x > 0``; otherwise values
    at ``x >= 1`` are outside the guaranteed convergence disc and
    trigger :class:`ConvergenceWarning`.
    """

    coeffs: np.ndarray
    power: float
    gauss_factor: float
    model: Model
    polynomial_degree: int | None = None


@dataclass(frozen=True)
class ResidualReport:
    """Normalised operator residuals of a series solution."""

    points: tuple[float, ...]
    residuals: tuple[float, ...]
    max_residual: float
    n_terms: int


def _triple(
    i: int, iota: float, j: float, omega: float, scaled: float
) -> tuple[float, float, float]:
    """Recurrence factors on bare numbers; ``scaled`` is spectral * beta^2.

    Accepts ``i = -1`` so the seed row can be audited directly.
    """
    d1 = (i + omega + 1.5 + j) * (i + 1) - (
        iota**2 + scaled - 0.5 - j - 2.0 * omega * (1.0 + j)
    ) / 4.0
    d2 = -omega * i + (scaled - omega * (3.0 + 2.0 * j)) / 4.0
    d3 = (i + 2.0 + j) * (i + 2.0)
    return d1, d2, d3


def _seed(iota: float, j: float, omega: float, scaled: float) -> float:
    return (2.0 * omega * (1.0 + j) - iota**2 - scaled + 0.5 + j) / (4.0 * (1.0 + j))


def recurrence_triple(
    i: int, p: PhysicalParams, spectral: SpectralParameter
) -> RecurrenceTriple:
    """Factors (d1, d2, d3) of ``c_{i+2} = (d1 c_{i+1} + d2 c_i)/d3`` at index i >= 0."""
    if i < 0:
        raise ValueError(f"recurrence index must be >= 0: got {i}")
    d = derive_params(p)
    scaled = spectral.value * p.beta**2
    d1, d2, d3 = _triple(i, d.iota, d.j, d.omega, scaled)
    return RecurrenceTriple(d1=d1, d2=d2, d3=d3)


def series_coefficients(
    p: PhysicalParams, spectral: SpectralParameter, n_terms: int
) -> SeriesSolution:
    """Coefficients c_0 .. c_{n_terms} of the series solution.

    Raises :class:`SeriesOverflowError` if a coefficient leaves the
    representable range before ``n_terms`` is reached.
    """
    if n_terms < 1:
        raise ValueError(f"n_terms must be >= 1: got {n_terms}")
    if spectral.model is not p.model:
        raise ValueError(
            f"spectral parameter tagged {spectral.model.value!r} used with "
            f"{p.model.value!r} parameters"
        )
    d = derive_params(p)
    scaled = spectral.value * p.beta**2
    c = np.empty(n_terms + 1)
    c[0] = 1.0
    c[1] = _seed(d.iota, d.j, d.omega, scaled)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_terms - 1):
            d1, d2, d3 = _triple(i, d.iota, d.j, d.omega, scaled)
            nxt = (d1 * c[i + 1] + d2 * c[i]) / d3
            if not math.isfinite(nxt) or abs(nxt) > OVERFLOW_LIMIT:
                raise SeriesOverflowError(i + 2)
            c[i + 2] = nxt
    return SeriesSolution(
        coeffs=c,
        power=0.25 + d.j / 2.0,
        gauss_factor=d.omega / 2.0,
        model=p.model,
    )


def _polyval_with_derivatives(coeffs: Sequence[float], x: float) -> tuple[float, float, float]:
    """Horner evaluation of the sum and its first two derivatives."""
    s = s1 = s2 = 0.0
    for a in reversed(coeffs):
        s2 = s2 * x + 2.0 * s1
        s1 = s1 * x + s
        s = s * x + a
    return s, s1, s2


def eval_psi_x(sol: SeriesSolution, x: float) -> float:
    """Evaluate the solution at ``x > 0``."""
    return eval_psi_x_derivatives(sol, x)[0]


def eval_psi_x_derivatives(sol: SeriesSolution, x: float) -> tuple[float, float, float]:
    """Value and first two x-derivatives at ``x > 0``.

    With ``u = x^a exp(-g x) S(x)`` the log-derivative identities

        u'/u  = a/x - g + S'/S
        u''/u = a(a-1)/x^2 - 2 a g / x + g^2
                + (2a/x - 2g) S'/S + S''/S

    avoid cancellation between the prefactor and the sum.
    """
    if x <= 0:
        raise ValueError(f"x must be positive: got {x}")
    if x >= 1.0 and sol.polynomial_degree is None:
        warnings.warn(
            f"series evaluated at x = {x} >= 1, outside the guaranteed "
            "convergence disc; the tail was not verified to terminate",
            ConvergenceWarning,
            stacklevel=2,
        )
    a, g = sol.power, sol.gauss_factor
    s, s1, s2 = _polyval_with_derivatives(sol.coeffs, x)
    pre = x**a * math.exp(-g * x)
    f = pre * s
    f1 = pre * ((a / x - g) * s + s1)
    f2 = pre * (
        (a * (a - 1.0) / x**2 - 2.0 * a * g / x + g * g) * s
        + 2.0 * (a / x - g) * s1
        + s2
    )
    return f, f1, f2


def series_residual(
    sol: SeriesSolution,
    p: PhysicalParams,
    spectral: SpectralParameter,
    points: Iterable[float],
) -> ResidualReport:
    """Normalised residual of the transformed operator on ``sol``.

    Each point must lie in ``[1e-3, 1 - 1e-3]``: close enough to the
    origin for a truncated series to be meaningful, bounded away from
    both singular endpoints.  The residual at each point is
    ``|L[psi]| / max(1, |psi| + |x psi'| + |x^2 psi''|)``.
    """
    pts = tuple(float(t) for t in points)
    for t in pts:
        if not RESIDUAL_MARGIN <= t <= 1.0 - RESIDUAL_MARGIN:
            raise ValueError(
                f"residual points must lie in [{RESIDUAL_MARGIN}, {1 - RESIDUAL_MARGIN}]: got {t}"
            )
    res = []
    for t in pts:
        f, f1, f2 = eval_psi_x_derivatives(sol, t)
        val = transformed_lhs(p, spectral.value, t, f, f1, f2)
        scale = max(1.0, abs(f) + abs(t * f1) + abs(t * t * f2))
        res.append(abs(val) / scale)
    return ResidualReport(
        points=pts,
        residuals=tuple(res),
        max_residual=max(res),
        n_terms=len(sol.coeffs) - 1,
    )


def changeofvar_consistency(
    p: PhysicalParams,
    spectral_value: float,
    probe: Probe,
    r: float,
) -> float:
    """Mismatch between the radial operator and its x-space form on a probe.

    The probe is a function of x; composing with ``x(r) = r^2/beta^2``
    and applying the chain rule, the transformed operator must equal
    ``beta^2`` times the radial one.  Returns the normalised absolute
    mismatch (zero to rounding for any twice-differentiable probe).
    Requires ``r > 0`` with ``|r - beta| >= 1e-6``.
    """
    if r <= 0:
        raise ValueError(f"r must be positive: got {r}")
    if abs(r - p.beta) < 1e-6:
        raise ValueError(
            f"r = {r} is within 1e-6 of the dislocation radius beta = {p.beta}"
        )
    x = r**2 / p.beta**2
    fx, dfx, d2fx = probe.f(x), probe.df(x), probe.d2f(x)
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


def coefficients_csv(sol: SeriesSolution) -> str:
    """Coefficient table as CSV text (columns ``i,c_i``, 17 significant digits)."""
    lines = ["i,c_i"]
    for i, ci in enumerate(sol.coeffs):
        lines.append(f"{i},{ci:.17g}")
    return "\n".join(lines) + "\n"
