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
code path applies.  The spectral value is a bare float: in both models
it is the lambda of E = (k^2 + lambda)/(2 mass) + delta - Omega iota.

:func:`series_residual` returns the largest normalised residual over its
points as one float.  ``verify`` is its one library caller, so the package
does not export it.

The alternate denominator d3(i) = (i + 3/2 + j)(i + 2) is inconsistent
with the seed row above; it lives only in the ``verify`` audit, which
measures its O(1) operator residual.  The residual here applies the
x-space operator :func:`operators.transformed_lhs`; that it equals the
radial operator after the change of variable is also audited in
``verify``, not here.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .operators import transformed_lhs
from .params import PhysicalParams, _require_int, _square_of, derive_params

__all__ = [
    "SeriesSolution",
    "SeriesOverflowError",
    "ConvergenceWarning",
    "series_coefficients",
    "eval_psi_x_derivatives",
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
    polynomial_degree: int | None = None


def _triple(
    i: int, iota2: float, j: float, omega: float, scaled: float
) -> tuple[float, float, float]:
    """Recurrence factors on bare numbers or numpy arrays, elementwise.

    ``iota2`` is iota^2 and ``scaled`` is spectral * beta^2.  Accepts
    ``i = -1`` so the seed row can be audited directly.
    """
    d1 = (i + omega + 1.5 + j) * (i + 1) - (
        iota2 + scaled - 0.5 - j - 2.0 * omega * (1.0 + j)
    ) / 4.0
    d2 = -omega * i + (scaled - omega * (3.0 + 2.0 * j)) / 4.0
    d3 = (i + 2.0 + j) * (i + 2.0)
    return d1, d2, d3


def _seed(iota2: float, j: float, omega: float, scaled: float) -> float:
    """The seed c_1 on bare numbers or numpy arrays, elementwise; ``iota2`` is iota^2."""
    return (2.0 * omega * (1.0 + j) - iota2 - scaled + 0.5 + j) / (4.0 * (1.0 + j))


def _coefficients(iota2, j, omega, scaled, n: int) -> list:
    """c_0 .. c_n of the recurrence, on bare numbers or numpy arrays, elementwise.

    ``iota2`` is iota^2 and ``scaled`` is spectral * beta^2; the inputs
    broadcast, and c_0 is the bare number 1.0.  Overflow is not checked:
    a coefficient past the float range comes back as inf or NaN.
    """
    c = [1.0, _seed(iota2, j, omega, scaled)]
    for i in range(n - 1):
        d1, d2, d3 = _triple(i, iota2, j, omega, scaled)
        c.append((d1 * c[i + 1] + d2 * c[i]) / d3)
    return c


def series_coefficients(p: PhysicalParams, spectral: float, n_terms: int) -> SeriesSolution:
    """Coefficients c_0 .. c_{n_terms} of the series solution at one spectral value.

    Raises :class:`SeriesOverflowError` if a coefficient leaves the
    representable range before ``n_terms`` is reached.
    """
    n_terms = _require_int("n_terms", n_terms)
    if n_terms < 1:
        raise ValueError(f"n_terms must be >= 1: got {n_terms}")
    d = derive_params(p)
    iota2, scaled = _square_of("iota", d.iota), spectral * p.beta**2
    with np.errstate(over="ignore", invalid="ignore"):
        c = np.array(_coefficients(iota2, d.j, d.omega, scaled, n_terms), dtype=float)
    # the seed is not checked: an overflowed seed shows in c_2
    bad = ~(np.abs(c[2:]) <= OVERFLOW_LIMIT)
    if bad.any():
        raise SeriesOverflowError(int(bad.argmax()) + 2)
    return SeriesSolution(coeffs=c, power=0.25 + d.j / 2.0, gauss_factor=d.omega / 2.0)


def _polyval_with_derivatives(coeffs: Sequence[float], x: float) -> tuple[float, float, float]:
    """Horner evaluation of the sum and its first two derivatives."""
    s = s1 = s2 = 0.0
    for a in reversed(coeffs):
        s2 = s2 * x + 2.0 * s1
        s1 = s1 * x + s
        s = s * x + a
    return s, s1, s2


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
    spectral: float,
    points: Iterable[float],
) -> float:
    """Largest normalised residual of the transformed operator on ``sol``.

    ``spectral`` is the value ``sol`` was built at.  Each point must lie
    in ``[1e-3, 1 - 1e-3]``: close enough to the origin for a truncated
    series to be meaningful, bounded away from both singular endpoints.
    The residual at each point is
    ``|L[psi]| / max(1, |psi| + |x psi'| + |x^2 psi''|)``, and the largest
    over ``points`` is returned.
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
        val = transformed_lhs(p, spectral, t, f, f1, f2)
        scale = max(1.0, abs(f) + abs(t * f1) + abs(t * t * f2))
        res.append(abs(val) / scale)
    return max(res)
