"""The radial operator and its x-space form, evaluated at one point.

:func:`transformed_lhs` is the operator :func:`series.series_residual`
applies, and ``verify`` checks the two forms against each other and
against the full 3-d equation.  They are audit-only, so the package does
not export them.  They stay a module because the benchmark's tracer
wraps them here by name (``perfbench/spans.py``).
"""

from __future__ import annotations

from .params import PhysicalParams, derive_params

__all__: list[str] = []


def radial_lhs(
    p: PhysicalParams,
    spectral_value: float,
    r: float,
    psi: float,
    dpsi: float,
    d2psi: float,
) -> float:
    """Left-hand side of the radial equation at one point.

    ``psi'' + r/(r^2-b^2) psi' + [spectral - (M w0 r)^2 - 2 M gamma / r^2
    - iota^2/(r^2-b^2)] psi``, evaluated with caller-supplied derivatives.
    Requires ``r > 0`` and ``r != beta``.
    """
    if r <= 0:
        raise ValueError(f"r must be positive: got {r}")
    g = r * r - p.beta * p.beta
    if g == 0:
        raise ValueError(f"r must differ from beta = {p.beta}")
    d = derive_params(p)
    bracket = (
        spectral_value
        - (p.mass * p.omega0 * r) ** 2
        - 2.0 * p.mass * p.gamma / r**2
        - d.iota**2 / g
    )
    return d2psi + (r / g) * dpsi + bracket * psi


def transformed_lhs(
    p: PhysicalParams,
    spectral_value: float,
    x: float,
    f: float,
    df: float,
    d2f: float,
) -> float:
    """Left-hand side of the radial equation in the variable ``x = r^2/beta^2``.

    ``4 x f'' + (4x-2)/(x-1) f' + [spectral*beta^2 - omega^2 x
    - 2 M gamma / x - iota^2/(x-1)] f``.  Requires ``x > 0`` and ``x != 1``.

    For a probe ``f(x(r))`` this equals ``beta^2`` times :func:`radial_lhs`
    applied to the same probe as a function of ``r`` (see
    ``verify.changeofvar_consistency``).
    """
    if x <= 0:
        raise ValueError(f"x must be positive: got {x}")
    if x == 1.0:
        raise ValueError("x must differ from 1 (the dislocation radius r = beta)")
    d = derive_params(p)
    bracket = (
        spectral_value * p.beta**2
        - d.omega**2 * x
        - 2.0 * p.mass * p.gamma / x
        - d.iota**2 / (x - 1.0)
    )
    return 4.0 * x * d2f + (4.0 * x - 2.0) / (x - 1.0) * df + bracket * f
