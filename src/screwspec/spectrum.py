"""Quantisation of the spectral parameter.

Two routes are implemented side by side:

* **Truncation** (:func:`truncation_solve`): the series coefficient
  c_{n+1} is a degree-(n+1) polynomial in the spectral parameter; its
  real roots are the level-n spectral values.  The recurrence then gives
  c_{n+2} proportional to c_n, so the series does not terminate exactly;
  the ``termination_defect`` field of each level records the normalised
  magnitude of c_{n+2} at the root, honestly measuring the leftover.

* **Closed form** (:func:`ground_state_closed_form`): analytic candidate
  expressions for the two n = 1 spectral values.  For the oscillator
  these are stated with the Gaussian rate ``M omega0 beta`` rather than
  the ``M omega0 beta**2`` the recurrence runs on, so the two routes
  genuinely differ.  Their agreement is measured, never assumed;
  :func:`compare_closed_form_vs_truncation` records AGREE or
  DISCREPANT-DOCUMENTED per branch, printing the exact quadratic so the
  numbers can be checked by hand.

Both n = 1 routes also run as one array kernel, :func:`n1_levels`, which
evaluates a whole parameter axis at once (sweeps use it, and
:func:`ground_state_closed_form` is the kernel at one point).  Its
truncation roots are bit for bit those of :func:`truncation_solve`.

The ground-state series seed c_1 has its own closed form per branch;
:func:`ground_state_wavefunction` cross-checks it against the recurrence
seed formula, evaluated with the analytic route's rate at the
closed-form spectral value, and flags any mismatch in the sign pairing
or algebra.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial import polynomial as npp

from .params import (
    Model,
    PhysicalParams,
    SpectralParameter,
    derive_params,
    spectral_to_energy,
)
from .series import SeriesSolution, _seed, _triple

__all__ = [
    "Branch",
    "EnergyLevel",
    "NegativeDiscriminantError",
    "TruncationError",
    "N1Levels",
    "LambdaPolynomialTable",
    "WavefunctionAudit",
    "PairRecord",
    "ClosedFormComparison",
    "PeriodicityCheck",
    "lambda_polynomials",
    "truncation_solve",
    "n1_levels",
    "closed_form_discriminant",
    "ground_state_closed_form",
    "ground_state_wavefunction",
    "level_series",
    "compare_closed_form_vs_truncation",
    "ab_periodicity_check",
    "levels_to_json",
]

ROOT_RESIDUAL_TOL = 1e-10

AGREEMENT_TOL = 1e-8


class Branch(str, Enum):
    """Sign of the square root in a two-root level pair (plus = larger root)."""

    PLUS = "plus"
    MINUS = "minus"


class NegativeDiscriminantError(Exception):
    """No real closed-form level exists; carries the discriminant value."""

    def __init__(self, discriminant: float, model: Model) -> None:
        super().__init__(
            f"no real n = 1 closed-form level for the {model.value} model: "
            f"discriminant = {discriminant:.17g}"
        )
        self.discriminant = discriminant
        self.model = model


class TruncationError(RuntimeError):
    """The truncation route cannot give trustworthy roots at this order.

    Raised when a coefficient of the polynomial table underflows so that
    c_i loses its degree, when the companion matrix is not finite or its
    eigenvalues do not converge, and when a polished root fails the
    backward-error bound.  All three happen at high order (n >= ~70 at
    ordinary parameters).
    """


@dataclass(frozen=True)
class EnergyLevel:
    """One quantised level.

    ``branch`` and ``discriminant`` are populated for n = 1 two-root
    pairs (and closed forms); higher truncation orders leave them None.
    ``termination_defect`` is ``|c_{n+2}| / max_i |c_i|`` at the spectral
    value, i.e. how far the series is from terminating exactly.
    """

    n: int
    ell: int
    branch: Branch | None
    energy: float
    spectral: float
    discriminant: float | None
    termination_defect: float
    c1_over_c0: float


@dataclass(frozen=True)
class LambdaPolynomialTable:
    """Series coefficients as polynomials in the spectral parameter.

    ``entries[i]`` holds the ascending coefficients of c_i as a
    polynomial of degree i in the spectral parameter (c_0 = 1).
    """

    params: PhysicalParams
    entries: tuple[np.ndarray, ...]

    @property
    def n_max(self) -> int:
        return len(self.entries) - 1

    def entry(self, i: int) -> np.ndarray:
        return self.entries[i]

    def eval(self, i: int, spectral_value: float) -> float:
        """Value of c_i at a numeric spectral parameter."""
        return float(npp.polyval(spectral_value, self.entries[i]))


def lambda_polynomials(p: PhysicalParams, n_max: int) -> LambdaPolynomialTable:
    """Build c_0 .. c_{n_max} as exact polynomials in the spectral parameter.

    The recurrence factors d1 and d2 are affine in the scaled parameter
    P = spectral * beta^2, so each c_i is a polynomial of degree i; the
    recurrence is run once on coefficient arrays instead of numbers.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1: got {n_max}")
    d = derive_params(p)
    iota, j, omega, b2 = d.iota, d.j, d.omega, p.beta**2
    entries: list[np.ndarray] = [np.array([1.0])]
    entries.append(
        np.array(
            [
                (2.0 * omega * (1.0 + j) - iota**2 + 0.5 + j) / (4.0 * (1.0 + j)),
                -b2 / (4.0 * (1.0 + j)),
            ]
        )
    )
    for i in range(n_max - 1):
        d1_const, d2_const, d3 = _triple(i, iota, j, omega, 0.0)
        d1 = np.array([d1_const, -b2 / 4.0])
        d2 = np.array([d2_const, b2 / 4.0])
        nxt = npp.polyadd(npp.polymul(d1, entries[i + 1]), npp.polymul(d2, entries[i]))
        entries.append(nxt / d3)
    for i, e in enumerate(entries):
        if len(e) != i + 1:
            raise TruncationError(f"degree of c_{i} is {len(e) - 1}, expected {i}")
    return LambdaPolynomialTable(params=p, entries=tuple(entries))


def _companions(coeffs: np.ndarray) -> np.ndarray:
    """Companion matrices of the polynomials along the last axis of ``coeffs``.

    ``coeffs`` holds ascending coefficients, shape (..., d + 1); the result
    has shape (..., d, d) in the layout of ``npp.polycompanion``: ones on
    the subdiagonal and ``-c_i / c_d`` down the last column.  Both the
    one-point route and the n = 1 kernel take their eigenvalues from here,
    so their seeds agree bit for bit.
    """
    d = coeffs.shape[-1] - 1
    mat = np.zeros(coeffs.shape[:-1] + (d, d))
    sub = np.arange(d - 1)
    mat[..., sub + 1, sub] = 1.0
    mat[..., :, -1] = 0.0 - coeffs[..., :-1] / coeffs[..., -1:]
    return mat


def _real_roots(coeffs: np.ndarray) -> list[float]:
    """Real roots of an ascending-coefficient polynomial, Newton-polished.

    Seeds come from the companion matrix; each near-real candidate is
    polished and then required to satisfy a backward-error bound
    ``|p(x)| <= 1e-10 * sum_k |a_k| |x|^k``.
    """
    try:
        with np.errstate(over="ignore"):  # an overflowed companion entry fails just below
            roots = np.linalg.eigvals(_companions(np.asarray(coeffs, dtype=float)))
    except np.linalg.LinAlgError as exc:
        raise TruncationError(f"companion eigenvalues failed: {exc}") from exc
    deriv = npp.polyder(coeffs)
    out: list[float] = []
    for z in roots:
        if abs(z.imag) > 1e-8 * (1.0 + abs(z.real)):
            continue
        x = float(z.real) + 0.0  # -0.0 -> 0.0, as numpy's root mapping did
        for _ in range(60):
            fx = float(npp.polyval(x, coeffs))
            fpx = float(npp.polyval(x, deriv))
            if fpx == 0.0:
                break
            step = fx / fpx
            x -= step
            if abs(step) <= 1e-15 * (1.0 + abs(x)):
                break
        scale = float(npp.polyval(abs(x), np.abs(coeffs)))
        if abs(npp.polyval(x, coeffs)) > ROOT_RESIDUAL_TOL * max(scale, 1e-300):
            raise TruncationError(
                f"root polish failed: residual {npp.polyval(x, coeffs):.3e} at x = {x!r}"
            )
        out.append(x)
    out.sort()
    dedup: list[float] = []
    for x in out:
        if not dedup or abs(x - dedup[-1]) > 1e-8 * max(1.0, abs(x)):
            dedup.append(x)
    return dedup


def _level_from_spectral(
    p: PhysicalParams,
    table: LambdaPolynomialTable,
    n: int,
    spectral_value: float,
    branch: Branch | None,
    discriminant: float | None,
) -> EnergyLevel:
    values = [abs(table.eval(i, spectral_value)) for i in range(n + 2)]
    defect = abs(table.eval(n + 2, spectral_value)) / max(values)
    return EnergyLevel(
        n=n,
        ell=p.ell,
        branch=branch,
        energy=spectral_to_energy(p, spectral_value),
        spectral=spectral_value,
        discriminant=discriminant,
        termination_defect=defect,
        c1_over_c0=table.eval(1, spectral_value),
    )


def truncation_solve(p: PhysicalParams, n: int) -> list[EnergyLevel]:
    """Levels from the order-n truncation condition c_{n+1}(spectral) = 0.

    Returns at most n + 1 levels sorted by spectral value (possibly an
    empty list when every root is complex).  For n = 1 with two real
    roots the smaller is labelled ``minus``, the larger ``plus``.
    Raises :class:`TruncationError` where the order is too high for the
    monomial table and companion roots.
    """
    if n < 1:
        raise ValueError(f"truncation order must be >= 1: got {n}")
    table = lambda_polynomials(p, n + 2)
    roots = _real_roots(table.entry(n + 1))
    if len(roots) > n + 1:
        raise TruncationError(f"{len(roots)} roots from a degree-{n + 1} polynomial")
    disc = None
    if n == 1:
        c0, c1, c2 = (float(v) for v in table.entry(2))
        disc = c1 * c1 - 4.0 * c2 * c0
    levels = []
    for idx, root in enumerate(roots):
        branch = None
        if n == 1 and len(roots) == 2:
            branch = Branch.MINUS if idx == 0 else Branch.PLUS
        levels.append(_level_from_spectral(p, table, n, root, branch, disc))
    return levels


def _closed_form_rate(p: PhysicalParams) -> float:
    """Gaussian rate used by the analytic route: M * omega0 * beta.

    This is deliberately not the M * omega0 * beta**2 rate the recurrence
    machinery runs on (the x = r**2 / beta**2 substitution forces that one;
    the change-of-variable check pins it).  The analytic pair is evaluated
    with the linear-in-beta rate it is stated with, and the gap between the
    two routes is measured by :func:`compare_closed_form_vs_truncation`
    rather than reconciled.
    """
    if p.model is Model.OSCILLATOR:
        return p.mass * p.omega0 * p.beta
    return 0.0


_AXIS_FIELDS = ("mass", "beta", "k", "ell", "omega0", "gamma", "delta", "Omega", "flux")


@dataclass(frozen=True)
class N1Levels:
    """The n = 1 level pair at each point of a parameter axis.

    ``discriminant`` and ``fault`` have shape (N,); the other arrays have
    shape (N, 2), column 0 for the minus branch and column 1 for plus.
    ``present`` marks real levels, and the other (N, 2) arrays hold NaN
    where it is False.  A truncation double root (two roots within 1e-8,
    relative) is one unlabelled level, kept in column 0 as
    :func:`truncation_solve` returns it.  ``discriminant`` belongs to the
    closed form, or to the quadratic c_2 for truncation, and is set at
    every point.  ``fault`` marks points where the one-point routes raise
    (:func:`ground_state_closed_form`, :func:`truncation_solve`): the
    polynomial table loses a degree, a square overflows, the companion
    matrix is not finite, or a root fails the backward-error bound.
    """

    discriminant: np.ndarray
    present: np.ndarray
    spectral: np.ndarray
    energy: np.ndarray
    termination_defect: np.ndarray
    c1_over_c0: np.ndarray
    fault: np.ndarray


def _square(x: np.ndarray) -> np.ndarray:
    """``x**2`` through libm ``pow``, rounded as Python's float ``**`` rounds it.

    numpy computes an array ``x**2`` as ``x*x``, which differs in the last
    bit for a few inputs per thousand.
    """
    return np.float_power(x, 2.0)


def _horner(coeffs: Sequence[np.ndarray], x: np.ndarray) -> np.ndarray:
    """Ascending coefficients evaluated at x, step for step as ``npp.polyval``."""
    value = coeffs[-1] + x * 0.0
    for c in coeffs[-2::-1]:
        value = c + value * x
    return value


def _n1_table(
    iota2: np.ndarray, j: np.ndarray, omega: np.ndarray, b2: np.ndarray
) -> tuple[list[np.ndarray], list[np.ndarray], list[np.ndarray], np.ndarray]:
    """c_1, c_2, c_3 of :func:`lambda_polynomials` elementwise, and where it fails.

    The operations and their order are those of ``lambda_polynomials``:
    ``_triple`` at i = 0 and 1, ``np.convolve`` for each product and
    ``polyadd`` for the sum, so each coefficient is bit for bit the
    table's.  The returned mask marks points where the table raises
    because a product underflows to a trailing zero that numpy trims.
    """
    one_j = 1.0 + j
    c1 = [(2.0 * omega * one_j - iota2 + 0.5 + j) / (4.0 * one_j), -b2 / (4.0 * one_j)]
    slope1, slope2 = -b2 / 4.0, b2 / 4.0  # spectral slopes of d1 and d2

    def consts(i: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        d1 = (i + omega + 1.5 + j) * (i + 1.0) - (
            iota2 + 0.0 - 0.5 - j - 2.0 * omega * one_j
        ) / 4.0
        d2 = -omega * i + (0.0 - omega * (3.0 + 2.0 * j)) / 4.0
        return d1, d2, (i + 2.0 + j) * (i + 2.0)

    d1, d2, d3 = consts(0.0)
    top = slope1 * c1[1]
    c2 = [(d1 * c1[0] + d2) / d3, (d1 * c1[1] + slope1 * c1[0] + slope2) / d3, top / d3]
    d1, d2, d3 = consts(1.0)
    top3 = c2[2] * slope1
    c3 = [
        (c2[0] * d1 + d2 * c1[0]) / d3,
        (c2[0] * slope1 + c2[1] * d1 + (d2 * c1[1] + slope2 * c1[0])) / d3,
        (c2[1] * slope1 + c2[2] * d1 + slope2 * c1[1]) / d3,
        top3 / d3,
    ]
    collapse = (slope1 == 0.0) | (c1[1] == 0.0) | (top == 0.0) | (c2[2] == 0.0) | (top3 == 0.0)
    return c1, c2, c3, collapse


def _polished_roots(
    c: list[np.ndarray], skip: np.ndarray, size: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Real roots of the quadratics ``c``, by the rule of ``_real_roots``.

    One ``eigvals`` call on the stack of companion matrices, then the same
    imaginary-part filter, Newton polish, backward-error test and 1e-8
    dedup, run on every candidate at once.  Returns (roots, count, failed):
    the sorted roots, shape (size, 2), how many of them are real and
    distinct, and the rows that fail the backward-error test.  Rows in
    ``skip`` are not solved and count as failed.
    """
    coeffs = np.empty((size, 3))
    for i, ci in enumerate(c):
        coeffs[:, i] = ci
    companion = _companions(coeffs)
    skip = skip | ~np.isfinite(companion).all(axis=(1, 2))
    companion[skip] = 0.0
    z = np.linalg.eigvals(companion)
    x = z.real + 0.0
    kept = ~(np.abs(z.imag) > 1e-8 * (1.0 + np.abs(x))) & ~skip[:, None]
    c0, c1, c2 = (np.reshape(a, (-1, 1)) for a in c)
    d1 = 2.0 * c2
    active = kept.copy()
    for _ in range(60):
        if not active.any():
            break
        fx = _horner((c0, c1, c2), x)
        fpx = _horner((c1, d1), x)
        active &= fpx != 0.0
        step = fx / fpx
        x = np.where(active, x - step, x)
        active &= ~(np.abs(step) <= 1e-15 * (1.0 + np.abs(x)))
    ax = np.abs(x)
    scale = _horner((np.abs(c0), np.abs(c1), np.abs(c2)), ax)
    residual = _horner((c0, c1, c2), x)
    failed = kept & (np.abs(residual) > ROOT_RESIDUAL_TOL * np.maximum(scale, 1e-300))
    swap = ~kept[:, 0] | (kept[:, 1] & (x[:, 1] < x[:, 0]))
    roots = np.where(swap[:, None], x[:, ::-1], x)
    both = kept.all(axis=1)
    distinct = np.abs(roots[:, 1] - roots[:, 0]) > 1e-8 * np.maximum(1.0, np.abs(roots[:, 1]))
    count = kept.any(axis=1).astype(int) + (both & distinct)
    return roots, count, failed.any(axis=1) | skip


def _n1_derived(f: dict) -> tuple:
    """iota, iota**2, beta**2 and j of :func:`derive_params`, elementwise."""
    iota = f["ell"] - f["flux"] - f["beta"] * f["k"]
    return iota, _square(iota), _square(f["beta"]), np.sqrt(2.0 * f["mass"] * f["gamma"] + 0.25)


def _closed_form_quadratic(model: Model, f: dict, iota2, j) -> tuple:
    """(discriminant, centre, overflow) of the analytic n = 1 pair, elementwise.

    The pair is ``(centre -/+ sqrt(discriminant)) / beta**2``, real where
    the discriminant is not negative; ``overflow`` marks points where the
    square of the rate overflows.
    """
    if model is Model.OSCILLATOR:
        w = f["mass"] * f["omega0"] * f["beta"]  # the rate of _closed_form_rate
        w2 = _square(w)
        disc = (
            16.0 * iota2 * (1.0 + j)
            + 16.0 * w * (2.0 + j)
            + 14.0 * w2
            - 44.0 * j
            - 32.0 * f["mass"] * f["gamma"]
            - 8.0
        )
        center = 3.0 - 2.0 * iota2 + 4.0 * w * (2.0 + j) + 2.0 * j
        return disc, center, np.isinf(w2) & np.isfinite(w)
    disc = iota2 * (j + 0.25) - j * (j + 1.5) - 0.25
    return disc, j + 1.5 - iota2, False


def closed_form_discriminant(p: PhysicalParams) -> float:
    """The discriminant of the analytic n = 1 pair at ``p``.

    The pair is real where it is not negative.  This is the number
    :func:`ground_state_closed_form` reports (or raises
    :class:`NegativeDiscriminantError` with), without the levels.
    """
    f = {name: getattr(p, name) for name in _AXIS_FIELDS}
    with np.errstate(all="ignore"):
        _, iota2, _, j = _n1_derived(f)
        return float(_closed_form_quadratic(p.model, f, iota2, j)[0])


def n1_levels(
    p: PhysicalParams,
    method: str,
    parameter: str | None = None,
    values: np.ndarray | None = None,
) -> N1Levels:
    """Both n = 1 levels at ``p``, or with ``parameter`` set to each of ``values``.

    ``method`` is ``"closed-form"`` (the analytic pair of
    :func:`ground_state_closed_form`) or ``"truncation"`` (the roots of
    c_2, as :func:`truncation_solve` finds them at n = 1).  Every number
    is computed with the same floating-point operations as the one-point
    routes, elementwise, so the results are bit for bit theirs.  The
    values are not validated: that is the caller's job.
    """
    f = {name: getattr(p, name) for name in _AXIS_FIELDS}
    size = 1
    if parameter is not None:
        f[parameter] = np.asarray(values, dtype=float)
        size = len(f[parameter])
    mass, k = f["mass"], f["k"]
    with np.errstate(all="ignore"):
        iota, iota2, b2, j = _n1_derived(f)
        omega = mass * f["omega0"] * b2
        c1, c2, c3, collapse = _n1_table(iota2, j, omega, b2)
        fault = np.isinf(iota2) & np.isfinite(iota)
        if method == "closed-form":
            disc, center, overflow = _closed_form_quadratic(p.model, f, iota2, j)
            fault |= overflow
            real = ~(disc < 0)
            sq = np.sqrt(disc)
            roots = ((center - sq) / b2, (center + sq) / b2)
            count = 2 * real
            fault |= real & collapse
        else:
            disc = c2[1] * c2[1] - 4.0 * c2[2] * c2[0]
            pairs, count, failed = _polished_roots(c2, collapse | fault, size)
            roots = (pairs[:, 0], pairs[:, 1])
            fault |= failed
        k2 = _square(k)
        fault |= (count > 0) & np.isinf(k2) & np.isfinite(k)
        count = np.where(fault, 0, count)
        two_mass, tilt = 2.0 * mass, f["Omega"] * iota
        columns = []
        for col, s in enumerate(roots):
            s = np.where(count > col, s, np.nan)
            c1_value = _horner(c1, s)
            # max() of |c_0|, |c_1|, |c_2| as Python takes it (|c_0| is NaN only with s)
            largest = np.fmax(np.abs(1.0 + s * 0.0), np.abs(c1_value))
            largest = np.fmax(largest, np.abs(_horner(c2, s)))
            columns.append(
                (
                    s,
                    (k2 + s) / two_mass + f["delta"] - tilt,
                    np.abs(_horner(c3, s)) / largest,
                    c1_value,
                )
            )

    def stacked(i: int) -> np.ndarray:
        out = np.empty((size, 2))
        out[:, 0], out[:, 1] = columns[0][i], columns[1][i]
        return out

    present = np.empty((size, 2), dtype=bool)
    present[:, 0], present[:, 1] = count > 0, count > 1
    return N1Levels(
        discriminant=np.full(size, disc),
        present=present,
        spectral=stacked(0),
        energy=stacked(1),
        termination_defect=stacked(2),
        c1_over_c0=stacked(3),
        fault=np.full(size, fault),
    )


def ground_state_closed_form(p: PhysicalParams) -> list[EnergyLevel]:
    """The analytic n = 1 candidate levels, ``[minus, plus]``.

    Raises :class:`NegativeDiscriminantError` when the pair is complex.
    The returned records carry the truncation-condition diagnostics
    (``c1_over_c0``, ``termination_defect``) evaluated at these spectral
    values, so discrepancies with :func:`truncation_solve` are visible
    directly on the level objects.  This is :func:`n1_levels` at one point.
    """
    pair = n1_levels(p, "closed-form")
    if pair.fault[0]:
        # raise what the scalar steps raise, in their order: Python's float
        # ** on the closed form's squares, the polynomial table, then k**2
        derive_params(p).iota ** 2
        _closed_form_rate(p) ** 2
        lambda_polynomials(p, 3)
        p.k ** 2
        raise OverflowError("the n = 1 closed form overflows at these parameters")
    disc = float(pair.discriminant[0])
    if not pair.present[0, 0]:
        raise NegativeDiscriminantError(disc, p.model)
    columns = zip(
        (Branch.MINUS, Branch.PLUS),
        pair.energy[0].tolist(),
        pair.spectral[0].tolist(),
        pair.termination_defect[0].tolist(),
        pair.c1_over_c0[0].tolist(),
    )
    return [
        EnergyLevel(
            n=1,
            ell=p.ell,
            branch=branch,
            energy=energy,
            spectral=spectral,
            discriminant=disc,
            termination_defect=defect,
            c1_over_c0=c1,
        )
        for branch, energy, spectral, defect, c1 in columns
    ]


@dataclass(frozen=True)
class WavefunctionAudit:
    """Ground-state series with its seed cross-check.

    ``c1_closed_form`` is the analytic per-branch expression for c_1;
    ``c1_seed`` is the recurrence seed formula evaluated at the same
    spectral value with the same Gaussian rate, so the check probes the
    sign pairing and algebra of the analytic route itself.  ``discrepant``
    is True when they disagree beyond 1e-8.  The attached level's
    ``c1_over_c0`` is the actual polynomial-table seed, so the distance
    to the terminating recurrence stays visible separately.
    """

    solution: SeriesSolution
    level: EnergyLevel
    c1_closed_form: float
    c1_seed: float
    abs_diff: float
    discrepant: bool


def ground_state_wavefunction(p: PhysicalParams, branch: Branch) -> WavefunctionAudit:
    """Degree-1 series for one closed-form n = 1 branch, audited against the seed.

    The plus energy branch pairs with the minus sign in the c_1
    expression and vice versa.
    """
    branch = Branch(branch)
    levels = ground_state_closed_form(p)
    level = levels[0] if branch is Branch.MINUS else levels[1]
    d = derive_params(p)
    iota, j = d.iota, d.j
    w = _closed_form_rate(p)
    sq = math.sqrt(level.discriminant)
    sign = 1.0 if branch is Branch.MINUS else -1.0
    if p.model is Model.OSCILLATOR:
        c1 = (iota**2 - 2.0 * w * (j + 3.0) - j - 2.5 + sign * sq) / (4.0 * (1.0 + j))
    else:
        c1 = (-1.0 + sign * sq) / (4.0 * (1.0 + j))
    seed = _seed(iota, j, w, level.spectral * p.beta**2)
    diff = abs(c1 - seed)
    solution = SeriesSolution(
        coeffs=np.array([1.0, c1]),
        power=0.25 + j / 2.0,
        gauss_factor=w / 2.0,
        model=p.model,
        polynomial_degree=1,
    )
    return WavefunctionAudit(
        solution=solution,
        level=level,
        c1_closed_form=c1,
        c1_seed=seed,
        abs_diff=diff,
        discrepant=diff > AGREEMENT_TOL * max(1.0, abs(c1)),
    )


def level_series(p: PhysicalParams, level: EnergyLevel) -> SeriesSolution:
    """Terminating series attached to a truncation level.

    Coefficients c_0 .. c_n are the polynomial-table values at the
    level's spectral parameter; the tail is dropped at the truncation
    order (the level's ``termination_defect`` records how much that
    drops).
    """
    table = lambda_polynomials(p, level.n)
    d = derive_params(p)
    coeffs = np.array([table.eval(i, level.spectral) for i in range(level.n + 1)])
    return SeriesSolution(
        coeffs=coeffs,
        power=0.25 + d.j / 2.0,
        gauss_factor=d.omega / 2.0,
        model=p.model,
        polynomial_degree=level.n,
    )


@dataclass(frozen=True)
class PairRecord:
    """One closed-form value matched against the nearest truncation root."""

    branch: Branch
    closed_spectral: float
    truncation_spectral: float | None
    rel_diff: float | None
    label: str


@dataclass(frozen=True)
class ClosedFormComparison:
    """Audit of the analytic n = 1 pair against the exact quadratic.

    ``quadratic`` holds the descending coefficients (a, b, c) of the
    truncation condition a*s^2 + b*s + c = 0 in the spectral parameter,
    printed in full by :meth:`to_text` so every number can be rechecked
    by hand.
    """

    model: Model
    quadratic: tuple[float, float, float]
    closed: tuple[EnergyLevel, ...]
    closed_empty_reason: str | None
    truncation: tuple[EnergyLevel, ...]
    pairs: tuple[PairRecord, ...]
    existence: str

    def to_text(self) -> str:
        a, b, c = self.quadratic
        lines = [
            f"closed-form audit ({self.model.value} model)",
            f"  truncation quadratic: ({a:.17g}) s^2 + ({b:.17g}) s + ({c:.17g}) = 0",
            f"  truncation roots:  {[f'{lv.spectral:.17g}' for lv in self.truncation]}",
        ]
        if self.closed_empty_reason:
            lines.append(f"  closed form: none ({self.closed_empty_reason})")
        else:
            lines.append(
                f"  closed form:       {[f'{lv.spectral:.17g}' for lv in self.closed]}"
            )
        for pr in self.pairs:
            near = "none" if pr.truncation_spectral is None else f"{pr.truncation_spectral:.17g}"
            rel = "n/a" if pr.rel_diff is None else f"{pr.rel_diff:.3e}"
            lines.append(
                f"  {pr.branch.value}: closed {pr.closed_spectral:.17g} vs nearest root "
                f"{near} (rel diff {rel}) -> {pr.label}"
            )
        lines.append(f"  existence: {self.existence}")
        return "\n".join(lines)


def compare_closed_form_vs_truncation(p: PhysicalParams) -> ClosedFormComparison:
    """Measure whether the analytic n = 1 pair solves the truncation quadratic.

    Pure audit: nothing here fails, the result records AGREE or
    DISCREPANT-DOCUMENTED per branch (tolerance 1e-8 relative).
    """
    table = lambda_polynomials(p, 2)
    asc = table.entry(2)
    quadratic = (float(asc[2]), float(asc[1]), float(asc[0]))
    trunc = tuple(truncation_solve(p, 1))
    closed: tuple[EnergyLevel, ...] = ()
    reason = None
    try:
        closed = tuple(ground_state_closed_form(p))
    except NegativeDiscriminantError as exc:
        reason = f"negative discriminant ({exc.discriminant:.17g})"
    pairs = []
    for lv in closed:
        if trunc:
            nearest = min(trunc, key=lambda t: abs(t.spectral - lv.spectral))
            rel = abs(nearest.spectral - lv.spectral) / max(
                1.0, abs(nearest.spectral), abs(lv.spectral)
            )
            label = "AGREE" if rel <= AGREEMENT_TOL else "DISCREPANT-DOCUMENTED"
            pairs.append(PairRecord(lv.branch, lv.spectral, nearest.spectral, rel, label))
        else:
            pairs.append(
                PairRecord(lv.branch, lv.spectral, None, None, "DISCREPANT-DOCUMENTED")
            )
    if closed and trunc:
        existence = "both-populated"
    elif not closed and not trunc:
        existence = "both-empty"
    elif closed:
        existence = "closed-form-only"
    else:
        existence = "truncation-only"
    return ClosedFormComparison(
        model=p.model,
        quadratic=quadratic,
        closed=closed,
        closed_empty_reason=reason,
        truncation=trunc,
        pairs=tuple(pairs),
        existence=existence,
    )


@dataclass(frozen=True)
class PeriodicityCheck:
    """Energies under flux -> flux + nu versus ell -> ell - nu."""

    nu: int
    flux_shifted_energy: float
    ell_shifted_energy: float
    abs_diff: float


def ab_periodicity_check(
    p: PhysicalParams,
    nu: int,
    level_fn: Callable[[PhysicalParams], float] | None = None,
) -> PeriodicityCheck:
    """Spectral periodicity in the flux: adding nu quanta relabels ell.

    Both shifted parameter sets share the same iota, so any level
    functional of the radial problem must agree; the default functional
    is the minus-branch closed-form energy.
    """
    if isinstance(nu, bool) or not isinstance(nu, int):
        raise ValueError(f"nu must be an integer: got {nu!r}")
    if level_fn is None:
        level_fn = lambda q: ground_state_closed_form(q)[0].energy  # noqa: E731
    lhs = level_fn(dataclasses.replace(p, flux=p.flux + nu))
    rhs = level_fn(dataclasses.replace(p, ell=p.ell - nu))
    return PeriodicityCheck(
        nu=nu,
        flux_shifted_energy=lhs,
        ell_shifted_energy=rhs,
        abs_diff=abs(lhs - rhs),
    )


def levels_to_json(levels: Sequence[EnergyLevel]) -> str:
    """JSON dump of level records with fixed field names."""
    records = [
        {
            "n": lv.n,
            "ell": lv.ell,
            "branch": lv.branch.value if lv.branch is not None else None,
            "energy": lv.energy,
            "spectral": lv.spectral,
            "discriminant": lv.discriminant,
            "termination_defect": lv.termination_defect,
            "c1_over_c0": lv.c1_over_c0,
        }
        for lv in levels
    ]
    return json.dumps(records, indent=2)
