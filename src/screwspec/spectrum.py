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
  genuinely differ.  Their agreement is measured, never assumed: the
  ``closed-form-audit`` check of :mod:`screwspec.verify` records AGREE or
  DISCREPANT-DOCUMENTED per branch, printing the exact quadratic so the
  numbers can be checked by hand.

Both n = 1 routes also run as one array kernel, :func:`n1_levels`, which
evaluates a whole parameter axis at once (sweeps use it, and
:func:`ground_state_closed_form` is the kernel at one point).  Its
truncation roots are bit for bit those of :func:`truncation_solve`, and
at the first point it cannot solve it raises what that point raises alone.

The table of c_i as polynomials in the spectral parameter has one
definition, the plain recurrence ``_table``: it runs on Python floats at
one point (:func:`lambda_polynomials`, which raises where the top
coefficient underflows) and on numpy arrays along an axis (the kernel,
which masks those points), and every level's diagnostics come from one
helper, ``_diagnostics``.  Polynomials are evaluated by Horner's rule;
no route goes through ``numpy.polynomial``.  The root loops stay apart:
:func:`truncation_solve` polishes each root on its own, which is faster
at one point, and the kernel polishes every candidate of the axis at once.

Both root loops polish by one rule.  The seeds are the companion
matrix's eigenvalues whose imaginary part is at most 1e-8 (1 + |re|);
Newton's method then runs on each from its real part.  It stops where
p'(x) = 0, after a step of at most 1e-15 (1 + |x|), after 60 steps, or
at the first step that is not smaller in magnitude than the one before
it, which is not taken: a root whose steps stop shrinking has reached
the rounding noise of the monomial coefficients, and further steps only
move it around in that noise.  Every polished root must then pass the
backward-error bound |p(x)| <= ``ROOT_RESIDUAL_TOL`` sum_k |a_k| |x|^k,
and roots within 1e-8 (relative) of each other count once.

The ground-state series seed c_1 has its own closed form per branch,
which :func:`ground_state_wavefunction` uses; at the closed-form spectral
value, with the analytic route's rate, it equals the recurrence seed.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .params import (
    InvalidParameterError,
    Model,
    PhysicalParams,
    _derived,
    _energy,
    _require_int,
    _square_of,
    derive_params,
    spectral_to_energy,
)
from .series import SeriesSolution, _seed, _triple

__all__ = [
    "Branch",
    "EnergyLevel",
    "NegativeDiscriminantError",
    "TruncationError",
    "LambdaPolynomialTable",
    "lambda_polynomials",
    "truncation_solve",
    "ground_state_closed_form",
    "ground_state_wavefunction",
    "level_series",
    "levels_to_json",
    "levels_to_csv",
]

ROOT_RESIDUAL_TOL = 1e-10


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
    backward-error bound.  None of them is tied to high order: the
    companion matrix leaves the float range at any order where the top
    coefficient of c_{n+1} is small enough against the others, from
    n = 75 on at omega0 = 2, beta = 0.5, k = 0.5, ell = 2, flux = 0.75,
    and at n = 1 with ``screwspec energy --gamma 5e307 --method
    truncation``, where c_2 = 0.1953 - 2.34e-156 s + 1.95e-311 s^2 in
    the spectral parameter s.
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


@dataclass(frozen=True)
class LambdaPolynomialTable:
    """Series coefficients as polynomials in the spectral parameter.

    ``entries[i]`` lists the ascending coefficients of c_i as a
    polynomial of degree i in the spectral parameter (c_0 = 1), as Python
    floats; :meth:`entry` gives one as an array.
    """

    entries: tuple[list[float], ...]

    def entry(self, i: int) -> np.ndarray:
        return np.array(self.entries[i])

    def eval(self, i: int, spectral_value: float) -> float:
        """Value of c_i at a numeric spectral parameter."""
        return float(_horner(self.entries[i], spectral_value))


def _table(iota2, j, omega, b2, n_max: int) -> tuple[list[list], bool | np.ndarray]:
    """c_0 .. c_{n_max} as lists of ascending coefficients in the spectral parameter.

    The recurrence factors of :func:`series._triple` are affine in the
    spectral parameter (d1 falls and d2 rises by b2/4 per unit), so c_i
    has degree i.  The inputs, and so the coefficients, are Python floats
    at one point or numpy arrays along an axis.  Each coefficient of
    d1 c_{i+1} + d2 c_i is summed as ``np.convolve`` and ``polyadd`` sum
    it, so the table is bit for bit the ``numpy.polynomial`` one.

    c_i loses its degree where its top coefficient, the slope times the
    top of c_{i-1}, comes out zero.  At one point that raises
    :class:`TruncationError`, naming the degree that ``numpy.polynomial``
    keeps once it trims the trailing zeros; along an axis the second
    return value marks the points where it happens.
    """
    slope = b2 / 4.0
    table = [[1.0], [_seed(iota2, j, omega, 0.0), -b2 / (4.0 * (1.0 + j))]]
    lost = False
    for i in range(n_max - 1):
        d1, d2, d3 = _triple(i, iota2, j, omega, 0.0)
        a, b = table[i + 1], table[i]
        total = [d1 * a[0] + d2 * b[0]]
        total += [
            d1 * a[k] - slope * a[k - 1] + (d2 * b[k] + slope * b[k - 1]) for k in range(1, i + 1)
        ]
        total += [d1 * a[i + 1] - slope * a[i] + slope * b[i], -slope * a[i + 1]]
        lost_here = total[-1] == 0.0
        if lost_here is True:  # Python floats: one point
            # numpy.polynomial keeps up to the last nonzero coefficient; without
            # a slope both factors are constants, and so is c_2
            nonzero = [k for k, t in enumerate(total) if t != 0.0]
            kept = max(nonzero, default=0) if slope != 0.0 else 0
            raise TruncationError(f"degree of c_{i + 2} is {kept}, expected {i + 2}")
        lost = lost | lost_here
        table.append([t / d3 for t in total])
    return table, lost


def lambda_polynomials(p: PhysicalParams, n_max: int) -> LambdaPolynomialTable:
    """Build c_0 .. c_{n_max} as exact polynomials in the spectral parameter.

    The recurrence factors d1 and d2 are affine in the scaled parameter
    P = spectral * beta^2, so each c_i is a polynomial of degree i; the
    recurrence is run once on coefficient lists instead of numbers.
    """
    n_max = _require_int("n_max", n_max)
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1: got {n_max}")
    d = derive_params(p)
    table, _ = _table(_square_of("iota", d.iota), d.j, d.omega, p.beta**2, n_max)
    return LambdaPolynomialTable(entries=tuple(table))


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


def _real_roots(coeffs: list[float]) -> list[float]:
    """Real roots of an ascending-coefficient polynomial, sorted.

    Companion seeds, Newton polish, backward-error bound and dedup by the
    rule in the module docstring, one root at a time; a root that fails
    the bound raises :class:`TruncationError`.
    """
    try:
        with np.errstate(over="ignore"):  # an overflowed companion entry fails just below
            roots = np.linalg.eigvals(_companions(np.asarray(coeffs, dtype=float)))
    except np.linalg.LinAlgError as exc:
        raise TruncationError(f"companion eigenvalues failed: {exc}") from exc
    deriv = [k * c for k, c in enumerate(coeffs)][1:]
    magnitudes = [abs(c) for c in coeffs]
    out: list[float] = []
    for z in roots:
        if abs(z.imag) > 1e-8 * (1.0 + abs(z.real)):
            continue
        x = float(z.real) + 0.0  # -0.0 -> 0.0, as numpy's root mapping did
        last = math.inf
        for _ in range(60):
            fpx = _horner(deriv, x)
            if fpx == 0.0:
                break
            step = _horner(coeffs, x) / fpx
            if abs(step) >= last:
                break
            x -= step
            if abs(step) <= 1e-15 * (1.0 + abs(x)):
                break
            last = abs(step)
        residual = _horner(coeffs, x)
        if abs(residual) > ROOT_RESIDUAL_TOL * max(_horner(magnitudes, abs(x)), 1e-300):
            raise TruncationError(f"root polish failed: residual {residual:.3e} at x = {x!r}")
        out.append(x)
    out.sort()
    dedup: list[float] = []
    for x in out:
        if not dedup or abs(x - dedup[-1]) > 1e-8 * max(1.0, abs(x)):
            dedup.append(x)
    return dedup


def _diagnostics(table: Sequence[Sequence], n: int, spectral):
    """(termination_defect, c1_over_c0) of order-n levels at ``spectral``.

    ``|c_{n+2}| / max(|c_0|, ..., |c_{n+1}|)`` and c_1, from the table of
    :func:`_table` at one spectral value or at an array of them.  The
    maximum skips NaN as Python's ``max`` does after a non-NaN first
    item (|c_0| is NaN only where the spectral value is).
    """
    values = [_horner(c, spectral) for c in table[: n + 3]]
    largest = np.fmax.reduce(np.abs(values[: n + 2]), axis=0)
    return np.abs(values[n + 2]) / largest, values[1]


def _checked_discriminant(disc: float) -> float:
    """The n = 1 discriminant; ``OverflowError`` where it is not finite (every input is)."""
    if not math.isfinite(disc):
        raise OverflowError(f"the n = 1 discriminant is {disc!r}")
    return disc


def _level_numbers(p: PhysicalParams, table: Sequence[list], n: int, spectral: float) -> tuple:
    """(energy, termination_defect, c1_over_c0) at ``spectral``, from a one-point table.

    Raises ``OverflowError`` where one of them overflows.
    """
    energy = spectral_to_energy(p, spectral)
    defect, c1_over_c0 = _diagnostics(table, n, spectral)
    for name, value in (("termination_defect", defect), ("c1_over_c0", c1_over_c0)):
        if not math.isfinite(value):
            raise OverflowError(f"the {name} at spectral value {spectral!r} is {float(value)!r}")
    return energy, float(defect), c1_over_c0


def truncation_solve(p: PhysicalParams, n: int) -> list[EnergyLevel]:
    """Levels from the order-n truncation condition c_{n+1}(spectral) = 0.

    Returns at most n + 1 levels sorted by spectral value (possibly an
    empty list when every root is complex).  For n = 1 with two real
    roots the smaller is labelled ``minus``, the larger ``plus``.
    Raises :class:`TruncationError` where the order is too high for the
    monomial table and companion roots, and ``OverflowError`` where a
    square, the n = 1 discriminant or a level's numbers overflow.
    """
    n = _require_int("truncation order", n)
    if n < 1:
        raise ValueError(f"truncation order must be >= 1: got {n}")
    table = lambda_polynomials(p, n + 2).entries
    roots = _real_roots(table[n + 1])
    disc = None
    if n == 1:
        c0, c1, c2 = table[2]
        disc = _checked_discriminant(c1 * c1 - 4.0 * c2 * c0)
    levels = []
    for idx, root in enumerate(roots):
        branch = None
        if n == 1 and len(roots) == 2:
            branch = Branch.MINUS if idx == 0 else Branch.PLUS
        energy, defect, c1_over_c0 = _level_numbers(p, table, n, root)
        levels.append(
            EnergyLevel(
                n=n,
                ell=p.ell,
                branch=branch,
                energy=energy,
                spectral=root,
                discriminant=disc,
                termination_defect=defect,
                c1_over_c0=c1_over_c0,
            )
        )
    return levels


def _closed_form_rate(f):
    """Gaussian rate used by the analytic route: M * omega0 * beta, elementwise.

    This is deliberately not the M * omega0 * beta**2 rate the recurrence
    machinery runs on (the x = r**2 / beta**2 substitution forces that one;
    the change-of-variable check pins it).  The analytic pair is evaluated
    with the linear-in-beta rate it is stated with, and the gap between the
    two routes is measured by the ``closed-form-audit`` check of
    :mod:`screwspec.verify` rather than reconciled.  ``f`` maps field names
    to floats or arrays.
    """
    return f["mass"] * f["omega0"] * f["beta"]


_AXIS_FIELDS = ("mass", "beta", "k", "ell", "omega0", "gamma", "delta", "Omega", "flux")


@dataclass(frozen=True)
class N1Levels:
    """The n = 1 level pair at each point of a parameter axis.

    ``discriminant`` has shape (N,); the other arrays have shape (N, 2),
    column 0 for the minus branch and column 1 for plus.  ``present``
    marks real levels, and the other (N, 2) arrays hold NaN where it is
    False.  A truncation double root (two roots within 1e-8, relative) is
    one unlabelled level, kept in column 0 as :func:`truncation_solve`
    returns it.  ``discriminant`` belongs to the closed form, or to the
    quadratic c_2 for truncation, and is set at every point.  Every
    number is finite: :func:`n1_levels` raises where one would not be.
    """

    discriminant: np.ndarray
    present: np.ndarray
    spectral: np.ndarray
    energy: np.ndarray
    termination_defect: np.ndarray
    c1_over_c0: np.ndarray


def _polished_roots(
    c: list[np.ndarray], skip: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Real roots of the quadratics ``c``, by the rule in the module docstring.

    One ``eigvals`` call on the stack of companion matrices, then the
    rule's imaginary-part filter, Newton polish, backward-error test and
    dedup, run on every candidate at once, so each root is bit for bit
    the one ``_real_roots`` returns.  Returns (roots, count, failed):
    the sorted roots, shape (N, 2), how many of them are real and
    distinct, and the rows that fail the backward-error test.  Rows in
    ``skip`` are not solved and count as failed.
    """
    companion = _companions(np.stack(c, axis=-1))
    skip = skip | ~np.isfinite(companion).all(axis=(1, 2))
    companion[skip] = 0.0
    z = np.linalg.eigvals(companion)
    x = z.real + 0.0
    kept = ~(np.abs(z.imag) > 1e-8 * (1.0 + np.abs(x))) & ~skip[:, None]
    c0, c1, c2 = (np.reshape(a, (-1, 1)) for a in c)
    d1 = 2.0 * c2
    active = kept.copy()
    last = np.full(x.shape, np.inf)
    for _ in range(60):
        if not active.any():
            break
        fx = _horner((c0, c1, c2), x)
        fpx = _horner((c1, d1), x)
        active &= fpx != 0.0
        step = fx / fpx
        active &= ~(np.abs(step) >= last)
        x = np.where(active, x - step, x)
        active &= ~(np.abs(step) <= 1e-15 * (1.0 + np.abs(x)))
        last = np.abs(step)
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


def _closed_form_quadratic(model: Model, f: dict, iota2, j) -> tuple:
    """(discriminant, centre, overflow) of the analytic n = 1 pair, elementwise.

    The pair is ``(centre -/+ sqrt(discriminant)) / beta**2``, real where
    the discriminant is not negative; ``overflow`` marks points where the
    square of the rate overflows.
    """
    if model is Model.OSCILLATOR:
        w = _closed_form_rate(f)
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
    d = derive_params(p)
    with np.errstate(all="ignore"):
        return float(_closed_form_quadratic(p.model, vars(p), _square(d.iota), d.j)[0])


def n1_levels(
    p: PhysicalParams,
    method: str,
    parameter: str | None = None,
    values: Sequence | None = None,
) -> N1Levels:
    """Both n = 1 levels at ``p``, or with ``parameter`` set to each of ``values``.

    ``method`` is ``"closed-form"`` (the analytic pair of
    :func:`ground_state_closed_form`) or ``"truncation"`` (the roots of
    c_2, as :func:`truncation_solve` finds them at n = 1).  Every number
    is computed with the same floating-point operations as the one-point
    routes, elementwise, so the results are bit for bit theirs.  Any
    other ``method`` raises :class:`InvalidParameterError`; the values are
    not validated: that is the caller's job.  At the first point it cannot
    solve, it raises what the one-point route raises at ``p`` with
    ``parameter`` set to that value as the caller passed it.
    """
    if method not in ("closed-form", "truncation"):
        raise InvalidParameterError(
            f"method must be 'closed-form' or 'truncation': got {method!r}"
        )
    size = 1 if parameter is None else len(values)
    f = {name: np.full(size, getattr(p, name), dtype=float) for name in _AXIS_FIELDS}
    if parameter is not None:
        f[parameter] = np.asarray(values, dtype=float)
    with np.errstate(all="ignore"):
        b2, k2 = _square(f["beta"]), _square(f["k"])
        iota, omega, j = _derived(f, b2)
        iota2 = _square(iota)
        table, lost = _table(iota2, j, omega, b2, 3)
        fault = np.isinf(iota2) & np.isfinite(iota)
        if method == "closed-form":
            disc, center, overflow = _closed_form_quadratic(p.model, f, iota2, j)
            sq = np.sqrt(disc)
            roots = np.array([(center - sq) / b2, (center + sq) / b2])
            count = 2 * ~(disc < 0)
            fault |= overflow | ((count > 0) & lost)
        else:
            c0, c1, c2 = table[2]
            disc = c1 * c1 - 4.0 * c2 * c0
            pairs, count, failed = _polished_roots(table[2], lost | fault)
            roots = pairs.T
            fault |= failed
        fault |= ~np.isfinite(disc) | ((count > 0) & np.isinf(k2) & np.isfinite(f["k"]))
        # shape (2, N) until the transposes below: row 0 minus, row 1 plus
        present = np.arange(2)[:, None] < count
        spectral = np.where(present, roots, np.nan)
        defect, c1_over_c0 = _diagnostics(table, 1, spectral)
        energy = _energy(f, k2, spectral, iota)
        finite = np.isfinite(energy) & np.isfinite(defect) & np.isfinite(c1_over_c0)
        fault |= (present & ~finite).any(axis=0)
    if fault.any():
        first = int(fault.argmax())
        q = p if parameter is None else dataclasses.replace(p, **{parameter: values[first]})
        if method == "closed-form":
            # the scalar steps, in order: the squares, the discriminant, then
            # the polynomial table and each level's numbers
            _square_of("iota", derive_params(q).iota)
            _square_of("the closed-form rate mass * omega0 * beta", _closed_form_rate(vars(q)))
            _checked_discriminant(float(disc[first]))
            table = lambda_polynomials(q, 3).entries
            for value in spectral[present[:, first], first].tolist():
                _level_numbers(q, table, 1, value)
        else:
            truncation_solve(q, 1)
        raise RuntimeError(f"the n = 1 kernel faults where the one-point route succeeds: {q}")
    return N1Levels(
        discriminant=disc,
        present=present.T,
        spectral=spectral.T,
        energy=energy.T,
        termination_defect=defect.T,
        c1_over_c0=c1_over_c0.T,
    )


def ground_state_closed_form(p: PhysicalParams) -> list[EnergyLevel]:
    """The analytic n = 1 candidate levels, ``[minus, plus]``.

    Raises :class:`NegativeDiscriminantError` when the pair is complex.
    The returned records carry the truncation-condition diagnostics
    (``c1_over_c0``, ``termination_defect``) evaluated at these spectral
    values, so discrepancies with :func:`truncation_solve` are visible
    directly on the level objects.  This is :func:`n1_levels` at one
    point, which raises where the pair cannot be solved.
    """
    pair = n1_levels(p, "closed-form")
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


def ground_state_wavefunction(p: PhysicalParams, branch: Branch) -> SeriesSolution:
    """Degree-1 series for one closed-form n = 1 branch.

    c_1 is the analytic per-branch expression; the plus energy branch
    pairs with the minus sign in front of its square root and vice versa.
    """
    branch = Branch(branch)
    levels = ground_state_closed_form(p)
    level = levels[0] if branch is Branch.MINUS else levels[1]
    d = derive_params(p)
    iota, j = d.iota, d.j
    w = _closed_form_rate(vars(p))
    sq = math.sqrt(level.discriminant)
    sign = 1.0 if branch is Branch.MINUS else -1.0
    if p.model is Model.OSCILLATOR:
        c1 = (iota**2 - 2.0 * w * (j + 3.0) - j - 2.5 + sign * sq) / (4.0 * (1.0 + j))
    else:
        c1 = (-1.0 + sign * sq) / (4.0 * (1.0 + j))
    return SeriesSolution(
        coeffs=np.array([1.0, c1]),
        power=0.25 + j / 2.0,
        gauss_factor=w / 2.0,
        polynomial_degree=1,
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
        polynomial_degree=level.n,
    )


# the columns of levels_to_json and levels_to_csv, in order
_LEVEL_FIELDS = tuple(f.name for f in dataclasses.fields(EnergyLevel))


def _level_values(lv: EnergyLevel) -> list:
    """The fields of one level in ``_LEVEL_FIELDS`` order, the branch as its string."""
    values = [getattr(lv, name) for name in _LEVEL_FIELDS]
    return [v.value if isinstance(v, Branch) else v for v in values]


def levels_to_json(levels: Sequence[EnergyLevel]) -> str:
    """JSON dump of level records with fixed field names."""
    records = [dict(zip(_LEVEL_FIELDS, _level_values(lv))) for lv in levels]
    return json.dumps(records, indent=2)


def levels_to_csv(levels: Sequence[EnergyLevel]) -> str:
    """The records of :func:`levels_to_json` as CSV: floats to 17 digits, None empty."""
    lines = [",".join(_LEVEL_FIELDS)]
    for lv in levels:
        cells = [
            "" if v is None else f"{v:.17g}" if isinstance(v, float) else str(v)
            for v in _level_values(lv)
        ]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
