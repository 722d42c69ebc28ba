"""Output checks computed apart from screwspec.

Nothing here calls the code under test or compares against a stored copy
of its output.  Each check rebuilds the quantity it needs from the
physics: the series recurrence (run in mpmath for high orders, in numpy
for the n = 1 quadratic), the exact flat-space oscillator spectrum, and
properties every route must have (energy from the spectral parameter,
branch ordering, flux and rotation identities, monotonicity in gamma).
A check raises :class:`CheckError` with a reason when an output fails.
"""

from __future__ import annotations

import json
import math

import numpy as np

ROOT_STEP = 1e-9  # relative step either side of a truncation root
MP_DIGITS = 60
ENERGY_RTOL = 1e-12
QUADRATIC_RTOL = 1e-10  # backward error of an n = 1 root on c_2
FLUX_SHIFT_RTOL = 1e-9
INVARIANCE_RTOL = 1e-9
FLAT_ERR_AT_4000 = 2e-5  # flat-grid relative error allowed at N = 4000, scaled by (4000/N)^2


class CheckError(AssertionError):
    """An output of screwspec failed an independent check.

    ``counters`` carries what the check counted before it failed (for
    example how many of the returned roots it confirmed).
    """

    def __init__(self, message: str, counters: dict | None = None) -> None:
        super().__init__(message)
        self.counters = counters or {}


def _fail(message: str) -> None:
    raise CheckError(message)


# ---------------------------------------------------------------------------
# the recurrence of the series module docstring, rebuilt


def energy_of(p, spectral: float) -> float:
    """E = (k^2 + spectral)/(2 M) + delta - Omega iota."""
    iota = p.ell - p.flux - p.beta * p.k
    return (p.k**2 + spectral) / (2.0 * p.mass) + p.delta - p.Omega * iota


def mp_coefficient(p, spectral, order: int):
    """c_order at one spectral value, by an mpmath run of the recurrence.

    c_0 = 1, c_1 = (2 w (1 + j) - iota^2 - P + 1/2 + j) / (4 (1 + j)),
    c_{i+2} = (d1(i) c_{i+1} + d2(i) c_i) / d3(i), P = spectral beta^2.
    """
    import mpmath  # imported here so that loading the checks costs set-up no mpmath import

    with mpmath.workdps(MP_DIGITS):
        mpf = mpmath.mpf
        half = mpf(1) / 2
        beta, mass = mpf(p.beta), mpf(p.mass)
        iota = p.ell - mpf(p.flux) - beta * mpf(p.k)
        omega = mass * mpf(p.omega0) * beta**2
        j = mpmath.sqrt(2 * mass * mpf(p.gamma) + half / 2)
        scaled = mpf(spectral) * beta**2
        prev = mpf(1)
        cur = (2 * omega * (1 + j) - iota**2 - scaled + half + j) / (4 * (1 + j))
        if order == 0:
            return prev
        for i in range(order - 1):
            d1 = (i + omega + 3 * half + j) * (i + 1) - (
                iota**2 + scaled - half - j - 2 * omega * (1 + j)
            ) / 4
            d2 = -omega * i + (scaled - omega * (3 + 2 * j)) / 4
            d3 = (i + 2 + j) * (i + 2)
            prev, cur = cur, (d1 * cur + d2 * prev) / d3
        return cur


def root_confirmed(p, n: int, spectral: float, step: float = ROOT_STEP) -> bool:
    """True when c_{n+1} changes sign across spectral * (1 -/+ step)."""
    delta = step * max(abs(spectral), 1.0)
    lo = mp_coefficient(p, spectral - delta, n + 1)
    hi = mp_coefficient(p, spectral + delta, n + 1)
    return (lo < 0) != (hi < 0) and lo != 0 and hi != 0


def _check_energy(p, spectral: float, energy: float, where: str) -> None:
    want = energy_of(p, spectral)
    scale = max(1.0, abs(want), (p.k**2 + abs(spectral)) / (2.0 * p.mass))
    if not abs(energy - want) <= ENERGY_RTOL * scale:
        _fail(f"{where}: energy {energy!r} != (k^2 + spectral)/2M + delta - Omega iota = {want!r}")


def truncation_report(p, n: int, levels) -> tuple[int, int, list[str]]:
    """(roots returned, roots confirmed, problems) for one truncation_solve output."""
    problems: list[str] = []
    spectrals = [lv.spectral for lv in levels]
    if len(spectrals) > n + 1:
        problems.append(f"{len(spectrals)} roots at order {n}, at most {n + 1} allowed")
    if any(b <= a for a, b in zip(spectrals, spectrals[1:])):
        problems.append("roots are not strictly ascending")
    confirmed = 0
    for lv in levels:
        if lv.n != n or lv.ell != p.ell:
            problems.append(f"level labelled n={lv.n}, ell={lv.ell}")
        try:
            _check_energy(p, lv.spectral, lv.energy, f"order {n} root {lv.spectral!r}")
        except CheckError as exc:
            problems.append(str(exc))
        if root_confirmed(p, n, lv.spectral):
            confirmed += 1
        else:
            problems.append(
                f"c_{n + 1} does not change sign across {lv.spectral!r} (relative step {ROOT_STEP:g})"
            )
    return len(spectrals), confirmed, problems


def check_truncation(p, n: int, levels) -> dict:
    """Raise unless every root is confirmed; returns the root counters."""
    returned, confirmed, problems = truncation_report(p, n, levels)
    counters = {"roots_checked": returned, "roots_confirmed": confirmed}
    if problems:
        raise CheckError(f"truncation order {n}: " + "; ".join(problems[:3]), counters)
    return counters


# ---------------------------------------------------------------------------
# n = 1: the quadratic c_2(spectral), built in numpy over a whole sweep axis


def c2_coefficients(iota, omega, j, beta):
    """Ascending coefficients (a0, a1, a2) of c_2 as a polynomial in spectral.

    Works elementwise on numpy arrays.  c_1 = u + v P and
    c_2 = ((d1c + d1p P) c_1 + (d2c + d2p P)) / d3 with P = spectral beta^2.
    """
    b2 = beta**2
    u = (2.0 * omega * (1.0 + j) - iota**2 + 0.5 + j) / (4.0 * (1.0 + j))
    v = -1.0 / (4.0 * (1.0 + j))
    d1c = (omega + 1.5 + j) - (iota**2 - 0.5 - j - 2.0 * omega * (1.0 + j)) / 4.0
    d1p = -0.25
    d2c = -omega * (3.0 + 2.0 * j) / 4.0
    d2p = 0.25
    d3 = (2.0 + j) * 2.0
    a0 = (d1c * u + d2c) / d3
    a1 = (d1c * v + d1p * u + d2p) / d3 * b2
    a2 = (d1p * v) / d3 * b2 * b2
    return a0, a1, a2


# ---------------------------------------------------------------------------
# sweeps


def _axis_params(base, parameter: str, values: np.ndarray):
    """iota, omega, j and every parameter as arrays along a sweep axis."""
    fields = {
        name: np.full(values.shape, float(getattr(base, name)))
        for name in ("mass", "beta", "k", "ell", "omega0", "gamma", "delta", "Omega", "flux")
    }
    fields[parameter] = values.astype(float)
    iota = fields["ell"] - fields["flux"] - fields["beta"] * fields["k"]
    omega = fields["mass"] * fields["omega0"] * fields["beta"] ** 2
    j = np.sqrt(2.0 * fields["mass"] * fields["gamma"] + 0.25)
    return iota, omega, j, fields


def _cell(text: str) -> float | None:
    return None if text == "" else float(text)


def check_sweep_csv(rows, csv: str) -> None:
    """The CSV carries every row, each number round-tripping exactly."""
    lines = csv.split("\n")
    if lines[-1] != "" or len(lines) != len(rows) + 2:
        _fail(f"CSV has {len(lines) - 2} data lines for {len(rows)} rows")
    for row, line in zip(rows, lines[1:-1]):
        cells = line.split(",")
        if len(cells) != 7:
            _fail(f"CSV line has {len(cells)} cells: {line!r}")
        want = (row.param_value, row.ell, row.branch, row.energy, row.spectral,
                row.discriminant, row.termination_defect)
        got = (_cell(cells[0]), int(cells[1]), cells[2], _cell(cells[3]), _cell(cells[4]),
               _cell(cells[5]), _cell(cells[6]))
        if got != want:
            _fail(f"CSV line {line!r} does not match its row {want!r}")


def _paired(rows, steps: int):
    if len(rows) != 2 * steps:
        _fail(f"{len(rows)} rows for {steps} values and two branches")
    minus, plus = rows[0::2], rows[1::2]
    if any(r.branch != "minus" for r in minus) or any(r.branch != "plus" for r in plus):
        _fail("rows do not alternate minus, plus")
    return minus, plus


def check_sweep_axis(rows, start: float, stop: float, steps: int) -> np.ndarray:
    """Sweep values run from start to stop in equal steps; returns them."""
    values = np.array([r.param_value for r in rows[0::2]])
    if len(values) != steps or values[0] != start or values[-1] != stop:
        _fail(f"sweep axis does not run from {start!r} to {stop!r} in {steps} values")
    if np.any(np.diff(values) * (stop - start) <= 0):
        _fail("sweep axis is not monotone")
    step = (stop - start) / (steps - 1)
    if not np.allclose(np.diff(values), step, rtol=1e-9, atol=1e-12 * max(1.0, abs(stop))):
        _fail("sweep axis is not evenly spaced")
    return values


def check_sweep_rows(base, parameter: str, method: str, rows, start: float, stop: float,
                     steps: int) -> int:
    """Row checks shared by both methods; returns the number of empty rows."""
    values = check_sweep_axis(rows, start, stop, steps)
    minus, plus = _paired(rows, steps)
    iota, omega, j, f = _axis_params(base, parameter, values)
    empty = 0
    for branch_rows in (minus, plus):
        for value, row in zip(values, branch_rows):
            ell = int(value) if parameter == "ell" else base.ell
            if row.ell != ell:
                _fail(f"row at {value!r} labelled ell = {row.ell}")
            present = [row.energy is not None, row.spectral is not None,
                       row.termination_defect is not None]
            if any(present) != all(present):
                _fail(f"row at {value!r} is partly empty")
            if row.discriminant is None and method == "closed-form":
                _fail(f"row at {value!r} has no discriminant cell")
            if row.energy is None:
                empty += 1
    for idx, (m, pl) in enumerate(zip(minus, plus)):
        for row in (m, pl):
            if row.energy is None:
                continue
            want = (f["k"][idx] ** 2 + row.spectral) / (2.0 * f["mass"][idx]) + f["delta"][idx] - f["Omega"][idx] * iota[idx]
            scale = max(1.0, abs(want), (f["k"][idx] ** 2 + abs(row.spectral)) / (2.0 * f["mass"][idx]))
            if not abs(row.energy - want) <= ENERGY_RTOL * scale:
                _fail(f"{method} row at {row.param_value!r}: energy {row.energy!r} != {want!r}")
        if m.energy is not None and pl.energy is not None and not m.spectral <= pl.spectral:
            _fail(f"{method} rows at {m.param_value!r}: minus {m.spectral!r} above plus {pl.spectral!r}")
    if method == "closed-form":
        _check_closed_form_gaps(minus, plus)
    else:
        _check_quadratic_roots(minus, plus, iota, omega, j, f["beta"])
    return empty


def _check_closed_form_gaps(minus, plus) -> None:
    for m, pl in zip(minus, plus):
        if m.discriminant != pl.discriminant:
            _fail(f"closed-form rows at {m.param_value!r} disagree on the discriminant")
        negative = m.discriminant < 0
        for row in (m, pl):
            if (row.energy is None) != negative:
                _fail(f"closed-form row at {row.param_value!r}: empty={row.energy is None} "
                      f"with discriminant {row.discriminant!r}")


def _check_quadratic_roots(minus, plus, iota, omega, j, beta) -> None:
    a0, a1, a2 = c2_coefficients(iota, omega, j, beta)
    rel_disc = (a1 * a1 - 4.0 * a2 * a0) / (a1 * a1 + 4.0 * np.abs(a2 * a0))
    for idx, (m, pl) in enumerate(zip(minus, plus)):
        has = [row.energy is not None for row in (m, pl)]
        if abs(rel_disc[idx]) > 1e-9 and has != [rel_disc[idx] > 0] * 2:
            _fail(f"truncation rows at {m.param_value!r}: present={has} but c_2 discriminant "
                  f"is {rel_disc[idx]:.3e} (relative)")
        for row in (m, pl):
            if row.energy is None:
                continue
            s = row.spectral
            value = a0[idx] + a1[idx] * s + a2[idx] * s * s
            scale = abs(a0[idx]) + abs(a1[idx] * s) + abs(a2[idx] * s * s)
            if not abs(value) <= QUADRATIC_RTOL * scale:
                _fail(f"truncation row at {row.param_value!r}: {s!r} is not a root of c_2 "
                      f"(backward error {abs(value) / scale:.3e})")


def check_omega_affine(base, rows) -> None:
    """In an Omega sweep every branch's energy is affine with slope -iota."""
    minus, plus = rows[0::2], rows[1::2]
    iota = base.ell - base.flux - base.beta * base.k
    for branch_rows in (minus, plus):
        pts = [(r.param_value, r.energy) for r in branch_rows if r.energy is not None]
        if len(pts) < 2:
            continue
        x0, e0 = pts[0]
        scale = max(1.0, max(abs(e) for _, e in pts))
        for x, e in pts[1:]:
            if not abs((e - e0) + iota * (x - x0)) <= 1e-11 * scale:
                _fail(f"Omega sweep: E({x!r}) - E({x0!r}) = {e - e0!r}, expected "
                      f"{-iota * (x - x0)!r} (slope -iota)")


def check_flux_shift(rows, shifted_rows) -> None:
    """A flux sweep at ell matches the sweep one flux quantum up at ell + 1."""
    if len(rows) != len(shifted_rows):
        _fail("flux-shifted sweep has a different number of rows")
    for a, b in zip(rows, shifted_rows):
        if b.ell != a.ell + 1 or a.branch != b.branch:
            _fail(f"flux-shifted row at {b.param_value!r} is labelled ell={b.ell}, {b.branch}")
        if (a.energy is None) != (b.energy is None):
            _fail(f"flux {a.param_value!r} vs {b.param_value!r}: one row empty, one not")
        if a.energy is None:
            continue
        for x, y in ((a.energy, b.energy), (a.spectral, b.spectral)):
            if not abs(x - y) <= FLUX_SHIFT_RTOL * max(1.0, abs(x)):
                _fail(f"flux {a.param_value!r} at ell {a.ell} gives {x!r}, flux "
                      f"{b.param_value!r} at ell {b.ell} gives {y!r}")


# ---------------------------------------------------------------------------
# finite-difference grids


def flat_exact(p, count: int) -> np.ndarray:
    """Exact flat-space spectrum 2 M w0 (2 n_r + 1 + s), s = sqrt((ell-flux)^2 + 2 M gamma)."""
    s = math.sqrt((p.ell - p.flux) ** 2 + 2.0 * p.mass * p.gamma)
    return np.array([2.0 * p.mass * p.omega0 * (2 * n_r + 1 + s) for n_r in range(count)])


def flat_tolerance(n_points: int) -> float:
    return FLAT_ERR_AT_4000 * (4000.0 / n_points) ** 2


def check_finite_ascending(eigenvalues, count: int) -> None:
    vals = np.asarray(eigenvalues)
    if vals.shape != (count,):
        _fail(f"{vals.shape} eigenvalues, expected {count}")
    if not np.all(np.isfinite(vals)):
        _fail("eigenvalues are not all finite")
    if np.any(np.diff(vals) <= 0):
        _fail(f"eigenvalues are not strictly ascending: {vals.tolist()}")


def check_flat(p, n_points: int, eigenvalues) -> float:
    """Flat-grid eigenvalues within the O(h^2) tolerance of the exact spectrum."""
    check_finite_ascending(eigenvalues, len(eigenvalues))
    exact = flat_exact(p, len(eigenvalues))
    err = float(np.max(np.abs(np.asarray(eigenvalues) - exact) / exact))
    if not err <= flat_tolerance(n_points):
        _fail(f"flat grid N={n_points}: relative error {err:.3e} above {flat_tolerance(n_points):.1e}")
    return err


def check_same_spectrum(eigenvalues, other, what: str) -> None:
    a, b = np.asarray(eigenvalues), np.asarray(other)
    if a.shape != b.shape or not np.all(np.abs(a - b) <= INVARIANCE_RTOL * np.maximum(1.0, np.abs(a))):
        _fail(f"eigenvalues change under {what}: {a.tolist()} vs {b.tolist()}")


def check_not_lower(eigenvalues, raised) -> None:
    """Adding a non-negative gamma / r^2 term never lowers an eigenvalue."""
    a, b = np.asarray(eigenvalues), np.asarray(raised)
    if np.any(b < a - 1e-12 * np.maximum(1.0, np.abs(a))):
        _fail(f"eigenvalues decrease as gamma grows: {a.tolist()} -> {b.tolist()}")


# ---------------------------------------------------------------------------
# command line


def check_same_text(command: str, got: str, want: str) -> None:
    if got != want:
        for number, (x, y) in enumerate(zip(got.splitlines(), want.splitlines()), 1):
            if x != y:
                _fail(f"`{command}` line {number}: {x!r}, library gives {y!r}")
        _fail(f"`{command}` printed {len(got)} bytes, library gives {len(want)}")


def check_verify_json(text: str, n_checks: int) -> None:
    try:
        report = json.loads(text)
    except ValueError:
        _fail(f"`verify` printed no JSON: {text[:200]!r}")
    if report.get("overall") != "PASS":
        failed = [c["name"] for c in report.get("checks", []) if c.get("status") == "FAIL"]
        _fail(f"`verify` reports overall {report.get('overall')!r}, failing {failed}")
    if len(report.get("checks", [])) != n_checks:
        _fail(f"`verify` ran {len(report.get('checks', []))} checks, expected {n_checks}")
