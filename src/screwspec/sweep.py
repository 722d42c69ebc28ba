"""Parameter sweeps of the n = 1 levels, with CSV/JSON serialisation.

A sweep varies exactly one physical parameter over an inclusive linear
range and records both branches (or one) of the ground-level pair at
each value.  Missing levels (negative discriminant, complex truncation
roots) produce rows with empty energy cells rather than being dropped,
so gaps in the spectrum stay visible in the output.

The whole axis is evaluated at once by the array kernel
:func:`~screwspec.spectrum.n1_levels`, whose numbers are bit for bit those
of the one-point routes, and which raises at the first value it cannot
solve what the one-point route raises there.  The values run from the
start to the stop without passing either, so the axis is checked by
building :class:`~screwspec.params.PhysicalParams` at its two ends; only
where one is refused are the values walked to the first refused one.
Either way the error is the one a point by point sweep raises.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
from collections import deque
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .params import InvalidParameterError, PhysicalParams, _require_int
from .spectrum import n1_levels

__all__ = [
    "SweepSpec",
    "SweepRow",
    "sweep_values",
    "sweep_rows",
    "rows_to_csv",
    "rows_to_json",
]

SWEEPABLE_PARAMETERS = ("flux", "beta", "Omega", "gamma", "omega0", "k", "ell")


@dataclass(frozen=True)
class SweepSpec:
    """One-parameter sweep: inclusive endpoints, ``steps`` values.

    ``method`` selects the level source ("closed-form" or "truncation"
    at n = 1); ``branch`` filters to one branch or keeps both ("all").
    """

    parameter: str
    start: float
    stop: float
    steps: int
    method: str = "closed-form"
    branch: str = "all"

    def __post_init__(self) -> None:
        if self.parameter not in SWEEPABLE_PARAMETERS:
            raise InvalidParameterError(
                f"cannot sweep {self.parameter!r}; choose one of {SWEEPABLE_PARAMETERS}"
            )
        object.__setattr__(self, "steps", _require_int("steps", self.steps))
        if self.steps < 2:
            raise InvalidParameterError(f"steps must be >= 2: got {self.steps}")
        if not all(isinstance(v, numbers.Real) and math.isfinite(v)
                   for v in (self.start, self.stop)):
            raise InvalidParameterError(
                f"sweep endpoints must be finite numbers: got start={self.start!r}, "
                f"stop={self.stop!r}"
            )
        if not math.isfinite(self.stop - self.start):
            raise InvalidParameterError(
                f"the sweep span stop - start overflows: got start={self.start!r}, "
                f"stop={self.stop!r}"
            )
        if self.method not in ("closed-form", "truncation"):
            raise InvalidParameterError(
                f"method must be 'closed-form' or 'truncation': got {self.method!r}"
            )
        if self.branch not in ("plus", "minus", "all"):
            raise InvalidParameterError(
                f"branch must be 'plus', 'minus' or 'all': got {self.branch!r}"
            )


@dataclass(frozen=True, slots=True)
class SweepRow:
    """One (parameter value, branch) cell of a sweep.

    ``energy``/``spectral``/``termination_defect`` are None when no real
    level exists there; ``discriminant`` is recorded on every row, gap
    rows included, so each gap is attributable: the closed-form
    discriminant, or that of the quadratic c_2 whose roots the truncation
    method takes.  A truncation double root is one level, reported on the
    ``minus`` row.  Rows have slots and no ``__dict__``, so ``vars(row)``
    fails; read them with ``getattr`` or ``dataclasses.astuple``.
    """

    param_value: float
    ell: int
    branch: str
    energy: float | None
    spectral: float | None
    discriminant: float | None
    termination_defect: float | None


def _refuse_assignment(row: SweepRow, name: str, value: object) -> None:
    raise dataclasses.FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_deletion(row: SweepRow, name: str) -> None:
    raise dataclasses.FrozenInstanceError(f"cannot delete field {name!r}")


# The frozen methods that dataclass generates compare type(row) with the class
# that slots=True replaced, so a name that is not a field reached super() and
# raised TypeError; a row refuses every name alike.
SweepRow.__setattr__ = _refuse_assignment
SweepRow.__delattr__ = _refuse_deletion

# the CSV columns and JSON keys, in this order
_ROW_FIELDS = tuple(f.name for f in dataclasses.fields(SweepRow))


def sweep_values(spec: SweepSpec) -> list[float]:
    """The inclusive linear grid of swept values, from start to stop.

    Each value is ``start + i * step``, held between the two ends where
    rounding would carry it past one (subnormal steps can), so the values
    are monotone and the ends are their extremes.  An ``ell`` sweep must
    step through integers exactly; anything else is rejected rather than
    silently rounded.
    """
    step = (spec.stop - spec.start) / (spec.steps - 1)
    lo, hi = sorted((spec.start, spec.stop))
    values = np.clip(spec.start + np.arange(spec.steps) * step, lo, hi).tolist()
    values[-1] = spec.stop
    if spec.parameter == "ell":
        for v in values:
            if v != int(v):
                raise InvalidParameterError(
                    f"an ell sweep must hit integers exactly: got {v}"
                )
    return values


def _refusal(p: PhysicalParams, parameter: str, value) -> InvalidParameterError | None:
    """What ``PhysicalParams`` raises with ``parameter`` set to ``value``, or None."""
    try:
        dataclasses.replace(p, **{parameter: value})
    except InvalidParameterError as exc:
        return exc
    return None


def sweep_rows(p: PhysicalParams, spec: SweepSpec) -> list[SweepRow]:
    """All rows of a sweep, in sweep order then branch order.

    Raises what ``PhysicalParams`` or the one-point route raises at the
    first value where either fails.  ``PhysicalParams`` is built at the
    two ends of the axis, and at each value in turn only when one of them
    is refused; the kernel then solves the values before the first
    refused one, raising any earlier failure, and the refusal is raised.
    """
    values = sweep_values(spec)
    ells = [int(v) for v in values] if spec.parameter == "ell" else [p.ell] * len(values)
    axis = ells if spec.parameter == "ell" else values
    # Each invariant holds one field to an interval, and the values are monotone,
    # so the axis is valid iff its two ends are.
    if _refusal(p, spec.parameter, axis[0]) or _refusal(p, spec.parameter, axis[-1]):
        end, refusal = next((i, exc) for i, v in enumerate(axis)
                            if (exc := _refusal(p, spec.parameter, v)))
        n1_levels(p, spec.method, spec.parameter, axis[:end])
        raise refusal
    levels = n1_levels(p, spec.method, spec.parameter, axis)
    columns = [0, 1] if spec.branch == "all" else [int(spec.branch == "plus")]
    width = len(columns)

    def interleaved(per_value: list) -> list:
        # the same object on each of a value's branch rows, for rows_to_csv to format once
        out = [None] * (width * len(per_value))
        for j in range(width):
            out[j::width] = per_value
        return out

    present = levels.present[:, columns]
    cells = {
        "param_value": interleaved(values),
        "ell": interleaved(ells),
        "branch": [("minus", "plus")[col] for col in columns] * len(values),
        "discriminant": interleaved(levels.discriminant.tolist()),
    }
    for name in ("energy", "spectral", "termination_defect"):
        cells[name] = np.where(present, getattr(levels, name)[:, columns], None).ravel().tolist()
    # Fill each column of rows through its slot, bypassing the frozen
    # __init__'s seven object.__setattr__ calls per row.
    rows = list(map(object.__new__, repeat(SweepRow, present.size)))
    for name in _ROW_FIELDS:
        deque(map(getattr(SweepRow, name).__set__, rows, cells[name]), maxlen=0)
    return rows


def _cell(v: float | None) -> str:
    return "" if v is None else "%.17g" % v


def rows_to_csv(rows: list[SweepRow]) -> str:
    """Byte-stable CSV with 17 significant digits and empty missing cells.

    A swept value and its discriminant are formatted once for all their
    branch rows.  Text is reused only for the very same object (``is``,
    never ``==``), so ``-0.0`` after an equal ``0.0`` gets its own text.
    """
    lines = [",".join(_ROW_FIELDS)]
    value = disc = object()  # is no row's cell
    for row in rows:
        if row.param_value is not value:
            value = row.param_value
            value_text = "%.17g" % value
        if row.discriminant is not disc:
            disc = row.discriminant
            disc_text = _cell(disc)
        energy, spectral, defect = row.energy, row.spectral, row.termination_defect
        if energy is None or spectral is None or defect is None:
            lines.append("%s,%s,%s,%s,%s,%s,%s" % (
                value_text, row.ell, row.branch, _cell(energy), _cell(spectral), disc_text,
                _cell(defect)))
        else:
            lines.append("%s,%s,%s,%.17g,%.17g,%s,%.17g" % (
                value_text, row.ell, row.branch, energy, spectral, disc_text, defect))
    return "\n".join(lines) + "\n"


def rows_to_json(rows: list[SweepRow]) -> str:
    records = [{name: getattr(row, name) for name in _ROW_FIELDS} for row in rows]
    return json.dumps(records, indent=2)
