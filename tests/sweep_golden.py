"""Sweep cases whose CSV and JSON bytes are pinned in ``data/sweep_golden.json``.

The cases cover both models and both methods, every sweepable parameter
(an ``ell`` sweep with integer endpoints, so the last ``param_value`` is an
int in JSON), flux sweeps that cross the no-level gap, and both ``branch``
filters.  ``tests/test_sweep.py`` compares every cell of the current output
with the recorded bytes.

The recorded file comes from commit ab429f8, the last one before the n = 1
array kernel, and can be rewritten from any checkout with::

    PYTHONPATH=<checkout>/src python tests/sweep_golden.py

That commit left the discriminant cell of truncation rows with no real
root empty; the test substitutes the c_2 discriminant there and compares
the rest byte for byte.
"""

from __future__ import annotations

import json
import pathlib

from screwspec import Model, PhysicalParams, SweepSpec, rows_to_csv, rows_to_json, sweep_rows

GOLDEN_PATH = pathlib.Path(__file__).with_name("data") / "sweep_golden.json"

OSC = PhysicalParams(
    model=Model.OSCILLATOR, mass=1.1, omega0=2.0, beta=0.5, k=0.5, ell=2,
    flux=0.75, gamma=0.3, delta=0.2, Omega=0.1,
)
# a weak trap: the closed form has no real pair for |iota| < ~0.9
WEAK = PhysicalParams(
    model=Model.OSCILLATOR, mass=1.0, omega0=0.5, beta=0.5, k=0.5, ell=2, flux=0.75,
)
INV = PhysicalParams(
    model=Model.INVERSE_SQUARE, mass=0.9, beta=0.5, k=0.5, ell=3, gamma=0.3,
    flux=0.25, Omega=0.2,
)

# parameter -> (start, stop, steps) for each model; the flux ranges cross iota = 0
RANGES = {
    Model.OSCILLATOR: {
        "flux": (0.0, 2.0, 9),
        "beta": (0.2, 0.8, 4),
        "Omega": (-1.0, 1.0, 4),
        "gamma": (0.0, 1.0, 4),
        "omega0": (0.5, 3.0, 4),
        "k": (0.3, 1.2, 4),
        "ell": (-1, 3, 5),
    },
    Model.INVERSE_SQUARE: {
        "flux": (1.0, 4.0, 9),
        "beta": (0.2, 0.8, 4),
        "Omega": (-1.0, 1.0, 4),
        "gamma": (0.0, 1.0, 4),
        "k": (0.3, 1.2, 4),
        "ell": (-1, 3, 5),
    },
}


def cases() -> dict[str, tuple[PhysicalParams, SweepSpec]]:
    out = {}
    for method in ("closed-form", "truncation"):
        for model, ranges in RANGES.items():
            for parameter, (start, stop, steps) in ranges.items():
                base = INV if model is Model.INVERSE_SQUARE else (
                    WEAK if parameter == "flux" else OSC)
                spec = SweepSpec(parameter, start, stop, steps, method=method)
                out[f"{model.value}:{parameter}:{method}"] = (base, spec)
    out["oscillator:beta:closed-form:minus"] = (
        OSC, SweepSpec("beta", 0.2, 0.8, 4, method="closed-form", branch="minus"))
    out["inverse-square:flux:truncation:plus"] = (
        INV, SweepSpec("flux", 1.0, 4.0, 9, method="truncation", branch="plus"))
    return out


def record() -> dict[str, dict]:
    golden = {}
    for name, (base, spec) in cases().items():
        rows = sweep_rows(base, spec)
        golden[name] = {
            "csv": rows_to_csv(rows).splitlines(),
            "json": json.loads(rows_to_json(rows)),
        }
    return golden


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(record(), indent=1) + "\n")
