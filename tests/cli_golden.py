"""CLI runs whose standard output is pinned in ``data/cli_golden.json``.

The cases cover ``energy`` as JSON and CSV (closed form, truncation at
n = 1 and n = 3), ``wavefunction`` (closed form on both branches,
truncation at n = 3) and ``oracle --mode all --report``, at one point of
each model.  The oracle cases keep standard error as well, where the
report goes.  ``tests/test_cli.py`` compares the output of every case
with the recorded bytes.

The ``energy`` and ``wavefunction`` cases come from commit 3483a2d, the
last one before the level CSV writer moved from the CLI into
``spectrum.levels_to_csv``.  The oracle cases were recorded when the
oracle's eigenvalues became Rayleigh quotients (their eigenvalues moved
by at most 5e-10 relative, their residual norms by at most 0.5%), and
their flat ``residual_norm`` cells again when the flat grid became the
outer and core formulas at beta = 0: the gate's psi weight and damping
are now |r^2 - 0|^(-1/4) and r / r^2 rather than r^(-1/2) and 1 / r,
which round differently, so those norms moved by at most 3.4e-7
relative.  Every other cell, flat eigenvalues included, kept its bytes.
Both oracle cases' standard output was re-recorded when grids of 2048
points or more began to be solved by inverse iteration at a companion
grid's shifts: their eigenvalues moved by at most 4.2e-16 relative and
their residual norms by at most 0.41%, and standard error kept its
bytes.  They were re-recorded once more when every grid came to be
solved by inverse iteration, a companion grid included (its shifts now
come from bisection to tau rather than from ``stein``): 15 of 30
eigenvalue cells moved in their last digits, by at most 4.2e-16
relative, and the ``residual_norm`` column began to be printed to three
significant digits (``.2e``), the digits a norm near its rounding floor
carries.  Standard error and every other case kept their bytes.
Three ``wavefunction`` cases were re-recorded when every printed series
came to be computed by the series recurrence: the closed-form c_1 became
the recurrence seed at the closed-form level (oscillator plus, 45 of 100
cells; inverse-square minus, 2 of 100) and a truncation level's
coefficients the recurrence's values rather than the polynomial table
evaluated at the root (inverse-square truncation-3, 13 of 100).  Each
moved cell changed by at most 4.4e-15 relative.
The 12 ``energy`` cases were re-recorded when each level's
``termination_defect`` and ``c1_over_c0`` came to be read from the series
recurrence at the level rather than from the polynomial table: 20
``termination_defect`` and 10 ``c1_over_c0`` cells moved, by at most
4.1e-15 relative.  The ``wavefunction`` and ``oracle`` cases kept their
bytes.
The file can be rewritten from any checkout with::

    PYTHONPATH=<checkout>/src python tests/cli_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib

from screwspec.cli import main

GOLDEN_PATH = pathlib.Path(__file__).with_name("data") / "cli_golden.json"

POINTS = {
    "oscillator": ["--omega0", "2", "--beta", "0.5", "--k", "0.5", "--ell", "2", "--flux", "0.75"],
    "inverse-square": [
        "--model", "inverse-square", "--mass", "0.9", "--beta", "0.5", "--k", "0.4",
        "--ell", "2", "--gamma", "0.3", "--Omega", "0.2",
    ],
}

METHODS = {
    "closed-form": ["--method", "closed-form"],
    "truncation-1": ["--method", "truncation", "--n", "1"],
    "truncation-3": ["--method", "truncation", "--n", "3"],
}


def cases() -> dict[str, list[str]]:
    out = {}
    for model, point in POINTS.items():
        for method, flags in METHODS.items():
            for fmt in ("json", "csv"):
                out[f"energy:{model}:{method}:{fmt}"] = ["energy", *point, *flags, "--format", fmt]
        samples = ["--samples", "25"]
        for branch in ("minus", "plus"):
            out[f"wavefunction:{model}:closed-form:{branch}"] = [
                "wavefunction", *point, "--branch", branch, *samples,
            ]
        # a terminating series may be sampled past x = 1
        out[f"wavefunction:{model}:truncation-3"] = [
            "wavefunction", *point, *METHODS["truncation-3"], "--xmax", "1.5", *samples,
        ]
        out[f"oracle:{model}:all-report"] = ["oracle", *point, "--mode", "all", "--report"]
    return out


def record(argv: list[str]) -> str | dict[str, str]:
    """What the golden file keeps of one successful CLI run.

    Standard output, or for an oracle case ``{"stdout": ..., "stderr": ...}``.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"exit {code}: {' '.join(argv)}")
    if argv[0] == "oracle":
        return {"stdout": out.getvalue(), "stderr": err.getvalue()}
    return out.getvalue()


if __name__ == "__main__":
    golden = {name: record(argv) for name, argv in cases().items()}
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n")
