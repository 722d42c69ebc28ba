"""Verification reports pinned in ``data/verify_golden.json``.

The cases are ``run_verification`` at seeds 20260814 (the default) and 7,
each in full and fast mode.  For every check the file keeps its name,
status, measured value, tolerance and detail, in suite order; timings
are left out because they change from run to run.
``tests/test_verify.py`` compares a fresh report of every case with the
recorded one.

The file comes from commit 3038f8b, the last one before the checks
became ``@_check`` functions and the series layer took spectral values
as bare floats.  The measured value of ``flat-oracle-validation`` was
re-recorded when the oracle's eigenvalues became Rayleigh quotients, and
the measured value and detail of ``separation-identity`` when it began
drawing spectral values and mapping them forward to energies.  The
``flat-oracle-validation`` entries were re-recorded once more when the
check moved from flux 0 to flux 0.25 and its fast mode took the
gamma = 0.5 channels as well: measured 3.5529e-6 -> 3.7419e-6, ratios
[3.998, 3.999] -> [3.953, 3.998], and four fast channels rather than two.
The four measured values of ``truncation-self-consistency`` were
re-recorded when the check began to test each root on the series
recurrence (|c_{n+1}| / max(|c_0|, ..., |c_n|)) rather than on the
polynomial table that found it: 1.9e-16 -> 7.1e-16 (seed 20260814,
full), 9.9e-17 -> 4.9e-16 (fast), 1.4e-16 -> 1.6e-15 (seed 7, full) and
1.1e-16 -> 5.6e-16 (fast).
It can be rewritten from any checkout with::

    PYTHONPATH=<checkout>/src python tests/verify_golden.py
"""

from __future__ import annotations

import json
import pathlib

from screwspec.verify import run_verification

GOLDEN_PATH = pathlib.Path(__file__).with_name("data") / "verify_golden.json"

SEEDS = (20260814, 7)

FIELDS = ("name", "status", "measured", "tolerance", "detail")


def cases() -> dict[str, tuple[int, bool]]:
    return {
        f"seed-{seed}:{'fast' if fast else 'full'}": (seed, fast)
        for seed in SEEDS
        for fast in (False, True)
    }


def record(seed: int, fast: bool) -> list[dict[str, object]]:
    """What the golden file keeps of one report: every check but its timing."""
    report = run_verification(seed=seed, fast=fast)
    return [{field: getattr(c, field) for field in FIELDS} for c in report.checks]


if __name__ == "__main__":
    golden = {name: record(*case) for name, case in cases().items()}
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n")
