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
re-recorded when the oracle's eigenvalues became Rayleigh quotients.
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
