"""Every formula slip in the mutation table makes ``verify --fast`` fail.

Each row copies the package to a temporary directory, applies one textual
edit there, and runs ``python -m screwspec.cli verify --fast --format
json`` on the copy (through ``runpy``, in a process that first prints
``screwspec.__file__`` to stderr, so the test sees which package ran).
The edit's pattern must occur exactly once in its file, so a formula that
moves fails the row loudly instead of leaving it unmutated.

ι, j and the energy map are each written once, in ``params``, so a slip
there reaches every route alike and no comparison of two routes can see
it; those rows are caught by the checks against independent algebra
(``separation-identity``, ``series-residual``, ``rotation-affinity``).

The ``table-`` rows change the polynomial table that the truncation roots
are found on; ``truncation-self-consistency`` sees them because it tests
each root on the series recurrence, not on that table.

Known blind spot, asserted as a strict xfail: the oracle's own ι at b
without its βk term passes every check, because no check yet compares the
outer or core grids with a route that takes ι from ``params``.  The row
turns into a failure of this file once a check catches it; then drop its
mark.
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

import screwspec

PACKAGE = pathlib.Path(screwspec.__file__).parent

RUN_VERIFY = (
    "import runpy, sys, screwspec\n"
    "print(screwspec.__file__, file=sys.stderr)\n"
    "runpy.run_module('screwspec.cli', run_name='__main__', alter_sys=True)\n"
)

# (file, pattern, replacement)
MUTATIONS = {
    "oracle-iota-without-beta-k": ("oracle.py", "p.flux - b * p.k", "p.flux"),
    "oracle-iota-flux-sign": ("oracle.py", "p.ell - p.flux - b * p.k", "p.ell + p.flux - b * p.k"),
    "flat-exact-flux-sign": ("oracle.py", "(p.ell - p.flux) ** 2", "(p.ell + p.flux) ** 2"),
    "oracle-iota2-sign": ("oracle.py", "+ iota**2 / g", "- iota**2 / g"),
    "oracle-trap-doubled": (
        "oracle.py", "(p.mass * p.omega0 * r) ** 2", "2.0 * (p.mass * p.omega0 * r) ** 2"
    ),
    "series-d2-sign": ("series.py", "d2 = -omega * i", "d2 = +omega * i"),
    "table-d2-sign": ("spectrum.py", "d1 * a[0] + d2 * b[0]", "d1 * a[0] - d2 * b[0]"),
    "table-d1-slope-sign": (
        "spectrum.py", "d1 * a[k] - slope * a[k - 1]", "d1 * a[k] + slope * a[k - 1]"
    ),
    "table-d2-slope-sign": (
        "spectrum.py", "(d2 * b[k] + slope * b[k - 1])", "(d2 * b[k] - slope * b[k - 1])"
    ),
    "table-top-slope-sign": ("spectrum.py", "+ slope * b[i]", "- slope * b[i]"),
    "oracle-normal-form": ("oracle.py", "(r**2 + 2.0 * b**2)", "(r**2 + 3.0 * b**2)"),
    "iota-beta-k-sign": ("params.py", '- f["beta"] * f["k"]', '+ f["beta"] * f["k"]'),
    "j-squared-offset": ("params.py", 'f["gamma"] + 0.25)', 'f["gamma"] + 0.2)'),
    "energy-Omega-sign": ("params.py", '- f["Omega"] * iota', '+ f["Omega"] * iota'),
}


BLIND_SPOT = pytest.mark.xfail(strict=True, reason="no check compares the outer or core grids "
                               "with a route that takes iota from params")


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=BLIND_SPOT) if name == "oracle-iota-without-beta-k" else name
    for name in sorted(MUTATIONS)
])
def test_verify_fails_on_the_mutation(tmp_path, name):
    filename, pattern, replacement = MUTATIONS[name]
    copy = tmp_path / "screwspec"
    shutil.copytree(PACKAGE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    source = copy / filename
    text = source.read_text()
    assert text.count(pattern) == 1, f"{pattern!r} occurs {text.count(pattern)} times"
    source.write_text(text.replace(pattern, replacement))
    env = dict(os.environ, PYTHONPATH=str(tmp_path))
    run = subprocess.run(
        [sys.executable, "-c", RUN_VERIFY, "verify", "--fast", "--format", "json"],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert pathlib.Path(run.stderr.splitlines()[0]).parent == copy
    failed = [c["name"] for c in json.loads(run.stdout)["checks"] if c["status"] == "FAIL"]
    assert failed, f"no check fails with {pattern!r} -> {replacement!r}"
    assert run.returncode == 1
