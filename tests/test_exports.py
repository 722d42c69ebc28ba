import ast
import importlib
import os
import pathlib
import pkgutil
import subprocess
import sys
import textwrap

import pytest

import screwspec

MODULES = ["screwspec"] + [
    f"screwspec.{info.name}" for info in pkgutil.iter_modules(screwspec.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a stale string in __all__ otherwise fails only `from ... import *`
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_the_oracle_imports_params_alone():
    # the finite-difference route is independent only while it cannot reach
    # the series, the recurrence or the closed forms
    path = pathlib.Path(screwspec.__file__).with_name("oracle.py")
    package = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            package.add(node.module or ".")  # "params" for `from .params import ...`
        elif isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "screwspec":
            package.add(node.module)
        elif isinstance(node, ast.Import):
            package |= {a.name for a in node.names if a.name.split(".")[0] == "screwspec"}
    assert package == {"params"}


def test_the_oracle_calls_no_blas_reduction():
    # A BLAS call wakes OpenBLAS's thread pool, whose spinning threads then
    # compete with the next tridiagonal eigensolve.  With np.linalg.norm in
    # the residual gate replaced by np.sum, the `grids` benchmark's p90
    # latency fell from 158-166 ms to 100-112 ms (2 CPUs, three seeds), the
    # same as the old code under OPENBLAS_NUM_THREADS=1 (101-107 ms).
    blas = {"linalg", "dot", "vdot", "inner", "matmul"}  # np.linalg.*, np.dot, x.dot, ...
    path = pathlib.Path(screwspec.__file__).with_name("oracle.py")
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"line {node.lineno}: @")
        elif isinstance(node, ast.Attribute) and node.attr in blas:
            found.append(f"line {node.lineno}: {ast.unparse(node)}")
    assert found == []


COLD_START = textwrap.dedent(
    """
    import contextlib, io, sys
    import screwspec, screwspec.cli

    def loaded(package):
        return [m for m in sys.modules if m == package or m.startswith(package + ".")]

    def run(argv):
        with contextlib.redirect_stdout(io.StringIO()):
            assert screwspec.cli.main(argv) == 0, argv

    assert loaded("scipy") == [], "import screwspec loaded scipy"
    assert loaded("numpy.random") == [], "import screwspec loaded numpy.random"
    point = ["--omega0", "2", "--beta", "0.5", "--k", "0.5", "--ell", "2", "--flux", "0.75"]
    commands = [
        ["energy", *point],
        ["sweep", *point, "--param", "flux", "--from", "0", "--to", "2", "--steps", "41"],
        ["wavefunction", *point, "--branch", "minus", "--samples", "400"],
    ]
    for argv in commands:
        run(argv)
        assert loaded("scipy") == [], argv[0] + " loaded scipy"
        assert loaded("numpy.random") == [], argv[0] + " loaded numpy.random"
    run(["oracle", "--mode", "flat", *point])
    assert loaded("numpy.random") == [], "oracle loaded numpy.random"
    run(["verify", "--fast"])
    assert loaded("scipy.linalg") == [], "the oracle imported scipy.linalg"
    """
)

# the oracle solves with scipy's dstebz and dstein, and the import of
# scipy.linalg that would give them to it must not change their output
SOLVE_THEN_IMPORT = textwrap.dedent(
    """
    import sys
    import numpy as np
    import screwspec.oracle as oracle

    rng = np.random.default_rng(20261019)
    d, e = rng.normal(size=300), rng.normal(size=299)
    select = dict(select="i", select_range=(0, 4))
    first = oracle.eigh_tridiagonal(d, e, tol=0.0, **select)
    assert "scipy.linalg" not in sys.modules
    from scipy.linalg import eigh_tridiagonal

    for solve in (eigh_tridiagonal, oracle.eigh_tridiagonal):
        again = solve(d, e, tol=0.0, **select)
        assert [a.tobytes() for a in again] == [a.tobytes() for a in first], solve
    """
)


def run_fresh(code):
    path = [str(pathlib.Path(screwspec.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr


def test_only_the_oracle_loads_scipy():
    # scipy.linalg more than doubles the start-up of a command that loads it,
    # and numpy.random is for verify's draws alone
    run_fresh(COLD_START)


def test_scipy_linalg_imported_after_a_solve_agrees():
    run_fresh(SOLVE_THEN_IMPORT)
