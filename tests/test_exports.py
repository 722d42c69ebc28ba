import ast
import importlib
import pathlib
import pkgutil

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
