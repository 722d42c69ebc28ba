import importlib
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
