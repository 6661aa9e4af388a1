"""The exported names of every marginalrg module."""

import importlib
import pkgutil

import pytest

import marginalrg

MODULES = ["marginalrg"] + [
    f"marginalrg.{info.name}"
    for info in pkgutil.iter_modules(marginalrg.__path__)
    if info.name != "__main__"
]
EXPORTING = [name for name in MODULES if hasattr(importlib.import_module(name), "__all__")]


@pytest.mark.parametrize("name", EXPORTING)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [export for export in module.__all__ if not hasattr(module, export)]
    assert missing == []
