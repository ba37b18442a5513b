"""Public names: every exported name resolves, and the package re-exports
only what its modules export."""

import importlib
import pkgutil

import pytest

import dctl

MODULES = sorted(f"dctl.{info.name}" for info in pkgutil.iter_modules(dctl.__path__))


@pytest.mark.parametrize("name", ["dctl"] + MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []


def test_package_exports_are_module_exports():
    exported = set()
    for name in MODULES:
        exported.update(importlib.import_module(name).__all__)
    assert sorted(set(dctl.__all__) - exported) == []
