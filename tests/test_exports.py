"""Every name a module exports exists and is the object the package re-exports,
and every public name of the package is exported by exactly one module."""

import importlib
import inspect
import pkgutil

import pytest

import rkhslab

MODULES = sorted(m.name for m in pkgutil.iter_modules(rkhslab.__path__) if m.name != "cli")


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_are_package_attributes(name):
    module = importlib.import_module(f"rkhslab.{name}")
    assert module.__all__
    for attr in module.__all__:
        assert getattr(rkhslab, attr) is getattr(module, attr), f"rkhslab.{name}.{attr}"


def test_package_attributes_are_module_exports():
    owners = {}
    for name in MODULES:
        for attr in importlib.import_module(f"rkhslab.{name}").__all__:
            owners.setdefault(attr, []).append(name)
    public = [
        attr
        for attr, value in vars(rkhslab).items()
        if not attr.startswith("_") and not inspect.ismodule(value)
    ]
    assert public
    for attr in public:
        assert len(owners.get(attr, [])) == 1, f"rkhslab.{attr} exported by {owners.get(attr)}"


def test_cli_exports_main():
    from rkhslab import cli

    assert cli.__all__ == ["main"]
    assert callable(cli.main)
