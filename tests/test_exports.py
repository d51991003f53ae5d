"""Every name a module exports exists and is the object the package re-exports."""

import importlib
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


def test_cli_exports_main():
    from rkhslab import cli

    assert cli.__all__ == ["main"]
    assert callable(cli.main)
