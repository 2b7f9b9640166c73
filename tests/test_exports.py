"""Every module of the package exports only names it defines or imports."""

import importlib
import pkgutil

import pytest

import aggtherm

MODULES = ["aggtherm"] + sorted(
    m.name for m in pkgutil.walk_packages(aggtherm.__path__, prefix="aggtherm.")
)


def test_subpackage_modules_are_walked():
    assert {"aggtherm.protocol.te", "aggtherm.adversary.mqs"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert module.__all__, f"{name} has an empty __all__"
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == [], f"{name}.__all__ names undefined attributes {missing}"
