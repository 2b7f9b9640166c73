"""Every module of the package exports only names it defines or imports,
and importing the package loads its heavy dependencies only on first use."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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


def test_heavy_imports_wait_for_first_use():
    """Importing the protocol, the attack and the CLI loads neither
    ``scipy.optimize`` (the attack solvers) nor ``cryptography`` (the mask
    keystream): each is imported on first use."""
    code = (
        "import sys, aggtherm.protocol, aggtherm.adversary.mqs, aggtherm.cli; "
        "print([m for m in sys.modules if m.startswith(('scipy.optimize', 'cryptography'))])"
    )
    src = str(Path(aggtherm.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_fits_load_no_scipy():
    """A plain and a private fit, run after importing the package, the
    protocol and the CLI, load no scipy module: only the attack solvers
    use scipy."""
    code = (
        "import sys, aggtherm, aggtherm.protocol, aggtherm.cli\n"
        "ds, _ = aggtherm.generate_synthetic(K=3, T=60, M=2, T_occ=6, noise_sigma=0.1, seed=1)\n"
        "aggtherm.bcd_fit(aggtherm.build_design(ds, 6), lam=10.0)\n"
        "aggtherm.protocol.run_protocol(ds, aggtherm.protocol.ProtocolConfig(lam=10.0, T_occ=6, seed=1))\n"
        "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])"
    )
    src = str(Path(aggtherm.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
