"""Every exported name resolves, so a deleted name cannot linger in `__all__`."""

import importlib
import pkgutil

import pytest

import gridcp

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(gridcp.__path__))


def test_package_exports_resolve_once():
    assert len(gridcp.__all__) == len(set(gridcp.__all__))
    missing = [name for name in gridcp.__all__ if not hasattr(gridcp, name)]
    assert missing == []


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_exports_resolve(name):
    module = importlib.import_module(f"gridcp.{name}")
    exported = getattr(module, "__all__", [])
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == []
