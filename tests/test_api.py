"""Every exported name exists: a deletion cannot leave a dangling export."""

import importlib
import pkgutil

import pytest

import cuspmap

MODULES = sorted(m.name for m in pkgutil.iter_modules(cuspmap.__path__) if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    module = importlib.import_module(f"cuspmap.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"cuspmap.{name}.__all__ names missing attributes: {missing}"


def test_package_exports_are_public_names_of_their_modules():
    for n, obj in vars(cuspmap).items():
        if n.startswith("_") or n in MODULES:
            continue
        owner = importlib.import_module(obj.__module__)
        assert n in getattr(owner, "__all__", dir(owner)), n
