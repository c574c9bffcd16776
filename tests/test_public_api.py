"""The package's public name lists agree with the modules on disk."""

import importlib
import pkgutil

import pytest

import repro

SUBPACKAGES = sorted(
    info.name for info in pkgutil.iter_modules(repro.__path__) if info.ispkg
)


@pytest.mark.parametrize("name", repro.__all__)
def test_every_top_level_name_imports(name):
    module = importlib.import_module(f"repro.{name}")
    assert getattr(repro, name) is module


def test_every_subpackage_is_listed():
    assert sorted(repro.__all__) == SUBPACKAGES


@pytest.mark.parametrize("package", SUBPACKAGES)
def test_subpackage_all_resolves(package):
    module = importlib.import_module(f"repro.{package}")
    exported = getattr(module, "__all__", ())
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, f"repro.{package}.__all__ names unresolved: {missing}"
