"""Every public export list names something that exists.

A stale ``__all__`` entry breaks ``from repro.<pkg> import *`` and
misleads anyone reading the list, yet nothing else imports the names one
by one.  Checked for ``repro.api`` and every ``repro`` package that
declares ``__all__``.
"""

import importlib
import pkgutil

import pytest

import repro

_PACKAGES = ["repro"] + sorted(
    f"repro.{info.name}" for info in pkgutil.iter_modules(repro.__path__)
    if info.ispkg)
_EXPORTING = [name for name in _PACKAGES + ["repro.api"]
              if hasattr(importlib.import_module(name), "__all__")]


def test_discovery_finds_the_public_packages():
    """Guard against a vacuous pass: the walk must see the packages whose
    lists change most often."""
    for name in ("repro", "repro.api", "repro.common", "repro.memsys",
                 "repro.harness", "repro.check"):
        assert name in _EXPORTING


@pytest.mark.parametrize("module_name", _EXPORTING)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__
               if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names missing: {missing}"
    namespace = {}
    exec(f"from {module_name} import *", namespace)
    assert set(module.__all__) <= set(namespace)


@pytest.mark.parametrize("module_name", _EXPORTING)
def test_export_list_has_no_duplicates(module_name):
    exported = importlib.import_module(module_name).__all__
    duplicates = sorted({name for name in exported
                         if exported.count(name) > 1})
    assert not duplicates, f"{module_name}.__all__ repeats {duplicates}"
