"""Public names: every exported name resolves to an object of its module."""

from __future__ import annotations

import importlib
import types

import pytest

import dnstat

MODULES = ("schedules", "density", "rvmodel", "detectors", "korovkin", "config", "cli")


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"dnstat.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_reexports_only_public_module_names():
    public = set()
    for name in MODULES:
        public.update(importlib.import_module(f"dnstat.{name}").__all__)
    exported = [
        n
        for n in dir(dnstat)
        if not n.startswith("_") and not isinstance(getattr(dnstat, n), types.ModuleType)
    ]
    assert exported
    assert [n for n in exported if n not in public] == []
