"""Package surface: every exported name resolves."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import leap

MODULES = ["leap", *(f"leap.{m.name}" for m in pkgutil.iter_modules(leap.__path__))]


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    missing = [name for name in exported if not hasattr(module, name)]
    assert missing == []
    assert len(set(exported)) == len(exported)
