"""Package surface: every exported name resolves, and importing it loads no HTTP client."""

from __future__ import annotations

import importlib
import os
import pkgutil
import subprocess
import sys
import textwrap

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


def test_only_an_http_client_loads_requests():
    """Importing leap loads no HTTP client; building an HttpBackend does. The
    check runs in a child, as this process has loaded requests already."""
    child = textwrap.dedent(
        """
        import sys
        import leap, leap.cli, leap.loops, leap.memory, leap.evaluation, leap.tools, leap.backend
        loaded = sorted(m for m in ("requests", "urllib3") if m in sys.modules)
        assert loaded == [], loaded
        leap.backend.HttpBackend(base_url="http://127.0.0.1:9", model="m")
        assert "requests" in sys.modules
        """
    )
    src = os.path.dirname(os.path.dirname(leap.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
