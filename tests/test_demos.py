import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SUBMODULES = [m.name for m in pkgutil.iter_modules([str(ROOT / "src" / "surrtest")])]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    tmpdir = tmp_path / "tmp"
    tmpdir.mkdir()
    env["TMPDIR"] = str(tmpdir)  # a demo's temporary files must be gone when it ends
    done = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    assert list(tmpdir.iterdir()) == []


def _public_names(module):
    return getattr(module, "__all__", None) or [
        name for name, value in vars(module).items()
        if not name.startswith("_") and getattr(value, "__module__", None) == module.__name__]


def test_documented_imports_are_exported():
    # the package root holds only __version__, so every example imports from
    # a submodule, and each name it takes is one that submodule exports
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    sources = [d.read_text(encoding="utf-8") for d in DEMOS]
    sources += re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    imported = [(node.module, alias.name)
                for source in sources for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("surrtest")
                for alias in node.names]
    assert len(imported) > 10
    for module, name in imported:
        assert module.startswith("surrtest."), f"{name} imported from the package root"
        assert name in _public_names(importlib.import_module(module)), (module, name)
    for sub in SUBMODULES:
        module = importlib.import_module(f"surrtest.{sub}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), (module.__name__, name)
