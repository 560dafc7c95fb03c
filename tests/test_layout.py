"""Package layout rules that keep module boundaries honest."""

from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import sng

PACKAGE_DIR = Path(sng.__file__).parent
README = Path(__file__).resolve().parents[1] / "README.md"


def _private_imports(path: Path) -> list[str]:
    """Underscore-prefixed names that ``path`` imports from another sng module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and (node.module or "").split(".")[0] != "sng":
            continue
        for alias in node.names:
            if alias.name.startswith("_") and not alias.name.startswith("__"):
                found.append(f"{path.name}:{node.lineno} imports {alias.name}")
    return found


def test_no_module_imports_private_names_of_another():
    sources = sorted(PACKAGE_DIR.glob("*.py"))
    assert sources
    offenders = [hit for path in sources for hit in _private_imports(path)]
    assert offenders == []


def _unit_scale_uses(path: Path) -> list[str]:
    """Places where ``path`` imports or names PhysicalParams or UnitScales."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        else:
            names = [getattr(node, "id", None), getattr(node, "attr", None)]
        found += [f"{path.name}:{node.lineno} uses {name}" for name in names
                  if name in ("PhysicalParams", "UnitScales")]
    return found


def test_only_the_cli_applies_si_units():
    # the library reports a_g units; SI factors belong to the CLI's edge
    allowed = {"physical.py", "cli.py", "__init__.py"}
    sources = [p for p in sorted(PACKAGE_DIR.glob("*.py")) if p.name not in allowed]
    assert sources
    offenders = [hit for path in sources for hit in _unit_scale_uses(path)]
    assert offenders == []


def test_readme_library_example_imports_exist():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    imports = [(node.module, alias.name) for block in blocks for node in ast.walk(ast.parse(block))
               if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "sng"
               for alias in node.names]
    assert ("sng", "shoot_gamma0") in imports
    missing = [f"{module}.{name}" for module, name in imports
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []


# Raise only in the change that adds a settable value, saying why in CHANGES.md.
SETTABLE_VALUES_CEILING = 103


def _settable_values(obj) -> int:
    """Values a caller can set on one public name: a function's parameters, a
    dataclass's public fields plus its classmethods' parameters, or 1 for a
    constant."""
    if inspect.isclass(obj):
        fields = dataclasses.fields(obj) if dataclasses.is_dataclass(obj) else ()
        return (sum(not f.name.startswith("_") for f in fields)
                + sum(len(inspect.signature(getattr(obj, name)).parameters)
                      for name, raw in vars(obj).items()
                      if isinstance(raw, classmethod) and not name.startswith("_")))
    if inspect.isroutine(obj):
        return len(inspect.signature(obj).parameters)
    return 1


def test_settable_values_do_not_grow():
    modules = [importlib.import_module(f"sng.{info.name}")
               for info in pkgutil.iter_modules(sng.__path__)]
    count = sum(_settable_values(getattr(module, name))
                for module in modules for name in module.__all__)
    assert count <= SETTABLE_VALUES_CEILING


# Runs in a fresh interpreter, since this one already holds scipy: the
# commands that call no LAPACK, then one that does, so that the probe
# cannot pass by failing to see an import.
_SCIPY_PROBE = """
import contextlib, io, json, sys
import sng, sng.cli
from sng.cli import main

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

packet = ["--gaussian-sigma", "1", "--r-max", "10", "--points", "201", "--steps", "2"]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(["solve", "--n", "0", "--points", "401", "--out-json", "ground.json"]),
             main(["spectrum", "--n-max", "1", "--points", "401"]),
             main(["rescale", "ground.json", "--natural"]),
             main(["evolve", "--free", *packet, "--out-csv", "free.csv"])]
    lean = scipy_modules()
    codes.append(main(["evolve", "--cubic", "--kappa", "1", *packet, "--out-csv", "cubic.csv"]))
print(json.dumps({"codes": codes, "lean": lean, "after_evolve": scipy_modules()}))
"""


def test_only_lapack_callers_import_scipy(tmp_path):
    # solve, spectrum, rescale and a free evolve call no LAPACK, so they
    # leave scipy's import (about 0.3 s) out of the process; an evolve with
    # a potential loads it on its first solve
    done = subprocess.run([sys.executable, "-c", _SCIPY_PROBE], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": str(PACKAGE_DIR.parent)},
                          capture_output=True, text=True, timeout=60, check=True)
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["codes"] == [0, 0, 0, 0, 0]
    assert report["lean"] == []
    assert "scipy.linalg" in report["after_evolve"]
