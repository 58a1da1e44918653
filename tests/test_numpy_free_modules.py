"""The transport, telemetry and dispatch-policy modules never import NumPy.

The fleet moves opaque pickled payloads, observability reads only array
metadata, and the autotuning policy is dicts, floats and JSON; each of
these modules says so in its docstring.  This test holds them to it
statically, so a stray ``import numpy`` fails tier-1 instead of quietly
pulling the array stack into worker links and dispatch bookkeeping.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"

NUMPY_FREE_MODULES = (
    *sorted(str(p.relative_to(SRC_ROOT)) for p in (SRC_ROOT / "observability").glob("*.py")),
    *sorted(str(p.relative_to(SRC_ROOT)) for p in (SRC_ROOT / "execution" / "fleet").glob("*.py")),
    "tuning/__init__.py",
    "tuning/costmodel.py",
    "tuning/policy.py",
)


def numpy_imports(source: str):
    """Line numbers of every ``import numpy``/``from numpy ...`` in ``source``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        if any(name == "numpy" or name.startswith("numpy.") for name in names):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("relative", NUMPY_FREE_MODULES)
def test_module_does_not_import_numpy(relative):
    path = SRC_ROOT / relative
    assert path.is_file(), relative
    assert numpy_imports(path.read_text()) == [], f"{relative} imports numpy"


def test_detector_sees_numpy_imports():
    assert numpy_imports("import numpy as np\n") == [1]
    assert numpy_imports("import os\nfrom numpy.linalg import norm\n") == [2]
    assert numpy_imports("from math import prod\nimport numpyish\n") == []


def test_module_list_covers_both_packages():
    assert any(m.startswith("observability/") for m in NUMPY_FREE_MODULES)
    assert any(m.startswith("execution/fleet/") for m in NUMPY_FREE_MODULES)
