"""Source hygiene checks over the package modules."""

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "seqlim"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _traced_functions():
    """The (module, attribute, layer) triples the benchmark's layer tracer wraps."""
    spec = importlib.util.spec_from_file_location("_perfbench_layers",
                                                  ROOT / "perfbench" / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers.TRACED


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports that nothing in the module reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(bound.items())
            if name not in used]


def test_scanner_flags_only_unread_names():
    source = ("from __future__ import annotations\nimport os\nimport numpy as np\n"
              "from math import gcd, lcm\nx = np.zeros(gcd(4, 6))\n")
    assert unused_imports(source) == ["lcm (line 4)", "os (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("module, attr", [t[:2] for t in _traced_functions()],
                         ids=lambda v: v)
def test_traced_function_resolves_after_cli_import(module, attr):
    # the tracer looks each one up after importing the command line
    importlib.import_module("seqlim.cli")
    owner = sys.modules[module]
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
