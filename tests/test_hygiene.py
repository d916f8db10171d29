"""Source hygiene checks over the package modules."""

import ast
import importlib.util
import re
import sys
from pathlib import Path

import pytest

from test_cli import run_python

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


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _own_imports(scope):
    """Import statements of a module or function, outside its nested scopes."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def unused_imports(source: str) -> list[str]:
    """Names bound by imports, at module level or inside a function, that
    nothing in the importing scope reads."""
    tree = ast.parse(source)
    scopes = [tree] + [n for n in ast.walk(tree)
                       if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    out = []
    for scope in scopes:
        bound = {}
        for node in _own_imports(scope):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif node.module != "__future__":
                for alias in node.names:
                    bound[alias.asname or alias.name] = node.lineno
        used = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
        out += [f"{name} (line {line})" for name, line in bound.items() if name not in used]
    return sorted(out)


def test_scanner_flags_only_unread_names():
    source = ("from __future__ import annotations\nimport os\nimport numpy as np\n"
              "from math import gcd, lcm\nx = np.zeros(gcd(4, 6))\n")
    assert unused_imports(source) == ["lcm (line 4)", "os (line 2)"]


def test_scanner_flags_unread_function_local_imports():
    source = ("def f():\n    import numpy as np\n    from math import gcd\n"
              "    return gcd(4, 6)\n\n"
              "def g():\n    import numpy as np\n\n"
              "    def inner():\n        return np.zeros(3)\n    return inner\n")
    assert unused_imports(source) == ["np (line 2)"]


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


def unreferenced_definitions(sources: dict[str, str], exported) -> list[str]:
    """Top-level functions and classes that no code in ``sources`` reads
    outside their own definition, and that ``exported`` does not list."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    out = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name in exported:
                continue
            own = set(map(id, ast.walk(node)))
            if not any(isinstance(n, (ast.Name, ast.Attribute)) and id(n) not in own
                       and node.name in (getattr(n, "id", None), getattr(n, "attr", None))
                       for t in trees.values() for n in ast.walk(t)):
                out.append(f"{module}:{node.name}")
    return sorted(out)


def test_dead_definition_scanner():
    sources = {"a.py": "def used():\n    return 1\n\ndef dead():\n    return dead()\n\n"
                       "def exported():\n    pass\n\nclass Kept:\n    pass\n",
               "b.py": "from a import used\nx = used() + Kept.__name__.count('')\n"}
    assert unreferenced_definitions(sources, {"exported"}) == ["a.py:dead"]


def test_every_definition_is_reached_or_exported():
    import seqlim

    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert unreferenced_definitions(sources, set(seqlim.__all__)) == []


def test_readme_sketch_and_package_doctest_run():
    # one child interpreter for both, so a removed or renamed library name
    # cannot leave the documented examples stale
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    sketch = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    proc = run_python("-c", sketch + "\nimport doctest\nresult = doctest.testmod(seqlim)\n"
                      "assert result.attempted and not result.failed, result\n")
    assert proc.returncode == 0, proc.stderr
