"""Source hygiene: every module-level import in the package is used, and none
of them is scipy, which only `qcl validate` needs."""

import ast
from pathlib import Path

import pytest

import qcl

SOURCES = sorted(Path(qcl.__file__).parent.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


def _unused_imports(source):
    tree = ast.parse(source)
    imported = {alias.asname or alias.name.split(".")[0]
                for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_scan_flags_an_unused_import():
    assert _unused_imports("import os\nimport sys\nfrom math import pi, e\n"
                           "print(sys.argv, pi)\n") == ["e", "os"]


def _module_level_scipy_imports(source):
    tree = ast.parse(source)
    modules = [alias.name for node in tree.body if isinstance(node, ast.Import)
               for alias in node.names]
    modules += [node.module for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.module]
    return sorted(m for m in modules if m.split(".")[0] == "scipy")


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_level_scipy_import(path):
    assert _module_level_scipy_imports(path.read_text()) == []


def test_scan_flags_a_module_level_scipy_import():
    assert _module_level_scipy_imports(
        "import numpy\nimport scipy.special\nfrom scipy import integrate\n"
        "from .numerics import as_rng\n"
        "def f():\n    import scipy.linalg\n") == ["scipy", "scipy.special"]
