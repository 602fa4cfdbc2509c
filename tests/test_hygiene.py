"""Source hygiene: every module-level import in the package is used."""

import ast
from pathlib import Path

import pytest

import qcl

MODULES = sorted(p for p in Path(qcl.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


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
