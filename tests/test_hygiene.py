"""Source hygiene: every module-level import in the package is used, none of
them is scipy, which only `qcl validate` needs, and none of the modules the
closed forms run on imports numpy when it loads."""

import ast
from pathlib import Path

import pytest

import qcl

SOURCES = sorted(Path(qcl.__file__).parent.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]
# `import qcl`, `qcl capacity` (erasure), `qcl optimize` and every --help
NUMPY_FREE = [p for p in SOURCES if p.stem in ("__init__", "cli", "config", "capacity",
                                               "queueing", "channels", "numerics")]


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


def _module_level_imports(source, package):
    """The modules of package that source imports when it loads: every import
    outside a function body, under an `if`, `try` or class body too."""
    modules = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                modules.extend(alias.name for alias in child.names)
            elif isinstance(child, ast.ImportFrom) and child.module and not child.level:
                modules.append(child.module)
            elif not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child)

    visit(ast.parse(source))
    return sorted(m for m in modules if m.split(".")[0] == package)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_level_scipy_import(path):
    assert _module_level_imports(path.read_text(), "scipy") == []


def test_scan_flags_a_module_level_scipy_import():
    assert _module_level_imports(
        "import numpy\nimport scipy.special\nfrom scipy import integrate\n"
        "from .numerics import as_rng\n"
        "def f():\n    import scipy.linalg\n", "scipy") == ["scipy", "scipy.special"]


@pytest.mark.parametrize("path", NUMPY_FREE, ids=lambda p: p.name)
def test_no_module_level_numpy_import(path):
    assert _module_level_imports(path.read_text(), "numpy") == []


def test_scan_flags_a_module_level_numpy_import():
    assert _module_level_imports(
        "import numpy as np\nfrom numpy.random import default_rng\n"
        "from . import numerics\n"
        "try:\n    import numpy.linalg\nexcept ImportError:\n    pass\n"
        "class A:\n    import numpy.fft\n"
        "    def f(self):\n        import numpy.ma\n"
        "def g():\n    import numpy.polynomial\n", "numpy") == [
            "numpy", "numpy.fft", "numpy.linalg", "numpy.random"]
