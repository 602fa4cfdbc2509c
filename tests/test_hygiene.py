"""Source hygiene: every module-level import in the package is used, none of
them is scipy, which only `qcl validate` needs, none of the modules the
closed forms run on imports numpy when it loads, no function but fork_map's
worker hook rebinds a module global, and no module but numerics computes a
standard error."""

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
        "from .numerics import spawn_rngs\n"
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


def _global_statements(source):
    """(enclosing function or None, names) of each `global` statement."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Global):
                found.append((owner, tuple(child.names)))
            function = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if function else owner)

    visit(ast.parse(source), None)
    return found


def test_only_the_fork_map_worker_hook_rebinds_a_module_global():
    # the hook runs in forked workers only: this process's modules stay as
    # they were, whoever calls fork_map
    found = [(path.stem, *statement) for path in SOURCES
             for statement in _global_statements(path.read_text())]
    assert found == [("simulate", "_adopt", ("_ADOPTED",))]


def test_scan_flags_a_global_statement():
    assert _global_statements(
        "x = y = 0\ndef f():\n    def g():\n        global x\n    return g\n"
        "class A:\n    def h(self):\n        global x, y\nglobal y\n") == [
            ("g", ("x",)), ("h", ("x", "y")), (None, ("y",))]


def _ddof_lines(source):
    """Line numbers of the calls in source that pass a `ddof` keyword."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and any(keyword.arg == "ddof" for keyword in node.keywords)]


def test_only_numerics_computes_a_standard_error():
    # numerics.batch_error alone decides whether a sampled number carries a
    # standard error; a hand-rolled std(ddof=1) elsewhere would skip its rule
    found = [(path.stem, line) for path in SOURCES if path.stem != "numerics"
             for line in _ddof_lines(path.read_text())]
    assert found == []


def test_scan_flags_a_ddof_keyword():
    assert _ddof_lines(
        "import numpy as np\nx = np.ones(3)\nse = x.std(ddof=1)\n"
        "v = np.var(x, ddof=0)\nm = x.std()\n# x.std(ddof=1) in a comment\n") == [3, 4]
