"""Source hygiene: every module-level import in the package is used, no
module imports scipy at any depth and pyproject.toml declares numpy as the
only dependency and the tests' other imports as its test extra, none of the
modules the closed forms run on imports numpy when it loads, no function but
fork_map's worker hook rebinds a module global, no module but numerics
computes a standard error, no module but the config layer decides a channel
kind, and README's Library example runs as written."""

import ast
import re
import sys
from pathlib import Path

import pytest

import qcl
from qcl.channels import Erasure, RandomBijective

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


def _imports(source, package, anywhere=False):
    """The modules of package that source imports when it loads: every import
    outside a function body, under an `if`, `try` or class body too; with
    anywhere, every import inside a function body as well."""
    modules = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                modules.extend(alias.name for alias in child.names)
            elif isinstance(child, ast.ImportFrom) and child.module and not child.level:
                modules.append(child.module)
            elif anywhere or not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child)

    visit(ast.parse(source))
    return sorted(m for m in modules if m.split(".")[0] == package)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_level_scipy_import(path):
    # numpy is the only dependency: no import of scipy, in a function body either
    assert _imports(path.read_text(), "scipy", anywhere=True) == []


def test_scan_flags_a_module_level_scipy_import():
    assert _imports(
        "import numpy\nimport scipy.special\nfrom scipy import integrate\n"
        "from .numerics import spawn_rngs\n"
        "def f():\n    import scipy.linalg\n", "scipy", anywhere=True) == [
            "scipy", "scipy.linalg", "scipy.special"]


def _pyproject():
    tomllib = pytest.importorskip("tomllib")
    with (Path(__file__).resolve().parent.parent / "pyproject.toml").open("rb") as fh:
        return tomllib.load(fh)["project"]


def test_numpy_is_the_only_dependency():
    dependencies = _pyproject()["dependencies"]
    assert [re.match(r"[\w.-]+", d).group() for d in dependencies] == ["numpy"]
    # spawn_rngs and queue_blocks call Generator.spawn, new in numpy 1.25.0
    floor = re.fullmatch(r"numpy>=(\d+)\.(\d+)(?:\.\d+)?", dependencies[0].replace(" ", ""))
    assert floor and tuple(map(int, floor.groups())) >= (1, 25)


def _top_level_imports(source):
    """The top-level names of every absolute import in source, anywhere."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names.add(node.module.split(".")[0])
    return names


def test_the_test_extra_is_what_the_tests_import():
    extra = {re.match(r"[\w.-]+", d).group() for d in
             _pyproject()["optional-dependencies"]["test"]}
    imported = set().union(*(_top_level_imports(p.read_text())
                             for p in Path(__file__).resolve().parent.glob("*.py")))
    assert imported - set(sys.stdlib_module_names) - {"qcl", "numpy"} == extra


def test_scan_finds_imports_at_any_depth():
    assert _top_level_imports(
        "import os.path\nfrom hypothesis import given\nfrom . import helper\n"
        "def f():\n    import pytest as pt\n") == {"os", "hypothesis", "pytest"}


@pytest.mark.parametrize("path", NUMPY_FREE, ids=lambda p: p.name)
def test_no_module_level_numpy_import(path):
    assert _imports(path.read_text(), "numpy") == []


def test_scan_flags_a_module_level_numpy_import():
    assert _imports(
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


_CHANNEL_KINDS = {"erasure", "bsc", "bijective"}
_CHANNEL_CLASSES = {"Erasure", "RandomBijective"}


def _kind_decisions(source):
    """Line numbers of the comparisons in source against a channel-kind
    string, and of the isinstance calls that name a channel class."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            # a == "bsc", and a in ("erasure", ...) too
            values = {n.value for side in (node.left, *node.comparators)
                      for n in ast.walk(side) if isinstance(n, ast.Constant)}
            if values & _CHANNEL_KINDS:
                found.append(node.lineno)
        elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
              and len(node.args) == 2):
            # isinstance(c, Erasure), (Erasure, ...) and channels.Erasure
            named = {getattr(n, "id", None) or getattr(n, "attr", None)
                     for n in ast.walk(node.args[1])}
            if named & _CHANNEL_CLASSES:
                found.append(node.lineno)
    return found


def test_only_the_config_layer_decides_a_channel_kind():
    # each channel answers for itself (size, apply, capacity, score); only
    # config and cli read the config's channel string
    assert not any(hasattr(cls, "kind") for cls in (Erasure, RandomBijective))
    found = [(path.stem, line) for path in SOURCES if path.stem not in ("config", "cli")
             for line in _kind_decisions(path.read_text())]
    assert found == []


def test_scan_flags_a_channel_kind_decision():
    assert _kind_decisions(
        'if spec.channel.kind == "erasure":\n    pass\nok = kind not in ("bsc", "x")\n'
        "a = isinstance(c, (Erasure, RandomBijective))\n"
        "b = isinstance(c, channels.RandomBijective)\nname = 'bijective'\n"
        "c = isinstance(s, Exponential) and kind == 'gamma'\n") == [1, 3, 4, 5]


def test_readme_library_example_runs():
    # the example imports every name from its module; at a small n it runs in
    # well under a second, so a renamed or moved name fails here
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Library", 1)[1].split("```python\n", 1)[1]
    code = block.split("```", 1)[0]
    assert "10**6" in code
    exec(compile(code.replace("10**6", "2000"), "README.md", "exec"), {})
