"""Start-up cost: numpy is the only dependency, so no command loads scipy, not
even `validate`'s numerics gates, whose quadrature is a numpy rule; numpy is
loaded only by the commands that draw samples, and multiprocessing only by
their worker pools, so `import qcl`, every --help, the erasure closed forms
of `capacity` and `optimize`, and a config error skip both imports.
`import qcl` loads no qcl module at all: its `__init__` binds `__version__`
and imports nothing."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import qcl

SRC = str(Path(qcl.__file__).parent.parent)

_NO_SCIPY = """
import os
import sys

import qcl
from qcl import validation
from qcl.cli import main

tmp, bsc = sys.argv[1:]
for argv in (["capacity"],
             ["capacity", "--config", bsc, "--n", "20000", "--seed", "1"],
             ["optimize"],
             ["sweep", "--n", "0", "--out", tmp + "/sweep.csv"],
             ["simulate", "--n", "1000", "--seed", "1", "--out", tmp + "/t.csv"]):
    assert main(argv) == 0, argv
# the suite that holds the quadrature; one worker, so its checks run here,
# where sys.modules is read; 4 is the known red of sweep-curve-shape
validation.N_DEFAULT = 10_000
os.cpu_count = lambda: 1
assert main(["validate", "erasure", "--seed", "0"]) in (0, 4)
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded
"""

_NO_NUMPY = """
import json
import sys
from pathlib import Path

from qcl.cli import main


def config(name, doc):
    path = Path(sys.argv[1]) / f"{name}.json"
    path.write_text(json.dumps(doc))
    return str(path)


services = {"exponential": {"kind": "exponential", "rate": 2.0},
            "deterministic": {"kind": "deterministic", "value": 0.8},
            "gamma": {"kind": "gamma", "shape": 2.0, "scale": 0.5},
            "uniform": {"kind": "uniform", "low": 0.2, "high": 1.4}}
runs = [([command, "--help"], 0)
        for command in ("capacity", "optimize", "sweep", "simulate", "validate")]
runs += [(["capacity", "--config", config(kind, {"service": service})], 0)
         for kind, service in services.items()]
runs += [(["capacity", "--config", config("sojourn", {
             "service": services["gamma"], "delay_convention": "sojourn"})], 0),
         (["capacity", "--lambda", "0"], 0),
         (["optimize"], 0),
         (["optimize", "--config", config("opt-gamma", {"service": services["gamma"]})], 0),
         (["capacity", "--config", config("bad", {"kappa": -1.0})], 2)]
for argv, code in runs:
    assert main(argv) == code, argv
    assert not {"numpy", "multiprocessing"} & set(sys.modules), argv
"""

_IMPORT = """
import sys

import qcl

loaded = sorted(m for m in sys.modules
                if m in ("numpy", "multiprocessing") or m.startswith("qcl."))
assert not loaded, loaded
"""

def _python(code, *args):
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})


def test_closed_form_and_simulation_commands_load_no_scipy(tmp_path):
    bsc = tmp_path / "bsc.json"
    bsc.write_text('{"channel": "bsc"}')
    done = _python(_NO_SCIPY, str(tmp_path), str(bsc))
    assert done.returncode == 0, done.stderr
    assert "[PASS] numerics-gates" in done.stdout


def test_closed_form_commands_and_help_load_no_numpy(tmp_path):
    done = _python(_NO_NUMPY, str(tmp_path))
    assert done.returncode == 0, done.stderr


def test_import_qcl_loads_no_numpy_and_no_sampling_module():
    done = _python(_IMPORT)
    assert done.returncode == 0, done.stderr


def test_init_imports_nothing_and_binds_only_the_version():
    # every name is imported from the module that defines it
    tree = ast.parse(Path(qcl.__file__).read_text())
    imports = [node.lineno for node in ast.walk(tree)
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert imports == []
    bound = {target.id for node in tree.body if isinstance(node, ast.Assign)
             for target in node.targets}
    assert bound == {"__version__"}
    assert all(isinstance(node, (ast.Expr, ast.Assign)) for node in tree.body)
