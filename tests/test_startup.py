"""Start-up cost: scipy is loaded only by the `validate` checks that call it,
so `import qcl` and every other command skip its import."""

import os
import subprocess
import sys
from pathlib import Path

import qcl

SRC = str(Path(qcl.__file__).parent.parent)

_NO_SCIPY = """
import sys

import qcl
from qcl.cli import main

tmp, bsc = sys.argv[1:]
for argv in (["capacity"],
             ["capacity", "--config", bsc, "--n", "20000", "--seed", "1"],
             ["optimize"],
             ["sweep", "--n", "0", "--out", tmp + "/sweep.csv"],
             ["simulate", "--n", "1000", "--seed", "1", "--out", tmp + "/t.csv"]):
    assert main(argv) == 0, argv
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded
"""

_VALIDATE = """
import sys

from qcl import cli, validation

reached = set()
quadrature, quantile = validation.quadrature_laplace, validation._service_quantile


def counting_quadrature(p, u):
    reached.add("quadrature_laplace")
    return quadrature(p, u)


def counting_quantile(service, u):
    reached.add(service.kind)
    return quantile(service, u)


validation.quadrature_laplace = counting_quadrature
validation._service_quantile = counting_quantile
validation.N_DEFAULT = 10_000
validation.SUITES["scipy-callers"] = (validation.check_numerics_gates,
                                      validation.check_bsc_service_dominance)
cli.main(["validate", "scipy-callers", "--seed", "0"])
assert {"quadrature_laplace", "gamma"} <= reached, reached
assert {"scipy.integrate", "scipy.special"} <= set(sys.modules)
"""


_VALIDATE_NO_SCIPY = """
import sys

from qcl import cli, validation

validation.N_DEFAULT = 10_000
for suite in ("bsc", "bijective"):
    assert cli.main(["validate", suite, "--seed", "0"]) in (0, 4), suite
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
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


def test_validate_reaches_both_scipy_callers_on_its_thread_pool():
    # a fresh process, so both pool threads meet scipy's first import
    done = _python(_VALIDATE)
    assert done.returncode == 0, done.stderr
    assert "[PASS] numerics-gates" in done.stdout


def test_validate_suites_without_scipy_callers_load_no_scipy():
    done = _python(_VALIDATE_NO_SCIPY)
    assert done.returncode == 0, done.stderr
    assert "[PASS] bsc-csir-ordering" in done.stdout
