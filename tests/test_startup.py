"""Start-up cost: scipy is loaded only by the quadrature line of `validate`'s
numerics gates, so `import qcl`, every other command and every other check
skip its import; numpy is loaded only by the commands that draw samples, so
`import qcl`, every --help, the erasure closed forms of `capacity` and
`optimize`, and a config error skip its import."""

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
    assert "numpy" not in sys.modules, argv
"""

_IMPORT = """
import sys

import qcl

loaded = {"numpy", "qcl.simulate", "qcl.validation"} & set(sys.modules)
assert not loaded, loaded
"""

_LAZY_NAMES = """
import qcl

unresolved = [name for name in qcl.__all__ if not hasattr(qcl, name)]
assert not unresolved, unresolved
from qcl import simulate, validation

assert qcl.Transcript is simulate.Transcript and qcl.SUITES is validation.SUITES
assert not hasattr(qcl, "no_such_name")
star = {}
exec("from qcl import *", star)
assert set(qcl.__all__) <= set(star), set(qcl.__all__) - set(star)
"""

_VALIDATE = """
import sys
import threading

from qcl import cli, validation

reached = set()
loaded_after_quantile = []
witness_done = threading.Event()
quadrature, quantile = validation.quadrature_laplace, validation._service_quantile


def counting_quantile(service, u, v):
    draws = quantile(service, u, v)
    reached.add(service.kind)
    loaded_after_quantile.append(
        sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
    if len(loaded_after_quantile) == 8:  # four laws at each of two witness rates
        witness_done.set()
    return draws


def counting_quadrature(p, u):
    # hold scipy's import back until the witness is done, so scipy found
    # loaded after a quantile can only come from the quantile itself
    witness_done.wait(timeout=300)
    reached.add("quadrature_laplace")
    return quadrature(p, u)


validation.quadrature_laplace = counting_quadrature
validation._service_quantile = counting_quantile
validation.N_DEFAULT = 10_000
validation.SUITES["pool"] = (validation.check_bsc_service_dominance,
                             validation.check_numerics_gates)
assert cli.main(["validate", "pool", "--seed", "0"]) in (0, 4)
assert {"quadrature_laplace", "gamma"} <= reached, reached
assert loaded_after_quantile == 8 * [[]], loaded_after_quantile
assert "scipy.integrate" in sys.modules
"""


_VALIDATE_NO_SCIPY = """
import sys

from qcl import cli, validation

validation.N_DEFAULT = 10_000
for suite in ("bsc", "bijective", "service-optimality"):
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


def test_closed_form_commands_and_help_load_no_numpy(tmp_path):
    done = _python(_NO_NUMPY, str(tmp_path))
    assert done.returncode == 0, done.stderr


def test_import_qcl_loads_no_numpy_and_no_sampling_module():
    done = _python(_IMPORT)
    assert done.returncode == 0, done.stderr


def test_every_public_name_resolves():
    done = _python(_LAZY_NAMES)
    assert done.returncode == 0, done.stderr


def test_validate_reaches_scipy_only_through_the_quadrature():
    # a fresh process, so the pool meets scipy's first import
    done = _python(_VALIDATE)
    assert done.returncode == 0, done.stderr
    assert "[PASS] numerics-gates" in done.stdout
    assert "/2 checks passed" in done.stdout


def test_validate_suites_without_scipy_callers_load_no_scipy():
    done = _python(_VALIDATE_NO_SCIPY)
    assert done.returncode == 0, done.stderr
    assert "[PASS] bsc-csir-ordering" in done.stdout
