"""The benchmark in perfbench/ finds qcl's functions by name. Each per-layer
metric of BENCHMARK.json reads null once every entry point of its group is
gone, and the per-check wall times follow `validation.ALL_CHECKS` by name.
These tests fail when a change to qcl would blank a metric, so the rename
shows up here rather than only in a benchmark run."""

import functools
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_PROBE = """
import json
import sys

root = sys.argv[1]
sys.path[:0] = [root + "/src", root + "/perfbench"]
import tracer
from qcl import validation

# identity wrappers: every entry point is looked up, none is rebound
missing = tracer.install(tracer.ENTRY_POINTS + [tracer.MEMORY_ENTRY + (None,)],
                         lambda group, fn, counter: fn)
with open(root + "/BENCHMARK.json") as fh:
    per_layer = json.load(fh)["per_layer"]
extra = {how: 0.0 for group, how in tracer.METRICS.values() if group is None}
metrics, _ = tracer.layer_metrics(per_layer, [{"missing": missing, "spans": []}],
                                  [], extra)
print(json.dumps({
    "null": sorted(name for name, m in metrics.items() if m["value"] is None),
    "checks": [check.__name__ for check in validation.ALL_CHECKS],
    "traced_checks": list(tracer.CHECKS),
}))
"""


@functools.cache
def _probe():
    done = subprocess.run([sys.executable, "-c", _PROBE, str(ROOT)],
                          capture_output=True, text=True, check=True, timeout=300)
    return json.loads(done.stdout)


def test_no_per_layer_metric_reads_null():
    assert _probe()["null"] == []


def test_traced_checks_are_the_checks_validate_runs():
    probe = _probe()
    assert probe["checks"] == probe["traced_checks"]
