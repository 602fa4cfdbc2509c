"""Per-layer tracing of one `qcl` CLI invocation, run in its own process.

    python perfbench/tracer.py --spans FILE [--memory] -- <qcl argv...>

Imports qcl from the checkout's `src/`, wraps the public entry points of each
module (at every module attribute, tuple or dict that binds them, so
`from ... import` copies are wrapped too), calls `qcl.cli.main(argv)`, and
writes the recorded spans to FILE as JSON when main returns. The exit code is
main's. An entry point that no longer exists is skipped with a warning on
stderr and listed in FILE, so its metrics read null instead of failing.

With --memory, nothing is timed: only `estimate_bijective_bounds` is wrapped,
with tracemalloc running for the duration of each call, and its peak
allocation is written instead. Keeping that in its own pass keeps
tracemalloc's cost out of the timed spans.

`layer_metrics` turns the span files of a workload's traced pass into the
per-layer metrics; run.py calls it.
"""

import itertools
import json
import os
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# The checks of `validation.ALL_CHECKS`, each reported as its own wall time.
CHECKS = (
    "check_mm1_erasure_formula",
    "check_wait_transform",
    "check_optimal_rate_agreement",
    "check_erasure_service_dominance",
    "check_bsc_service_dominance",
    "check_csir_ordering",
    "check_bijective_bounds",
    "check_sweep_curve_shape",
    "check_noiseless_and_instability",
    "check_numerics_gates",
    "check_optimizer_route_discrepancy",
)


def _size(x):
    return int(getattr(x, "size", 1))


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _draws(args, kwargs, result):
    return {"draws": _size(result)}


def _to_csv_bytes(args, kwargs, result):
    target = _arg(args, kwargs, 1, "path_or_file")
    if isinstance(target, (str, os.PathLike)):
        return {"bytes": os.path.getsize(target)}
    return {"bytes": target.tell()} if hasattr(target, "tell") else {}


def _sweep_counts(args, kwargs, result):
    jobs = kwargs.get("jobs") or 1
    beyond = sum(1 for row in result if row.get("mc_stderr")
                 and abs(row["capacity_mc"] - row["capacity_analytic"])
                 > 4.0 * row["mc_stderr"])
    mc = any(row.get("capacity_mc") is not None for row in result)
    return {"jobs": jobs if mc else 0, "cells_beyond_4sigma": beyond}


def _burn_in(args, kwargs, result):
    return {"burn_in": int(result.burn_in), "kept": len(result)}


# (group, module, attribute path, counter). A path "Class.method" wraps the
# method on the class; "<ServiceDistribution>.sample" wraps `sample` on every
# subclass of queueing.ServiceDistribution that defines one.
ENTRY_POINTS = [
    ("queueing.sample", "queueing", "PoissonArrivals.sample_interarrival", _draws),
    ("queueing.sample", "queueing", "<ServiceDistribution>.sample", _draws),
    ("queueing.lindley_waits", "queueing", "lindley_waits",
     lambda a, k, r: {"elements": _size(_arg(a, k, 0, "services"))}),
    ("queueing.stationary_wait_samples", "queueing", "stationary_wait_samples",
     _burn_in),
    ("channels.apply_channel", "channels", "apply_channel",
     lambda a, k, r: {"symbols": _size(_arg(a, k, 1, "x"))}),
    ("channels.noise_dist", "channels", "RandomBijective.noise_dist",
     lambda a, k, r: {"cells": _size(r)}),
    ("channels.entropy", "channels", "binary_entropy",
     lambda a, k, r: {"cells": _size(_arg(a, k, 0, "q"))}),
    ("channels.entropy", "channels", "discrete_entropy",
     lambda a, k, r: {"cells": _size(_arg(a, k, 0, "dist"))}),
    ("simulate.simulate_transmission", "simulate", "simulate_transmission", None),
    ("simulate.to_csv", "simulate", "Transcript.to_csv", _to_csv_bytes),
    ("simulate.estimators", "simulate", "estimate_erasure_capacity", None),
    ("simulate.estimators", "simulate", "estimate_bsc_capacity", None),
    ("simulate.estimators", "simulate", "estimate_expectation_over_pi", None),
    ("simulate.estimators", "simulate", "estimate_bijective_bounds", None),
    ("simulate.sweep_rows", "simulate", "sweep_rows", _sweep_counts),
    ("numerics.batch_means", "numerics", "batch_means",
     lambda a, k, r: {"elements": _size(_arg(a, k, 0, "x"))}),
    ("numerics.golden_section_extremize", "numerics", "golden_section_extremize",
     lambda a, k, r: {"iterations": int(r.iterations)}),
    ("numerics.quadrature_laplace", "numerics", "quadrature_laplace", None),
    *[("capacity.closed_form", "capacity", name, lambda a, k, r: {"calls": 1})
      for name in ("pk_wait_transform", "mm1_capacity_closed_form",
                   "erasure_capacity", "mean_survival", "alpha_mg1",
                   "laplace_service", "optimal_lambda_mg1",
                   "optimal_lambda_mm1_laplace", "mm1_capacity_exponential_premise",
                   "bsc_capacity", "bijective_capacity")],
    ("validation.service_quantile", "validation", "_service_quantile",
     lambda a, k, r: {"draws": _size(_arg(a, k, 1, "u"))}),
    *[(f"validation.{name}", "validation", name, None) for name in CHECKS],
    ("config.load_config", "config", "load_config", None),
    *[("cli", "cli", f"cmd_{name}", None)
      for name in ("capacity", "optimize", "sweep", "simulate", "validate")],
]
MEMORY_ENTRY = ("simulate.estimate_bijective_bounds", "simulate",
                "estimate_bijective_bounds")


class Recorder:
    """Spans kept in memory: (id, group, name, thread, start, end, parent,
    counts).

    The parent is the innermost open span on the same thread. A span opened
    on a pool thread with nothing open on it gets, as parent, the innermost
    span open on the thread that started the trace: the call that created
    the pool and waits for it.
    """

    def __init__(self):
        self.spans = []
        self.stacks = {}
        self.main = threading.get_ident()
        self.ids = itertools.count()

    def wrap(self, group, fn, counter):
        rec = self
        name = getattr(fn, "__name__", "?")

        def traced(*args, **kwargs):
            tid = threading.get_ident()
            stack = rec.stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1]
            else:
                main_stack = rec.stacks.get(rec.main) if tid != rec.main else None
                parent = main_stack[-1] if main_stack else None
            outermost = all(s[1] != group for s in stack)
            span = (next(rec.ids), group)
            stack.append(span)
            ok = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = time.perf_counter()
                stack.pop()
                counts = (counter(args, kwargs, result)
                          if ok and counter and outermost else {})
                rec.spans.append((span[0], group, name, tid, start, end,
                                  parent[0] if parent else None, counts))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = name
        return traced


def _rebind(modules, original, wrapper):
    """Replace `original` by `wrapper` wherever a qcl module binds it."""
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)
            elif isinstance(value, tuple) and any(v is original for v in value):
                setattr(mod, key, tuple(wrapper if v is original else v for v in value))
            elif isinstance(value, dict):
                for dk, dv in list(value.items()):
                    if dv is original:
                        value[dk] = wrapper
                    elif isinstance(dv, tuple) and any(v is original for v in dv):
                        value[dk] = tuple(wrapper if v is original else v for v in dv)


def install(entries, make_wrapper):
    """Wrap each entry point; returns the entries that could not be found."""
    import importlib
    loaded = {}
    for name in ("numerics", "queueing", "channels", "capacity", "config",
                 "simulate", "validation", "cli"):
        try:
            loaded[name] = importlib.import_module(f"qcl.{name}")
        except ModuleNotFoundError:
            pass
    modules = list(loaded.values()) + [importlib.import_module("qcl")]
    missing = []
    for group, mod_name, path, counter in entries:
        mod = loaded.get(mod_name)
        owner_name, _, attr = path.rpartition(".")
        if mod is None:
            owners = []
        elif owner_name.startswith("<"):
            base = getattr(mod, owner_name[1:-1], None)
            owners = [c for c in vars(mod).values() if isinstance(c, type)
                      and base is not None and issubclass(c, base) and attr in vars(c)]
        elif owner_name:
            owner = getattr(mod, owner_name, None)
            owners = [owner] if owner is not None and attr in vars(owner) else []
        else:
            owners = [mod] if callable(getattr(mod, attr, None)) else []
        if not owners:
            missing.append(f"{mod_name}.{path}")
            print(f"warning: entry point qcl.{mod_name}.{path} not found; "
                  f"its metrics read null", file=sys.stderr)
            continue
        for owner in owners:
            original = vars(owner)[attr] if owner_name else getattr(mod, attr)
            wrapper = make_wrapper(group, original, counter)
            if owner_name:
                setattr(owner, attr, wrapper)
            else:
                _rebind(modules, original, wrapper)
    return missing


def _memory_wrapper(peaks):
    import tracemalloc

    def make(group, fn, counter):
        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
        return measured
    return make


def main(argv):
    if "--" not in argv:
        print("usage: tracer.py --spans FILE [--memory] -- <qcl argv...>",
              file=sys.stderr)
        return 2
    split = argv.index("--")
    opts, qcl_argv = argv[:split], argv[split + 1:]
    spans_path = opts[opts.index("--spans") + 1]
    sys.path.insert(0, str(ROOT / "src"))
    from qcl import cli
    if "--memory" in opts:
        peaks = []
        missing = install([MEMORY_ENTRY + (None,)], _memory_wrapper(peaks))
        record = {"missing": missing, "peak_alloc_bytes": peaks}
    else:
        rec = Recorder()
        missing = install(ENTRY_POINTS, rec.wrap)
        record = {"missing": missing, "spans": rec.spans}
    try:
        code = cli.main(qcl_argv)
    except SystemExit as done:
        code = done.code
    sys.stdout.flush()
    with open(spans_path, "w") as fh:
        json.dump(record, fh)
    return code if isinstance(code, int) else 1


# --- from spans to per-layer metrics ------------------------------------------

def _union(intervals):
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _process_totals(spans):
    """Per-group self time and counts, plus per-process derived numbers."""
    spans = [dict(zip(("id", "group", "name", "tid", "start", "end", "parent",
                       "counts"), s)) for s in spans]
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    groups = {}
    check_time = {}   # per thread: validate's critical path is the busiest one
    for s in spans:
        start, end = s["start"], s["end"]
        kids = [(max(c["start"], start), min(c["end"], end))
                for c in children.get(s["id"], ())]
        self_time = (end - start) - _union([k for k in kids if k[1] > k[0]])
        g = groups.setdefault(s["group"], {"self_s": 0.0, "wall_s": 0.0})
        g["self_s"] += self_time
        g["wall_s"] += end - start
        for key, value in s["counts"].items():
            g[key] = g.get(key, 0) + value
        if s["name"] in CHECKS:
            check_time[s["tid"]] = check_time.get(s["tid"], 0.0) + (end - start)
    # sweep parallel efficiency: busy time of the top spans the workers ran
    # inside each sweep_rows span, over (its wall time x workers)
    busy = capacity = 0.0
    for s in spans:
        jobs = s["counts"].get("jobs") if s["group"] == "simulate.sweep_rows" else 0
        if jobs:
            per_thread = {}
            for c in children.get(s["id"], ()):
                if jobs == 1 or c["tid"] != s["tid"]:
                    per_thread.setdefault(c["tid"], []).append((c["start"], c["end"]))
            busy += sum(_union(v) for v in per_thread.values())
            capacity += (s["end"] - s["start"]) * jobs
    return groups, busy, capacity, max(check_time.values(), default=0.0)


# How each per-layer metric of BENCHMARK.json is computed: (group, how).
# group None is a number measured outside the trace (run.py's `extra`);
# "validation.*" stands for all the checks. how is a counter name, self_s,
# wall_s, or one of the derived numbers in layer_metrics.
METRICS = {
    "queueing.sample.self_s": ("queueing.sample", "self_s"),
    "queueing.sample.draws": ("queueing.sample", "draws"),
    "queueing.lindley_waits.self_s": ("queueing.lindley_waits", "self_s"),
    "queueing.lindley_waits.elements": ("queueing.lindley_waits", "elements"),
    "queueing.stationary_wait_samples.self_s": ("queueing.stationary_wait_samples",
                                                "self_s"),
    "queueing.burn_in_fraction": ("queueing.stationary_wait_samples",
                                  "burn_in_fraction"),
    "channels.apply_channel.self_s": ("channels.apply_channel", "self_s"),
    "channels.apply_channel.symbols": ("channels.apply_channel", "symbols"),
    "channels.noise_dist.self_s": ("channels.noise_dist", "self_s"),
    "channels.noise_dist.cells": ("channels.noise_dist", "cells"),
    "channels.entropy.self_s": ("channels.entropy", "self_s"),
    "channels.entropy.cells": ("channels.entropy", "cells"),
    "simulate.simulate_transmission.self_s": ("simulate.simulate_transmission",
                                              "self_s"),
    "simulate.to_csv.self_s": ("simulate.to_csv", "self_s"),
    "simulate.to_csv.bytes": ("simulate.to_csv", "bytes"),
    "simulate.to_csv.mb_per_s": ("simulate.to_csv", "mb_per_s"),
    "simulate.estimators.self_s": ("simulate.estimators", "self_s"),
    "simulate.estimate_bijective_bounds.peak_alloc_mb": (
        "simulate.estimate_bijective_bounds", "peak_alloc_mb"),
    "simulate.sweep_rows.parallel_efficiency": ("simulate.sweep_rows",
                                                "parallel_efficiency"),
    "simulate.sweep_rows.cells_beyond_4sigma": ("simulate.sweep_rows",
                                                "cells_beyond_4sigma"),
    "numerics.batch_means.self_s": ("numerics.batch_means", "self_s"),
    "numerics.batch_means.elements": ("numerics.batch_means", "elements"),
    "numerics.golden_section_extremize.self_s": ("numerics.golden_section_extremize",
                                                 "self_s"),
    "numerics.golden_section_extremize.iterations": (
        "numerics.golden_section_extremize", "iterations"),
    "numerics.quadrature_laplace.self_s": ("numerics.quadrature_laplace", "self_s"),
    "capacity.closed_form.self_s": ("capacity.closed_form", "self_s"),
    "capacity.closed_form.calls": ("capacity.closed_form", "calls"),
    "validation.service_quantile.self_s": ("validation.service_quantile", "self_s"),
    "validation.service_quantile.draws": ("validation.service_quantile", "draws"),
    **{f"validation.{name}.wall_s": (f"validation.{name}", "wall_s")
       for name in CHECKS},
    "validation.critical_path_s": ("validation.*", "critical_path_s"),
    "config.load_config.self_s": ("config.load_config", "self_s"),
    "cli.self_s": ("cli", "self_s"),
    "setup.import.numpy_s": (None, "numpy_s"),
    "setup.import.scipy_s": (None, "scipy_s"),
    "setup.import.qcl_self_s": (None, "qcl_self_s"),
    "trace.overhead_s": (None, "overhead_s"),
}


def _group_entries():
    groups = {}
    for group, mod, path, _ in ENTRY_POINTS:
        groups.setdefault(group, []).append(f"{mod}.{path}")
    groups[MEMORY_ENTRY[0]] = [f"{MEMORY_ENTRY[1]}.{MEMORY_ENTRY[2]}"]
    groups["validation.*"] = [f"validation.{name}" for name in CHECKS]
    return groups


def layer_metrics(per_layer, records, memory_records, extra):
    """Per-layer metrics of one traced pass.

    per_layer: the `per_layer` list of BENCHMARK.json, which names each
    metric and its unit; records: the span files of the pass, one per
    invocation; memory_records:
    the --memory files; extra: the numbers measured outside the trace
    (numpy_s, scipy_s, qcl_self_s, overhead_s). A metric whose entry points
    are all missing is None; a name METRICS does not know raises KeyError.
    """
    groups, busy, capacity, critical = {}, 0.0, 0.0, 0.0
    missing = set()
    for record in records:
        missing.update(record["missing"])
        g, b, c, crit = _process_totals(record["spans"])
        for group, values in g.items():
            acc = groups.setdefault(group, {})
            for key, value in values.items():
                acc[key] = acc.get(key, 0) + value
        busy, capacity, critical = busy + b, capacity + c, critical + crit
    peaks = [p for r in memory_records for p in r["peak_alloc_bytes"]]
    for r in memory_records:
        missing.update(r["missing"])
    entries = _group_entries()
    out = {}
    for entry in per_layer:
        name, unit = entry["name"], entry["unit"]
        group, how = METRICS[name]
        if group is not None and all(e in missing for e in entries[group]):
            value = None
        elif group is None:
            value = extra.get(how)
        elif how == "critical_path_s":
            value = critical
        elif how == "parallel_efficiency":
            value = busy / capacity if capacity > 0 else 0.0
        elif how == "peak_alloc_mb":
            value = max(peaks, default=0) / 2 ** 20
        elif how == "burn_in_fraction":
            g = groups.get(group, {})
            total = g.get("burn_in", 0) + g.get("kept", 0)
            value = g.get("burn_in", 0) / total if total else 0.0
        elif how == "mb_per_s":
            g = groups.get(group, {})
            value = g["bytes"] / 1e6 / g["self_s"] if g.get("self_s") else 0.0
        else:
            value = groups.get(group, {}).get(how, 0)
        out[name] = {"value": value, "unit": unit}
    return out, sorted(missing)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
