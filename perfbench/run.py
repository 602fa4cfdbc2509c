"""qcl benchmark: run one workload's CLI commands, check them, report metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--smoke]

Run from the root of a checkout. One closed-loop client runs the workload's
`python -m qcl ...` commands one after another as subprocesses, passing the
seed to each as --seed, and repeats the whole pass until the next one would
end after S seconds (at least one pass). Every invocation's exit code and
output are checked. The last stdout line is the JSON result; details of the
run (per-pass numbers, failures, the machine) go to stderr.

--trace 0 reports the end-to-end metrics (medians over the passes):
wall_s, cpu_s (children's user+system time from wait4), peak_rss_mb (largest
child max-RSS of a pass), setup_s (median wall time of `python -m qcl <cmd>
--help` over at least 15 runs spread over the run). --trace 1 runs the same
untraced passes, then one traced pass (perfbench/tracer.py, one process per
command), one tracemalloc pass for the commands that reach
estimate_bijective_bounds, and `python -X importtime -c "import qcl"`, and
reports the per-layer metrics.
--smoke runs the same commands at tiny n.

Outputs go to .perfbench_out/ in the checkout and are deleted as soon as they
are checked, so page-cache writeback to disk does not enter the timings.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

OUT_BASE = ROOT / ".perfbench_out"
SETUP_RUNS = 15
IMPORTTIME_RUNS = 3
RUN_LIMIT_S = 170   # every child is killed by then, so a run ends within 180 s


def child_env():
    env = dict(os.environ)
    env.pop("QCL_SEED", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def run_child(argv, stdout_path, stderr_path, deadline):
    """Run argv to completion, killing it at `deadline` (time.monotonic());
    returns (exit code, wall s, cpu s, max RSS MB)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err, env=child_env(), cwd=ROOT)
        timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0)


class Runner:
    """Runs and checks the operations of one workload, counting failures."""

    def __init__(self, ops, outdir, deadline):
        self.ops = ops
        self.outdir = outdir
        self.deadline = deadline
        self.digests = {}
        self.attempted = 0
        self.failures = []
        self.info = {}

    def run_op(self, index, prefix):
        op = self.ops[index]
        stdout_path = self.outdir / f"op{index}.stdout"
        code, wall, cpu, rss = run_child(prefix + op.argv, stdout_path,
                                         self.outdir / f"op{index}.stderr",
                                         self.deadline)
        self.attempted += 1
        problems = [] if code == op.expect_exit else [
            f"exit code {code}, expected {op.expect_exit}"]
        out_path = Path(op.out) if op.out else None
        data = out_path.read_bytes() if out_path and out_path.exists() else None
        res = workloads.Output(stdout_path.read_text(errors="replace"), data)
        try:
            problems += op.check(res)
        except Exception:  # a malformed output is a failure, not a crash
            problems.append("check raised: " + traceback.format_exc(limit=1).strip())
        if op.same_bytes and data is not None:
            digest = hashlib.sha256(data).hexdigest()
            if self.digests.setdefault(index, digest) != digest:
                problems.append("output bytes differ from the first pass at this seed")
        if out_path:
            out_path.unlink(missing_ok=True)
        for key, value in res.info.items():
            self.info.setdefault(key, []).append(value)
        if problems:
            self.failures.append({"op": op.label, "problems": problems[:5]})
        return wall, cpu, rss

    def run_pass(self, prefix_for):
        """One pass over all operations, operation i run as prefix_for(i) +
        its argv: (wall s, cpu s, peak RSS MB)."""
        walls, cpus, rsss = zip(*(self.run_op(i, prefix_for(i))
                                  for i in range(len(self.ops))))
        return sum(walls), sum(cpus), max(rsss)


def measure_setup(ops, outdir, times, runs, deadline):
    """Append `runs` wall times of `python -m qcl <cmd> --help` to times,
    cycling over the workload's commands."""
    commands = list(dict.fromkeys(op.argv[0] for op in ops))
    for _ in range(runs):
        cmd = commands[len(times) % len(commands)]
        code, wall, _, _ = run_child([sys.executable, "-m", "qcl", cmd, "--help"],
                                     outdir / "help.stdout", outdir / "help.stderr",
                                     deadline)
        if code != 0:
            raise RuntimeError(f"`qcl {cmd} --help` exited {code}")
        times.append(wall)


def import_breakdown(outdir, runs, deadline):
    """Medians of numpy, scipy and qcl's own import time, from -X importtime."""
    samples = {"numpy_s": [], "scipy_s": [], "qcl_self_s": []}
    for _ in range(runs):
        code, _, _, _ = run_child([sys.executable, "-X", "importtime", "-c", "import qcl"],
                                  outdir / "import.stdout", outdir / "import.stderr",
                                  deadline)
        if code != 0:
            raise RuntimeError(f"`import qcl` exited {code}")
        parsed = parse_importtime((outdir / "import.stderr").read_text())
        for key in samples:
            samples[key].append(parsed[key])
    return {key: statistics.median(values) for key, values in samples.items()}


def parse_importtime(text):
    """Cumulative import time of numpy (frames not inside numpy or scipy) and
    of scipy (frames not inside scipy), and the summed self time of qcl's
    modules, in seconds."""
    nodes = []   # (depth, name, self_us, cumulative_us, children), post-order
    for line in text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        fields = line.split(":", 1)[1].split("|")
        if len(fields) != 3:
            continue
        self_us, cum_us, name_field = fields
        depth = (len(name_field) - len(name_field.lstrip())) // 2
        node = (depth, name_field.strip(), int(self_us), int(cum_us), [])
        while nodes and nodes[-1][0] > depth:
            node[4].insert(0, nodes.pop())
        nodes.append(node)
    totals = {"numpy": 0, "scipy": 0, "qcl": 0}

    def visit(node, ancestors):
        top = node[1].split(".")[0]
        if top == "numpy" and not ancestors & {"numpy", "scipy"}:
            totals[top] += node[3]
        if top == "scipy" and "scipy" not in ancestors:
            totals[top] += node[3]
        if top == "qcl":
            totals["qcl"] += node[2]
        for child in node[4]:
            visit(child, ancestors | {top})

    for node in nodes:
        visit(node, frozenset())
    return {"numpy_s": totals["numpy"] / 1e6, "scipy_s": totals["scipy"] / 1e6,
            "qcl_self_s": totals["qcl"] / 1e6}


def machine_block(seed, outdir):
    def read(path):
        try:
            return Path(path).read_text().strip()
        except OSError:
            return None

    cpuinfo = read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor())
    fs, best = None, ""
    for line in (read("/proc/self/mounts") or "").splitlines():
        parts = line.split()
        if len(parts) > 2 and str(outdir).startswith(parts[1]) and len(parts[1]) > len(best):
            best, fs = parts[1], parts[2]
    from importlib import metadata

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {"nproc": os.cpu_count(), "cpu_model": model,
            "l3_cache": read("/sys/devices/system/cpu/cpu0/cache/index3/size"),
            "python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "output_fs": fs, "seed": seed}


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run the workload's commands at tiny n")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "qcl" / "cli.py").is_file():
        print(f"error: no qcl sources under {ROOT / 'src'}; run from a checkout "
              f"of the repository", file=sys.stderr)
        return 2
    outdir = OUT_BASE / f"{args.workload}-{args.seed}-{os.getpid()}"
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, outdir, time.monotonic() + RUN_LIMIT_S)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
        try:
            OUT_BASE.rmdir()
        except OSError:
            pass


def run(args, outdir, deadline):
    ops = workloads.build(args.workload, args.seed, outdir, smoke=args.smoke)
    runner = Runner(ops, outdir, deadline)
    qcl = [sys.executable, "-m", "qcl"]

    # set-up samples are spread over the run (a few first, two after each
    # pass, the rest at the end), so they see the same machine as the passes
    setup_runs = 2 if args.smoke else SETUP_RUNS
    setup_times = []
    measure_setup(ops, outdir, setup_times, min(3, setup_runs), deadline)
    passes, durations = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(runner.run_pass(lambda i: qcl))
        measure_setup(ops, outdir, setup_times, 0 if args.smoke else 2, deadline)
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(durations) > args.seconds:
            break
    measure_setup(ops, outdir, setup_times, max(0, setup_runs - len(setup_times)),
                  deadline)
    setup_s = statistics.median(setup_times)
    cpu_s = statistics.median(p[1] for p in passes)
    metrics = {
        "wall_s": metric(statistics.median(p[0] for p in passes), "s"),
        "cpu_s": metric(cpu_s, "s"),
        "peak_rss_mb": metric(statistics.median(p[2] for p in passes), "MB"),
        "setup_s": metric(setup_s, "s"),
    }
    details = {"workload": args.workload, "passes": len(passes),
               "setup_samples_s": setup_times,
               "pass_wall_s": [p[0] for p in passes],
               "pass_cpu_s": [p[1] for p in passes],
               "pass_peak_rss_mb": [p[2] for p in passes]}

    if args.trace:
        metrics, details["trace"] = traced(runner, outdir, cpu_s, args.smoke)

    details.update({"attempted": runner.attempted, "failed": len(runner.failures),
                    "error_rate": len(runner.failures) / runner.attempted,
                    "failures": runner.failures[:10], "check_info": runner.info,
                    "machine": machine_block(args.seed, outdir)})
    print(json.dumps(details), file=sys.stderr)
    print(json.dumps({"correct": not runner.failures, "attempted": runner.attempted,
                      "failed": len(runner.failures), "metrics": metrics}))
    return 0


def traced(runner, outdir, untraced_cpu, smoke):
    """The traced pass, the tracemalloc pass and the import breakdown.

    The tracer's overhead is the traced pass's CPU time minus the untraced
    median: CPU time does not count the waits on other processes that make
    the wall-time difference mostly noise. It is still within noise when it
    is smaller than the spread of the untraced passes' CPU time.
    """
    script = [sys.executable, str(HERE / "tracer.py")]
    records_at = [outdir / f"op{i}.spans.json" for i in range(len(runner.ops))]
    traced_wall, traced_cpu, _ = runner.run_pass(
        lambda i: script + ["--spans", str(records_at[i]), "--"])
    records = {i: json.loads(p.read_text()) for i, p in enumerate(records_at)
               if p.exists()}
    memory = []
    for i, record in records.items():
        if any(s[2] == "estimate_bijective_bounds" for s in record["spans"]):
            memory_at = outdir / f"op{i}.memory.json"
            runner.run_op(i, script + ["--memory", "--spans", str(memory_at), "--"])
            if memory_at.exists():
                memory.append(json.loads(memory_at.read_text()))
    extra = import_breakdown(outdir, 1 if smoke else IMPORTTIME_RUNS, runner.deadline)
    extra["overhead_s"] = traced_cpu - untraced_cpu
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    metrics, missing = tracer.layer_metrics(per_layer, list(records.values()),
                                            memory, extra)
    return metrics, {"traced_wall_s": traced_wall, "traced_cpu_s": traced_cpu,
                     "missing_entry_points": missing}


if __name__ == "__main__":
    sys.exit(main())
