"""Run the benchmark several times per workload and summarize the spread.

    python3 perfbench/repeat.py --seeds 1-10 [--workloads transcript,sweep]
                                [--trace 0|1] [--json FILE]

Each run is `perfbench/run.py --workload W --seed N --seconds S`, one seed
per run, with S the run_seconds of BENCHMARK.json. For every metric it
prints the median of the runs, the quartiles (statistics.quantiles with n=4)
and the interquartile spread as a share of the median, and the largest
run-to-run change (max / min - 1), each against the metric's bound from
BENCHMARK.json; a spread above a third of the bound is marked. --json writes
every run (its result line and its stderr details) and the summary; the
committed perfbench/baseline.json and perfbench/baseline_trace.json are such
files.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace):
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=900)
    duration = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    details = json.loads(proc.stderr.strip().splitlines()[-1])
    return {"seed": seed, "duration_s": duration, "result": result, "details": details}


def summarize(runs, bounds):
    summary = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        entry = {"values": values, "bound": bounds.get(name)}
        summary[name] = entry
        if any(v is None for v in values):
            continue
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        entry.update(median=median, q1=q1, q3=q3, min=min(values), max=max(values),
                     spread=(q3 - q1) / median if median else 0.0,
                     max_change=max(values) / min(values) - 1 if min(values) > 0 else None)
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=None,
                        help="comma-separated (default: all in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", metavar="FILE")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in bench["workloads"]])
    seeds = parse_seeds(args.seeds)
    report = {"command": "python3 perfbench/repeat.py " + " ".join(
                  sys.argv[1:] if argv is None else argv),
              "run_seconds": bench["run_seconds"], "trace": args.trace,
              "seeds": seeds, "machine": None, "workloads": {}}
    for workload in names:
        runs = []
        for seed in seeds:
            run = run_once(workload, seed, bench["run_seconds"], args.trace)
            runs.append(run)
            report["machine"] = report["machine"] or {
                k: v for k, v in run["details"]["machine"].items() if k != "seed"}
            res = run["result"]
            print(f"{workload} seed {seed}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']} "
                  f"({run['duration_s']:.1f} s)", flush=True)
        summary = summarize(runs, bounds)
        report["workloads"][workload] = {"summary": summary, "runs": runs}
        for name, s in summary.items():
            if "median" not in s:
                print(f"  {name}: {s['values']}")
                continue
            flag = ""
            if s["bound"] is not None and s["spread"] > s["bound"] / 3:
                flag = "  <-- above a third of the bound"
            change = "n/a" if s["max_change"] is None else f"{s['max_change']:.4f}"
            print(f"  {name:48s} median {s['median']:.6g}  IQR/median "
                  f"{s['spread']:.4f}  max/min-1 {change}  bound {s['bound']}{flag}",
                  flush=True)
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
