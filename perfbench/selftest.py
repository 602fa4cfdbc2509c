"""Self-test of the benchmark: contract checks plus a tiny-n smoke run.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json is well formed and names exactly the metrics
run.py reports; runs every workload with --smoke at --trace 0 and 1 and
checks the result line; checks that run.py fails, without a result line, in
a directory holding only BENCHMARK.json and perfbench/; and exercises the
parsers, the sweep and validate checks' gates and the tracer's handling of a
missing entry point. Takes about a minute. Exits 0 when everything holds.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_contract(bench):
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}, sorted(bench)
    assert 1 <= len(bench["paths"]) <= 16
    assert all(re.match(r"^[A-Za-z0-9_./-]{1,200}$", p) and not p.startswith("/")
               and ".." not in p for p in bench["paths"])
    assert isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60
    assert 2 <= len(bench["workloads"]) <= 8
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    names = [w["name"] for w in bench["workloads"]]
    for w in bench["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in bench["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in bench["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in bench["end_to_end"] + bench["per_layer"]:
        names.append(m["name"])
        assert NAME.match(m["name"]) and UNIT.match(m["unit"]), m
        assert m["better"] in ("lower", "higher")
    assert len(names) == len(set(names)), "metric or workload name used twice"
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in bench["end_to_end"])
    assert len(json.dumps(bench)) <= 64 * 1024


def check_smoke(bench):
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in bench[group]}
        for workload in workloads.WORKLOADS:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"],
                cwd=ROOT, capture_output=True, text=True, timeout=180)
            assert proc.returncode == 0, proc.stderr[-2000:]
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0, proc.stderr[-2000:]
            assert result["attempted"] >= 1
            assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
            for name, value in result["metrics"].items():
                assert isinstance(value["value"], (int, float)), (name, value)
            print(f"smoke {workload} trace={trace}: ok", flush=True)


def check_fails_without_sources(bench):
    bare = ROOT / ".perfbench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in bench["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(bench["command"] + ["--workload", "transcript", "--seed",
                                                  "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
        assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass
    print("bare directory: fails without a result, ok")


def check_parsers():
    text = ("[PASS] a-check\n    pass: x\n[FAIL] b-check\n    FAIL: y\n"
            "1/2 checks passed; failed: b-check\n")
    expected = {"a-check": (True, ["pass: x"]), "b-check": (False, ["FAIL: y"])}
    assert workloads.validate_outcome(text) == expected
    doc = {"checks": [{"name": "a-check", "passed": True, "lines": ["pass: x"]},
                      {"name": "b-check", "passed": False, "lines": ["FAIL: y"]}]}
    assert workloads.validate_outcome(json.dumps(doc)) == expected
    sample = ("import time: self [us] | cumulative | imported package\n"
              "import time:       100 |        100 |     numpy.core\n"
              "import time:       200 |        300 |   numpy\n"
              "import time:        50 |         50 |       numpy.linalg\n"
              "import time:       400 |        450 |     scipy\n"
              "import time:        30 |         30 |     qcl.numerics\n"
              "import time:        20 |        800 |   qcl\n")
    assert run.parse_importtime(sample) == {"numpy_s": 300e-6, "scipy_s": 450e-6,
                                            "qcl_self_s": 50e-6}
    print("parsers: ok")


def check_sweep_gates():
    """sweep_check fails a broken cell at any load, and tolerates the known
    under-coverage above SWEEP_GATED_MAX_LAMBDA."""
    lambdas, kappas = [0.5, 0.9], [1.0]
    check = workloads.sweep_check(lambdas, kappas)
    stdout = json.dumps({"out": "sweep.csv", "rows": 2, "kappas": kappas, "n": 10})
    se = 1e-3

    def problems(mc_hi, se_hi):
        lines = ["lambda,kappa,capacity_analytic,capacity_mc,mc_stderr"]
        for lam, mc, err in ((0.5, None, se), (0.9, mc_hi, se_hi)):
            exact = workloads.mm1_erasure(lam, 1.0)
            lines.append(f"{lam!r},1.0,{exact!r},{exact if mc is None else mc!r},{err!r}")
        return check(workloads.Output(stdout, ("\n".join(lines) + "\n").encode()))

    exact = workloads.mm1_erasure(0.9, 1.0)
    assert problems(None, se) == []
    assert problems(exact + 12 * se, se) == []     # under-coverage: counted only
    for mc, err in ((float("nan"), se), (exact, float("nan")), (exact, 0.0),
                    (exact, -se), (1.5 * exact, se), (-0.01, 1.0), (float("inf"), se)):
        assert problems(mc, err), (mc, err)
    print("sweep gates: ok")


def check_validate_gates():
    """validate_check tolerates an unexpected failed check only when each of
    its FAIL lines is a statistical test within the family-wise gate."""
    def outcome(fail_line):
        text = ["[FAIL] known-red", "    FAIL: curve shape", "[PASS] sandwich",
                "    pass: spec 0: k=3 lam=0.5 kappa=0.1 gamma: lower 0.5591 <= "
                "exact 0.5598 <= upper 0.5976 (slacks +0.3, +19.4 sigma)",
                "[FAIL] transform"]
        text += [f"    pass: case {i}: pass: formula 0.9 vs estimate 0.9 +/- 0.001 "
                 f"(0.50 sigma, gate 4)" for i in range(28)]
        text += ["    " + fail_line, "2/3 checks passed"]
        res = workloads.Output("\n".join(text) + "\n")
        return workloads.validate_check(("known-red",), 3)(res), res.info

    gate = workloads.family_gate(30)
    z = "FAIL: case 28: FAIL: formula 0.84 vs estimate 0.838 +/- 0.0004 ({:.2f} sigma, gate 4)"
    assert outcome(z.format(4.25)) == ([], {"validate_statistical_failures": 1})
    assert outcome(z.format(gate - 0.01))[0] == []
    for line in (z.format(gate + 0.01), z.format(9.0), "FAIL: not a statistical test",
                 "FAIL: |diff| = 1e-3 = 5.10 joint sigma",
                 "FAIL: spec 1: k=2 lam=0.5 kappa=0.5 gamma: lower 0.2300 <= exact "
                 "0.2079 <= upper 0.2271 (slacks -1.2, +22.7 sigma)"):
        assert outcome(line)[0], line
    print("validate gates: ok")


def check_missing_entry_point(bench):
    sys.path.insert(0, str(ROOT / "src"))
    missing = tracer.install([("simulate.to_csv", "simulate", "Transcript.no_such_writer",
                               None)], lambda group, fn, counter: fn)
    assert missing == ["simulate.Transcript.no_such_writer"], missing
    metrics, reported = tracer.layer_metrics(
        bench["per_layer"], [{"missing": ["simulate.Transcript.to_csv"], "spans": []}], [],
        {"numpy_s": 0.1, "scipy_s": 0.2, "qcl_self_s": 0.01, "overhead_s": 0.0})
    assert reported == ["simulate.Transcript.to_csv"]
    assert metrics["simulate.to_csv.self_s"]["value"] is None
    assert metrics["simulate.to_csv.mb_per_s"]["value"] is None
    assert metrics["queueing.sample.self_s"]["value"] == 0.0
    print("missing entry point: null metrics, ok")


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_contract(bench)
    print("BENCHMARK.json: ok")
    check_parsers()
    check_sweep_gates()
    check_validate_gates()
    check_missing_entry_point(bench)
    check_fails_without_sources(bench)
    check_smoke(bench)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
