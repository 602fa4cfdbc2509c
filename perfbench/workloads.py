"""The benchmark's workloads: the `python -m qcl` commands each one runs, and
the checks every command's output must pass.

A workload is a list of operations. One operation is one CLI invocation with
its expected exit code and a check over its stdout and output file. Checks
return a list of problems; an empty list means the output is correct. They
compare against closed forms computed here with the standard library, never
against golden bytes, so a change to the random draws does not fail them.
"""

import json
import math
import re
import statistics
from dataclasses import dataclass, field

WORKLOADS = ("transcript", "sweep", "capacity", "validate")

SIGMA_GATE = 4.0
# Sweep cells are gated where the batch-means standard error is known to hold
# its coverage (rho <= 0.8); the gate is family-wise over the gated cells so
# that a correct program fails a pass no more often than one 4-sigma test.
SWEEP_GATED_MAX_LAMBDA = 0.8
# Above that load the reported standard error is too small (ROADMAP section 2):
# over 46 seeds the 57 cells above it reached at most 12.7 sigma (lam=0.99,
# kappa=0.01). They are held to a gate far beyond that, which still fails a
# value that is non-finite, out of range or grossly wrong.
HIGH_LOAD_SIGMA_GATE = 30.0
N_LARGE = 10 ** 6
LAM, KAPPA = 0.5, 1.0


@dataclass
class Op:
    """One CLI invocation: argv after `python -m qcl`, what it should return,
    and the check over its output."""

    argv: list
    expect_exit: int
    check: object
    out: str = None            # output file the command writes, if any
    same_bytes: bool = False   # output must be byte-identical across passes
    label: str = ""


@dataclass
class Output:
    """What one invocation left behind, as its check sees it."""

    stdout: str
    data: bytes = None         # contents of the op's output file
    info: dict = field(default_factory=dict)   # counts the check reports back

    @property
    def doc(self):
        return parse_json(self.stdout)


# --- closed forms (unit-rate exponential service unless stated) -------------

def pk_wait_transform(lam, laplace_s, mean_s, kappa):
    """E[exp(-kappa*Wq)] for M/G/1 by the Pollaczek-Khinchine transform."""
    rho = lam * mean_s
    return (1.0 - rho) * kappa / (kappa - lam * (1.0 - laplace_s(kappa)))


def exp_laplace(s):
    return 1.0 / (1.0 + s)


def gamma_laplace(shape, scale):
    return lambda s: (1.0 + scale * s) ** (-shape)


def mm1_erasure(lam, kappa):
    """Binary-alphabet erasure capacity of M/M/1: lam * E[exp(-kappa*W)]."""
    return lam * pk_wait_transform(lam, exp_laplace, 1.0, kappa)


def h2(q):
    if q <= 0.0 or q >= 1.0:
        return 0.0
    return -q * math.log2(q) - (1.0 - q) * math.log2(1.0 - q)


def close(a, b, rel=1e-9):
    return math.isclose(a, b, rel_tol=rel, abs_tol=rel)


# --- output helpers -----------------------------------------------------------

def parse_json(text):
    try:
        doc = json.loads(text)
    except ValueError:
        return None
    return doc if isinstance(doc, dict) else None


def missing_keys(doc, keys):
    return [f"missing key {k!r}" for k in keys if k not in doc]


def within_sigma(label, value, formula, se, gate=SIGMA_GATE):
    if se > 0.0:
        z = abs(value - formula) / se
        if z <= gate:
            return []
        return [f"{label}: {value!r} is {z:.2f} sigma from {formula!r} "
                f"(gate {gate:.2f})"]
    return [] if value == formula else [f"{label}: {value!r} != {formula!r} "
                                        f"with zero standard error"]


def validate_outcome(stdout):
    """{check name: (passed, lines)} from `qcl validate` output, or None.

    If stdout is one JSON object, reads the first list of {"name", "passed"}
    records in it, a record's lines being every string inside it; else reads
    the text summary's `[PASS] name` / `[FAIL] name` headers and the indented
    lines under each.
    """
    doc = parse_json(stdout)
    if doc is not None:
        records = _find_check_records(doc)
        if records is None:
            return None
        return {r["name"]: (r["passed"], [s for key, value in r.items()
                                          if key != "name" for s in _strings(value)])
                for r in records}
    checks, lines = {}, None
    for line in stdout.splitlines():
        m = re.match(r"\[(PASS|FAIL)\] (\S+)\s*$", line)
        if m:
            lines = []
            checks[m.group(2)] = (m.group(1) == "PASS", lines)
        elif lines is not None and line.startswith(" "):
            lines.append(line.strip())
    return checks or None


def _strings(node):
    if isinstance(node, str):
        return [node]
    children = node.values() if isinstance(node, dict) else (
        node if isinstance(node, list) else ())
    return [s for child in children for s in _strings(child)]


def _find_check_records(node):
    if isinstance(node, list) and node and all(
            isinstance(r, dict) and "name" in r and isinstance(r.get("passed"), bool)
            for r in node):
        return node
    children = node.values() if isinstance(node, dict) else (
        node if isinstance(node, list) else ())
    for child in children:
        found = _find_check_records(child)
        if found is not None:
            return found
    return None


def sigma_distance(line):
    """How far a statistical line of `qcl validate` lies beyond its null
    hypothesis, in sigma, or None if the line is not a statistical test.

    The tests are formula vs simulation (`(z sigma, gate 4)`), two estimators
    of one value (`= z joint sigma`) and the bound sandwich, whose negative
    slacks are the distance (`lower a <= exact b <= upper c (slacks lo, hi
    sigma)`; a line with lower > upper is not statistical, it is wrong).
    """
    m = (re.search(r"\(([\d.]+) sigma, gate [\d.]+\)", line)
         or re.search(r"= ([\d.]+) joint sigma", line))
    if m:
        return float(m.group(1))
    m = re.search(r"lower ([\d.]+) <= exact [\d.]+ <= upper ([\d.]+) "
                  r"\(slacks ([+-][\d.]+), ([+-][\d.]+) sigma\)", line)
    if m and float(m.group(1)) <= float(m.group(2)):
        return max(0.0, -float(m.group(3)), -float(m.group(4)))
    return None


def family_gate(tests):
    """The per-test sigma gate at which `tests` two-sided normal tests
    together fail a correct program as often as one 4-sigma test."""
    p_one = math.erfc(SIGMA_GATE / math.sqrt(2.0))
    return statistics.NormalDist().inv_cdf(1.0 - p_one / (2 * max(tests, 1)))


# --- checks -------------------------------------------------------------------

def check_transcript_file(data, n):
    if data is None:
        return ["transcript file missing"]
    lines = data.count(b"\n")
    problems = []
    if not data.startswith(b"index,x,a,d,s,w,y\r\n") and not data.startswith(
            b"index,x,a,d,s,w,y\n"):
        problems.append(f"bad transcript header {data[:40]!r}")
    if lines != n + 1:
        problems.append(f"transcript has {lines - 1} rows, expected {n}")
    if n and not data.endswith(b"\n"):
        problems.append("transcript does not end with a newline")
    return problems


def simulate_check(kind, n):
    def check(res):
        doc, data = res.doc, res.data
        if doc is None:
            return ["stdout is not a JSON object"]
        problems = missing_keys(doc, ("out", "n", "seed", "estimate"))
        if problems:
            return problems
        if doc["n"] != n:
            problems.append(f"n = {doc['n']}, expected {n}")
        est = doc["estimate"]
        problems += missing_keys(est, ("bits_per_sec", "std_error", "method", "details"))
        if problems:
            return problems
        value, se = est["bits_per_sec"], est["std_error"]
        if kind == "erasure":
            problems += within_sigma("erasure estimate", value, mm1_erasure(LAM, KAPPA), se)
        elif kind == "bsc":
            # timing-aware capacity is never below the blind closed form
            blind = LAM * (1.0 - h2(0.5 * (1.0 - pk_wait_transform(
                LAM, exp_laplace, 1.0, KAPPA))))
            if not blind - SIGMA_GATE * se <= value <= LAM + SIGMA_GATE * se:
                problems.append(f"timing-aware bsc estimate {value!r} outside "
                                f"[{blind!r}, {LAM!r}]")
        else:
            bounds = doc.get("bounds")
            if not isinstance(bounds, dict):
                return problems + ["missing key 'bounds'"]
            problems += missing_keys(bounds, ("lower", "upper", "csir_exact"))
            if not problems and not bounds["lower"] <= bounds["upper"]:
                problems.append(f"bounds out of order: {bounds}")
        return problems + check_transcript_file(data, n)
    return check


def sweep_check(lambdas, kappas):
    cells = len(lambdas) * len(kappas)
    gated = sum(lam <= SWEEP_GATED_MAX_LAMBDA for lam in lambdas) * len(kappas)
    gate = family_gate(gated)

    def check(res):
        doc, data, info = res.doc, res.data, res.info
        if doc is None:
            return ["stdout is not a JSON object"]
        problems = missing_keys(doc, ("out", "rows", "kappas", "n"))
        if problems:
            return problems
        if doc["rows"] != cells:
            problems.append(f"rows = {doc['rows']}, expected {cells}")
        if data is None:
            return problems + ["sweep CSV missing"]
        lines = data.decode().splitlines()
        if lines[0] != "lambda,kappa,capacity_analytic,capacity_mc,mc_stderr":
            problems.append(f"bad sweep header {lines[0]!r}")
        rows = [line.split(",") for line in lines[1:]]
        if len(rows) != cells:
            return problems + [f"sweep CSV has {len(rows)} rows, expected {cells}"]
        expected_grid = [(k, lam) for k in kappas for lam in lambdas]
        beyond = 0
        for (kappa, lam), row in zip(expected_grid, rows):
            got_lam, got_kappa, analytic, mc, se = row
            if float(got_lam) != lam or float(got_kappa) != kappa:
                problems.append(f"grid cell ({got_lam}, {got_kappa}) out of order")
                break
            if not close(float(analytic), mm1_erasure(lam, kappa), rel=1e-12):
                problems.append(f"analytic capacity at lam={lam} kappa={kappa}: "
                                f"{analytic} != {mm1_erasure(lam, kappa)!r}")
            value, err = float(mc), float(se)
            label = f"mc capacity at lam={lam} kappa={kappa}"
            if not (math.isfinite(value) and math.isfinite(err) and err > 0.0):
                problems.append(f"{label}: {mc!r} with standard error {se!r}")
                continue
            if not 0.0 <= value <= lam:
                problems.append(f"{label}: {value!r} outside [0, {lam!r}]")
            beyond += abs(value - float(analytic)) / err > SIGMA_GATE
            problems += within_sigma(label, value, float(analytic), err,
                                     gate if lam <= SWEEP_GATED_MAX_LAMBDA
                                     else HIGH_LOAD_SIGMA_GATE)
        info["cells_beyond_4sigma"] = beyond
        return problems
    return check


def capacity_erasure_pk_check(lam, kappa, shape, scale):
    formula = lam * pk_wait_transform(lam, gamma_laplace(shape, scale),
                                      shape * scale, kappa) \
        * gamma_laplace(shape, scale)(kappa)   # sojourn: times E[exp(-kappa*S)]

    def check(res):
        doc = res.doc
        if doc is None:
            return ["stdout is not a JSON object"]
        problems = missing_keys(doc, ("bits_per_sec", "method", "diagnostics"))
        if not problems and not close(doc["bits_per_sec"], formula):
            problems.append(f"erasure capacity {doc['bits_per_sec']!r} != "
                            f"closed form {formula!r}")
        return problems
    return check


def capacity_bsc_check(csir):
    mean_phi = 0.5 * (1.0 - pk_wait_transform(LAM, exp_laplace, 1.0, KAPPA))
    blind = LAM * (1.0 - h2(mean_phi))

    def check(res):
        doc = res.doc
        if doc is None:
            return ["stdout is not a JSON object"]
        problems = missing_keys(doc, ("bits_per_sec", "method", "diagnostics"))
        if problems:
            return problems
        diag = doc["diagnostics"]
        problems += missing_keys(diag, ("expectation_std_error", "n"))
        if problems:
            return problems
        value, se = doc["bits_per_sec"], diag["expectation_std_error"]
        if csir:
            if not blind - SIGMA_GATE * LAM * se <= value <= LAM:
                problems.append(f"timing-aware capacity {value!r} outside "
                                f"[{blind!r}, {LAM!r}]")
        elif "E_phi" in diag:
            problems += within_sigma("E[phi(W)]", diag["E_phi"], mean_phi, se)
        return problems
    return check


def capacity_bijective_check(k, bounds):
    top = LAM * math.log2(k)

    def check(res):
        doc = res.doc
        if doc is None:
            return ["stdout is not a JSON object"]
        problems = missing_keys(doc, ("bits_per_sec", "method", "diagnostics"))
        if problems:
            return problems
        if not bounds:
            value = doc["bits_per_sec"]
            if value is None or not 0.0 < value <= top:
                problems.append(f"timing-aware capacity {value!r} outside (0, {top!r}]")
            return problems
        problems += missing_keys(doc, ("lower", "upper"))
        if problems:
            return problems
        lower, upper = doc["lower"]["bits_per_sec"], doc["upper"]["bits_per_sec"]
        if not 0.0 <= lower <= upper <= top:
            problems.append(f"bounds not ordered in [0, {top!r}]: "
                            f"lower {lower!r}, upper {upper!r}")
        return problems
    return check


def optimize_check(laplace_s, mean_s, expected_lam=None):
    def check(res):
        doc = res.doc
        if doc is None:
            return ["stdout is not a JSON object"]
        problems = missing_keys(doc, ("lambda_star", "capacity_at_lambda_star",
                                      "method", "numeric_check"))
        if problems:
            return problems
        lam = doc["lambda_star"]
        if expected_lam is not None and not close(lam, expected_lam, rel=1e-12):
            problems.append(f"lambda_star {lam!r} != {expected_lam!r}")
        cap = lam * pk_wait_transform(lam, laplace_s, mean_s, KAPPA)
        if not close(doc["capacity_at_lambda_star"], cap):
            problems.append(f"capacity_at_lambda_star {doc['capacity_at_lambda_star']!r}"
                            f" != {cap!r}")
        gap = doc["numeric_check"].get("gap")
        if gap is None or gap > 1e-6:
            problems.append(f"numeric optimum gap {gap!r} > 1e-6")
        return problems
    return check


def validate_check(expected_failed, total):
    """The failed checks are exactly `expected_failed`, apart from checks
    whose every FAIL line is a statistical test within the family-wise gate
    over all of the run's statistical lines: `validate all` runs about 30
    tests at 4 sigma on seeded draws, so at some seeds a correct program
    fails one of them (4.25 sigma on gamma lam=0.3 kappa=1 in
    wait-transform-vs-simulation at --seed 1592944686). Those are counted in
    `validate_statistical_failures`, and a line beyond the gate still fails.
    """
    def check(res):
        outcome = validate_outcome(res.stdout)
        if outcome is None:
            return ["no check outcomes found in validate output"]
        tests = [d for _, lines in outcome.values() for line in lines
                 if (d := sigma_distance(line)) is not None]
        gate = family_gate(len(tests))
        failed, tolerated = set(), 0
        for name, (passed, lines) in outcome.items():
            if passed:
                continue
            if name in expected_failed:
                failed.add(name)
                continue
            distances = [sigma_distance(line) for line in lines
                         if line.startswith("FAIL")]
            if distances and all(d is not None and d <= gate for d in distances):
                tolerated += len(distances)
            else:
                failed.add(name)
        res.info["validate_statistical_failures"] = tolerated
        problems = []
        if failed != set(expected_failed):
            problems.append(f"failed checks {sorted(failed)}, expected "
                            f"{sorted(expected_failed)} (statistical lines within "
                            f"{gate:.2f} sigma tolerated)")
        if len(outcome) != total:
            problems.append(f"{len(outcome)} checks ran, expected {total}")
        return problems
    return check


# --- workloads ----------------------------------------------------------------

def _write_config(outdir, name, doc):
    path = outdir / f"{name}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def build(name, seed, outdir, smoke=False):
    """The operations of one pass of workload `name`, in order.

    Config files go into outdir; so do all outputs. With smoke=True the same
    commands run at tiny n (and `validate` runs its one-check `bsc` suite).
    """
    common = ["--seed", str(seed)]
    if name == "transcript":
        n = 2000 if smoke else N_LARGE
        ops = []
        for kind, doc in (
                ("erasure", {"channel": "erasure"}),
                ("bsc", {"channel": "bsc", "receiver_knows_timing": True}),
                ("bijective", {"channel": "bijective", "alphabet_size": 8,
                               "noise": {"kind": "wait_geometric"}})):
            doc.update({"lambda": LAM, "kappa": KAPPA})
            out = str(outdir / f"transcript-{kind}.csv")
            ops.append(Op(["simulate", "--config", _write_config(outdir, kind, doc),
                           "--n", str(n), "--out", out] + common,
                          0, simulate_check(kind, n), out=out, same_bytes=True,
                          label=f"simulate {kind}"))
        return ops
    if name == "sweep":
        out = str(outdir / "sweep.csv")
        kappas = [0.01, 0.1, 1.0]
        if smoke:
            lambdas = [0.3, 0.5, 0.7]
            argv = ["sweep", "--config", _write_config(outdir, "sweep", {
                "grid": lambdas, "kappas": kappas}), "--n", "5000"]
        else:   # the default config: 0.01..0.99 by 0.01, n = 10**6
            lambdas = [round(0.01 * i, 2) for i in range(1, 100)]
            argv = ["sweep"]
        return [Op(argv + ["--out", out] + common, 0, sweep_check(lambdas, kappas),
                   out=out, label="sweep")]
    if name == "capacity":
        n = str(20_000 if smoke else N_LARGE)
        gamma = {"kind": "gamma", "shape": 2.0, "scale": 0.5}
        configs = [
            ("erasure-gamma-sojourn", {"channel": "erasure", "lambda": 0.7,
                                       "service": gamma, "delay_convention": "sojourn"},
             capacity_erasure_pk_check(0.7, KAPPA, 2.0, 0.5)),
            ("bsc-blind", {"channel": "bsc"}, capacity_bsc_check(False)),
            ("bsc-timing", {"channel": "bsc", "receiver_knows_timing": True},
             capacity_bsc_check(True)),
            ("bijective-k8-timing", {"channel": "bijective", "alphabet_size": 8,
                                     "noise": {"kind": "wait_geometric"},
                                     "receiver_knows_timing": True},
             capacity_bijective_check(8, bounds=False)),
            ("bijective-k32-bounds", {"channel": "bijective", "alphabet_size": 32,
                                      "noise": {"kind": "wait_geometric"}},
             capacity_bijective_check(32, bounds=True)),
        ]
        ops = [Op(["capacity", "--config", _write_config(outdir, label, doc),
                   "--n", n] + common, 0, check, label=f"capacity {label}")
               for label, doc, check in configs]
        ops.append(Op(["optimize"] + common, 0,
                      optimize_check(exp_laplace, 1.0, 2.0 - math.sqrt(2.0)),
                      label="optimize exponential"))
        ops.append(Op(["optimize", "--config",
                       _write_config(outdir, "optimize-gamma", {"service": gamma})]
                      + common, 0, optimize_check(gamma_laplace(2.0, 0.5), 1.0),
                      label="optimize gamma"))
        return ops
    if name == "validate":
        if smoke:
            return [Op(["validate", "bsc"] + common, 0, validate_check((), 1),
                       label="validate bsc")]
        return [Op(["validate", "all"] + common, 4,
                   validate_check(("sweep-curve-shape",), 11), label="validate all")]
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
