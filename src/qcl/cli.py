"""Command-line front end: capacity evaluation, rate optimization, grid
sweeps to CSV, transcript simulation, and the formula-versus-simulation
check suite.

Results go to stdout as JSON (full float precision); failures print a
machine-readable error object and exit 2 (bad config), 3 (unstable queue), or
4 (check-suite failure).
"""

import argparse
import csv
import json
import math
import os
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import capacity, simulate, validation
from .channels import DecoherenceModel
from .config import (ConfigError, build_service, build_spec, grid_values,
                     load_config)
from .numerics import golden_section_extremize
from .queueing import DelayConvention, Exponential, InstabilityError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_UNSTABLE = 3
EXIT_VALIDATION = 4


def _default(obj):
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def emit(payload, stream=None):
    stream = stream or sys.stdout
    json.dump(payload, stream, indent=2, default=_default)
    stream.write("\n")


def _capacity_payload(result):
    payload = {"bits_per_sec": result.bits_per_sec, "method": result.method}
    for name, bound in zip(("lower", "upper"), result.bounds):
        payload[name] = {"bits_per_sec": bound.bits_per_sec, "method": bound.method,
                         "std_error": bound.diagnostics["std_error"]}
    payload["diagnostics"] = dict(result.diagnostics)
    return payload


def cmd_capacity(cfg):
    if cfg["lambda"] == 0.0:
        emit({"bits_per_sec": 0.0, "method": "ZeroRate",
              "diagnostics": {"note": "no arrivals, no throughput"}})
        return EXIT_OK
    spec = build_spec(cfg)
    try:
        result = simulate.evaluate_capacity(
            spec, cfg["n"], burn_in=cfg["burn_in"], seed=cfg["seed"],
            buckets=cfg["buckets"], assume_unpredictable=cfg["assume_unpredictable"])
    except InstabilityError:
        raise
    except ValueError as err:  # too few samples for a Monte Carlo expectation
        raise ConfigError(f"cannot estimate capacity: {err}") from None
    emit(_capacity_payload(result))
    return EXIT_OK


def cmd_optimize(cfg):
    if cfg["channel"] != "erasure":
        raise ConfigError(f"optimize maximizes the erasure capacity; channel "
                          f"{cfg['channel']!r} has no optimal-rate formula")
    service = build_service(cfg["service"])
    kappa = cfg["kappa"]
    if kappa <= 0.0:
        raise ConfigError("optimize needs kappa > 0; a noiseless channel has "
                          "no interior optimum (capacity grows with lambda)")
    scale = math.log2(cfg["alphabet_size"])
    try:
        lam_star = capacity.optimal_lambda_mg1(service, kappa)
    except ValueError as err:  # alpha rounds to 1 or to 0 at extreme kappa
        raise ConfigError(f"cannot optimize: {err}") from None

    def objective(lam):
        return lam * scale * capacity.pk_wait_transform(lam, service, kappa)

    mu = 1.0 / service.mean
    numeric = golden_section_extremize(objective, 1e-9 * mu, (1.0 - 1e-9) * mu,
                                       tol=1e-8, mode="max")
    method = (capacity.METHOD_CLOSED_FORM_MM1 if isinstance(service, Exponential)
              else capacity.METHOD_PK)
    payload = {"lambda_star": lam_star,
               "capacity_at_lambda_star": objective(lam_star),
               "method": method,
               "numeric_check": {"lambda_star": numeric.argopt,
                                 "gap": abs(numeric.argopt - lam_star),
                                 "iterations": numeric.iterations}}
    if isinstance(service, Exponential):
        # the premise route models the delay as exponential; rescale time so
        # the unit-rate expression applies, then surface the disagreement
        model = DecoherenceModel.exponential(kappa)
        route = capacity.optimal_lambda_mm1_laplace(
            lambda u: service.rate * model.laplace(service.rate * u))
        lam_route = service.rate * route.lam_star
        payload["exponential_premise_route"] = {
            "lambda_star": lam_route,
            "method": capacity.METHOD_GENERAL_LAPLACE,
            "discrepancy": abs(lam_route - lam_star),
            "degenerate": route.degenerate,
            "caveat": route.caveat}
    emit(payload)
    return EXIT_OK


def cmd_sweep(cfg):
    lambdas = grid_values(cfg["grid"])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rows = simulate.sweep_rows(
            lambdas, cfg["kappas"], n=cfg["n"], seed=cfg["seed"],
            service=build_service(cfg["service"]), alphabet=cfg["alphabet_size"],
            convention=DelayConvention(cfg["delay_convention"]),
            jobs=os.cpu_count())
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    out = cfg["out"] or "sweep.csv"
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lambda", "kappa", "capacity_analytic", "capacity_mc",
                         "mc_stderr"])
        for row in rows:
            writer.writerow([
                repr(row["lambda"]), repr(row["kappa"]),
                repr(row["capacity_analytic"]),
                "" if row["capacity_mc"] is None else repr(row["capacity_mc"]),
                "" if row["mc_stderr"] is None else repr(row["mc_stderr"])])
    emit({"out": out, "rows": len(rows), "kappas": cfg["kappas"], "n": cfg["n"]})
    return EXIT_OK


def cmd_simulate(cfg):
    spec = build_spec(cfg)
    transcript = simulate.simulate_transmission(spec, cfg["n"], seed=cfg["seed"])
    out = cfg["out"] or "transcript.csv"
    transcript.to_csv(out)
    payload = {"out": out, "n": len(transcript), "seed": cfg["seed"]}
    est, bounds = simulate.estimate_capacity(transcript, buckets=cfg["buckets"])
    if bounds is not None:
        payload["bounds"] = {name: b.value for name, b in bounds.items()}
    if est is not None:
        payload["estimate"] = {"bits_per_sec": est.value, "std_error": est.std_error,
                               "method": capacity.METHOD_MC,
                               "details": dict(est.details)}
    emit(payload)
    return EXIT_OK


def cmd_validate(cfg):
    suite = cfg["suite"]
    if suite not in validation.SUITES:
        raise ConfigError(f"unknown suite {suite!r}; choose from "
                          f"{', '.join(sorted(validation.SUITES))}")
    checks = validation.SUITES[suite]
    workers = max(1, min(len(checks), os.cpu_count() or 1))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(check, seed=cfg["seed"]) for check in checks]
        outcomes = [f.result() for f in futures]
    failed = []
    for outcome in outcomes:
        print(f"[{'PASS' if outcome.passed else 'FAIL'}] {outcome.name}")
        for line in outcome.lines:
            print(f"    {line}")
        if not outcome.passed:
            failed.append(outcome.name)
    print(f"{len(outcomes) - len(failed)}/{len(outcomes)} checks passed"
          + (f"; failed: {', '.join(failed)}" if failed else ""))
    return EXIT_VALIDATION if failed else EXIT_OK


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="qcl",
        description="capacity of single-server queue channels with "
                    "delay-dependent noise")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    commands = (
        ("capacity", "evaluate channel capacity for one configuration",
         cmd_capacity),
        ("optimize", "find the arrival rate maximizing capacity", cmd_optimize),
        ("sweep", "write a (lambda, kappa) capacity grid to CSV", cmd_sweep),
        ("simulate", "run one transmission, write the transcript, estimate "
                     "capacity", cmd_simulate),
        ("validate", "run the formula-versus-simulation check suite",
         cmd_validate),
    )
    for name, help_text, fn in commands:
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", metavar="FILE",
                        help="JSON experiment description")
        sp.add_argument("--lambda", dest="lam", type=float, metavar="RATE",
                        help="arrival rate override")
        sp.add_argument("--kappa", type=float, help="decoherence rate override")
        sp.add_argument("--seed", type=int,
                        help="RNG seed override (falls back to $QCL_SEED)")
        sp.add_argument("--n", type=int, help="sample count override")
        sp.add_argument("--out", metavar="PATH", help="output file override")
        if name == "validate":
            sp.add_argument("suite", nargs="?", choices=sorted(validation.SUITES),
                            help="which check suite to run (default: all)")
        sp.set_defaults(fn=fn)
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as done:
        return done.code if done.code is not None else 0
    overrides = {"lambda": args.lam, "kappa": args.kappa, "seed": args.seed,
                 "n": args.n, "out": args.out}
    if getattr(args, "suite", None):
        overrides["suite"] = args.suite
    try:
        cfg = load_config(args.config, overrides)
        return args.fn(cfg)
    except ConfigError as err:
        emit({"error": "config", "message": str(err)})
        return EXIT_CONFIG
    except InstabilityError as err:
        emit({"error": "instability", "message": str(err)})
        return EXIT_UNSTABLE


if __name__ == "__main__":
    sys.exit(main())
