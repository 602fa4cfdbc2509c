"""Command-line front end: capacity evaluation, rate optimization, grid
sweeps to CSV, transcript simulation, and the formula-versus-simulation
check suite.

Results go to stdout as JSON (full float precision); failures print a
machine-readable error object and exit 2 (bad config or usage), 3 (unstable
queue), or 4 (check-suite failure).
"""

import argparse
import contextlib
import csv
import json
import os
import sys
import warnings
from concurrent.futures import BrokenExecutor
from dataclasses import replace

from . import capacity
from .config import ConfigError, build_channel, build_spec, load_config
from .numerics import golden_section_extremize
from .queueing import InstabilityError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_UNSTABLE = 3
EXIT_VALIDATION = 4


def _default(obj):
    if hasattr(obj, "tolist"):  # a numpy scalar or array
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def emit(payload, stream=None):
    stream = stream or sys.stdout
    json.dump(payload, stream, indent=2, default=_default)
    stream.write("\n")


@contextlib.contextmanager
def _replacing(out):
    """Yield a temporary path beside out, created at once so that an
    unwritable directory fails before any work. What the caller writes there
    replaces out on success; on failure out is left as it was and the
    temporary file is removed. An OSError is reported as a config error
    naming out, not whatever file the failing call was writing."""
    tmp = f"{out}.{os.getpid()}.tmp"
    try:
        open(tmp, "w").close()
        yield tmp
        os.replace(tmp, out)
    except OSError as err:
        raise ConfigError(f"cannot write output: {out}: {err.strerror or err}") from None
    finally:
        with contextlib.suppress(OSError):
            os.unlink(tmp)


def _capacity_payload(result):
    payload = {"bits_per_sec": result.bits_per_sec, "method": result.method}
    for name, bound in zip(("lower", "upper"), result.bounds):
        payload[name] = {"bits_per_sec": bound.bits_per_sec, "method": bound.method,
                         "std_error": bound.std_error}
    payload["diagnostics"] = dict(result.diagnostics)
    if result.n is not None:  # sampled; an interval's std_errors are its bounds'
        if not result.bounds:
            payload["diagnostics"]["std_error"] = result.std_error
        payload["diagnostics"]["n"] = result.n
    return payload


def cmd_capacity(cfg):
    if cfg["lambda"] == 0.0:
        build_channel(cfg)  # a bad channel is an error at every rate
        emit(_capacity_payload(capacity.CapacityResult(
            0.0, "ZeroRate", {"note": "no arrivals, no throughput"})))
        return EXIT_OK
    spec = build_spec(cfg)
    try:
        result = spec.channel.capacity(
            spec, cfg["n"], seed=cfg["seed"],
            assume_unpredictable=cfg["assume_unpredictable"])
    except ValueError as err:  # too few samples for a Monte Carlo expectation
        raise ConfigError(f"cannot estimate capacity: {err}") from None
    emit(_capacity_payload(result))
    return EXIT_OK


def _require_erasure(cfg, command):
    """Reject any channel but the erasure channel, the one with a closed form."""
    if cfg["channel"] != "erasure":
        raise ConfigError(f"{command} evaluates the erasure capacity only, "
                          f"not channel {cfg['channel']!r}")


def cmd_optimize(cfg):
    _require_erasure(cfg, "optimize")
    service = cfg["service"]
    kappa = cfg["kappa"]
    if kappa <= 0.0:
        raise ConfigError("optimize needs kappa > 0; a noiseless channel has "
                          "no interior optimum (capacity grows with lambda)")
    try:
        lam_star = capacity.optimal_lambda_mg1(service, kappa)
    except ValueError as err:  # alpha rounds to 1 or to 0 at extreme kappa
        raise ConfigError(f"cannot optimize: {err}") from None
    spec = build_spec({**cfg, "lambda": lam_star})

    def capacity_at(lam):
        return spec.channel.capacity(replace(spec, lam=lam)).bits_per_sec

    mu = 1.0 / service.mean
    numeric = golden_section_extremize(capacity_at, 1e-9 * mu, (1.0 - 1e-9) * mu)
    best = spec.channel.capacity(spec)
    emit({"lambda_star": lam_star,
          "capacity_at_lambda_star": best.bits_per_sec,
          "method": best.method,
          "numeric_check": {"lambda_star": numeric.argopt,
                            "gap": abs(numeric.argopt - lam_star),
                            "iterations": numeric.iterations}})
    return EXIT_OK


def cmd_sweep(cfg):
    _require_erasure(cfg, "sweep")
    out = cfg["out"] or "sweep.csv"
    from . import simulate
    with _replacing(out) as tmp:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                rows = simulate.sweep_rows(
                    cfg["grid"], cfg["kappas"], n=cfg["n"], seed=cfg["seed"],
                    service=cfg["service"], alphabet=cfg["alphabet_size"],
                    convention=cfg["delay_convention"])
            except ValueError as err:  # degenerate alpha at extreme kappa, or n == 1
                raise ConfigError(f"cannot sweep: {err}") from None
        for w in caught:
            print(f"warning: {w.message}", file=sys.stderr)
        with open(tmp, "w", newline="") as fh:
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
    from . import simulate
    spec = build_spec(cfg)
    out = cfg["out"] or "transcript.csv"
    with _replacing(out) as tmp:
        transcript = simulate.simulate_transmission(spec, cfg["n"], seed=cfg["seed"])
        transcript.to_csv(tmp)
    payload = {"out": out, "n": len(transcript), "seed": cfg["seed"]}
    est, bounds = simulate.estimate_capacity(transcript)
    if bounds is not None:
        payload["bounds"] = {name: b.bits_per_sec for name, b in bounds.items()}
    if est is not None:
        payload["estimate"] = {"bits_per_sec": est.bits_per_sec,
                               "std_error": est.std_error, "method": est.method,
                               "details": dict(est.diagnostics)}
    emit(payload)
    return EXIT_OK


def _pin_malloc_thresholds():
    """Pin glibc malloc's mmap threshold at 32 MB and its trim threshold at
    64 MB (Linux only), for `validate`. Left dynamic, both settle wherever
    the largest block freed so far puts them, and below that the n-length
    arrays of checks are handed back to the OS and faulted in again on every
    call. (`sweep` columns allocate only blocks and boolean rows, and gain
    nothing from it.)"""
    if sys.platform.startswith("linux"):
        import ctypes
        mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
        if mallopt is not None:
            mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD
            mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD


def cmd_validate(cfg):
    from . import simulate, validation
    checks, seed = validation.SUITES[cfg["suite"]], cfg["seed"]
    _pin_malloc_thresholds()  # before the fork, so every worker inherits it
    outcomes = list(simulate.fork_map(lambda index: checks[index](seed=seed),
                                      range(len(checks))))
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


class _Parser(argparse.ArgumentParser):
    """argparse, printing each usage error as JSON on stdout too."""

    def error(self, message):
        emit({"error": "usage", "message": f"{self.prog}: {message}"})
        super().error(message)  # usage text on stderr, exit 2


# the override flags each command reads; --config and --seed go on every command
_FLAGS = {"lambda": {"type": float, "metavar": "RATE", "help": "arrival rate override"},
          "kappa": {"type": float, "help": "decoherence rate override"},
          "n": {"type": int, "help": "sample count override"},
          "out": {"metavar": "PATH", "help": "output file override"}}


def _build_parser():
    parser = _Parser(
        prog="qcl",
        description="capacity of single-server queue channels with "
                    "delay-dependent noise")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    commands = (
        ("capacity", "evaluate channel capacity for one configuration",
         cmd_capacity, ("lambda", "kappa", "n")),
        ("optimize", "find the arrival rate maximizing capacity", cmd_optimize,
         ("kappa",)),
        ("sweep", "write a (lambda, kappa) capacity grid to CSV", cmd_sweep,
         ("n", "out")),
        ("simulate", "run one transmission, write the transcript, estimate "
                     "capacity", cmd_simulate, ("lambda", "kappa", "n", "out")),
        ("validate", "run the formula-versus-simulation check suite",
         cmd_validate, ()),
    )
    for name, help_text, fn, flags in commands:
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", metavar="FILE",
                        help="JSON experiment description")
        sp.add_argument("--seed", type=int,
                        help="RNG seed override (falls back to $QCL_SEED, then "
                             + ("0)" if name == "validate" else "OS entropy)"))
        for flag in flags:
            sp.add_argument(f"--{flag}", **_FLAGS[flag])
        if name == "validate":
            # checked in _parse: the suite names live in qcl.validation,
            # which loads numpy, and --help should not
            sp.add_argument("suite", nargs="?", default="all",
                            help="which check suite to run (default: all)")
        sp.set_defaults(fn=fn, parser=sp)
    return parser


def _parse(argv):
    args = _build_parser().parse_args(argv)
    if args.command == "validate":
        from . import validation
        if args.suite not in validation.SUITES:
            choices = ", ".join(map(repr, sorted(validation.SUITES)))
            args.parser.error(f"argument suite: invalid choice: {args.suite!r} "
                              f"(choose from {choices})")
    return args


def main(argv=None):
    try:
        args = _parse(argv)
    except SystemExit as done:
        return done.code if done.code is not None else 0
    overrides = {key: getattr(args, key, None) for key in ("seed", *_FLAGS)}
    try:
        cfg = load_config(args.config, overrides)
        if args.command == "validate":
            cfg["suite"] = args.suite
        return args.fn(cfg)
    except ConfigError as err:
        emit({"error": "config", "message": str(err)})
        return EXIT_CONFIG
    except MemoryError as err:  # an n within MAX_N can still outgrow the machine
        emit({"error": "config", "message": f"not enough memory for this run: {err}"})
        return EXIT_CONFIG
    except BrokenExecutor as err:  # a fork_map worker was killed (BrokenProcessPool)
        emit({"error": "config", "message": f"a worker process died: {err}"})
        return EXIT_CONFIG
    except InstabilityError as err:
        emit({"error": "instability", "message": str(err)})
        return EXIT_UNSTABLE


if __name__ == "__main__":
    sys.exit(main())
