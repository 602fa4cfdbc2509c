"""Experiment configuration: JSON schema, validation, and spec assembly.

One flat JSON document describes a run: the queue (lambda, service), the
channel (kind, kappa, alphabet, bijection table, noise law), the conventions,
and the run parameters (n, burn_in, seed, grid, kappas, out, ...). Unknown
keys are rejected so a typo cannot silently fall back to a default.
"""

import json
import math
import os

from .capacity import QueueChannelSpec
from .channels import (BitFlipModel, DecoherenceModel, Erasure,
                       RandomBijective, bernoulli_noise, load_bijection,
                       wait_geometric_noise, xor_table)
from .queueing import (DelayConvention, Deterministic, Empirical, Exponential,
                       Gamma, PoissonArrivals, Uniform)

SEED_ENV_VAR = "QCL_SEED"


class ConfigError(ValueError):
    """Invalid or unknown configuration content."""


DEFAULTS = {
    "channel": "erasure",
    "lambda": 0.5,
    "kappa": 1.0,
    "service": {"kind": "exponential", "rate": 1.0},
    "alphabet_size": 2,
    "delay_convention": "waiting",
    "receiver_knows_timing": False,
    "n": 10 ** 6,
    "burn_in": None,
    "seed": None,
    "grid": {"start": 0.01, "stop": 0.99, "step": 0.01},
    "kappas": [0.01, 0.1, 1.0],
    "out": None,
    "buckets": 64,
    "tolerance_sigma": 4.0,
    "suite": "all",
    "bijection": None,
    "noise": None,
    "assume_unpredictable": False,
}

_CHANNELS = ("erasure", "bsc", "bijective")
_CONVENTIONS = tuple(c.value for c in DelayConvention)
_SERVICE_KEYS = {
    "exponential": {"rate"},
    "deterministic": {"value"},
    "gamma": {"shape", "scale"},
    "uniform": {"low", "high"},
    "empirical": {"samples"},
}
_NOISE_KINDS = ("bernoulli", "wait_geometric")


def _require_number(doc, key, minimum=None, positive=False):
    v = doc[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
        raise ConfigError(f"{key} must be a finite number, got {v!r}")
    v = float(v)
    if positive and v <= 0:
        raise ConfigError(f"{key} must be positive, got {v:g}")
    if minimum is not None and v < minimum:
        raise ConfigError(f"{key} must be >= {minimum:g}, got {v:g}")
    return v


def _require_int(doc, key, minimum=0):
    v = doc[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{key} must be an integer, got {v!r}")
    if v < minimum:
        raise ConfigError(f"{key} must be >= {minimum}, got {v}")
    return v


def validate_config(doc):
    """Check one raw dict against the schema; returns it with defaults filled."""
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    unknown = sorted(set(doc) - set(DEFAULTS))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    cfg = {**DEFAULTS, **doc}

    if cfg["channel"] not in _CHANNELS:
        raise ConfigError(f"channel must be one of {_CHANNELS}, got {cfg['channel']!r}")
    cfg["lambda"] = _require_number(cfg, "lambda", minimum=0.0)
    cfg["kappa"] = _require_number(cfg, "kappa", minimum=0.0)
    build_service(cfg["service"])  # raises ConfigError on bad sub-schema
    cfg["alphabet_size"] = _require_int(cfg, "alphabet_size", minimum=2)
    if cfg["delay_convention"] not in _CONVENTIONS:
        raise ConfigError(f"delay_convention must be one of {_CONVENTIONS}")
    if not isinstance(cfg["receiver_knows_timing"], bool):
        raise ConfigError("receiver_knows_timing must be true or false")
    if not isinstance(cfg["assume_unpredictable"], bool):
        raise ConfigError("assume_unpredictable must be true or false")
    if cfg["channel"] == "bsc":
        # h(E phi(W)) is the binary symmetric channel's no-timing capacity
        cfg["assume_unpredictable"] = True
    cfg["n"] = _require_int(cfg, "n", minimum=0)
    if cfg["burn_in"] is not None:
        cfg["burn_in"] = _require_int(cfg, "burn_in", minimum=0)
    if cfg["seed"] is not None:
        cfg["seed"] = _require_int(cfg, "seed", minimum=0)
    grid_values(cfg["grid"])
    if (not isinstance(cfg["kappas"], list) or not cfg["kappas"]
            or any(isinstance(k, bool) or not isinstance(k, (int, float)) or k <= 0
                   for k in cfg["kappas"])):
        raise ConfigError("kappas must be a nonempty list of positive numbers")
    cfg["kappas"] = [float(k) for k in cfg["kappas"]]
    if cfg["out"] is not None and not isinstance(cfg["out"], str):
        raise ConfigError("out must be a path string")
    cfg["buckets"] = _require_int(cfg, "buckets", minimum=2)
    cfg["tolerance_sigma"] = _require_number(cfg, "tolerance_sigma", positive=True)
    if not isinstance(cfg["suite"], str):
        raise ConfigError("suite must be a string")
    if cfg["bijection"] is not None and not isinstance(cfg["bijection"], (str, dict)):
        raise ConfigError("bijection must be a file path or an inline table object")
    if cfg["noise"] is not None:
        noise = cfg["noise"]
        if not isinstance(noise, dict):
            raise ConfigError("noise must be an object")
        extra = sorted(set(noise) - {"kind", "kappa"})
        if extra:
            raise ConfigError(f"unknown noise keys: {', '.join(extra)}")
        if noise.get("kind") not in _NOISE_KINDS:
            raise ConfigError(f"noise kind must be one of {_NOISE_KINDS}")
        if "kappa" in noise:
            _require_number(noise, "kappa", minimum=0.0)
    return cfg


def load_config(path=None, overrides=None):
    """Read and validate a config file, apply flag overrides, fill defaults.

    Precedence for every key: override flag, then file, then the QCL_SEED
    environment variable (seed only), then the built-in default.
    """
    doc = {}
    if path is not None:
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except OSError as err:
            raise ConfigError(f"cannot read config file: {err}") from None
        except json.JSONDecodeError as err:
            raise ConfigError(f"config file is not valid JSON: {err}") from None
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    merged = dict(doc)
    for key, value in (overrides or {}).items():
        if value is not None:
            merged[key] = value
    if merged.get("seed") is None and os.environ.get(SEED_ENV_VAR):
        raw = os.environ[SEED_ENV_VAR]
        try:
            merged["seed"] = int(raw)
        except ValueError:
            raise ConfigError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from None
    return validate_config(merged)


def build_service(doc):
    """Service distribution from its sub-document, e.g. {"kind": "gamma",
    "shape": 2, "scale": 0.5}."""
    if not isinstance(doc, dict):
        raise ConfigError("service must be an object with a 'kind'")
    kind = doc.get("kind")
    if kind not in _SERVICE_KEYS:
        raise ConfigError(f"service kind must be one of {sorted(_SERVICE_KEYS)}, "
                          f"got {kind!r}")
    extra = sorted(set(doc) - {"kind"} - _SERVICE_KEYS[kind])
    if extra:
        raise ConfigError(f"unknown {kind} service keys: {', '.join(extra)}")
    try:
        if kind == "exponential":
            service = Exponential(float(doc.get("rate", 1.0)))
        elif kind == "deterministic":
            service = Deterministic(float(doc.get("value", 1.0)))
        elif kind == "gamma":
            service = Gamma(float(doc["shape"]), float(doc["scale"]))
        elif kind == "uniform":
            service = Uniform(float(doc["low"]), float(doc["high"]))
        else:
            service = Empirical(tuple(float(v) for v in doc["samples"]))
    except KeyError as missing:
        raise ConfigError(f"{kind} service needs key {missing}") from None
    except (TypeError, ValueError) as bad:
        raise ConfigError(f"bad {kind} service parameters: {bad}") from None
    # every formula divides by the mean, so mu = 1/mean must be finite too
    mean = service.mean
    if not (mean > 0.0 and math.isfinite(mean) and math.isfinite(1.0 / mean)):
        raise ConfigError(f"{kind} service needs a positive finite mean with a "
                          f"finite rate, got mean {mean!r}")
    return service


def build_channel(cfg):
    """Channel object from a validated config."""
    kind = cfg["channel"]
    kappa = cfg["kappa"]
    try:
        if kind == "erasure":
            return Erasure(DecoherenceModel.exponential(kappa), cfg["alphabet_size"])
        if kind == "bsc":
            return RandomBijective.binary_symmetric(BitFlipModel.exponential(kappa))
        if cfg["bijection"] is None:
            alphabet = tuple(range(cfg["alphabet_size"]))
            table = xor_table(cfg["alphabet_size"])
        else:
            alphabet, table = load_bijection(cfg["bijection"])
        noise = cfg["noise"] or {"kind": "bernoulli"}
        noise_kappa = float(noise.get("kappa", kappa))
        if noise["kind"] == "bernoulli":
            if len(alphabet) != 2:
                raise ConfigError("bernoulli noise needs a binary alphabet")
            law = bernoulli_noise(BitFlipModel.exponential(noise_kappa))
        else:
            law = wait_geometric_noise(noise_kappa, len(alphabet))
        return RandomBijective(tuple(alphabet), table, law)
    except ConfigError:
        raise
    except (OSError, ValueError) as bad:
        raise ConfigError(f"cannot build {kind} channel: {bad}") from None


def build_spec(cfg):
    """QueueChannelSpec from a validated config. Requires lambda > 0."""
    if cfg["lambda"] <= 0.0:
        raise ConfigError("lambda must be positive to build a queue spec")
    try:
        arrival = PoissonArrivals(cfg["lambda"])
        service = build_service(cfg["service"])
    except ValueError as bad:
        raise ConfigError(str(bad)) from None
    return QueueChannelSpec(arrival=arrival, service=service,
                            channel=build_channel(cfg),
                            delay_convention=DelayConvention(cfg["delay_convention"]),
                            receiver_knows_timing=cfg["receiver_knows_timing"])


def grid_values(grid):
    """Arrival-rate grid: an explicit list or {"start", "stop", "step"}."""
    if isinstance(grid, list):
        if any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in grid):
            raise ConfigError("grid list entries must be numbers")
        return [float(v) for v in grid]
    if isinstance(grid, dict):
        extra = sorted(set(grid) - {"start", "stop", "step"})
        if extra:
            raise ConfigError(f"unknown grid keys: {', '.join(extra)}")
        for key in ("start", "stop", "step"):
            if key not in grid:
                raise ConfigError(f"grid needs {key}")
            _require_number(grid, key)
        start, stop, step = (float(grid[k]) for k in ("start", "stop", "step"))
        if step <= 0:
            raise ConfigError("grid step must be positive")
        if stop < start:
            raise ConfigError("grid stop must be >= start")
        count = int(math.floor((stop - start) / step + 1e-9)) + 1
        return [round(start + i * step, 12) for i in range(count)]
    raise ConfigError("grid must be a list of rates or {start, stop, step}")
