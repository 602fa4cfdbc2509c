"""Experiment configuration: JSON schema, validation, and spec assembly.

One flat JSON document describes a run: the queue (lambda, service), the
channel (kind, kappa, alphabet, bijection table, noise law), the conventions,
and the run parameters (n, seed, grid, kappas, out, ...). Unknown
keys are rejected so a typo cannot silently fall back to a default.
"""

import json
import math
import os
from dataclasses import MISSING, fields

from .channels import (BernoulliNoise, DecoherenceModel, Erasure, RandomBijective,
                       WaitGeometricNoise, load_bijection, xor_table)
from .queueing import (DelayConvention, Deterministic, Empirical, Exponential,
                       Gamma, QueueChannelSpec, Uniform)

SEED_ENV_VAR = "QCL_SEED"
MAX_GRID_POINTS = 10 ** 5
MAX_N = 10 ** 9  # symbols per run; one float64 column of 10**9 takes 8 GB
MAX_ALPHABET = 256  # build_channel's XOR table costs k^2 Python steps


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
    "seed": None,
    "grid": {"start": 0.01, "stop": 0.99, "step": 0.01},
    "kappas": [0.01, 0.1, 1.0],
    "out": None,
    "bijection": None,
    "noise": None,
    "assume_unpredictable": False,
}

_CHANNELS = ("erasure", "bsc", "bijective")
_CONVENTIONS = tuple(c.value for c in DelayConvention)
_SERVICES = {law.kind: law for law in (Exponential, Deterministic, Gamma,
                                        Uniform, Empirical)}
_NOISE_KINDS = ("bernoulli", "wait_geometric")


def _finite(v):
    """v as a finite float, or None when it is not a finite real number
    (bools, strings, NaN, infinities and ints too large for a float)."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return None
    try:
        v = float(v)
    except OverflowError:
        return None
    return v if math.isfinite(v) else None


def _require_number(doc, key, minimum=None):
    v = _finite(doc[key])
    if v is None:
        raise ConfigError(f"{key} must be a finite number, got {doc[key]!r}")
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
    """Check one raw dict against the schema; returns it with defaults filled
    and `service`, `grid` and `delay_convention` parsed into the law object,
    the list of rates and the DelayConvention member."""
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
    cfg["service"] = build_service(cfg["service"])
    cfg["alphabet_size"] = _require_int(cfg, "alphabet_size", minimum=2)
    if cfg["channel"] == "bijective" and cfg["alphabet_size"] > MAX_ALPHABET:
        raise ConfigError(f"a bijective alphabet_size must be at most {MAX_ALPHABET}")
    if cfg["alphabet_size"] > 2 ** 63:  # input symbols are drawn as int64
        raise ConfigError("alphabet_size must be at most 2**63")
    if cfg["delay_convention"] not in _CONVENTIONS:
        raise ConfigError(f"delay_convention must be one of {_CONVENTIONS}")
    cfg["delay_convention"] = DelayConvention(cfg["delay_convention"])
    if not isinstance(cfg["receiver_knows_timing"], bool):
        raise ConfigError("receiver_knows_timing must be true or false")
    if not isinstance(cfg["assume_unpredictable"], bool):
        raise ConfigError("assume_unpredictable must be true or false")
    if cfg["channel"] == "bsc":
        # h(E phi(W)) is the binary symmetric channel's no-timing capacity
        cfg["assume_unpredictable"] = True
    cfg["n"] = _require_int(cfg, "n", minimum=0)
    if cfg["n"] > MAX_N:
        raise ConfigError(f"n must be at most {MAX_N}, got {cfg['n']}")
    if cfg["seed"] is not None:
        cfg["seed"] = _require_int(cfg, "seed", minimum=0)
    cfg["grid"] = grid_values(cfg["grid"])
    kappas = cfg["kappas"]
    kappas = [_finite(k) for k in kappas] if isinstance(kappas, list) else []
    if not kappas or any(k is None or k <= 0 for k in kappas):
        raise ConfigError("kappas must be a nonempty list of positive finite numbers")
    cfg["kappas"] = kappas
    if cfg["out"] is not None and not isinstance(cfg["out"], str):
        raise ConfigError("out must be a path string")
    if cfg["bijection"] is not None and not isinstance(cfg["bijection"], (str, dict)):
        raise ConfigError("bijection must be a file path or an inline table object")
    if cfg["noise"] is not None:
        noise = cfg["noise"]
        if not isinstance(noise, dict):
            raise ConfigError("noise must be an object")
        extra = sorted(set(noise) - {"kind"})
        if extra:
            raise ConfigError(f"unknown noise keys: {', '.join(extra)}")
        if noise.get("kind") not in _NOISE_KINDS:
            raise ConfigError(f"noise kind must be one of {_NOISE_KINDS}")
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


def _service_value(kind, field, doc):
    """doc's value, or else the default, for one field of a service law: a
    tuple of finite floats from a JSON list for the samples, else a finite
    float. Strings, objects and bools are rejected, never converted."""
    if field.name not in doc:
        if field.default is MISSING:
            raise ConfigError(f"{kind} service needs key {field.name!r}")
        return field.default
    value = doc[field.name]
    if field.type is tuple:
        values = [_finite(v) for v in value] if isinstance(value, list) else [None]
        if None in values:
            raise ConfigError(f"{kind} service {field.name} must be a list of "
                              f"finite numbers, got {value!r}")
        return tuple(values)
    number = _finite(value)
    if number is None:
        raise ConfigError(f"{kind} service {field.name} must be a finite number, "
                          f"got {value!r}")
    return number


def build_service(doc):
    """Service distribution from its sub-document, e.g. {"kind": "gamma",
    "shape": 2, "scale": 0.5}."""
    if not isinstance(doc, dict):
        raise ConfigError("service must be an object with a 'kind'")
    kind = doc.get("kind")
    law = _SERVICES.get(kind) if isinstance(kind, str) else None
    if law is None:
        raise ConfigError(f"service kind must be one of {sorted(_SERVICES)}, "
                          f"got {kind!r}")
    extra = sorted(set(doc) - {"kind"} - {f.name for f in fields(law)})
    if extra:
        raise ConfigError(f"unknown {kind} service keys: {', '.join(extra)}")
    values = {f.name: _service_value(kind, f, doc) for f in fields(law)}
    try:
        return law(**values)
    except ValueError as bad:
        raise ConfigError(f"bad {kind} service parameters: {bad}") from None


def build_channel(cfg):
    """Channel object from a validated config."""
    kind = cfg["channel"]
    try:
        decoherence = DecoherenceModel(cfg["kappa"])
        if kind == "erasure":
            return Erasure(decoherence, cfg["alphabet_size"])
        if kind == "bsc":
            return RandomBijective.binary_symmetric(decoherence)
        if cfg["bijection"] is None:
            table = xor_table(cfg["alphabet_size"])
        else:
            table = load_bijection(cfg["bijection"])
        noise = cfg["noise"] or {"kind": "bernoulli"}
        if noise["kind"] == "bernoulli":
            if len(table) != 2:
                raise ConfigError("bernoulli noise needs a binary alphabet")
            law = BernoulliNoise(decoherence)
        else:
            law = WaitGeometricNoise(decoherence, len(table))
        return RandomBijective(table, law)
    except ConfigError:
        raise
    except (OSError, ValueError) as bad:
        raise ConfigError(f"cannot build {kind} channel: {bad}") from None


def build_spec(cfg):
    """QueueChannelSpec from a validated config. Requires lambda > 0."""
    if cfg["lambda"] <= 0.0:
        raise ConfigError("lambda must be positive to build a queue spec")
    return QueueChannelSpec(lam=cfg["lambda"],
                            service=cfg["service"], channel=build_channel(cfg),
                            delay_convention=cfg["delay_convention"],
                            receiver_knows_timing=cfg["receiver_knows_timing"])


def grid_values(grid):
    """Arrival-rate grid: an explicit list or {"start", "stop", "step"}; the
    range form may expand to at most MAX_GRID_POINTS rates."""
    if isinstance(grid, list):
        values = [_finite(v) for v in grid]
        if None in values:
            raise ConfigError("grid list entries must be finite numbers")
        return values
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
        steps = (stop - start) / step + 1e-9
        if not steps < MAX_GRID_POINTS:  # also an infinite count
            raise ConfigError(f"grid has more than {MAX_GRID_POINTS} points")
        count = int(steps) + 1
        return [round(start + i * step, 12) for i in range(count)]
    raise ConfigError("grid must be a list of rates or {start, stop, step}")
