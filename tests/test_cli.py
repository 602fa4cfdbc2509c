"""Tests for the experiment configuration layer and the qcl command line."""

import contextlib
import csv
import io
import json
import math
import multiprocessing
import os
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcl import capacity, cli, config, simulate, validation
from qcl.capacity import bijective_capacity
from qcl.channels import Erasure, RandomBijective, xor_table
from qcl.cli import main
from qcl.config import (MAX_N, ConfigError, build_channel, build_service,
                        build_spec, grid_values, load_config, validate_config)
from qcl.queueing import Deterministic, Exponential, Gamma, Uniform
from qcl.simulate import estimate_bijective_bounds


def _cfg(**over):
    return load_config(None, over)


# ---------------------------------------------------------------- config layer

def test_defaults_fill_in():
    cfg = load_config(None, {})
    assert cfg["channel"] == "erasure"
    assert cfg["lambda"] == 0.5
    assert cfg["kappa"] == 1.0
    assert cfg["n"] == 10**6
    assert "suite" not in cfg
    assert cfg["seed"] is None
    assert cfg["service"] == Exponential(1.0)


def test_readme_config_table_lists_the_config_keys():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    keys = re.findall(r"^\| `([^`]+)` \|", section, flags=re.MULTILINE)
    assert sorted(keys) == sorted(config.DEFAULTS)
    assert len(keys) == len(set(keys))


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown"):
        validate_config({"lamda": 0.5})
    with pytest.raises(ConfigError):
        build_service({"kind": "exponential", "rte": 1.0})
    with pytest.raises(ConfigError):
        validate_config({"noise": {"kind": "thermal"}})
    with pytest.raises(ConfigError):
        grid_values({"start": 0.1, "stop": 0.9, "step": 0.1, "count": 9})


def test_type_validation():
    with pytest.raises(ConfigError):
        validate_config({"lambda": "0.5"})
    with pytest.raises(ConfigError):
        validate_config({"lambda": True})  # bools are not rates
    with pytest.raises(ConfigError):
        validate_config({"n": 2.5})
    with pytest.raises(ConfigError):
        validate_config({"channel": "depolarizing"})
    with pytest.raises(ConfigError):
        validate_config({"alphabet_size": 1})
    with pytest.raises(ConfigError):
        validate_config({"delay_convention": "response"})


def test_grid_expansion():
    values = grid_values({"start": 0.01, "stop": 0.99, "step": 0.01})
    assert len(values) == 99
    assert values[0] == 0.01
    assert values[-1] == 0.99
    assert grid_values([0.1, 0.5]) == [0.1, 0.5]
    with pytest.raises(ConfigError):
        grid_values({"start": 0.1, "stop": 0.9})
    with pytest.raises(ConfigError):
        grid_values([0.1, True])
    with pytest.raises(ConfigError):
        grid_values("0.1:0.9")


@pytest.mark.parametrize("step", [1e-320, 1e-9])
def test_cli_rejects_oversized_grid(capsys, tmp_path, step):
    # 1e-320 is subnormal: the point count overflows to infinity; 1e-9 over
    # [0, 1e9] asks for 1e18 points
    cfg = tmp_path / "grid.json"
    stop = 1.0 if step == 1e-320 else 1e9
    cfg.write_text(json.dumps({"grid": {"start": 0, "stop": stop, "step": step}}))
    code, out, _ = _run(capsys, "capacity", "--config", str(cfg))
    assert code == 2
    assert _payload(out) == {"error": "config",
                             "message": "grid has more than 100000 points"}


def test_grid_size_cap_boundary():
    assert len(grid_values({"start": 0, "stop": 1, "step": 1.00001e-5})) == 10 ** 5
    with pytest.raises(ConfigError, match="100000"):
        grid_values({"start": 0, "stop": 1, "step": 1e-5})  # 100001 points


@pytest.mark.parametrize("doc", [{"kappas": [0.1, float("nan")]},
                                 {"kappas": [float("inf")]},
                                 {"grid": [0.5, float("nan")]},
                                 {"lambda": 10 ** 400},
                                 {"service": {"kind": "exponential", "rate": 10 ** 400}}])
def test_non_finite_numbers_rejected(doc):
    # 10**400 is a valid JSON integer that overflows a float
    with pytest.raises(ConfigError):
        validate_config(doc)


_NUMBERS = st.one_of(st.floats(), st.integers(-10 ** 4, 10 ** 4),
                     st.sampled_from([5e-324, 1e-320, -0.0, 1e308, 10 ** 400]))
_VALUES = st.one_of(_NUMBERS, st.none(), st.booleans(), st.text(max_size=4))
_SERVICES = st.one_of(_VALUES, st.fixed_dictionaries(
    {"kind": st.one_of(st.sampled_from(["exponential", "deterministic", "gamma",
                                        "uniform", "empirical"]), _VALUES,
                       st.lists(_VALUES, max_size=2),
                       st.dictionaries(st.text(max_size=2), _VALUES, max_size=2))},
    optional={key: _VALUES for key in ("rate", "value", "shape", "scale", "low",
                                       "high")}
    | {"samples": st.one_of(_VALUES, st.lists(_VALUES, max_size=4))}))
_GRIDS = st.one_of(_VALUES, st.lists(_VALUES, max_size=4), st.fixed_dictionaries(
    {}, optional={"start": _NUMBERS, "stop": _NUMBERS, "step": _NUMBERS}))
_NOISES = st.one_of(_VALUES, st.fixed_dictionaries(
    {}, optional={"kind": st.one_of(st.sampled_from(["bernoulli", "wait_geometric"]),
                                    _VALUES),
                  "kappa": _VALUES}))
_DOCUMENTS = st.fixed_dictionaries({}, optional={
    "channel": st.one_of(st.sampled_from(["erasure", "bsc", "bijective"]), _VALUES),
    "lambda": _VALUES,
    "kappa": _VALUES,
    "service": _SERVICES,
    # around the bijective cap and far beyond it, where a k x k table
    # would not finish building
    "alphabet_size": st.one_of(st.integers(-1, 300), st.integers(),
                               st.sampled_from([10 ** 6, 10 ** 400]), st.floats(),
                               st.none(), st.booleans(), st.text(max_size=4)),
    "delay_convention": st.one_of(st.sampled_from(["waiting", "sojourn"]), _VALUES),
    "receiver_knows_timing": _VALUES,
    "assume_unpredictable": _VALUES,
    "n": _VALUES,
    "seed": _VALUES,
    "grid": _GRIDS,
    "kappas": st.one_of(_VALUES, st.lists(_VALUES, max_size=4)),
    "noise": _NOISES,
})


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(_DOCUMENTS)
def test_config_documents_validate_or_raise_config_error(doc):
    try:
        cfg = validate_config(doc)
        if cfg["lambda"] > 0.0:
            build_spec(cfg)
    except ConfigError:
        pass


_POSITIVE = st.floats(0.1, 10.0)
_SERVICE_LAWS = st.one_of(
    st.builds(lambda rate: {"kind": "exponential", "rate": rate}, _POSITIVE),
    st.builds(lambda value: {"kind": "deterministic", "value": value}, _POSITIVE),
    st.builds(lambda shape, scale: {"kind": "gamma", "shape": shape, "scale": scale},
              _POSITIVE, _POSITIVE),
    st.builds(lambda low, width: {"kind": "uniform", "low": low, "high": low + width},
              st.floats(0.0, 5.0), _POSITIVE),
    st.builds(lambda samples: {"kind": "empirical", "samples": samples},
              st.lists(st.one_of(st.just(0.0), _POSITIVE), min_size=1,
                       max_size=5).filter(any)))


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(_SERVICE_LAWS, st.floats(-300.0, 3.0), st.floats(0.01, 0.99),
       st.sampled_from([2, 8, 256]), st.sampled_from(["waiting", "sojourn"]))
# near the float limit: the optimizer's midpoint of the bracket (0, mu) must
# not overflow to an infinite arrival rate
@example({"kind": "exponential", "rate": 1.7e308}, 300.0, 0.5, 2, "waiting")
def test_closed_forms_stay_in_range_over_laws_and_kappa(service_doc, log_kappa,
                                                        load, k, convention):
    kappa = 10.0 ** log_kappa
    service = build_service(service_doc)
    a = capacity._alpha_normalized(service, kappa)
    assert 0.0 < a <= 1.0
    mu = 1.0 / service.mean
    spec = build_spec(_cfg(service=service_doc, kappa=kappa, alphabet_size=k,
                           delay_convention=convention, **{"lambda": load * mu}))
    bits = capacity.erasure_capacity(spec).bits_per_sec
    assert 0.0 <= bits <= spec.lam * math.log2(k)
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/opt.json"
        with open(path, "w") as fh:
            json.dump({"service": service_doc, "kappa": kappa}, fh)
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = main(["optimize", "--config", path])
    payload = json.loads(out.getvalue())
    assert isinstance(payload, dict)
    if code == 0:
        assert set(payload) == OPTIMIZE_KEYS
        assert 0.0 < payload["lambda_star"] < mu
    else:
        assert code == 2 and payload["error"] == "config"


def test_load_config_precedence(tmp_path, monkeypatch):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({"lambda": 0.3, "seed": 9}))
    assert load_config(path, {})["lambda"] == 0.3
    assert load_config(path, {"lambda": 0.7})["lambda"] == 0.7
    # env seed applies only when neither file nor flag sets one
    monkeypatch.setenv("QCL_SEED", "42")
    assert load_config(None, {})["seed"] == 42
    assert load_config(path, {})["seed"] == 9
    assert load_config(path, {"seed": 5})["seed"] == 5
    monkeypatch.setenv("QCL_SEED", "not-a-seed")
    with pytest.raises(ConfigError, match="QCL_SEED"):
        load_config(None, {})


def test_load_config_file_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "missing.json", {})
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        load_config(bad, {})
    listy = tmp_path / "list.json"
    listy.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="object"):
        load_config(listy, {})


def test_build_service_kinds():
    assert isinstance(build_service({"kind": "exponential", "rate": 2.0}),
                      Exponential)
    assert isinstance(build_service({"kind": "deterministic", "value": 1.0}),
                      Deterministic)
    assert isinstance(build_service({"kind": "gamma", "shape": 2, "scale": 0.5}),
                      Gamma)
    assert isinstance(build_service({"kind": "uniform", "low": 0.5, "high": 1.5}),
                      Uniform)
    with pytest.raises(ConfigError, match="shape"):
        build_service({"kind": "gamma", "scale": 0.5})
    with pytest.raises(ConfigError, match="kind"):
        build_service({"kind": "lognormal"})
    with pytest.raises(ConfigError):
        build_service({"kind": "exponential", "rate": -1.0})


@pytest.mark.parametrize("kind", [["gamma"], {"a": 1}])
def test_build_service_rejects_unhashable_kind(kind):
    with pytest.raises(ConfigError, match="service kind must be one of"):
        build_service({"kind": kind})


def test_build_channel_kinds():
    assert isinstance(build_channel(_cfg()), Erasure)
    bsc = build_channel(_cfg(channel="bsc"))
    assert isinstance(bsc, RandomBijective) and bsc.table == xor_table(2)
    assert load_config(None, {"channel": "bsc"})["assume_unpredictable"] is True
    bij = build_channel(_cfg(channel="bijective"))
    assert isinstance(bij, RandomBijective)
    wide = build_channel(_cfg(channel="bijective", alphabet_size=4, kappa=1.0,
                              noise={"kind": "wait_geometric"}))
    assert wide.size == 4 and wide.table == xor_table(4)
    with pytest.raises(ConfigError, match="binary"):
        build_channel(_cfg(channel="bijective", alphabet_size=3))


def test_build_channel_inline_bijection(tmp_path):
    doc = {"alphabet": ["a", "b"], "g": {"a": ["a", "b"], "b": ["b", "a"]}}
    path = tmp_path / "bij.json"
    path.write_text(json.dumps(doc))
    channel = build_channel(_cfg(channel="bijective", bijection=str(path), kappa=0.5,
                                 noise={"kind": "wait_geometric"}))
    assert channel.size == 2 and channel.table == ((0, 1), (1, 0))


@pytest.mark.parametrize("over", [
    {"channel": "bsc"},
    {"channel": "bijective", "noise": {"kind": "bernoulli"}},
    {"channel": "bijective", "noise": {"kind": "wait_geometric"},
     "bijection": {"alphabet": ["a", "b", "c"],
                   "g": {"a": ["c", "a", "b"], "b": ["b", "c", "a"],
                         "c": ["a", "b", "c"]}}},
])
def test_build_spec_is_a_value(over):
    # noise laws are data, so one config builds equal, equally hashed specs
    first, second = build_spec(_cfg(**over)), build_spec(_cfg(**over))
    assert first == second and hash(first) == hash(second)


@pytest.mark.parametrize("bijection", [
    {"alphabet": [0, 1], "g": 5},
    {"alphabet": [0, 1], "g": ["0", "1"]},
    {"alphabet": [0, 1], "g": {"0": 5, "1": [1, 0]}},
    {"alphabet": [[0], [1]], "g": {"[0]": [[0], [1]], "[1]": [[1], [0]]}},
])
def test_build_spec_rejects_malformed_bijection(bijection):
    cfg = validate_config({"channel": "bijective", "bijection": bijection})
    with pytest.raises(ConfigError, match="cannot build bijective channel"):
        build_spec(cfg)


def test_bijective_alphabet_cap_boundary(capsys, tmp_path):
    doc = {"channel": "bijective", "alphabet_size": 256,
           "noise": {"kind": "wait_geometric"}}
    assert build_spec(validate_config(doc)).channel.size == 256
    cfg = tmp_path / "wide.json"
    cfg.write_text(json.dumps({**doc, "alphabet_size": 257}))
    code, out, _ = _run(capsys, "capacity", "--config", str(cfg))
    assert code == 2
    assert _payload(out) == {"error": "config",
                             "message": "a bijective alphabet_size must be at most 256"}


def test_alphabet_cap_boundary(capsys, tmp_path):
    # input symbols are drawn as int64, so 2**63 is the widest alphabet
    cfg = tmp_path / "wide.json"
    cfg.write_text(json.dumps({"alphabet_size": 2 ** 63, "n": 10, "seed": 1}))
    code, out, _ = _run(capsys, "simulate", "--config", str(cfg), "--out",
                        str(tmp_path / "t.csv"))
    assert code == 0
    assert _payload(out)["n"] == 10
    cfg.write_text(json.dumps({"alphabet_size": 2 ** 63 + 1, "n": 10}))
    code, out, _ = _run(capsys, "simulate", "--config", str(cfg), "--out",
                        str(tmp_path / "t.csv"))
    assert code == 2
    assert _payload(out) == {"error": "config",
                             "message": "alphabet_size must be at most 2**63"}


def test_build_spec_requires_positive_rate():
    spec = build_spec(_cfg())
    assert spec.lam == 0.5
    with pytest.raises(ConfigError, match="lambda"):
        build_spec(_cfg(**{"lambda": 0.0}))


# ------------------------------------------------------------------- CLI paths

def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _payload(out):
    return json.loads(out)


def test_cli_capacity_closed_form(capsys):
    code, out, _ = _run(capsys, "capacity", "--lambda", "0.5", "--kappa", "1.0")
    assert code == 0
    payload = _payload(out)
    assert payload["bits_per_sec"] == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert payload["method"] == "ClosedFormMM1"
    assert payload["diagnostics"]["alpha"] == pytest.approx(0.5)


def test_cli_capacity_zero_rate(capsys):
    code, out, _ = _run(capsys, "capacity", "--lambda", "0")
    assert code == 0
    payload = _payload(out)
    assert payload["bits_per_sec"] == 0.0
    assert payload["method"] == "ZeroRate"


def test_cli_zero_rate_is_a_result_with_no_standard_error(capsys, monkeypatch):
    # no arrivals: a closed form, so neither a std_error nor an n is printed
    seen, payload = [], cli._capacity_payload
    monkeypatch.setattr(cli, "_capacity_payload",
                        lambda result: seen.append(result) or payload(result))
    code, out, _ = _run(capsys, "capacity", "--lambda", "0")
    assert code == 0
    [result] = seen
    assert (result.method, result.std_error, result.n) == ("ZeroRate", None, None)
    assert _payload(out)["diagnostics"] == {"note": "no arrivals, no throughput"}


@pytest.mark.parametrize("rate", ["0", "0.5"])
def test_cli_capacity_rejects_a_bad_channel_at_every_rate(capsys, tmp_path, rate):
    cfg = tmp_path / "bij.json"
    cfg.write_text(json.dumps({"channel": "bijective", "alphabet_size": 3,
                               "noise": {"kind": "bernoulli"}}))
    code, out, _ = _run(capsys, "capacity", "--config", str(cfg), "--lambda", rate)
    assert code == 2
    assert _payload(out) == {"error": "config",
                             "message": "bernoulli noise needs a binary alphabet"}


def test_cli_capacity_unstable_exit(capsys):
    code, out, _ = _run(capsys, "capacity", "--lambda", "1.2")
    assert code == 3
    assert _payload(out)["error"] == "instability"


def test_cli_bad_config_exit(capsys, tmp_path):
    code, out, _ = _run(capsys, "capacity", "--config",
                        str(tmp_path / "nope.json"))
    assert code == 2
    assert _payload(out)["error"] == "config"
    cfg = tmp_path / "odd.json"
    cfg.write_text(json.dumps({"mystery": 1}))
    code, out, _ = _run(capsys, "capacity", "--config", str(cfg))
    assert code == 2


def test_cli_capacity_bsc(capsys, tmp_path):
    cfg = tmp_path / "bsc.json"
    cfg.write_text(json.dumps({"channel": "bsc", "n": 20000, "seed": 1}))
    code, out, _ = _run(capsys, "capacity", "--config", str(cfg))
    assert code == 0
    payload = _payload(out)
    assert abs(payload["bits_per_sec"] - 0.17498878917582289) <= \
        6.0 * payload["diagnostics"]["expectation_std_error"] + 0.01
    assert payload["diagnostics"]["n"] == 20000


def test_cli_capacity_bijective_bounds(capsys, tmp_path):
    cfg = tmp_path / "bij.json"
    cfg.write_text(json.dumps({"channel": "bijective", "n": 5000, "seed": 1}))
    code, out, _ = _run(capsys, "capacity", "--config", str(cfg))
    assert code == 0
    payload = _payload(out)
    assert payload["bits_per_sec"] is None
    assert payload["method"] == "Bounds"
    assert payload["lower"]["bits_per_sec"] <= \
        payload["upper"]["bits_per_sec"] + 1e-12
    code, out, _ = _run(capsys, "capacity", "--config", str(cfg), "--n", "1")
    assert code == 2  # bounds need at least two samples


def test_cli_capacity_bijective_timing_aware(capsys, tmp_path):
    cfg = tmp_path / "bij.json"
    cfg.write_text(json.dumps({"channel": "bijective", "n": 5000, "seed": 1,
                               "receiver_knows_timing": True}))
    code, out, _ = _run(capsys, "capacity", "--config", str(cfg))
    assert code == 0
    payload = _payload(out)
    assert payload["method"] == "MonteCarlo"
    assert payload["diagnostics"]["csir"] is True
    code, out, _ = _run(capsys, "capacity", "--config", str(cfg), "--n", "1")
    assert code == 2  # one delay has no standard error
    assert "at least 2 delays" in _payload(out)["message"]


@pytest.mark.parametrize("timing", [False, True])
def test_cli_capacity_too_few_batches_prints_no_error(capsys, tmp_path, timing):
    # 3 delays make fewer than 2 batches: the standard error is null, not 0.0
    # (bounds) or an i.i.d. error (timing-aware)
    cfg = tmp_path / "bij.json"
    cfg.write_text(json.dumps({"channel": "bijective", "alphabet_size": 4,
                               "noise": {"kind": "wait_geometric"},
                               "receiver_knows_timing": timing}))
    code, out, _ = _run(capsys, "capacity", "--config", str(cfg), "--n", "3",
                        "--seed", "1")
    assert code == 0
    payload = _payload(out)
    if timing:
        assert payload["diagnostics"]["std_error"] is None
        assert payload["diagnostics"]["expectation_std_error"] is None
    else:
        assert payload["lower"]["std_error"] is None
        assert payload["upper"]["std_error"] is None
    assert "null" in out


def test_cli_simulate_constant_sample_prints_no_error(capsys, tmp_path):
    # at lambda = 1e-4 every wait is 0 and every symbol survives: the sample
    # cannot show its spread, so its error is null, not 0.0
    code, out, _ = _run(capsys, "simulate", "--lambda", "0.0001", "--n", "1000",
                        "--seed", "1", "--out", str(tmp_path / "t.csv"))
    assert code == 0
    estimate = _payload(out)["estimate"]
    assert estimate["bits_per_sec"] == 0.0001
    assert estimate["std_error"] is None
    assert estimate["details"]["erased_fraction"] == 0.0


def test_cli_optimize_payload(capsys):
    code, out, _ = _run(capsys, "optimize", "--kappa", "1.0")
    assert code == 0
    payload = _payload(out)
    assert payload["lambda_star"] == pytest.approx(0.5857864376269049,
                                                   abs=1e-9)
    assert payload["capacity_at_lambda_star"] == pytest.approx(
        0.3431457505076198, abs=1e-9)
    assert payload["numeric_check"]["gap"] < 1e-6


OPTIMIZE_KEYS = {"lambda_star", "capacity_at_lambda_star", "method", "numeric_check"}


@pytest.mark.parametrize("service, kappa", [
    ({"kind": "exponential", "rate": 1.0}, 1e12),
    ({"kind": "exponential", "rate": 4.0}, 2.0),
    ({"kind": "exponential", "rate": 0.5}, 1e308),
])
def test_cli_optimize_extreme_kappa_prints_the_closed_form(capsys, tmp_path, service,
                                                           kappa):
    # one rate, the closed form, even where kappa/mu overflows
    cfg = tmp_path / "opt.json"
    cfg.write_text(json.dumps({"service": service, "kappa": kappa}))
    code, out, _ = _run(capsys, "optimize", "--config", str(cfg))
    assert code == 0
    payload = _payload(out)
    assert set(payload) == OPTIMIZE_KEYS
    expected = capacity.optimal_lambda_mg1(build_service(service), kappa)
    assert payload["lambda_star"] == pytest.approx(expected, rel=1e-12, abs=0)


def test_cli_optimize_near_the_float_max_converges(capsys, tmp_path):
    cfg = tmp_path / "opt.json"
    cfg.write_text(json.dumps({"service": {"kind": "exponential", "rate": 1.7e308},
                               "kappa": 1e300}))
    code, out, _ = _run(capsys, "optimize", "--config", str(cfg))
    assert code == 0
    check = _payload(out)["numeric_check"]
    assert check["iterations"] < 200
    assert check["gap"] <= 1e-8 * 1.7e308


def test_cli_optimize_rejects_zero_kappa(capsys):
    code, out, _ = _run(capsys, "optimize", "--kappa", "0")
    assert code == 2
    assert _payload(out)["error"] == "config"


def test_cli_optimize_rejects_alpha_underflow(capsys):
    # alpha = (1 - F(kappa)) / kappa rounds to 1, which would put the optimum
    # at rho = 1; that is a config problem, not an unstable queue
    code, out, _ = _run(capsys, "optimize", "--kappa", "1e-300")
    assert code == 2
    payload = _payload(out)
    assert payload["error"] == "config"
    assert "alpha" in payload["message"]


def test_cli_capacity_accepts_alpha_rounded_above_one(capsys, tmp_path):
    # (1 - F(kappa)) / (kappa * E S) <= 1, but rounds to 1 + ulp here
    cfg = tmp_path / "tiny.json"
    cfg.write_text(json.dumps({"service": {"kind": "exponential", "rate": 3.0},
                               "lambda": 1.5}))
    code, out, _ = _run(capsys, "capacity", "--config", str(cfg), "--kappa", "1e-20")
    assert code == 0
    assert _payload(out)["bits_per_sec"] == 1.5


@pytest.mark.parametrize("service", [
    {"kind": "empirical", "samples": [0, 0]},
    {"kind": "uniform", "low": 0, "high": 5e-324},
])
def test_cli_rejects_zero_mean_service(capsys, tmp_path, service):
    cfg = tmp_path / "service.json"
    cfg.write_text(json.dumps({"service": service}))
    code, out, _ = _run(capsys, "capacity", "--config", str(cfg))
    assert code == 2
    payload = _payload(out)
    assert payload["error"] == "config"
    assert "mean" in payload["message"]


@pytest.mark.parametrize("service", [
    {"kind": "empirical", "samples": "123"},  # not read as [1, 2, 3]
    {"kind": "empirical", "samples": {"4": 1}},  # not read as its keys
    {"kind": "empirical", "samples": ["1", "2"]},
    {"kind": "empirical", "samples": [1, True]},
    {"kind": "gamma", "shape": "2", "scale": 0.5},
    {"kind": "exponential", "rate": True},
])
def test_cli_rejects_service_fields_instead_of_coercing(capsys, tmp_path, service):
    cfg = tmp_path / "service.json"
    cfg.write_text(json.dumps({"service": service, "lambda": 0.2}))
    code, out, _ = _run(capsys, "capacity", "--config", str(cfg))
    assert code == 2
    payload = _payload(out)
    assert payload["error"] == "config"
    assert payload["message"].startswith(f"{service['kind']} service ")


@pytest.mark.parametrize("channel", ["bsc", "bijective"])
def test_cli_optimize_rejects_non_erasure_channel(capsys, tmp_path, channel):
    cfg = tmp_path / "opt.json"
    cfg.write_text(json.dumps({"channel": channel}))
    code, out, _ = _run(capsys, "optimize", "--config", str(cfg))
    assert code == 2
    payload = _payload(out)
    assert payload["error"] == "config"
    assert "erasure" in payload["message"]


def test_cli_optimize_sojourn_matches_capacity(capsys, tmp_path):
    cfg = tmp_path / "sojourn.json"
    cfg.write_text(json.dumps({"delay_convention": "sojourn"}))
    code, out, _ = _run(capsys, "optimize", "--config", str(cfg), "--kappa", "1.0")
    assert code == 0
    optimum = _payload(out)
    code, out, _ = _run(capsys, "capacity", "--config", str(cfg), "--kappa", "1.0",
                        "--lambda", repr(optimum["lambda_star"]))
    assert code == 0
    at_optimum = _payload(out)
    assert optimum["capacity_at_lambda_star"] == at_optimum["bits_per_sec"]
    assert optimum["method"] == at_optimum["method"] == "PKTransform"


@pytest.mark.parametrize("channel", ["bsc", "bijective"])
def test_cli_sweep_rejects_non_erasure_channel(capsys, tmp_path, channel):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"channel": channel, "grid": [0.5], "kappas": [1.0]}))
    target = tmp_path / "s.csv"
    code, out, _ = _run(capsys, "sweep", "--config", str(cfg), "--out", str(target))
    assert code == 2
    payload = _payload(out)
    assert payload["error"] == "config"
    assert "erasure" in payload["message"]
    assert not target.exists()


def test_cli_malformed_bijection_exit(capsys, tmp_path):
    cfg = tmp_path / "bij.json"
    cfg.write_text(json.dumps({"channel": "bijective",
                               "bijection": {"alphabet": [0, 1], "g": 5}}))
    code, out, _ = _run(capsys, "capacity", "--config", str(cfg))
    assert code == 2
    payload = _payload(out)
    assert payload["error"] == "config"
    assert "'g' must map" in payload["message"]


def test_cli_rejects_a_bijection_that_is_not_a_latin_square(capsys, tmp_path):
    # both rows are permutations, but y = n whatever x is: the capacity is 0,
    # not lambda * (1 - H(noise))
    cfg = tmp_path / "bij.json"
    cfg.write_text(json.dumps({"channel": "bijective", "lambda": 0.5, "kappa": 1.0,
                               "receiver_knows_timing": True,
                               "bijection": {"alphabet": [0, 1],
                                             "g": {"0": [0, 1], "1": [0, 1]}}}))
    code, out, _ = _run(capsys, "capacity", "--config", str(cfg))
    assert code == 2
    payload = _payload(out)
    assert payload["error"] == "config"
    assert "Latin square" in payload["message"]


@pytest.mark.parametrize("command", ["sweep", "simulate"])
def test_cli_unwritable_out_exit(capsys, tmp_path, command):
    target = tmp_path / "missing" / "out.csv"
    code, out, _ = _run(capsys, command, "--n", "0", "--out", str(target))
    assert code == 2
    payload = _payload(out)
    assert payload["error"] == "config"
    assert payload["message"].startswith("cannot write output: ")
    assert str(target) in payload["message"]
    assert ".tmp" not in payload["message"]


def test_sample_count_cap_boundary():
    assert validate_config({"n": MAX_N})["n"] == MAX_N
    with pytest.raises(ConfigError, match="n must be at most"):
        validate_config({"n": MAX_N + 1})


# Each n here needs at least 2**59 bytes per array, beyond any 64-bit user
# address space, so an allocation that is reached fails at once.
_HUGE_RUNS = {"simulate": {}, "capacity": {"channel": "bsc"},
              "sweep": {"grid": [0.5], "kappas": [1.0]}}


def _out_flag(command, target):
    """--out for the commands that write a file; capacity takes no --out."""
    return [] if command == "capacity" else ["--out", str(target)]


@pytest.mark.parametrize("n", [2 ** 56, 2 ** 62, 10 ** 20])
@pytest.mark.parametrize("command", sorted(_HUGE_RUNS))
def test_cli_rejects_n_beyond_cap(capsys, tmp_path, command, n):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(_HUGE_RUNS[command]))
    target = tmp_path / "out.csv"
    code, out, _ = _run(capsys, command, "--config", str(cfg), "--n", str(n),
                        "--seed", "1", *_out_flag(command, target))
    assert code == 2
    assert _payload(out) == {"error": "config",
                             "message": f"n must be at most {MAX_N}, got {n}"}
    assert not target.exists()


@pytest.mark.parametrize("command", sorted(_HUGE_RUNS))
def test_cli_out_of_memory_is_a_config_error(capsys, tmp_path, monkeypatch, command):
    monkeypatch.setattr(config, "MAX_N", 2 ** 60)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(_HUGE_RUNS[command]))
    code, out, _ = _run(capsys, command, "--config", str(cfg), "--n", str(2 ** 56),
                        "--seed", "1", *_out_flag(command, tmp_path / "out.csv"))
    assert code == 2
    payload = _payload(out)
    assert payload["error"] == "config"
    assert payload["message"].startswith("not enough memory for this run: ")


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="the pool forks its workers")
def test_cli_simulate_killed_writer_is_a_config_error(capsys, tmp_path, monkeypatch):
    format_block = simulate._csv_block

    def die_on_second_block(t, lo):
        """simulate._csv_block, except that the pool worker formatting the
        second block dies."""
        if lo == simulate.CSV_BLOCK_ROWS:
            # in the calling process, exiting would end the test run itself
            assert multiprocessing.parent_process() is not None, "block formatted serially"
            os._exit(1)
        return format_block(t, lo)

    monkeypatch.setattr(simulate, "CSV_BLOCK_ROWS", 7)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(simulate, "_csv_block", die_on_second_block)
    before = dict(vars(simulate))
    target = tmp_path / "t.csv"
    old = b"index,x,a,d,s,w,y\r\n0,1,0.5,1.5,1.0,0.0,1\r\n"
    target.write_bytes(old)
    code, out, _ = _run(capsys, "simulate", "--n", "50", "--seed", "1",
                        "--out", str(target))
    assert code == 2
    payload = _payload(out)
    assert payload["error"] == "config"
    assert payload["message"].startswith("a worker process died: ")
    assert multiprocessing.active_children() == []
    assert vars(simulate) == before
    # the failed write leaves the old file whole, and no temporary file behind
    assert target.read_bytes() == old
    assert list(tmp_path.glob("*.tmp")) == []


def test_cli_sweep_checks_out_before_computing(capsys, tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(simulate, "sweep_rows", lambda *a, **k: calls.append(a) or [])
    target = tmp_path / "missing" / "out.csv"
    code, out, _ = _run(capsys, "sweep", "--n", "10", "--out", str(target))
    assert code == 2
    assert _payload(out)["error"] == "config"
    assert calls == []


def test_cli_simulate_checks_out_before_computing(capsys, tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(simulate, "simulate_transmission",
                        lambda *a, **k: calls.append(a))
    missing = str(tmp_path / "missing" / "t.csv")
    code, out, _ = _run(capsys, "simulate", "--n", "10", "--out", missing)
    assert code == 2
    assert _payload(out)["error"] == "config"
    assert calls == []
    # the queue is checked before the output: an unstable one exits 3 first
    code, out, _ = _run(capsys, "simulate", "--lambda", "1.2", "--n", "10",
                        "--out", missing)
    assert code == 3
    assert _payload(out)["error"] == "instability"
    assert list(tmp_path.iterdir()) == []

    # a run that fails after the check leaves no file behind
    def out_of_memory(*args, **kwargs):
        raise MemoryError("transcript too large")

    monkeypatch.setattr(simulate, "simulate_transmission", out_of_memory)
    code, _, _ = _run(capsys, "simulate", "--n", "10", "--out", str(tmp_path / "t.csv"))
    assert code == 2
    assert list(tmp_path.iterdir()) == []


def test_cli_sweep_replaces_out_only_after_computing(capsys, tmp_path, monkeypatch):
    target = tmp_path / "keep.csv"
    header = b"lambda,kappa,capacity_analytic,capacity_mc,mc_stderr\r\n"
    old = header + b"0.5,1.0,,,\r\n" * 9

    def out_of_memory(*args, **kwargs):
        raise MemoryError("sweep grid too large")

    target.write_bytes(old)
    monkeypatch.setattr(simulate, "sweep_rows", out_of_memory)
    code, out, _ = _run(capsys, "sweep", "--n", "10", "--out", str(target))
    assert code == 2
    assert _payload(out)["error"] == "config"
    assert target.read_bytes() == old
    # a sweep that succeeds replaces the whole file, however long it was
    monkeypatch.setattr(simulate, "sweep_rows", lambda *a, **k: [])
    code, _, _ = _run(capsys, "sweep", "--n", "10", "--out", str(target))
    assert code == 0
    assert target.read_bytes() == header


def test_cli_sweep_reports_degenerate_alpha_as_config_error(capsys, tmp_path):
    # alpha = (1 - F(kappa)) / (kappa * E S) underflows to 0 here
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"service": {"kind": "deterministic", "value": 1e-300},
                               "kappas": [1e-300], "grid": [0.5]}))
    code, out, _ = _run(capsys, "sweep", "--config", str(cfg), "--out",
                        str(tmp_path / "s.csv"))
    assert code == 2
    payload = _payload(out)
    assert payload["error"] == "config"
    assert "alpha" in payload["message"]


def test_cli_sweep_rejects_one_symbol_per_cell(capsys, tmp_path):
    out = tmp_path / "s.csv"
    code, text, _ = _run(capsys, "sweep", "--n", "1", "--out", str(out))
    assert code == 2
    assert _payload(text) == {"error": "config", "message": "cannot sweep: need at "
                              "least 2 symbols per Monte Carlo cell, got 1"}
    assert not out.exists()
    assert list(tmp_path.glob("*.tmp")) == []


def test_cli_sweep_write_failure_keeps_old_out(capsys, tmp_path, monkeypatch):
    class FullDisk:
        def __repr__(self):
            raise OSError(28, "No space left on device")

    row = {"lambda": 0.5, "kappa": 1.0, "capacity_analytic": 0.25,
           "capacity_mc": None, "mc_stderr": None}
    # the first row is written, then the write fails part-way
    monkeypatch.setattr(simulate, "sweep_rows", lambda *a, **k: [
        row, {**row, "capacity_analytic": FullDisk()}])
    target = tmp_path / "keep.csv"
    old = b"lambda,kappa,capacity_analytic,capacity_mc,mc_stderr\r\n0.5,1.0,,,\r\n"
    target.write_bytes(old)
    code, out, _ = _run(capsys, "sweep", "--n", "10", "--out", str(target))
    assert code == 2
    assert _payload(out) == {"error": "config", "message": "cannot write output: "
                             f"{target}: No space left on device"}
    assert target.read_bytes() == old
    assert list(tmp_path.glob("*.tmp")) == []


def test_cli_sweep_deterministic_csv(capsys, tmp_path):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({
        "grid": {"start": 0.2, "stop": 0.6, "step": 0.2},
        "kappas": [1.0], "n": 2000, "seed": 21}))
    out1 = tmp_path / "s1.csv"
    code, out, _ = _run(capsys, "sweep", "--config", str(cfg), "--out",
                        str(out1))
    assert code == 0
    summary = _payload(out)
    assert summary["rows"] == 3
    lines = out1.read_text().splitlines()
    assert lines[0] == "lambda,kappa,capacity_analytic,capacity_mc,mc_stderr"
    assert len(lines) == 4
    out2 = tmp_path / "s2.csv"
    _run(capsys, "sweep", "--config", str(cfg), "--out", str(out2))
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_sweep_warns_on_unstable_rates(capsys, tmp_path):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"grid": [0.5, 1.5], "kappas": [1.0], "n": 0}))
    code, out, err = _run(capsys, "sweep", "--config", str(cfg), "--out",
                          str(tmp_path / "s.csv"))
    assert code == 0
    assert "warning" in err
    assert _payload(out)["rows"] == 1


def test_cli_simulate_writes_transcript(capsys, tmp_path):
    out1 = tmp_path / "t1.csv"
    code, out, _ = _run(capsys, "simulate", "--n", "500", "--seed", "3",
                        "--out", str(out1))
    assert code == 0
    payload = _payload(out)
    assert payload["n"] == 500
    assert payload["estimate"]["std_error"] > 0.0
    lines = out1.read_text().splitlines()
    assert lines[0] == "index,x,a,d,s,w,y"
    assert len(lines) == 501
    out2 = tmp_path / "t2.csv"
    _run(capsys, "simulate", "--n", "500", "--seed", "3", "--out", str(out2))
    assert out1.read_bytes() == out2.read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t1.csv", "t2.csv"]


def test_cli_simulate_empty_transcript(capsys, tmp_path):
    out1 = tmp_path / "t.csv"
    code, out, _ = _run(capsys, "simulate", "--n", "0", "--out", str(out1))
    assert code == 0
    payload = _payload(out)
    assert payload["n"] == 0
    assert "estimate" not in payload
    assert out1.read_text().splitlines() == ["index,x,a,d,s,w,y"]
    code, out, _ = _run(capsys, "simulate", "--n", "1", "--out", str(out1))
    assert code == 0
    assert "estimate" not in _payload(out)  # one symbol has no standard error


@pytest.mark.parametrize("timing", [False, True])
def test_cli_simulate_bijective_scores_its_own_transcript(capsys, tmp_path, timing):
    doc = {"channel": "bijective", "alphabet_size": 4, "lambda": 0.6,
           "noise": {"kind": "wait_geometric"}, "receiver_knows_timing": timing}
    cfg = tmp_path / "bij.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "t.csv"
    code, text, _ = _run(capsys, "simulate", "--config", str(cfg), "--n", "3000",
                         "--seed", "5", "--out", str(out))
    assert code == 0
    payload = _payload(text)
    with open(out, newline="") as fh:
        w = np.array([float(row["w"]) for row in csv.DictReader(fh)])
    assert w.size == 3000
    spec = build_spec(load_config(cfg, {}))
    h = estimate_bijective_bounds(spec, w)
    lower, upper = bijective_capacity(
        build_spec(load_config(cfg, {"receiver_knows_timing": False})), h).bounds
    exact = bijective_capacity(
        build_spec(load_config(cfg, {"receiver_knows_timing": True})), h)
    assert payload["bounds"] == {"lower": lower.bits_per_sec,
                                 "upper": upper.bits_per_sec,
                                 "csir_exact": exact.bits_per_sec}
    scored = exact if timing else lower
    # without timing the estimate is the lower bound, and says so
    assert f'"method": "{"MonteCarlo" if timing else "Bound-Lower"}"' in text
    assert payload["estimate"] == {"bits_per_sec": scored.bits_per_sec,
                                   "std_error": scored.std_error,
                                   "method": scored.method,
                                   "details": dict(scored.diagnostics)}


def test_cli_env_seed(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("QCL_SEED", "77")
    monkeypatch.chdir(tmp_path)
    code, out, _ = _run(capsys, "simulate", "--n", "50")
    assert code == 0
    assert _payload(out)["seed"] == 77


def test_cli_validate_quick_suite(capsys):
    code, out, _ = _run(capsys, "validate", "bsc", "--seed", "0")
    assert code == 0
    assert "[PASS]" in out
    assert "1/1 checks passed" in out


def _logging_check(check, log_dir):
    """check, also recording in log_dir which process ran it. A suite entry
    reaches the pool's workers through fork, so it need not pickle."""
    def run(seed=None):
        forked = multiprocessing.parent_process() is not None
        (log_dir / check.__name__).write_text(f"{os.getpid()} {forked}")
        return check(seed=seed)
    return run


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="the pool forks its workers")
def test_cli_validate_pool_prints_what_one_process_prints(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(validation, "N_DEFAULT", 10_000)
    checks = (validation.check_csir_ordering, validation.check_wait_transform,
              validation.check_noiseless_and_instability)
    monkeypatch.setitem(validation.SUITES, "pool",
                        tuple(_logging_check(check, tmp_path) for check in checks))
    outputs = []
    for cpus, forked in ((2, True), (1, False)):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        before = dict(vars(cli)), dict(vars(simulate))
        outputs.append(_run(capsys, "validate", "pool", "--seed", "3"))
        assert (vars(cli), vars(simulate)) == before
        ran = [(tmp_path / check.__name__).read_text().split() for check in checks]
        assert all((pid != str(os.getpid()), was_forked) == (forked, str(forked))
                   for pid, was_forked in ran), ran
        assert multiprocessing.active_children() == []
    pooled, alone = outputs
    assert pooled == alone
    assert "/3 checks passed" in pooled[1]


def _die_in_worker(seed=None):
    """A check whose pool worker dies."""
    # in the calling process, exiting would end the test run itself
    assert multiprocessing.parent_process() is not None, "check run serially"
    os._exit(1)


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="the pool forks its workers")
def test_cli_validate_killed_worker_is_a_config_error(capsys, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setitem(validation.SUITES, "dies",
                        (validation.check_noiseless_and_instability, _die_in_worker))
    code, out, _ = _run(capsys, "validate", "dies", "--seed", "0")
    assert code == 2
    payload = _payload(out)  # the whole of stdout: no check lines before it
    assert payload["error"] == "config"
    assert payload["message"].startswith("a worker process died: ")
    assert multiprocessing.active_children() == []


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="the pool forks its workers")
def test_cli_sweep_killed_worker_is_a_config_error(capsys, tmp_path, monkeypatch):
    def die_in_worker(prefix_sums, waits, floor):
        """A Lindley pass whose pool worker dies."""
        # in the calling process, exiting would end the test run itself
        assert multiprocessing.parent_process() is not None, "lambda run serially"
        os._exit(1)

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(simulate, "waits_from_prefix_sums", die_in_worker)
    target = tmp_path / "s.csv"
    code, out, _ = _run(capsys, "sweep", "--n", "50", "--seed", "1",
                        "--out", str(target))
    assert code == 2
    payload = _payload(out)
    assert payload["error"] == "config"
    assert payload["message"].startswith("a worker process died: ")
    assert multiprocessing.active_children() == []
    assert not target.exists()
    assert list(tmp_path.glob("*.tmp")) == []


@pytest.mark.parametrize("doc, message", [
    ({"channel": "bijective", "noise": {"kind": "wait_geometric", "kappa": 0.5}},
     "unknown noise keys: kappa"),
    ({"suite": "bsc"}, "unknown config keys: suite"),
], ids=["noise-kappa", "suite"])
@pytest.mark.parametrize("command", ["capacity", "validate"])
def test_cli_rejects_duplicate_spellings(capsys, tmp_path, command, doc, message):
    # kappa is set only at the top level, and the suite only on the command line
    cfg = tmp_path / "dup.json"
    cfg.write_text(json.dumps(doc))
    code, out, _ = _run(capsys, command, "--config", str(cfg))
    assert code == 2
    assert _payload(out) == {"error": "config", "message": message}


def test_cli_kappa_flag_reaches_bijective_channel(capsys, tmp_path):
    outputs = []
    for kappa, flag in ((0.5, []), (0.5, ["--kappa", "7"]), (7.0, [])):
        cfg = tmp_path / f"bij-{kappa}.json"
        cfg.write_text(json.dumps({"channel": "bijective", "kappa": kappa,
                                   "noise": {"kind": "wait_geometric"}}))
        code, out, _ = _run(capsys, "capacity", "--config", str(cfg), "--n", "2000",
                            "--seed", "1", *flag)
        assert code == 0
        outputs.append(out)
    from_file, from_flag, at_seven = outputs
    assert from_flag == at_seven != from_file


@pytest.mark.parametrize("argv", [
    ["sweep", "--n", "0", "--kappa", "5"],
    ["sweep", "--n", "0", "--lambda", "0.3"],
    ["capacity", "--out", "x.csv"],
    ["optimize", "--n", "5"],
    ["optimize", "--lambda", "0.3"],
    ["validate", "bsc", "--lambda", "3"],
    ["validate", "bsc", "--kappa", "9"],
    ["validate", "bsc", "--n", "5"],
    ["validate", "bsc", "--out", "v.txt"],
], ids=" ".join)
def test_cli_rejects_flags_the_command_does_not_read(capsys, tmp_path, monkeypatch,
                                                     argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = _run(capsys, *argv)
    assert code == 2
    assert _payload(out)["error"] == "usage"
    assert "unrecognized arguments" in err
    assert list(tmp_path.iterdir()) == []


def test_cli_validate_rejects_unknown_suite(capsys):
    code, _, err = _run(capsys, "validate", "everything")
    assert code == 2
    assert "invalid choice" in err


def test_cli_help_and_missing_command(capsys):
    code, out, _ = _run(capsys, "--help")
    assert code == 0
    assert "capacity" in out and "validate" in out
    code, _, err = _run(capsys)
    assert code == 2


@pytest.mark.parametrize("argv", [["validate", "bogus"],
                                  ["capacity", "--lambda", "abc"],
                                  ["bogus"], []])
def test_cli_usage_errors_are_json(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert code == 2
    payload = _payload(out)
    assert set(payload) == {"error", "message"}
    assert payload["error"] == "usage"
    assert "usage: qcl" in err
