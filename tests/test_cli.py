"""Tests for the experiment configuration layer and the qcl command line."""

import csv
import json

import numpy as np
import pytest

from qcl.capacity import bijective_capacity
from qcl.channels import Erasure, RandomBijective, xor_table
from qcl.cli import main
from qcl.config import (ConfigError, build_channel, build_service, build_spec,
                        grid_values, load_config, validate_config)
from qcl.queueing import Deterministic, Exponential, Gamma, Uniform
from qcl.simulate import estimate_bijective_bounds


def _cfg(**over):
    cfg = load_config(None, {})
    cfg.update(over)
    return cfg


# ---------------------------------------------------------------- config layer

def test_defaults_fill_in():
    cfg = load_config(None, {})
    assert cfg["channel"] == "erasure"
    assert cfg["lambda"] == 0.5
    assert cfg["kappa"] == 1.0
    assert cfg["n"] == 10**6
    assert cfg["suite"] == "all"
    assert cfg["seed"] is None
    assert cfg["service"] == {"kind": "exponential", "rate": 1.0}


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


def test_build_channel_kinds():
    assert isinstance(build_channel(_cfg()), Erasure)
    bsc = build_channel(_cfg(channel="bsc"))
    assert isinstance(bsc, RandomBijective) and bsc.table == xor_table(2)
    assert load_config(None, {"channel": "bsc"})["assume_unpredictable"] is True
    bij = build_channel(_cfg(channel="bijective"))
    assert isinstance(bij, RandomBijective)
    wide = build_channel(_cfg(channel="bijective", alphabet_size=4,
                              noise={"kind": "wait_geometric", "kappa": 1.0}))
    assert len(wide.alphabet) == 4
    with pytest.raises(ConfigError, match="binary"):
        build_channel(_cfg(channel="bijective", alphabet_size=3))


def test_build_channel_inline_bijection(tmp_path):
    doc = {"alphabet": ["a", "b"], "g": {"a": ["a", "b"], "b": ["b", "a"]}}
    path = tmp_path / "bij.json"
    path.write_text(json.dumps(doc))
    channel = build_channel(_cfg(channel="bijective", bijection=str(path),
                                 noise={"kind": "wait_geometric", "kappa": 0.5}))
    assert channel.alphabet == ("a", "b")


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


def test_cli_optimize_payload(capsys):
    code, out, _ = _run(capsys, "optimize", "--kappa", "1.0")
    assert code == 0
    payload = _payload(out)
    assert payload["lambda_star"] == pytest.approx(0.5857864376269049,
                                                   abs=1e-9)
    assert payload["capacity_at_lambda_star"] == pytest.approx(
        0.3431457505076198, abs=1e-9)
    assert payload["numeric_check"]["gap"] < 1e-6
    route = payload["exponential_premise_route"]
    assert route["lambda_star"] == pytest.approx(0.5, abs=1e-6)
    assert route["discrepancy"] > 0.08
    assert route["degenerate"] is False


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


@pytest.mark.parametrize("channel", ["bsc", "bijective"])
def test_cli_optimize_rejects_non_erasure_channel(capsys, tmp_path, channel):
    cfg = tmp_path / "opt.json"
    cfg.write_text(json.dumps({"channel": channel}))
    code, out, _ = _run(capsys, "optimize", "--config", str(cfg))
    assert code == 2
    payload = _payload(out)
    assert payload["error"] == "config"
    assert "erasure" in payload["message"]


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


def test_cli_simulate_empty_transcript(capsys, tmp_path):
    out1 = tmp_path / "t.csv"
    code, out, _ = _run(capsys, "simulate", "--n", "0", "--out", str(out1))
    assert code == 0
    payload = _payload(out)
    assert payload["n"] == 0
    assert "estimate" not in payload
    assert out1.read_text().splitlines() == ["index,x,a,d,s,w,y"]


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
    assert payload["estimate"]["bits_per_sec"] == scored.bits_per_sec
    assert payload["estimate"]["std_error"] == scored.diagnostics["std_error"]


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
