"""Tests of the validation checks themselves: their gates can fail, and the
flip-channel dominance check keeps its common-random-numbers design."""

import numpy as np
import pytest

from qcl import validation
from qcl.queueing import Deterministic, Exponential, Gamma, Uniform


def test_bsc_dominance_fails_when_an_alternative_ties(monkeypatch):
    monkeypatch.setattr(validation, "N_DEFAULT", 10_000)
    monkeypatch.setattr(validation, "_alt_services", lambda: (
        Exponential(1.0), Deterministic(1.0), Uniform(0.5, 1.5)))
    outcome = validation.check_bsc_service_dominance(seed=0)
    assert outcome.passed is False
    analytic = [line for line in outcome.lines if "strict at all 27" in line]
    assert len(analytic) == 2
    assert all(line.startswith("FAIL: ") for line in analytic)


def test_dominance_analytic_lines_pinned(monkeypatch):
    # seed-independent: both checks evaluate their 27-point grid in closed form
    monkeypatch.setattr(validation, "N_DEFAULT", 10_000)
    erasure = validation.check_erasure_service_dominance(seed=0).lines
    bsc = validation.check_bsc_service_dominance(seed=0).lines[:2]
    assert erasure == [
        "pass: kappa=0.1: strict at all 27 grid points (thinnest margin 4.143e-05)",
        "pass: kappa=1: strict at all 27 grid points (thinnest margin 1.589e-04)"]
    assert bsc == [
        "pass: kappa=0.1: strict at all 27 grid points (thinnest margin 1.759e-04)",
        "pass: kappa=1: strict at all 27 grid points (thinnest margin 4.459e-04)"]


def test_bsc_dominance_shares_one_queue_path_per_witness_rate(monkeypatch):
    monkeypatch.setattr(validation, "N_DEFAULT", 10_000)
    calls = []
    quantile = validation._service_quantile

    def recording(service, u, v):
        calls.append((service.kind, u, v))
        return quantile(service, u, v)

    monkeypatch.setattr(validation, "_service_quantile", recording)
    validation.check_bsc_service_dominance(seed=0)
    # two witness rates, four service laws each, one pair of uniform columns
    # per rate
    assert [kind for kind, _, _ in calls] == 2 * ["deterministic", "exponential",
                                                  "gamma", "uniform"]
    for rate in (calls[:4], calls[4:]):
        assert all(u is rate[0][1] and v is rate[0][2] for _, u, v in rate)
    assert calls[0][1] is not calls[4][1]
    assert calls[0][2] is not calls[4][2]


def test_gamma2_service_draws_follow_the_gamma_law():
    n = 100_000
    u, v = np.random.default_rng(0).random((2, n))
    draws = validation._service_quantile(Gamma(2.0, 0.5), u, v)
    # Gamma(2, 1/2): mean 1, variance 1/2, P(S <= 1) = 1 - 3 exp(-2)
    assert abs(draws.mean() - 1.0) < 4.0 * np.sqrt(0.5 / n)
    p = 1.0 - 3.0 * np.exp(-2.0)
    assert abs((draws <= 1.0).mean() - p) < 4.0 * np.sqrt(p * (1.0 - p) / n)
    with pytest.raises(TypeError, match="gamma shape 3"):
        validation._service_quantile(Gamma(3.0, 0.5), u, v)


def test_unseeded_checks_run_at_seed_zero(monkeypatch):
    monkeypatch.setattr(validation, "N_DEFAULT", 10_000)
    assert (validation.check_mm1_erasure_formula(seed=None).lines
            == validation.check_mm1_erasure_formula(seed=0).lines)
