"""Tests of the validation checks themselves: their gates can fail, a missing
standard error fails them, the flip-channel dominance check keeps its
common-random-numbers design, and the alpha criterion of the dominance checks
orders the capacities it stands for."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcl import validation
from qcl.capacity import alpha_mg1, pk_wait_transform
from qcl.channels import binary_entropy
from qcl.queueing import Deterministic, Exponential, Gamma, Uniform
from qcl.validation import validate_formula

ALPHA_LINES = [
    "pass: kappa=0.1: normalized alpha deterministic 0.951626 vs exponential "
    "0.909091, gamma 0.929705, uniform 0.947855 (thinnest lead 3.771e-03); "
    "a strict lead covers every stable lam",
    "pass: kappa=1: normalized alpha deterministic 0.632121 vs exponential "
    "0.500000, gamma 0.555556, uniform 0.616600 (thinnest lead 1.552e-02); "
    "a strict lead covers every stable lam"]


def test_bsc_dominance_fails_when_an_alternative_ties(monkeypatch):
    monkeypatch.setattr(validation, "N_DEFAULT", 10_000)
    monkeypatch.setattr(validation, "_alt_services", lambda: (
        Exponential(1.0), Deterministic(1.0), Uniform(0.5, 1.5)))
    outcome = validation.check_bsc_service_dominance(seed=0)
    assert outcome.passed is False
    analytic = [line for line in outcome.lines if "normalized alpha" in line]
    assert len(analytic) == 2
    # a zero lead is not strict
    assert all(line.startswith("FAIL: ") and "thinnest lead 0.000e+00" in line
               for line in analytic)


def test_a_missing_standard_error_fails_its_gate(monkeypatch):
    # None is a FAIL line, never a traceback; so is 0.0, which batch_error
    # never gives
    report = validate_formula(1.0, 1.0, None)
    assert not report.passed and str(report).startswith("FAIL: ")
    assert not validate_formula(1.0, 1.0, 0.0).passed
    monkeypatch.setattr(validation, "N_DEFAULT", 10_000)
    monkeypatch.setattr(validation, "batch_error", lambda means: None)
    witness = [line for line in validation.check_bsc_service_dominance(seed=0).lines
               if "witness" in line]
    assert len(witness) == 16
    assert all(line.startswith("FAIL: ") and "nan" in line for line in witness)
    pair = validation._bsc_pair

    def blind_without_error(spec, w):
        with_t, without = pair(spec, w)
        return with_t, replace(without, std_error=None)

    monkeypatch.setattr(validation, "_bsc_pair", blind_without_error)
    last = validation.check_csir_ordering(seed=0).lines[-1]
    assert last.startswith("FAIL: ") and "nan joint sigma" in last


def test_dominance_analytic_lines_pinned(monkeypatch):
    # seed-independent: both checks compare the laws' alphas in closed form
    monkeypatch.setattr(validation, "N_DEFAULT", 10_000)
    assert validation.check_erasure_service_dominance(seed=0).lines == ALPHA_LINES
    assert validation.check_bsc_service_dominance(seed=0).lines[:2] == ALPHA_LINES


LAWS = (Deterministic(1.0), Exponential(1.0), Gamma(2.0, 0.5), Uniform(0.5, 1.5))


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(lam=st.floats(0.01, 0.99), kappa=st.sampled_from((0.01, 0.1, 1.0, 10.0)))
def test_capacities_order_service_laws_as_alpha_does(lam, kappa):
    alpha = [alpha_mg1(s, kappa) / s.mean for s in LAWS]
    order = sorted(range(len(LAWS)), key=lambda i: -alpha[i])
    assert order[0] == 0  # deterministic first
    transform = [pk_wait_transform(lam, s, kappa) for s in LAWS]
    flip = [lam * (1.0 - binary_entropy(0.5 * (1.0 - t))) for t in transform]
    for values in (transform, flip):
        assert all(values[i] > values[j] for i, j in zip(order, order[1:]))


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
