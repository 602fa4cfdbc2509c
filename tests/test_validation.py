"""Tests of the validation checks themselves: their gates can fail, and the
flip-channel dominance check keeps its common-random-numbers design."""

from qcl import validation
from qcl.queueing import Deterministic, Exponential, Uniform


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

    def recording(service, u):
        calls.append((service.kind, u))
        return quantile(service, u)

    monkeypatch.setattr(validation, "_service_quantile", recording)
    validation.check_bsc_service_dominance(seed=0)
    # two witness rates, four service laws each, one set of uniforms per rate
    assert [kind for kind, _ in calls] == 2 * ["deterministic", "exponential",
                                               "gamma", "uniform"]
    for rate in (calls[:4], calls[4:]):
        assert all(u is rate[0][1] for _, u in rate)
    assert calls[0][1] is not calls[4][1]
