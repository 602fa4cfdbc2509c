"""Tests for the discrete-event simulator and its capacity estimators."""

import concurrent.futures
import csv
import io
import math
import multiprocessing
import os
import threading

import numpy as np
import pytest

from qcl import simulate
from qcl.capacity import QueueChannelSpec, erasure_capacity
from qcl.channels import (ERASED, DecoherenceModel, Erasure, RandomBijective,
                          bernoulli_noise, wait_geometric_noise, xor_table)
from qcl.numerics import batch_means, spawn_rngs
from qcl.queueing import (DelayConvention, Deterministic, Exponential,
                          InstabilityError, PoissonArrivals, queue_path)
from qcl.simulate import (EstimateWithError, Transcript, estimate_bijective_bounds,
                          estimate_capacity, estimate_erasure_capacity,
                          evaluate_capacity, simulate_transmission, sweep_rows)
from qcl.validation import validate_formula


def _spec(lam=0.5, kappa=1.0, channel=None, service=None, convention=None,
          csir=False):
    return QueueChannelSpec(
        arrival=PoissonArrivals(lam),
        service=service or Exponential(1.0),
        channel=channel or Erasure(DecoherenceModel(kappa), 2),
        delay_convention=convention or DelayConvention.WAITING_BEFORE_SERVICE,
        receiver_knows_timing=csir)


def _bsc_spec(lam=0.5, kappa=1.0, **kw):
    return _spec(lam, channel=RandomBijective.binary_symmetric(
        DecoherenceModel(kappa)), **kw)


def _bijective8_spec():
    return _spec(channel=RandomBijective(tuple(range(8)), xor_table(8),
                                         wait_geometric_noise(DecoherenceModel(1.0), 8)))


def _bijective_spec(lam=0.5, kappa=1.0):
    channel = RandomBijective((0, 1), xor_table(2),
                              bernoulli_noise(DecoherenceModel(kappa)))
    return _spec(lam, channel=channel)


def test_transcript_is_a_fifo_queue():
    t = simulate_transmission(_spec(0.7), 5000, seed=3)
    d_prev = 0.0
    for j in range(len(t)):
        expected = max(d_prev, t.a[j]) + t.s[j]
        assert t.d[j] == pytest.approx(expected, abs=1e-9)
        d_prev = t.d[j]
    # waiting-before-service delay is departure - arrival - service
    np.testing.assert_allclose(t.w, t.d - t.a - t.s, atol=1e-9)
    assert np.all(t.w >= 0.0)


def test_sojourn_convention_delay():
    t = simulate_transmission(_spec(0.7, convention=DelayConvention.SOJOURN),
                              5000, seed=3)
    np.testing.assert_allclose(t.w, t.d - t.a, atol=1e-9)
    assert np.all(t.w >= t.s - 1e-12)


def test_same_seed_reproduces_transcript():
    t1 = simulate_transmission(_spec(), 2000, seed=11)
    t2 = simulate_transmission(_spec(), 2000, seed=11)
    for name in ("x", "a", "d", "s", "w", "y"):
        np.testing.assert_array_equal(getattr(t1, name), getattr(t2, name))
    t3 = simulate_transmission(_spec(), 2000, seed=12)
    assert not np.array_equal(t1.y, t3.y)


def test_zero_length_and_unstable_transmission():
    empty = simulate_transmission(_spec(), 0, seed=1)
    assert len(empty) == 0
    with pytest.raises(InstabilityError):
        simulate_transmission(_spec(1.2), 100, seed=1)
    with pytest.raises(ValueError):
        simulate_transmission(_spec(), -1, seed=1)


def test_erasure_transcript_never_flips_symbols():
    t = simulate_transmission(_spec(0.8, kappa=2.0), 20000, seed=5)
    erased = t.y == ERASED
    assert erased.any() and (~erased).any()
    np.testing.assert_array_equal(t.y[~erased], t.x[~erased])


def test_erasure_estimate_matches_closed_form():
    spec = _spec(0.5, 1.0)
    est = estimate_erasure_capacity(simulate_transmission(spec, 200_000, seed=7))
    target = erasure_capacity(spec).bits_per_sec
    assert target == pytest.approx(1.0 / 3.0)
    assert abs(est.value - target) <= 4.0 * est.std_error
    assert est.std_error < 0.01
    assert {"erased_fraction", "binomial_std_error", "batches"} <= set(est.details)
    # batch-means error should not undercut the iid binomial error
    assert est.std_error >= 0.5 * est.details["binomial_std_error"]


def test_erasure_estimator_input_checks():
    with pytest.raises(ValueError):
        estimate_erasure_capacity(simulate_transmission(_spec(), 0, seed=1))
    bsc_t = simulate_transmission(_bsc_spec(), 100, seed=1)
    with pytest.raises(TypeError):
        estimate_erasure_capacity(bsc_t)


def test_bsc_estimates_and_timing_gain():
    t = simulate_transmission(_bsc_spec(0.5), 200_000, seed=17)
    est, bounds = estimate_capacity(t)
    blind, aware = bounds["lower"], bounds["csir_exact"]
    assert est is blind
    # concavity of entropy makes the timing-aware plug-in >= blind
    assert aware.value >= blind.value - 1e-12
    assert abs(blind.value - 0.17498878917582289) <= 4.0 * blind.std_error
    assert estimate_capacity(simulate_transmission(
        _bsc_spec(0.5, csir=True), 1000, seed=1))[0] is not None
    assert estimate_capacity(simulate_transmission(_bsc_spec(), 1, seed=1)) == \
        (None, None)


def test_bijective_bounds_bracket_and_order():
    for seed in range(5):
        lower, upper = evaluate_capacity(_bijective_spec(), 20_000,
                                         seed=seed).bounds
        assert lower.bits_per_sec <= upper.bits_per_sec + 1e-12
    w = np.random.default_rng(0).exponential(1.0, 1000)
    estimates = estimate_bijective_bounds(_bijective_spec(), w)
    assert all(isinstance(e, EstimateWithError) for e in estimates.values())
    with pytest.raises(ValueError):
        evaluate_capacity(_bijective_spec(), 1, seed=0)
    with pytest.raises(TypeError):
        estimate_bijective_bounds(_spec(), w)


def test_one_decoherence_law_read_by_every_consumer():
    m = DecoherenceModel(0.7)
    w = np.array([0.0, 0.05, 0.3, 1.0, 2.5, 40.0])
    p = m.error_prob(w)
    assert np.array_equal(bernoulli_noise(m)(w)[..., 1], 0.5 * p)
    weights = p[:, None] ** np.arange(5)
    assert np.array_equal(wait_geometric_noise(m, 5)(w),
                          weights / weights.sum(axis=-1, keepdims=True))
    # a negative delay gives a negative p, which the noise simplex rejects
    for law in (bernoulli_noise(m), wait_geometric_noise(m, 2)):
        spec = _spec(channel=RandomBijective((0, 1), xor_table(2), law))
        with pytest.raises(ValueError, match="noise probabilities must be nonnegative"):
            estimate_bijective_bounds(spec, np.array([1.0, -0.5, 2.0]))


def test_validate_formula_reports():
    good = validate_formula(1.0, EstimateWithError(1.001, 0.001, 100))
    assert good.passed and good.sigma_distance == pytest.approx(1.0)
    bad = validate_formula(1.0, EstimateWithError(1.01, 0.001, 100))
    assert not bad.passed and bad.sigma_distance == pytest.approx(10.0)
    assert "FAIL" in str(bad) and "pass" in str(good)
    exact = validate_formula(2.0, EstimateWithError(2.0, 0.0, 1))
    assert exact.passed
    off = validate_formula(2.0, EstimateWithError(2.1, 0.0, 1))
    assert not off.passed and math.isinf(off.sigma_distance)
    # plain floats work too
    assert validate_formula(0.5, 0.5).passed


def test_sweep_rows_analytic_only():
    rows = sweep_rows([0.0, 0.3, 0.6], [0.5, 1.0], n=0)
    assert len(rows) == 6
    assert [r["kappa"] for r in rows] == [0.5, 0.5, 0.5, 1.0, 1.0, 1.0]
    assert rows[0]["capacity_analytic"] == 0.0
    expected = erasure_capacity(_spec(0.3, 0.5)).bits_per_sec
    assert rows[1]["capacity_analytic"] == pytest.approx(expected, abs=1e-15)
    assert all(r["capacity_mc"] is None and r["mc_stderr"] is None
               for r in rows)


def test_sweep_rows_drops_unstable_rates_with_warning():
    with pytest.warns(UserWarning, match="stability"):
        rows = sweep_rows([0.5, 1.0, 1.5], [1.0], n=0)
    assert [r["lambda"] for r in rows] == [0.5]


def test_sweep_rows_threaded_matches_serial():
    lambdas, kappas = [0.2, 0.5, 0.8], [0.1, 1.0]
    rows = sweep_rows(lambdas, kappas, n=2000, seed=21)
    # each pooled lambda equals that lambda recomputed alone from its own
    # child seed: one queue path, then one uniform stream per kappa
    children = np.random.SeedSequence(21).spawn(len(lambdas))
    for i, (lam, child) in enumerate(zip(lambdas, children)):
        queue_rng, *uniform_rngs = spawn_rngs(child, 1 + len(kappas))
        *_, w = queue_path(PoissonArrivals(lam), Exponential(1.0), 2000, queue_rng,
                           DelayConvention.WAITING_BEFORE_SERVICE)
        for j, (kappa, rng) in enumerate(zip(kappas, uniform_rngs)):
            mean, se, _ = batch_means(rng.random(2000) >= DecoherenceModel(kappa).error_prob(w))
            row = rows[j * len(lambdas) + i]
            assert (row["lambda"], row["kappa"]) == (lam, kappa)
            assert (row["capacity_mc"], row["mc_stderr"]) == (lam * mean, lam * se)
            assert row["mc_stderr"] > 0.0
            assert abs(row["capacity_mc"] - row["capacity_analytic"]) <= \
                6.0 * row["mc_stderr"]


def _count_queue_paths(monkeypatch):
    """Record the arrival rate of every queue path the simulator draws."""
    rates = []
    real = simulate.queue_path
    monkeypatch.setattr(simulate, "queue_path",
                        lambda *a, **k: rates.append(a[0].rate) or real(*a, **k))
    return rates


def test_sweep_rows_draws_one_queue_path_per_lambda(monkeypatch):
    calls = _count_queue_paths(monkeypatch)
    monkeypatch.setattr(simulate, "simulate_transmission", None)  # not on this path
    rows = sweep_rows([0.2, 0.5, 0.8], [0.1, 1.0, 3.0], n=200, seed=4)
    assert len(rows) == 9 and all(r["capacity_mc"] is not None for r in rows)
    assert sorted(calls) == [0.2, 0.5, 0.8]


def test_sweep_rows_repeated_kappa_draws_its_own_uniforms():
    rows = sweep_rows([0.5], [1.0, 1.0], n=20_000, seed=9)
    first, second = rows
    assert first["capacity_analytic"] == second["capacity_analytic"]
    assert first["capacity_mc"] != second["capacity_mc"]
    for row in rows:
        assert abs(row["capacity_mc"] - row["capacity_analytic"]) <= \
            6.0 * row["mc_stderr"]


def test_sweep_rows_zero_rate_draws_no_queue(monkeypatch):
    calls = _count_queue_paths(monkeypatch)
    rows = sweep_rows([0.0, 0.4], [0.5, 2.0], n=500, seed=1)
    zero = [r for r in rows if r["lambda"] == 0.0]
    assert len(zero) == 2
    assert all((r["capacity_mc"], r["mc_stderr"]) == (0.0, 0.0) for r in zero)
    assert calls == [0.4]


def test_sweep_rows_deterministic_service():
    rows = sweep_rows([0.4], [1.0], n=0, service=Deterministic(1.0))
    expected = erasure_capacity(_spec(0.4, service=Deterministic(1.0))).bits_per_sec
    assert rows[0]["capacity_analytic"] == pytest.approx(expected, abs=1e-15)


def test_to_csv_format_and_determinism(tmp_path):
    t = simulate_transmission(_spec(0.8, kappa=2.0), 500, seed=5)
    buf = io.StringIO()
    t.to_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "index,x,a,d,s,w,y"
    assert len(lines) == 501
    assert any(line.endswith(",?") for line in lines[1:])
    # same seed, same bytes
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    t.to_csv(p1)
    simulate_transmission(_spec(0.8, kappa=2.0), 500, seed=5).to_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()


# Delays at 0, below 1e-4 and at 1e16, where repr switches to exponent form.
_CSV_TIMES = {"a": [0.5, 1.75, 2.0000001, 4.0, 1e-07],
              "s": [1.0, 0.25, 3e-05, 2.0, 0.1],
              "w": [0.0, 5e-05, 1.5e-10, 123456789.0, 1e16]}
_CSV_ROWS = ["0.5,1.5,1.0,0.0", "1.75,2.00005,0.25,5e-05",
             "2.0000001,2.00003010015,3e-05,1.5e-10",
             "4.0,123456795.0,2.0,123456789.0", "1e-07,1e+16,0.1,1e+16"]


@pytest.mark.parametrize("spec, x, y, y_text", [
    (_spec(), [0, 1, 1, 0, 1], [0, ERASED, 1, ERASED, 1], ["0", "?", "1", "?", "1"]),
    (_bsc_spec(), [0, 1, 1, 0, 1], [1, 0, 0, 1, 1], ["1", "0", "0", "1", "1"]),
    (_bijective8_spec(), [0, 7, 3, 6, 2], [7, 0, 3, 5, 2], ["7", "0", "3", "5", "2"]),
], ids=["erasure", "bsc", "bijective"])
def test_to_csv_bytes_pinned(tmp_path, spec, x, y, y_text):
    a, s, w = (np.array(_CSV_TIMES[k]) for k in "asw")
    t = Transcript(x=np.array(x), a=a, d=a + w + s, s=s, w=w,
                   y=np.asarray(y, dtype=int), spec=spec)
    path = tmp_path / "t.csv"
    t.to_csv(path)
    expected = "index,x,a,d,s,w,y\r\n" + "".join(
        f"{i},{xi},{row},{yi}\r\n"
        for i, (xi, row, yi) in enumerate(zip(x, _CSV_ROWS, y_text)))
    assert path.read_bytes() == expected.encode()


def _csv_reference(t):
    """The transcript as the row-at-a-time csv.writer it replaced wrote it."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["index", "x", "a", "d", "s", "w", "y"])
    for i in range(len(t)):
        y = int(t.y[i])
        writer.writerow([i, int(t.x[i]), repr(float(t.a[i])), repr(float(t.d[i])),
                         repr(float(t.s[i])), repr(float(t.w[i])),
                         "?" if y == ERASED else y])
    return buf.getvalue()


@pytest.mark.parametrize("spec, n", [
    (_spec(0.8, kappa=2.0), 300),  # the last block is partial
    (_spec(0.8, kappa=2.0), 280),  # exactly 40 blocks
    (_spec(), 0),  # header only
    (_bsc_spec(), 300),
    (_bijective8_spec(), 300),
], ids=["erasure-partial", "erasure-whole-blocks", "empty", "bsc", "bijective"])
def test_to_csv_blocks_match_row_writer(tmp_path, monkeypatch, spec, n):
    monkeypatch.setattr(simulate, "CSV_BLOCK_ROWS", 7)
    t = simulate_transmission(spec, n, seed=11)
    expected = _csv_reference(t)
    if spec.channel.kind == "erasure" and n:
        assert ",?\r\n" in expected
    buf = io.StringIO(newline="")
    t.to_csv(buf)
    assert buf.getvalue() == expected
    path = tmp_path / "t.csv"
    t.to_csv(path)
    assert path.read_bytes() == expected.encode()


@pytest.fixture
def pool_spy(monkeypatch):
    """The arguments of each ProcessPoolExecutor built while the test runs."""
    made = []
    real = concurrent.futures.ProcessPoolExecutor

    def spy(*args, **kwargs):
        made.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", spy)
    return made


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="the pool forks its workers")
@pytest.mark.parametrize("spec", [_spec(0.8, kappa=2.0), _bsc_spec(), _bijective8_spec()],
                         ids=["erasure", "bsc", "bijective"])
def test_to_csv_pool_matches_row_writer(tmp_path, monkeypatch, pool_spy, spec):
    # two CPUs even on a one-CPU runner, so the pool formats the 43 blocks
    monkeypatch.setattr(simulate, "CSV_BLOCK_ROWS", 7)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    t = simulate_transmission(spec, 300, seed=11)
    expected = _csv_reference(t)
    buf = io.StringIO(newline="")
    t.to_csv(buf)
    assert buf.getvalue() == expected
    path = tmp_path / "t.csv"
    t.to_csv(path)
    assert path.read_bytes() == expected.encode()
    assert len(pool_spy) == 2
    assert multiprocessing.active_children() == []
    assert simulate._CSV_TRANSCRIPT is None


def test_to_csv_from_a_second_thread_formats_serially(monkeypatch, pool_spy):
    monkeypatch.setattr(simulate, "CSV_BLOCK_ROWS", 7)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    t = simulate_transmission(_spec(0.8, kappa=2.0), 300, seed=11)
    buf = io.StringIO(newline="")
    writer = threading.Thread(target=t.to_csv, args=(buf,))
    writer.start()
    writer.join(timeout=60)
    assert not writer.is_alive()
    assert buf.getvalue() == _csv_reference(t)
    assert pool_spy == []
    assert simulate._CSV_TRANSCRIPT is None


def test_estimate_with_error_validation():
    with pytest.raises(ValueError):
        EstimateWithError(value=1.0, std_error=-0.1, n=10)
