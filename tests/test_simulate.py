"""Tests for the discrete-event simulator and its capacity estimators."""

import concurrent.futures
import csv
import io
import math
import multiprocessing
import os
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from qcl import channels, simulate
from qcl.capacity import (E_H_KERNEL_NOISE, E_H_NOISE, H_MEAN_NOISE,
                          QueueChannelSpec, erasure_capacity, evaluate_capacity)
from qcl.channels import (ERASED, DecoherenceModel, Erasure, RandomBijective,
                          apply_channel, bernoulli_noise, discrete_entropy,
                          wait_geometric_noise, xor_table)
from qcl.numerics import batch_means, spawn_rngs
from qcl.queueing import (DelayConvention, Deterministic, Exponential,
                          InstabilityError, PoissonArrivals, lindley_waits,
                          stationary_wait_samples)
from qcl.simulate import (EstimateWithError, Transcript, estimate_bijective_bounds,
                          estimate_capacity, simulate_transmission, sweep_rows)
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


def test_generator_seed_reaches_both_entry_points():
    # a Generator spawns from its seed sequence: its first children are its
    # int seed's, and each reuse spawns new ones
    g = np.random.default_rng(5)
    first = simulate_transmission(_spec(), 500, seed=g)
    again = simulate_transmission(_spec(), 500, seed=g)
    assert np.array_equal(first.w, simulate_transmission(_spec(), 500, seed=5).w)
    assert not np.array_equal(first.w, again.w)
    g = np.random.default_rng(5)
    rows = sweep_rows([0.5], [1.0], n=500, seed=g)
    assert rows == sweep_rows([0.5], [1.0], n=500, seed=5)
    assert rows != sweep_rows([0.5], [1.0], n=500, seed=g)


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
    est, bounds = estimate_capacity(simulate_transmission(spec, 200_000, seed=7))
    assert bounds is None
    target = erasure_capacity(spec).bits_per_sec
    assert target == pytest.approx(1.0 / 3.0)
    assert abs(est.value - target) <= 4.0 * est.std_error
    assert est.std_error < 0.01
    assert {"erased_fraction", "binomial_std_error", "batches"} <= set(est.details)
    # batch-means error should not undercut the iid binomial error
    assert est.std_error >= 0.5 * est.details["binomial_std_error"]


def test_erasure_estimator_input_checks():
    # one survival indicator has no standard error to report
    for n in (0, 1):
        t = simulate_transmission(_spec(), n, seed=1)
        assert estimate_capacity(t) == (None, None)


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
    with pytest.raises(TypeError):
        estimate_bijective_bounds(_spec(), w)
    # one delay gives no standard error, whichever expectations are asked for
    with pytest.raises(ValueError, match="need at least 2 delays, got 1"):
        estimate_bijective_bounds(_bsc_spec(), np.array([0.3]),
                                  keys=(E_H_NOISE, H_MEAN_NOISE))


@pytest.mark.parametrize("timing, unpredictable", [(True, False), (False, True),
                                                   (False, False)],
                         ids=["csir", "unpredictable", "bounds"])
@pytest.mark.parametrize("n", [0, 1])
def test_evaluate_capacity_needs_two_delays(timing, unpredictable, n):
    spec = replace(_bijective_spec(), receiver_knows_timing=timing)
    with pytest.raises(ValueError, match="at least 2 delays"):
        evaluate_capacity(spec, n, seed=0, assume_unpredictable=unpredictable)
    assert evaluate_capacity(spec, 2, seed=0,
                             assume_unpredictable=unpredictable).method


def _geometric_spec(k, kappa=0.7):
    return _spec(0.6, channel=RandomBijective(
        tuple(range(k)), xor_table(k), wait_geometric_noise(DecoherenceModel(kappa), k)))


def _whole_matrix_bounds(spec, w, keys):
    """estimate_bijective_bounds computed over the whole (n, k) noise matrix."""
    kernel = E_H_KERNEL_NOISE in keys
    probs = spec.channel.noise_dist(w)
    out = {}
    if E_H_NOISE in keys:
        mean_h, se_h, _ = batch_means(discrete_entropy(probs))
        out[E_H_NOISE] = (mean_h, se_h, w.size)
    mixed = probs[1:] if kernel else probs
    if H_MEAN_NOISE in keys:
        m = max(2, math.isqrt(mixed.shape[0]))
        nb = mixed.shape[0] // m
        se = 0.0
        if nb >= 2:
            batch_dists = mixed[: nb * m].reshape(nb, m, -1).mean(axis=1)
            se = float(discrete_entropy(batch_dists).std(ddof=1) / math.sqrt(nb))
        out[H_MEAN_NOISE] = (discrete_entropy(mixed.mean(axis=0)), se, mixed.shape[0])
    if kernel:
        idx = simulate._quantile_buckets(w[:-1])
        counts = np.bincount(idx, minlength=simulate.BUCKETS).astype(float)
        sums = np.stack([np.bincount(idx, weights=mixed[:, j], minlength=simulate.BUCKETS)
                         for j in range(probs.shape[1])], axis=1)
        occupied = counts > 0
        dists = np.zeros_like(sums)
        dists[occupied] = sums[occupied] / counts[occupied, None]
        h_bucket = np.zeros(simulate.BUCKETS)
        h_bucket[occupied] = discrete_entropy(dists[occupied])
        mean_hk, se_hk, _ = batch_means(h_bucket[idx])
        out[E_H_KERNEL_NOISE] = (mean_hk, se_hk, w.size - 1)
    return out


# the key sets evaluate_capacity requests, and the default of all three
_KEY_SETS = ((E_H_NOISE,), (H_MEAN_NOISE,), (H_MEAN_NOISE, E_H_KERNEL_NOISE),
             (E_H_NOISE, H_MEAN_NOISE, E_H_KERNEL_NOISE))


@pytest.mark.parametrize("k", [2, 5, 8])
@pytest.mark.parametrize("cells", [1, 1000])
def test_chunked_bijective_bounds_match_whole_matrix(monkeypatch, k, cells):
    # 4971 = 71 * 70 + 1 delays: with every key set some chunk holds one row
    # (the remainder after whole batches, or W_0 beside the kernel)
    spec = _geometric_spec(k)
    w = stationary_wait_samples(spec.arrival, spec.service, 4971, seed=k).samples
    monkeypatch.setattr(channels, "CHUNK_CELLS", cells)
    for keys in _KEY_SETS:
        got = estimate_bijective_bounds(spec, w, keys)
        want = _whole_matrix_bounds(spec, w, keys)
        assert {key: (e.value, e.std_error, e.n) for key, e in got.items()} == want


@pytest.mark.parametrize("k", [2, 5, 8])
def test_chunked_noise_draws_match_across_chunk_sizes(monkeypatch, k):
    spec = _geometric_spec(k)
    w = stationary_wait_samples(spec.arrival, spec.service, 4971, seed=k).samples
    x = np.random.default_rng(1).integers(0, k, size=w.size)
    runs = []
    for cells in (channels.CHUNK_CELLS, 1, 1000):
        monkeypatch.setattr(channels, "CHUNK_CELLS", cells)
        rng = np.random.default_rng(2)
        runs.append((apply_channel(spec.channel, x, w, rng), rng.random()))
    for y, after in runs[1:]:
        assert np.array_equal(y, runs[0][0]) and after == runs[0][1]


def test_bijective_bounds_memory_is_independent_of_alphabet():
    w = np.random.default_rng(0).exponential(1.0, 200_000)
    peaks = {}
    for k in (2, 64):
        spec = _geometric_spec(k)
        tracemalloc.start()
        try:
            estimate_bijective_bounds(spec, w)
            peaks[k] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[64] <= 1.5 * peaks[2], peaks


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
    assert validate_formula(0.5, EstimateWithError(0.5, 0.0, 1)).passed


def test_sweep_rows_analytic_only():
    rows = sweep_rows([0.0, 0.3, 0.6], [0.5, 1.0], n=0)
    assert len(rows) == 6
    assert [r["kappa"] for r in rows] == [0.5, 0.5, 0.5, 1.0, 1.0, 1.0]
    assert rows[0]["capacity_analytic"] == 0.0
    expected = erasure_capacity(_spec(0.3, 0.5)).bits_per_sec
    assert rows[1]["capacity_analytic"] == pytest.approx(expected, abs=1e-15)
    assert all(r["capacity_mc"] is None and r["mc_stderr"] is None
               for r in rows)


def test_sweep_rows_rejects_a_single_symbol_per_cell():
    with pytest.raises(ValueError, match="at least 2 symbols"):
        sweep_rows([0.3], [1.0], n=1)


def test_sweep_rows_drops_unstable_rates_with_warning():
    with pytest.warns(UserWarning, match="stability"):
        rows = sweep_rows([0.5, 1.0, 1.5], [1.0], n=0)
    assert [r["lambda"] for r in rows] == [0.5]


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="the pool forks its workers")
def test_sweep_rows_pool_matches_serial(monkeypatch, pool_spy):
    lambdas, kappas = [0.2, 0.5, 0.8], [0.1, 1.0]
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    serial = sweep_rows(lambdas, kappas, n=2000, seed=21)
    assert pool_spy == []
    # two CPUs even on a one-CPU runner, so the pool maps the three lambdas
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    before = dict(vars(simulate))
    rows = sweep_rows(lambdas, kappas, n=2000, seed=21)
    assert len(pool_spy) == 1
    assert multiprocessing.active_children() == []
    assert vars(simulate) == before
    assert rows == serial
    # each pooled cell equals that cell recomputed alone from the sweep's
    # one draw: gaps, services and survival marks split from the seed
    gap_rng, service_rng, mark_rng = spawn_rngs(21, 3)
    gaps = gap_rng.standard_exponential(2000)
    services = Exponential(1.0).sample(service_rng, size=2000)
    marks = mark_rng.standard_exponential(2000)
    for i, lam in enumerate(lambdas):
        w = lindley_waits(services, gaps / lam)
        for j, kappa in enumerate(kappas):
            mean, se, _ = batch_means(kappa * w <= marks)
            row = rows[j * len(lambdas) + i]
            assert (row["lambda"], row["kappa"]) == (lam, kappa)
            assert (row["capacity_mc"], row["mc_stderr"]) == (lam * mean, lam * se)
            assert row["mc_stderr"] > 0.0
            assert abs(row["capacity_mc"] - row["capacity_analytic"]) <= \
                6.0 * row["mc_stderr"]


def _record_draws(monkeypatch):
    """Record the generators every sweep splits off its seed, and the gaps
    of every Lindley pass it runs. One CPU keeps the passes in this process,
    where the recorders run."""
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    streams, passes = [], []
    spawn, lindley = simulate.spawn_rngs, simulate.lindley_waits
    monkeypatch.setattr(simulate, "spawn_rngs",
                        lambda *a: streams.append(spawn(*a)) or streams[-1])
    monkeypatch.setattr(simulate, "lindley_waits",
                        lambda s, t: passes.append(t) or lindley(s, t))
    return streams, passes


def test_sweep_rows_draws_once_and_runs_one_lindley_pass_per_lambda(monkeypatch):
    streams, passes = _record_draws(monkeypatch)
    monkeypatch.setattr(simulate, "queue_path", None)  # not on this path
    rows = sweep_rows([0.2, 0.5, 0.8], [0.1, 1.0, 3.0], n=200, seed=4)
    assert len(rows) == 9 and all(r["capacity_mc"] is not None for r in rows)
    # one split of the seed, and each stream advanced by exactly one draw of n
    fresh = spawn_rngs(4, 3)
    gaps = fresh[0].standard_exponential(200)
    Exponential(1.0).sample(fresh[1], size=200)
    fresh[2].standard_exponential(200)
    [drawn] = streams
    assert [r.bit_generator.state for r in drawn] == \
        [r.bit_generator.state for r in fresh]
    # one Lindley pass per lambda, each on the shared gaps scaled by 1/lambda
    assert sorted(gaps[1] / t[1] for t in passes) == pytest.approx([0.2, 0.5, 0.8])


def test_sweep_rows_repeated_kappa_repeats_its_cells():
    rows = sweep_rows([0.5], [1.0, 1.0], n=20_000, seed=9)
    first, second = rows
    assert first == second
    assert abs(first["capacity_mc"] - first["capacity_analytic"]) <= \
        6.0 * first["mc_stderr"]


def test_sweep_rows_zero_rate_draws_no_queue(monkeypatch):
    streams, passes = _record_draws(monkeypatch)
    rows = sweep_rows([0.0, 0.4], [0.5, 2.0], n=500, seed=1)
    zero = [r for r in rows if r["lambda"] == 0.0]
    assert len(zero) == 2
    assert all((r["capacity_mc"], r["mc_stderr"]) == (0.0, 0.0) for r in zero)
    assert len(streams) == 1 and len(passes) == 1
    # a sweep of lambda = 0 alone scores its cells without drawing
    rows = sweep_rows([0.0], [0.5, 2.0], n=500, seed=1)
    assert all((r["capacity_mc"], r["mc_stderr"]) == (0.0, 0.0) for r in rows)
    assert len(streams) == 1 and len(passes) == 1


def test_sweep_rows_capacity_mc_non_increasing_in_kappa():
    # shared survival marks: a symbol that survives kappa survives any
    # smaller kappa, so each lambda's column is ordered whatever the kappa
    # order; independent draws would not order kappas only 0.01 apart
    lambdas = [0.2, 0.5, 0.8, 0.95]
    kappas = [1.0, 0.0, 10.0, 1.02, 0.1, 0.01, 1.01, 1.03]
    rows = sweep_rows(lambdas, kappas, n=5000, seed=13)
    for lam in lambdas:
        column = sorted((r["kappa"], r["capacity_mc"]) for r in rows
                        if r["lambda"] == lam)
        values = [value for _, value in column]
        assert values == sorted(values, reverse=True)
        assert values[0] == lam  # kappa = 0 erases nothing


def test_sweep_rows_deterministic_service_sojourn_matches_analytic():
    rows = sweep_rows([0.2, 0.5, 0.8], [0.5, 2.0], n=200_000, seed=3,
                      service=Deterministic(1.0),
                      convention=DelayConvention.SOJOURN)
    for row in rows:
        assert row["mc_stderr"] > 0.0
        assert abs(row["capacity_mc"] - row["capacity_analytic"]) <= \
            6.0 * row["mc_stderr"]


def test_sweep_rows_deterministic_service():
    rows = sweep_rows([0.4], [1.0], n=0, service=Deterministic(1.0))
    expected = erasure_capacity(_spec(0.4, service=Deterministic(1.0))).bits_per_sec
    assert rows[0]["capacity_analytic"] == pytest.approx(expected, abs=1e-15)


def test_to_csv_format_and_determinism(tmp_path):
    t = simulate_transmission(_spec(0.8, kappa=2.0), 500, seed=5)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    t.to_csv(p1)
    lines = p1.read_text().splitlines()
    assert lines[0] == "index,x,a,d,s,w,y"
    assert len(lines) == 501
    assert any(line.endswith(",?") for line in lines[1:])
    # same seed, same bytes
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
    before = dict(vars(simulate))
    path = tmp_path / "t.csv"
    t.to_csv(path)
    assert path.read_bytes() == _csv_reference(t).encode()
    assert len(pool_spy) == 1
    assert multiprocessing.active_children() == []
    assert vars(simulate) == before


def test_to_csv_from_a_second_thread_formats_serially(tmp_path, monkeypatch, pool_spy):
    monkeypatch.setattr(simulate, "CSV_BLOCK_ROWS", 7)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    t = simulate_transmission(_spec(0.8, kappa=2.0), 300, seed=11)
    before = dict(vars(simulate))
    path = tmp_path / "t.csv"
    writer = threading.Thread(target=t.to_csv, args=(path,))
    writer.start()
    writer.join(timeout=60)
    assert not writer.is_alive()
    assert path.read_bytes() == _csv_reference(t).encode()
    assert pool_spy == []
    assert vars(simulate) == before


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="the pool forks its workers")
def test_fork_map_runs_a_closure_on_one_pool(monkeypatch, pool_spy):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    table = np.arange(10) ** 2
    before = dict(vars(simulate))
    # a lambda over a local array cannot be pickled: it must reach the
    # workers through fork, and only the items and results cross
    assert list(simulate.fork_map(lambda i: int(table[i]) + 1, range(10))) == \
        [i * i + 1 for i in range(10)]
    assert len(pool_spy) == 1
    assert multiprocessing.active_children() == []
    assert vars(simulate) == before


def test_estimate_with_error_validation():
    with pytest.raises(ValueError):
        EstimateWithError(value=1.0, std_error=-0.1, n=10)
