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
from qcl.capacity import (E_H_KERNEL_NOISE, E_H_NOISE, H_MEAN_NOISE, CapacityResult,
                          mm1_capacity_closed_form, pk_wait_transform)
from qcl.channels import (ERASED, BernoulliNoise, DecoherenceModel, Erasure,
                          RandomBijective, WaitGeometricNoise, apply_channel,
                          discrete_entropy, xor_table)
from qcl.numerics import batch_means, quadrature_laplace, spawn_rngs
from qcl.queueing import (QUEUE_BLOCK, DelayConvention, Deterministic, Empirical,
                          Exponential, Gamma, InstabilityError, QueueChannelSpec,
                          Uniform, lindley_waits, queue_blocks,
                          stationary_wait_samples, waits_from_prefix_sums)
from qcl.simulate import (EstimateWithError, Transcript, estimate_bijective_bounds,
                          estimate_capacity, simulate_transmission, sweep_rows)
from qcl.validation import validate_formula


def _capacity(spec, *args, **kwargs):
    return spec.channel.capacity(spec, *args, **kwargs)


def _capacity_from(spec, expectations, **kwargs):
    return spec.channel.capacity_from(spec, expectations, **kwargs)


def _spec(lam=0.5, kappa=1.0, channel=None, service=None, convention=None,
          csir=False):
    return QueueChannelSpec(
        lam=lam, service=service or Exponential(1.0),
        channel=channel or Erasure(DecoherenceModel(kappa), 2),
        delay_convention=convention or DelayConvention.WAITING_BEFORE_SERVICE,
        receiver_knows_timing=csir)


def _bsc_spec(lam=0.5, kappa=1.0, **kw):
    return _spec(lam, channel=RandomBijective.binary_symmetric(
        DecoherenceModel(kappa)), **kw)


def _bijective8_spec():
    return _spec(channel=RandomBijective(xor_table(8),
                                         WaitGeometricNoise(DecoherenceModel(1.0), 8)))


def _bijective_spec(lam=0.5, kappa=1.0):
    channel = RandomBijective(xor_table(2), BernoulliNoise(DecoherenceModel(kappa)))
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


@pytest.mark.parametrize("convention", list(DelayConvention), ids=lambda c: c.value)
@pytest.mark.parametrize("service", [Exponential(1.0), Deterministic(1.0), Gamma(2.0, 0.5),
                                     Uniform(0.5, 1.5), Empirical((0.2, 1.0, 1.8))],
                         ids=lambda s: s.kind)
def test_transcript_columns_are_the_queue_blocks_joined(service, convention):
    # the columns, filled block by block, have the bits of whole-array sums
    # and Lindley waits over the queue's own draws, and the outputs those of
    # one channel call
    channels = (Erasure(DecoherenceModel(1.0), 2),
                RandomBijective(xor_table(3), WaitGeometricNoise(DecoherenceModel(1.0), 3)))
    for n in (0, 1, 2, QUEUE_BLOCK - 1, QUEUE_BLOCK, QUEUE_BLOCK + 1, 3 * QUEUE_BLOCK + 7):
        spec = _spec(0.7, channel=channels[n % 2], service=service, convention=convention)
        t = simulate_transmission(spec, n, seed=n)
        queue_rng, _, noise_rng = spawn_rngs(n, 3)
        blocks = list(queue_blocks(0.7, service, n, queue_rng, convention))
        gaps, services = (np.concatenate([block[i] for block in blocks] or [np.empty(0)])
                          for i in range(2))
        arrivals, waits = np.cumsum(gaps), lindley_waits(services, gaps)
        sojourn = convention is DelayConvention.SOJOURN
        for got, want in ((t.a, arrivals), (t.d, arrivals + waits + services),
                          (t.s, services), (t.w, waits + services if sojourn else waits)):
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert np.array_equal(t.y, apply_channel(spec.channel, t.x, t.w, noise_rng))


def test_transcript_holds_only_its_six_columns():
    # x, a, d, s, w and y, and a few blocks (the whole-path draw peaked at
    # 9.1 * 8n, and 10.1 * 8n with sojourn delays)
    n = 100_000
    for convention in DelayConvention:
        spec = _spec(convention=convention)
        simulate_transmission(spec, 10, seed=1)  # warm
        tracemalloc.start()
        try:
            simulate_transmission(spec, n, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 6 * 8 * n + 10 * 8 * QUEUE_BLOCK


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
    target = _capacity(spec).bits_per_sec
    assert target == pytest.approx(1.0 / 3.0)
    assert abs(est.bits_per_sec - target) <= 4.0 * est.std_error
    assert est.std_error < 0.01
    assert {"erased_fraction", "batches"} <= set(est.diagnostics)
    # batch-means error should not undercut the iid binomial error
    frac = 1.0 - est.diagnostics["erased_fraction"]
    binomial = math.sqrt(frac * (1.0 - frac) / est.n)
    assert est.std_error >= 0.5 * spec.lam * math.log2(spec.channel.size) * binomial


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
    assert aware.bits_per_sec >= blind.bits_per_sec - 1e-12
    assert abs(blind.bits_per_sec - 0.17498878917582289) <= 4.0 * blind.std_error
    assert estimate_capacity(simulate_transmission(
        _bsc_spec(0.5, csir=True), 1000, seed=1))[0] is not None
    assert estimate_capacity(simulate_transmission(_bsc_spec(), 1, seed=1)) == \
        (None, None)


def test_bijective_bounds_bracket_and_order():
    for seed in range(5):
        lower, upper = _capacity(_bijective_spec(), 20_000,
                                         seed=seed).bounds
        assert lower.bits_per_sec <= upper.bits_per_sec + 1e-12
    w = np.random.default_rng(0).exponential(1.0, 1000)
    estimates = estimate_bijective_bounds(_bijective_spec(), w)
    assert all(isinstance(e, EstimateWithError) for e in estimates.values())
    with pytest.raises(AttributeError, match="noise_dist"):  # an erasure spec
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
        _capacity(spec, n, seed=0, assume_unpredictable=unpredictable)
    assert _capacity(spec, 2, seed=0,
                             assume_unpredictable=unpredictable).method


class _Noiseless:
    """A channel qcl does not know, with only the protocol: every symbol
    arrives intact."""

    size = 3

    def apply(self, x, w, rng):
        return x.copy()

    def capacity(self, spec, n=0, seed=None, assume_unpredictable=False):
        return CapacityResult(spec.lam * math.log2(self.size), "Noiseless")

    def score(self, transcript):
        intact = float(np.mean(transcript.y == transcript.x))
        return CapacityResult(transcript.spec.lam * math.log2(self.size) * intact,
                              "Noiseless", n=len(transcript)), None


def test_any_object_with_the_channel_protocol_runs_end_to_end():
    spec = _spec(0.5, channel=_Noiseless())
    t = simulate_transmission(spec, 1000, seed=3)
    np.testing.assert_array_equal(t.y, t.x)
    assert set(np.unique(t.x).tolist()) == {0, 1, 2}
    est, bounds = estimate_capacity(t)
    assert bounds is None and est.method == "Noiseless" and est.n == 1000
    assert est.bits_per_sec == spec.channel.capacity(spec).bits_per_sec == \
        pytest.approx(0.5 * math.log2(3))
    # the one rule estimate_capacity keeps for every channel
    assert estimate_capacity(simulate_transmission(spec, 1, seed=3)) == (None, None)


def _mm1_expectation(f, lam, mu=1.0):
    """E f(W) for the M/M/1 stationary wait: an atom 1 - rho at 0 and the
    density rho (mu - lam) exp(-(mu - lam) w) above it."""
    rho, rate = lam / mu, mu - lam
    return (1.0 - rho) * f(0.0) + rho * rate * quadrature_laplace(f, rate)


def _mm1_noise_truth(noise_dist, lam):
    """The exact E_H_noise and H_mean_noise, in bits per symbol, of a noise
    law at the unit-rate M/M/1 stationary wait."""
    e_h = _mm1_expectation(lambda w: discrete_entropy(noise_dist(w)), lam)
    k = len(noise_dist(0.0))
    mean_law = [_mm1_expectation(lambda w, j=j: float(noise_dist(w)[j]), lam)
                for j in range(k)]
    return e_h, discrete_entropy(mean_law)


def test_mm1_expectation_matches_the_wait_transform():
    for lam, kappa in ((0.1, 1.0), (0.5, 1.0), (0.9, 0.1), (0.5, 7.0)):
        exact = _mm1_expectation(lambda w: math.exp(-kappa * w), lam)
        assert abs(exact - pk_wait_transform(lam, Exponential(1.0), kappa)) <= 1e-9


def test_bijective_capacity_meets_the_mm1_quadrature_truth():
    # k = 4 geometric noise at three loads: the timing-aware value reads
    # E_H_noise, the unpredictable-queue value H_mean_noise
    worst = 0.0
    for lam, kappa in ((0.1, 1.0), (0.5, 1.0), (0.9, 0.1)):
        channel = RandomBijective(xor_table(4), WaitGeometricNoise(DecoherenceModel(kappa), 4))
        e_h, h_mean = _mm1_noise_truth(channel.noise_dist, lam)
        if (lam, kappa) == (0.5, 1.0):
            assert (e_h, h_mean) == (pytest.approx(0.8347029575, abs=1e-9),
                                     pytest.approx(1.2715862463, abs=1e-9))
        for timing, h in ((True, e_h), (False, h_mean)):
            spec = _spec(lam, channel=channel, csir=timing)
            for seed in range(4):
                got = channel.capacity(spec, 200_000, seed=seed,
                                       assume_unpredictable=not timing)
                z = (got.bits_per_sec - lam * (2.0 - h)) / got.std_error
                worst = max(worst, abs(z))
    assert worst <= 4.0


def _geometric_spec(k, kappa=0.7):
    return _spec(0.6, channel=RandomBijective(
        xor_table(k), WaitGeometricNoise(DecoherenceModel(kappa), k)))


def _whole_matrix_bounds(spec, w, keys):
    """estimate_bijective_bounds computed over the whole symbol-major (k, n)
    noise law, in its summation order: per symbol, each batch's delays are
    summed alone, and the delay-averaged law adds the batch sums and the
    partial batch left over."""
    kernel = E_H_KERNEL_NOISE in keys
    laws = spec.channel.noise_dist(w).T
    out = {}
    if E_H_NOISE in keys:
        mean_h, se_h, _ = batch_means(discrete_entropy(laws.T))
        out[E_H_NOISE] = (mean_h, se_h, w.size)
    mixed = laws[:, 1:] if kernel else laws
    if H_MEAN_NOISE in keys:
        rows = mixed.shape[1]
        m = max(2, math.isqrt(rows))
        nb = rows // m
        batch_sums = mixed[:, : nb * m].reshape(len(laws), nb, m).sum(axis=-1)
        total = batch_sums.sum(axis=1) + mixed[:, nb * m:].sum(axis=1)
        se = None
        if nb >= 2:
            se = float(discrete_entropy((batch_sums / m).T).std(ddof=1) / math.sqrt(nb))
        out[H_MEAN_NOISE] = (discrete_entropy(total / rows), se, rows)
    if kernel:
        idx = simulate._quantile_buckets(w[:-1])
        counts = np.bincount(idx, minlength=simulate.BUCKETS).astype(float)
        sums = np.stack([np.bincount(idx, weights=law, minlength=simulate.BUCKETS)
                         for law in mixed])
        occupied = counts > 0
        h_bucket = np.zeros(simulate.BUCKETS)
        h_bucket[occupied] = discrete_entropy((sums[:, occupied] / counts[occupied]).T)
        mean_hk, se_hk, _ = batch_means(h_bucket[idx])
        out[E_H_KERNEL_NOISE] = (mean_hk, se_hk, w.size - 1)
    return out


def _row_major_power_bounds(kappa, k, w, keys):
    """The same expectations from one row-major (n, k) matrix of the
    np.power law q**j / sum, reduced along its rows."""
    q = DecoherenceModel(kappa).error_prob(w)
    weights = np.power(q[:, None], np.arange(k))
    probs = weights / weights.sum(axis=-1, keepdims=True)

    def entropy(p):
        safe = np.where(p > 0.0, p, 1.0)
        return -(p * np.log2(safe)).sum(axis=-1)

    out = {}
    if E_H_NOISE in keys:
        mean_h, se_h, _ = batch_means(entropy(probs))
        out[E_H_NOISE] = (mean_h, se_h)
    mixed = probs[1:] if E_H_KERNEL_NOISE in keys else probs
    if H_MEAN_NOISE in keys:
        m = max(2, math.isqrt(len(mixed)))
        nb = len(mixed) // m
        batch_h = entropy(mixed[: nb * m].reshape(nb, m, k).mean(axis=1))
        out[H_MEAN_NOISE] = (entropy(mixed.mean(axis=0)),
                             batch_h.std(ddof=1) / math.sqrt(nb))
    if E_H_KERNEL_NOISE in keys:
        idx = simulate._quantile_buckets(w[:-1])
        dists = np.zeros((simulate.BUCKETS, k))
        for b in range(simulate.BUCKETS):
            if np.any(idx == b):
                dists[b] = mixed[idx == b].mean(axis=0)
        mean_hk, se_hk, _ = batch_means(entropy(dists)[idx])
        out[E_H_KERNEL_NOISE] = (mean_hk, se_hk)
    return out


# the key sets RandomBijective.capacity requests, and the default of all three
_KEY_SETS = ((E_H_NOISE,), (H_MEAN_NOISE,), (H_MEAN_NOISE, E_H_KERNEL_NOISE),
             (E_H_NOISE, H_MEAN_NOISE, E_H_KERNEL_NOISE))


@pytest.mark.parametrize("k", [2, 5, 8])
@pytest.mark.parametrize("cells", [1, 1000, channels.CHUNK_CELLS])
def test_chunked_bijective_bounds_match_whole_matrix(monkeypatch, k, cells):
    # 4971 = 71 * 70 + 1 delays: with every key set some chunk holds one row
    # (the remainder after whole batches, or W_0 beside the kernel)
    spec = _geometric_spec(k)
    w = stationary_wait_samples(spec.lam, spec.service, 4971, seed=k).samples
    monkeypatch.setattr(channels, "CHUNK_CELLS", cells)
    for keys in _KEY_SETS:
        got = estimate_bijective_bounds(spec, w, keys)
        want = _whole_matrix_bounds(spec, w, keys)
        assert {key: (e.value, e.std_error, e.n) for key, e in got.items()} == want


@pytest.mark.parametrize("k", [2, 5, 8, 32])
@pytest.mark.parametrize("convention", list(DelayConvention))
def test_bijective_bounds_match_the_row_major_power_law(k, convention):
    spec = replace(_geometric_spec(k), delay_convention=convention)
    w = stationary_wait_samples(spec.lam, spec.service, 4971, seed=k,
                                convention=convention).samples
    for keys in _KEY_SETS:
        got = estimate_bijective_bounds(spec, w, keys)
        want = _row_major_power_bounds(0.7, k, w, keys)
        for key, (value, std_error) in want.items():
            assert got[key].value == pytest.approx(value, rel=1e-12, abs=0)
            assert got[key].std_error == pytest.approx(std_error, rel=1e-12, abs=0)


@pytest.mark.parametrize("k", [2, 5, 8])
def test_chunked_noise_draws_match_across_chunk_sizes(monkeypatch, k):
    spec = _geometric_spec(k)
    w = stationary_wait_samples(spec.lam, spec.service, 4971, seed=k).samples
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
    assert np.array_equal(BernoulliNoise(m)(w), np.stack([1.0 - 0.5 * p, 0.5 * p], axis=-1))
    # symbol j is the running product of p, normalized by the sum in symbol order
    weights = np.cumprod(np.stack([np.ones_like(p)] + [p] * 4, axis=-1), axis=-1)
    total = weights[:, 0] + weights[:, 1] + weights[:, 2] + weights[:, 3] + weights[:, 4]
    assert np.array_equal(WaitGeometricNoise(m, 5)(w), weights / total[:, None])
    # a negative or NaN delay would give a negative or NaN p: the bounds'
    # wait check rejects it before any noise law is built
    for law in (BernoulliNoise(m), WaitGeometricNoise(m, 2)):
        spec = _spec(channel=RandomBijective(xor_table(2), law))
        for bad in (-0.5, math.nan):
            with pytest.raises(ValueError, match="waits must be nonnegative"):
                estimate_bijective_bounds(spec, np.array([1.0, bad, 2.0, 0.5]))


def test_validate_formula_reports():
    good = validate_formula(1.0, 1.001, 0.001)
    assert good.passed and good.sigma_distance == pytest.approx(1.0)
    bad = validate_formula(1.0, 1.01, 0.001)
    assert not bad.passed and bad.sigma_distance == pytest.approx(10.0)
    assert "FAIL" in str(bad) and "pass" in str(good)
    # batch_error never gives 0.0, so a 0.0 error fails like a missing one
    exact = validate_formula(2.0, 2.0, 0.0)
    assert not exact.passed
    off = validate_formula(2.0, 2.1, 0.0)
    assert not off.passed and math.isnan(off.sigma_distance)
    assert not validate_formula(0.5, 0.5, 0.0).passed


def test_sweep_rows_analytic_only():
    rows = sweep_rows([0.0, 0.3, 0.6], [0.5, 1.0], n=0)
    assert len(rows) == 6
    assert [r["kappa"] for r in rows] == [0.5, 0.5, 0.5, 1.0, 1.0, 1.0]
    assert rows[0]["capacity_analytic"] == 0.0
    expected = _capacity(_spec(0.3, 0.5)).bits_per_sec
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
    # one draw: gaps, services and survival marks split from the seed, and
    # the running sums of gaps and services shared by every lambda
    gaps, services, marks = _sweep_draws(21, 2000)
    cum_gaps, cum_services = np.cumsum(gaps[1:]), np.cumsum(services[:-1])
    for i, lam in enumerate(lambdas):
        w = np.zeros(2000)
        waits_from_prefix_sums(cum_services - cum_gaps / lam, w[1:])
        for j, kappa in enumerate(kappas):
            mean, se, _ = batch_means(kappa * w <= marks)
            row = rows[j * len(lambdas) + i]
            assert (row["lambda"], row["kappa"]) == (lam, kappa)
            assert (row["capacity_mc"], row["mc_stderr"]) == (lam * mean, lam * se)
            assert row["mc_stderr"] > 0.0
            assert abs(row["capacity_mc"] - row["capacity_analytic"]) <= \
                6.0 * row["mc_stderr"]


def _sweep_draws(seed, n):
    """The gaps, services and survival marks sweep_rows draws from seed at
    its default exponential service."""
    gap_rng, service_rng, mark_rng = spawn_rngs(seed, 3)
    return (gap_rng.standard_exponential(n), Exponential(1.0).sample(service_rng, size=n),
            mark_rng.standard_exponential(n))


def _record_draws(monkeypatch, n):
    """Record the generators every sweep of n symbols splits off its seed,
    and the prefix sums and waits (W_0 = 0 first) of every Lindley pass it
    runs, each joined from the blocks of its lambda column. One CPU keeps
    the passes in this process, where the recorders run."""
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    streams, passes, blocks = [], [], []
    spawn, waits = simulate.spawn_rngs, simulate.waits_from_prefix_sums
    per_pass = math.ceil((n - 1) / QUEUE_BLOCK)

    def record(p, w, floor):
        floor = waits(p, w, floor)
        # the sweep reuses its block buffers once the block is marked
        blocks.append((p.copy(), w.copy()))
        if len(blocks) == per_pass:
            ps, ws = zip(*blocks)
            passes.append((np.concatenate(ps), np.concatenate([[0.0], *ws])))
            blocks.clear()
        return floor

    monkeypatch.setattr(simulate, "spawn_rngs",
                        lambda *a: streams.append(spawn(*a)) or streams[-1])
    monkeypatch.setattr(simulate, "waits_from_prefix_sums", record)
    return streams, passes


def test_sweep_rows_draws_once_and_runs_one_lindley_pass_per_lambda(monkeypatch):
    streams, passes = _record_draws(monkeypatch, 200)
    monkeypatch.setattr(simulate, "queue_blocks", None)  # not on this path
    rows = sweep_rows([0.2, 0.5, 0.8], [0.1, 1.0, 3.0], n=200, seed=4)
    assert len(rows) == 9 and all(r["capacity_mc"] is not None for r in rows)
    # one split of the seed, and each stream advanced by exactly one draw of n
    fresh = spawn_rngs(4, 3)
    gaps = fresh[0].standard_exponential(200)
    services = Exponential(1.0).sample(fresh[1], size=200)
    fresh[2].standard_exponential(200)
    [drawn] = streams
    assert [r.bit_generator.state for r in drawn] == \
        [r.bit_generator.state for r in fresh]
    # one Lindley pass per lambda, in order, each on the shared running sums
    # of services and gaps, the gaps scaled by 1/lambda
    cum_gaps, cum_services = np.cumsum(gaps[1:]), np.cumsum(services[:-1])
    assert [p.tolist() for p, _ in passes] == \
        [(cum_services - cum_gaps / lam).tolist() for lam in (0.2, 0.5, 0.8)]


@pytest.mark.parametrize("lam", [0.01, 0.5, 0.9, 0.99])
def test_sweep_rows_waits_stay_within_their_bound_of_lindley(monkeypatch, lam):
    # the bound of sweep_rows' docstring, at the n of the default sweep
    n = 10 ** 6
    _, passes = _record_draws(monkeypatch, n)
    sweep_rows([lam], [1.0], n=n, seed=7)
    [(_, w)] = passes
    gaps, services, _ = _sweep_draws(7, n)
    bound = math.sqrt(n) * np.finfo(float).eps * (services[:-1].sum() + gaps[1:].sum() / lam)
    assert np.abs(w - lindley_waits(services, gaps / lam)).max() <= bound


def test_sweep_rows_sums_its_draws_in_place(monkeypatch):
    # three draws, then per lambda a boolean row per kappa and two blocks:
    # about 3.7 * 8n at this n. The old path, which scaled the gaps afresh
    # for each lambda, peaked at 6.01 * 8n; prefix sums allocated apart from
    # the draws would add 2 * 8n.
    n = 100_000
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    sweep_rows([0.3], [1.0], n=n, seed=1)  # numpy's first-call allocations
    tracemalloc.start()
    try:
        sweep_rows([0.3, 0.6, 0.9], [0.1, 1.0], n=n, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 8 * n


def test_sweep_column_holds_no_float_temporary_of_n(monkeypatch):
    # the three draws, one survival boolean per kappa and symbol, and the
    # two float buffers of one block: a column that made an n-length float
    # array would pass the bound
    n, kappas = 200_000, [0.1, 1.0]
    assert 2 * 8 * QUEUE_BLOCK < 4 * n
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    sweep_rows([0.3], [1.0], n=n, seed=1)  # numpy's first-call allocations
    tracemalloc.start()
    try:
        sweep_rows([0.3, 0.6, 0.9], kappas, n=n, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 8 * n + len(kappas) * n + 4 * n


def test_sweep_column_memory_does_not_grow_with_the_kappas(monkeypatch):
    # 48 kappas are scored SWEEP_KAPPAS at a time, so a column holds one
    # group's survival booleans: the bound of a SWEEP_KAPPAS-kappa sweep
    n, kappas = 200_000, [0.02 * (i + 1) for i in range(48)]
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    sweep_rows([0.3], [1.0], n=n, seed=1)  # numpy's first-call allocations
    tracemalloc.start()
    try:
        sweep_rows([0.3, 0.6], kappas, n=n, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 8 * n + simulate.SWEEP_KAPPAS * n + 4 * n


def _whole_array_cells(lambdas, kappas, n, seed, convention):
    """sweep_rows' (capacity_mc, mc_stderr) cells, kappas outer, from whole
    arrays: the draws split from seed, each lambda's waits from
    np.minimum.accumulate over all its prefix sums at once."""
    gaps, services, marks = _sweep_draws(seed, n)
    cum_gaps, cum_services = np.cumsum(gaps[1:]), np.cumsum(services[:-1])
    cells = []
    for kappa in kappas:
        for lam in lambdas:
            if lam == 0.0:
                cells.append((0.0, None))
                continue
            p = cum_services - cum_gaps / lam
            w = np.concatenate([[0.0], np.maximum(p, p - np.minimum.accumulate(p))])
            if convention is DelayConvention.SOJOURN:
                w = w + services
            est = simulate._score_survival(kappa * w <= marks, lam, 2)
            cells.append((est.bits_per_sec, est.std_error))
    return cells


@pytest.mark.parametrize("convention", list(DelayConvention))
@pytest.mark.parametrize("n", [2, 3, QUEUE_BLOCK, QUEUE_BLOCK + 1,
                               QUEUE_BLOCK + 2, 2 * QUEUE_BLOCK + 1])
def test_sweep_rows_blocks_give_the_whole_array_bits(monkeypatch, n, convention):
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    lambdas, kappas = [0.0, 0.3, 0.8, 0.97], [0.5, 3.0, 0.5]
    rows = sweep_rows(lambdas, kappas, n=n, seed=11, convention=convention)
    # repr tells the bits of two floats apart, as the sweep CSV writes them
    assert [repr((r["capacity_mc"], r["mc_stderr"])) for r in rows] == \
        list(map(repr, _whole_array_cells(lambdas, kappas, n, 11, convention)))


@pytest.mark.parametrize("survived", [
    np.ones(100, dtype=bool), np.zeros(100, dtype=bool),
    *(np.random.default_rng(n).random(n) < 0.5 for n in (2, 3, 4, 5)),
    np.arange(4) < 2, np.random.default_rng(8).random(10_007) < 0.7,
    *(np.random.default_rng(seed).random(n) < p
      for seed, (n, p) in enumerate([(100, 0.5), (9999, 0.01), (40_000, 0.99),
                                     (123_457, 0.3)]))],
    ids=["all", "none", "n2", "n3", "n4", "n5", "n4-split", "tail",
         "random-100", "random-9999", "random-40000", "random-123457"])
def test_score_survival_counts_have_batch_means_bits(survived):
    # the same bits as batch_means on the 0/1 floats, as Python numbers; below
    # 2 batches or for a constant series there is no standard error on
    # either side
    est = simulate._score_survival(survived, 0.7, 2)
    got = (est.bits_per_sec, est.std_error, est.diagnostics["batches"])
    mean, se, m = batch_means(survived.astype(float))
    assert (se is None) == (m < 2 or survived.all() or not survived.any())
    assert got == (0.7 * mean, None if se is None else 0.7 * se, m)
    assert all(type(x) in (float, int, type(None)) for x in got)


@pytest.mark.parametrize("convention", list(DelayConvention))
def test_sweep_rows_kappa_groups_give_the_whole_array_bits(monkeypatch, convention):
    # 17 kappas make two groups, and kappa 0.5 is in both: its cells repeat
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    kappas = [0.5] + [0.2 * (i + 1) for i in range(15)] + [0.5]
    assert len(kappas) == simulate.SWEEP_KAPPAS + 1
    lambdas, n = [0.0, 0.4, 0.9], QUEUE_BLOCK + 2
    rows = sweep_rows(lambdas, kappas, n=n, seed=5, convention=convention)
    got = [repr((r["capacity_mc"], r["mc_stderr"])) for r in rows]
    assert got == list(map(repr, _whole_array_cells(lambdas, kappas, n, 5, convention)))
    assert got[: len(lambdas)] == got[-len(lambdas):]


def test_a_standard_error_only_where_a_value_was_sampled():
    # every sampled CapacityResult carries its std_error and n, an interval
    # only n (each bound has its own std_error), and a closed form neither
    bsc = _bsc_spec(0.5)
    h = estimate_bijective_bounds(bsc, np.random.default_rng(0).exponential(1.0, 1000))
    blind = _capacity_from(bsc, h)
    evaluated = _capacity(_bijective_spec(), 1000, seed=1)
    est, bounds = estimate_capacity(simulate_transmission(bsc, 1000, seed=2))
    sampled = [_capacity_from(replace(bsc, receiver_knows_timing=True), h),
               *blind.bounds, *evaluated.bounds, est, *bounds.values(),
               _capacity(replace(bsc, receiver_knows_timing=True), 1000, seed=3),
               estimate_capacity(simulate_transmission(_spec(0.5), 1000, seed=4))[0],
               simulate._score_survival(np.random.default_rng(5).random(1000) < 0.7,
                                        0.5, 2)]
    for result in sampled:
        assert result.std_error > 0.0 and result.n in (999, 1000)
        assert "std_error" not in result.diagnostics and "n" not in result.diagnostics
    for interval in (blind, evaluated):
        assert interval.bits_per_sec is None
        assert interval.std_error is None and interval.n == 999
    for closed in (_capacity(_spec(0.5)), mm1_capacity_closed_form(0.5, 1.0),
                   _capacity(_spec(0.5), 1000, seed=1)):
        assert closed.std_error is None and closed.n is None


def test_sweep_rows_repeated_kappa_repeats_its_cells():
    rows = sweep_rows([0.5], [1.0, 1.0], n=20_000, seed=9)
    first, second = rows
    assert first == second
    assert abs(first["capacity_mc"] - first["capacity_analytic"]) <= \
        6.0 * first["mc_stderr"]


def test_sweep_rows_zero_rate_draws_no_queue(monkeypatch):
    streams, passes = _record_draws(monkeypatch, 500)
    rows = sweep_rows([0.0, 0.4], [0.5, 2.0], n=500, seed=1)
    zero = [r for r in rows if r["lambda"] == 0.0]
    assert len(zero) == 2
    assert all((r["capacity_mc"], r["mc_stderr"]) == (0.0, None) for r in zero)
    assert len(streams) == 1 and len(passes) == 1
    # a sweep of lambda = 0 alone scores its cells without drawing
    rows = sweep_rows([0.0], [0.5, 2.0], n=500, seed=1)
    assert all((r["capacity_mc"], r["mc_stderr"]) == (0.0, None) for r in rows)
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
    expected = _capacity(_spec(0.4, service=Deterministic(1.0))).bits_per_sec
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
    if isinstance(spec.channel, Erasure) and n:
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
