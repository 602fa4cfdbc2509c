"""Unit tests for the queueing layer: the spec and its stability rule,
service laws, the Lindley recursion, and stationary wait sampling."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from qcl import queueing
from qcl.capacity import mm1_capacity_closed_form, pk_wait_transform
from qcl.channels import DecoherenceModel, Erasure
from qcl.numerics import batch_means
from qcl.queueing import (MAX_N, QUEUE_BLOCK, DelayConvention, Deterministic,
                          Empirical, Exponential, Gamma, InstabilityError,
                          QueueChannelSpec, Uniform, check_stability,
                          default_burn_in, lindley_waits, queue_blocks,
                          stationary_wait_samples, waits_from_prefix_sums)

LAWS = (Exponential(1.0), Deterministic(1.0), Gamma(2.0, 0.5), Uniform(0.5, 1.5),
        Empirical((0.2, 1.0, 1.8)))
# every way a path of n symbols can meet the block edges
BLOCK_EDGES = (0, 1, 2, QUEUE_BLOCK - 1, QUEUE_BLOCK, QUEUE_BLOCK + 1,
               3 * QUEUE_BLOCK + 7)


def test_check_stability_message_and_threshold():
    check_stability(0.99, 1.0)  # fine
    with pytest.raises(InstabilityError, match=r"^unstable: lambda >= mu"):
        check_stability(1.0, 1.0)
    with pytest.raises(InstabilityError):
        check_stability(1.2, 1.0)
    assert issubclass(InstabilityError, ValueError)


def test_poisson_arrivals_gap_moments():
    gaps = np.concatenate([t for t, *_ in queue_blocks(
        2.0, Exponential(4.0), 200_000, np.random.default_rng(3),
        DelayConvention.WAITING_BEFORE_SERVICE)])
    assert gaps.min() >= 0.0
    # exponential(1/2): mean 0.5, sd 0.5
    assert gaps.mean() == pytest.approx(0.5, abs=4 * 0.5 / math.sqrt(gaps.size))


def _spec(lam, service=Exponential(1.0)):
    return QueueChannelSpec(lam=lam, service=service,
                            channel=Erasure(DecoherenceModel(1.0), 2))


def test_arrival_rate_rule_at_every_entry_point():
    entry_points = (lambda lam: check_stability(lam, 1.0),
                    lambda lam: pk_wait_transform(lam, Exponential(1.0), 1.0),
                    lambda lam: mm1_capacity_closed_form(lam, 1.0),
                    lambda lam: stationary_wait_samples(lam, Exponential(1.0), 10),
                    _spec)
    for fn in entry_points:
        for lam in (math.nan, -0.1, 0.0, math.inf):
            with pytest.raises(ValueError, match="^arrival rate must be a positive "
                                                 "finite number$"):
                fn(lam)


def test_queue_channel_spec_is_stable_by_construction():
    spec = _spec(0.25, Deterministic(2.0))
    assert (spec.lam, spec.mu) == (0.25, 0.5)
    with pytest.raises(InstabilityError):
        _spec(0.5, Deterministic(2.0))  # lam == mu
    with pytest.raises(InstabilityError):
        replace(spec, lam=spec.mu)  # replace builds, and checks, a new spec


def test_service_means():
    assert Exponential(2.0).mean == 0.5
    assert Deterministic(1.3).mean == 1.3
    assert Gamma(2.0, 0.5).mean == 1.0
    assert Uniform(0.5, 1.5).mean == 1.0
    assert Empirical((1.0, 2.0, 3.0)).mean == 2.0


def test_service_laplace_frozen_values():
    assert Exponential(1.0).laplace(1.0) == pytest.approx(0.5)
    assert Deterministic(1.0).laplace(1.0) == pytest.approx(math.exp(-1.0))
    assert Gamma(2.0, 0.5).laplace(1.0) == pytest.approx(4.0 / 9.0)
    assert Uniform(0.5, 1.5).laplace(1.0) == pytest.approx(
        math.exp(-0.5) * (1.0 - math.exp(-1.0)))
    assert Empirical((1.0, 2.0)).laplace(1.0) == pytest.approx(
        0.5 * (math.exp(-1.0) + math.exp(-2.0)))


def test_service_laplace_at_zero_is_one():
    for service in (Exponential(1.0), Deterministic(1.0), Gamma(2.0, 0.5),
                    Uniform(0.5, 1.5), Empirical((0.3, 0.9))):
        assert service.laplace(0.0) == pytest.approx(1.0)
        assert service.one_minus_laplace(0.0) == pytest.approx(0.0, abs=1e-15)


def test_one_minus_laplace_consistent_with_laplace():
    for service in (Exponential(1.0), Deterministic(1.0), Gamma(2.0, 0.5),
                    Uniform(0.5, 1.5), Empirical((0.3, 0.9, 2.1))):
        for s in (1e-3, 0.7, 5.0):
            assert service.one_minus_laplace(s) == pytest.approx(
                1.0 - service.laplace(s), abs=1e-12)


def test_one_minus_laplace_keeps_precision_at_tiny_s():
    # direct 1 - laplace(s) would lose most digits to cancellation here
    s = 1e-12
    for service in (Exponential(1.0), Deterministic(1.0), Gamma(2.0, 0.5),
                    Uniform(0.5, 1.5), Empirical((0.5, 1.5))):
        # every law has mean 1, so the slope at 0 is 1; abs=0 because
        # approx's default absolute tolerance of 1e-12 would accept anything
        assert service.one_minus_laplace(s) == pytest.approx(s, rel=1e-6, abs=0)


def test_service_sample_means():
    rng = np.random.default_rng(8)
    for service in (Exponential(1.0), Gamma(2.0, 0.5), Uniform(0.5, 1.5),
                    Empirical((0.5, 1.0, 1.5))):
        draws = np.asarray(service.sample(rng, size=200_000))
        se = draws.std() / math.sqrt(draws.size)
        assert draws.mean() == pytest.approx(service.mean, abs=4 * se + 1e-12)


def test_deterministic_sample_shapes():
    service = Deterministic(0.7)
    assert service.sample(np.random.default_rng(0)) == 0.7
    arr = service.sample(np.random.default_rng(0), size=5)
    assert np.array_equal(arr, np.full(5, 0.7))


def test_service_parameter_validation():
    with pytest.raises(ValueError):
        Exponential(0.0)
    with pytest.raises(ValueError):
        Deterministic(-1.0)
    with pytest.raises(ValueError):
        Gamma(0.0, 1.0)
    with pytest.raises(ValueError):
        Uniform(1.5, 0.5)
    with pytest.raises(ValueError):
        Uniform(-0.1, 1.0)
    with pytest.raises(ValueError):
        Empirical(())
    with pytest.raises(ValueError):
        Empirical((1.0, -2.0))


@pytest.mark.parametrize("samples", [(0.0, 0.0), (0.0, 5e-324)])
def test_empirical_rejects_a_zero_mean(samples):
    # every formula and the spec divide by the mean
    with pytest.raises(ValueError, match="positive mean"):
        Empirical(samples)
    assert Empirical((0.0, 1e-300)).mean > 0.0


@pytest.mark.parametrize("law, params", [
    (Uniform, (0.0, 5e-324)), (Gamma, (1e-200, 1e-200)),  # the mean underflows to 0
    (Exponential, (5e-324,)),  # the mean overflows to inf, so mu = 0
    (Deterministic, (5e-324,)),  # mu = 1/mean overflows to inf
])
def test_service_laws_need_a_mean_and_rate_every_formula_can_divide_by(law, params):
    # one rule, checked as each law is built: no law reaches a spec to raise
    # ZeroDivisionError or an InstabilityError at mu = 0 there, or to run at
    # an infinite rate
    with pytest.raises(ValueError, match="positive mean"):
        law(*params)


@pytest.mark.parametrize("law, params", [
    (Gamma, (math.inf, 1.0)), (Gamma, (1.0, math.inf)), (Gamma, (math.nan, 1.0)),
    (Uniform, (0.0, math.inf)), (Uniform, (math.inf, math.inf)), (Uniform, (0.0, math.nan)),
])
def test_service_laws_reject_non_finite_parameters(law, params):
    with pytest.raises(ValueError):
        law(*params)


def test_uniform_mean_of_huge_endpoints_does_not_overflow():
    # low + high overflows to inf; the halves sum to a finite mean
    assert Uniform(1e308, 1.7e308).mean == pytest.approx(1.35e308, rel=1e-15)


def test_lindley_waits_matches_scalar_recursion():
    rng = np.random.default_rng(21)
    s = rng.exponential(1.0, 1500)
    t = rng.exponential(2.0, 1500)
    got = lindley_waits(s, t)
    expected = np.empty_like(got)
    w = 0.0
    for j in range(len(s)):
        expected[j] = w
        w = max(0.0, w + s[j] - t[j + 1]) if j + 1 < len(s) else w
    assert np.allclose(got, expected, atol=1e-12)


@pytest.mark.parametrize("rho", [0.3, 0.9, 0.99])
def test_lindley_waits_is_bit_identical_to_its_scalar_prefix_sums(rho):
    # max(0, w + s - t) restarts its sum after each idle period and so rounds
    # differently; the bits are those of the prefix-sum identity, one
    # increment, running minimum and maximum at a time
    rng = np.random.default_rng(24)
    s = rng.exponential(1.0, 20_000)
    t = rng.exponential(1.0 / rho, 20_000)
    expected = np.zeros_like(s)
    p, low = 0.0, math.inf
    for j in range(1, s.size):
        p += s[j - 1] - t[j]
        low = min(low, p)
        expected[j] = max(p, p - low)
    got = lindley_waits(s, t)
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))


@pytest.mark.parametrize("rho", [0.3, 0.9, 0.99])
def test_waits_running_minimum_has_minimum_accumulate_bits(rho):
    # np.fmin.accumulate and np.minimum.accumulate differ only on NaNs; the
    # waits, whole or in blocks that carry the running minimum, have the
    # bits of max(P, P - running minimum)
    rng = np.random.default_rng(26)
    n = 100_000
    p = np.cumsum(rng.exponential(1.0, n) - rng.exponential(1.0 / rho, n))
    running = np.minimum.accumulate(p)
    assert np.array_equal(np.fmin.accumulate(p).view(np.int64), running.view(np.int64))
    expected = np.maximum(p, p - running)
    whole = np.empty(n)
    assert waits_from_prefix_sums(p, whole) == min(0.0, running[-1])
    assert np.array_equal(whole.view(np.int64), expected.view(np.int64))
    blocks, floor = np.empty(n), 0.0
    for lo, hi in zip([0, 1, 2, 777, 4096, 50_000], [1, 2, 777, 4096, 50_000, n]):
        floor = waits_from_prefix_sums(p[lo:hi], blocks[lo:hi], floor)
    assert np.array_equal(blocks.view(np.int64), expected.view(np.int64))


def test_lindley_waits_holds_one_temporary():
    # the output and one n-sized temporary; the inputs exist beforehand
    n = 100_000
    rng = np.random.default_rng(25)
    s, t = rng.exponential(1.0, n), rng.exponential(1.2, n)
    tracemalloc.start()
    try:
        lindley_waits(s, t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 8 * n


def test_lindley_waits_monotone_in_service_times():
    # same arrivals, uniformly longer services: every wait can only grow
    rng = np.random.default_rng(22)
    s = rng.exponential(0.8, 5000)
    t = rng.exponential(1.6, 5000)
    base = lindley_waits(s, t)
    slower = lindley_waits(s + 0.1, t)
    assert np.all(slower >= base - 1e-12)


def test_lindley_waits_start_empty_and_nonnegative():
    rng = np.random.default_rng(23)
    s = rng.exponential(1.0, 2000)
    t = rng.exponential(2.0, 2000)
    w = lindley_waits(s, t)
    assert w[0] == 0.0
    assert w.min() >= 0.0


def test_default_burn_in_floor_and_heavy_traffic():
    assert default_burn_in(0.5, 1.0) == 10_000
    # grows like 10/(mu - lam) once that beats the floor (up to fp rounding)
    assert 100_000 <= default_burn_in(0.9999, 1.0) <= 100_001


def test_stationary_wait_mean_matches_mm1():
    # E[Wq] = lam / (mu*(mu - lam)) = 1.0 at lam=0.5, mu=1
    waits = stationary_wait_samples(0.5, Exponential(1.0), 400_000, seed=31)
    mean, se, _ = batch_means(waits.samples)
    assert mean == pytest.approx(1.0, abs=4 * se)
    assert len(waits) == 400_000
    assert waits.samples.min() >= 0.0


def test_sojourn_convention_adds_service_time():
    waits = stationary_wait_samples(0.5, Deterministic(1.0), 200_000, seed=32,
                                    convention=DelayConvention.SOJOURN)
    assert waits.samples.min() >= 1.0  # every sojourn includes the service
    queue_only = stationary_wait_samples(0.5, Deterministic(1.0), 200_000, seed=32)
    assert np.allclose(waits.samples, queue_only.samples + 1.0)


def test_stationary_wait_samples_reproducible():
    a = stationary_wait_samples(0.3, Gamma(2.0, 0.5), 5000, seed=9)
    b = stationary_wait_samples(0.3, Gamma(2.0, 0.5), 5000, seed=9)
    c = stationary_wait_samples(0.3, Gamma(2.0, 0.5), 5000, seed=10)
    assert np.array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, c.samples)
    # the seed may also be a SeedSequence, or a Generator, which is drawn
    # from as given, so its stream advances
    ss = stationary_wait_samples(0.3, Gamma(2.0, 0.5), 5000,
                                 seed=np.random.SeedSequence(9))
    assert np.array_equal(ss.samples, a.samples)
    gen = np.random.default_rng(9)
    first, second = (stationary_wait_samples(0.3, Gamma(2.0, 0.5), 5000, seed=gen)
                     for _ in range(2))
    assert np.array_equal(first.samples, a.samples)
    assert not np.array_equal(second.samples, first.samples)


def test_stationary_wait_samples_rejects_unstable_and_empty():
    with pytest.raises(InstabilityError):
        stationary_wait_samples(1.2, Exponential(1.0), 10)
    with pytest.raises(ValueError):
        stationary_wait_samples(0.5, Exponential(1.0), 0)


def _joined(blocks):
    """The (gaps, services, waits, delays) of queue_blocks' blocks, joined."""
    return [np.concatenate([block[i] for block in blocks] or [np.empty(0)])
            for i in range(4)]


@pytest.mark.parametrize("convention", list(DelayConvention), ids=lambda c: c.value)
@pytest.mark.parametrize("service", LAWS, ids=lambda s: s.kind)
def test_queue_blocks_have_the_bits_of_lindley_waits(service, convention):
    # held to the generator's own draws: Empirical resamples through numpy's
    # buffered integers, so its stream depends on the block sizes
    for n in BLOCK_EDGES:
        blocks = list(queue_blocks(0.7, service, n, np.random.default_rng(n),
                                   convention))
        assert all(t.size <= QUEUE_BLOCK for t, *_ in blocks)
        gaps, services, waits, delays = _joined(blocks)
        assert gaps.size == services.size == n
        expected = lindley_waits(services, gaps)
        assert np.array_equal(waits.view(np.int64), expected.view(np.int64))
        if convention is DelayConvention.SOJOURN:
            expected += services
        assert np.array_equal(delays.view(np.int64), expected.view(np.int64))


@pytest.mark.parametrize("convention", list(DelayConvention), ids=lambda c: c.value)
def test_stationary_wait_samples_holds_only_its_samples(convention):
    # the n kept delays and a few blocks: no burn-in and no n-length gaps,
    # services or prefix sums (the whole-path draw peaked at 4.4 * 8n)
    n = 100_000
    stationary_wait_samples(0.5, Exponential(1.0), 10, seed=1)  # warm
    tracemalloc.start()
    try:
        stationary_wait_samples(0.5, Exponential(1.0), n, seed=1, convention=convention)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * n + 10 * 8 * QUEUE_BLOCK


def test_burn_in_beyond_the_sample_cap_is_refused_before_any_draw(monkeypatch):
    # the cap counts the burn-in (10**4 here) with the kept samples
    monkeypatch.setattr(queueing, "MAX_N", 10_005)
    assert len(stationary_wait_samples(0.5, Exponential(1.0), 5, seed=1)) == 5

    def no_draw(*args):
        raise AssertionError("drew a queue path")

    monkeypatch.setattr(queueing, "queue_blocks", no_draw)
    with pytest.raises(ValueError, match=r"^n \+ burn-in must be at most 10005, "
                                         r"got 6 \+ 10000$"):
        stationary_wait_samples(0.5, Exponential(1.0), 6)
    # a burn-in of about 10**12 delays
    monkeypatch.setattr(queueing, "MAX_N", MAX_N)
    with pytest.raises(ValueError, match=rf"^n \+ burn-in must be at most {MAX_N}, "
                                         r"got 10 \+ 999999917260$"):
        stationary_wait_samples(0.99999999999, Exponential(1.0), 10)
