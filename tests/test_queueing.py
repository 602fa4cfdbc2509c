"""Unit tests for the queueing layer: service laws, the Lindley recursion,
and stationary wait sampling."""

import math

import numpy as np
import pytest

from qcl.numerics import batch_means
from qcl.queueing import (DelayConvention, Deterministic, Empirical,
                          Exponential, Gamma, InstabilityError,
                          PoissonArrivals, Uniform, check_stability,
                          default_burn_in, lindley_waits,
                          stationary_wait_samples)


def test_check_stability_message_and_threshold():
    check_stability(0.99, 1.0)  # fine
    with pytest.raises(InstabilityError, match=r"^unstable: lambda >= mu"):
        check_stability(1.0, 1.0)
    with pytest.raises(InstabilityError):
        check_stability(1.2, 1.0)
    assert issubclass(InstabilityError, ValueError)


def test_poisson_arrivals_gap_moments():
    gaps = PoissonArrivals(2.0).sample_interarrival(np.random.default_rng(3),
                                                    size=200_000)
    assert gaps.min() >= 0.0
    # exponential(1/2): mean 0.5, sd 0.5
    assert gaps.mean() == pytest.approx(0.5, abs=4 * 0.5 / math.sqrt(gaps.size))


def test_poisson_arrivals_rejects_bad_rate():
    for rate in (0.0, -1.0, math.inf):
        with pytest.raises(ValueError):
            PoissonArrivals(rate)


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


@pytest.mark.parametrize("law, params", [
    (Gamma, (math.inf, 1.0)), (Gamma, (1.0, math.inf)), (Gamma, (math.nan, 1.0)),
    (Uniform, (0.0, math.inf)), (Uniform, (math.inf, math.inf)), (Uniform, (0.0, math.nan)),
])
def test_service_laws_reject_non_finite_parameters(law, params):
    with pytest.raises(ValueError):
        law(*params)


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
    waits = stationary_wait_samples(PoissonArrivals(0.5), Exponential(1.0),
                                    400_000, seed=31)
    mean, se, _ = batch_means(waits.samples)
    assert mean == pytest.approx(1.0, abs=4 * se)
    assert len(waits) == 400_000
    assert waits.samples.min() >= 0.0


def test_sojourn_convention_adds_service_time():
    waits = stationary_wait_samples(PoissonArrivals(0.5), Deterministic(1.0),
                                    200_000, seed=32,
                                    convention=DelayConvention.SOJOURN)
    assert waits.samples.min() >= 1.0  # every sojourn includes the service
    queue_only = stationary_wait_samples(PoissonArrivals(0.5),
                                         Deterministic(1.0), 200_000, seed=32)
    assert np.allclose(waits.samples, queue_only.samples + 1.0)


def test_stationary_wait_samples_reproducible():
    a = stationary_wait_samples(PoissonArrivals(0.3), Gamma(2.0, 0.5), 5000,
                                seed=9)
    b = stationary_wait_samples(PoissonArrivals(0.3), Gamma(2.0, 0.5), 5000,
                                seed=9)
    c = stationary_wait_samples(PoissonArrivals(0.3), Gamma(2.0, 0.5), 5000,
                                seed=10)
    assert np.array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, c.samples)


def test_stationary_wait_samples_rejects_unstable_and_empty():
    with pytest.raises(InstabilityError):
        stationary_wait_samples(PoissonArrivals(1.2), Exponential(1.0), 10)
    with pytest.raises(ValueError):
        stationary_wait_samples(PoissonArrivals(0.5), Exponential(1.0), 0)

