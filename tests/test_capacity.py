"""Unit tests for the closed-form capacity layer, against high-precision
reference values computed independently from the same transforms."""

import math

import pytest

from qcl.capacity import (METHOD_BOUND_LOWER, METHOD_BOUND_UPPER,
                          METHOD_CLOSED_FORM_MM1, METHOD_BOUNDS, METHOD_MC,
                          METHOD_PK, E_H_NOISE, H_MEAN_NOISE, E_H_KERNEL_NOISE,
                          alpha_mg1, mean_survival,
                          mm1_capacity_closed_form, optimal_lambda_mg1,
                          pk_wait_transform)
from qcl.channels import (BernoulliNoise, DecoherenceModel, Erasure,
                          RandomBijective, binary_entropy, xor_table)
from qcl.queueing import (DelayConvention, Deterministic, Exponential, Gamma,
                          InstabilityError, QueueChannelSpec, Uniform)
from qcl.simulate import EstimateWithError


def _erasure_spec(lam, kappa, service=None, k=2, convention=None):
    return QueueChannelSpec(
        lam=lam, service=service or Exponential(1.0),
        channel=Erasure(DecoherenceModel(kappa), k),
        delay_convention=convention or DelayConvention.WAITING_BEFORE_SERVICE)


def _closed_form(spec):
    return spec.channel.capacity(spec)


def _capacity_from(spec, expectations, **kwargs):
    return spec.channel.capacity_from(spec, expectations, **kwargs)


def test_spec_properties_and_decoherence_routing():
    spec = _erasure_spec(0.5, 1.0)
    assert spec.lam == 0.5
    assert spec.mu == 1.0
    assert spec.channel.decoherence.kappa == 1.0
    bsc = QueueChannelSpec(
        lam=0.5, service=Exponential(1.0),
        channel=RandomBijective.binary_symmetric(DecoherenceModel(2.0)))
    # Bernoulli(p(w)/2) noise with p(w) = 1 - exp(-2w)
    assert bsc.channel.noise_law(0.5) == pytest.approx([0.5 + 0.5 * math.exp(-1.0),
                                                        0.5 - 0.5 * math.exp(-1.0)])
    with pytest.raises(InstabilityError):
        _erasure_spec(1.5, 1.0)  # an unstable spec cannot be built


def test_alpha_values():
    assert alpha_mg1(Exponential(1.0), 1.0) == pytest.approx(0.5)
    assert alpha_mg1(Deterministic(1.0), 1.0) == pytest.approx(
        -math.expm1(-1.0))
    assert alpha_mg1(Uniform(0.5, 1.5), 1.0) == pytest.approx(
        0.6165995004357964, abs=1e-12)
    # tiny kappa: alpha -> E[S] without catastrophic cancellation
    assert alpha_mg1(Gamma(2.0, 0.5), 1e-12) == pytest.approx(1.0, rel=1e-6)
    with pytest.raises(ValueError):
        alpha_mg1(Exponential(1.0), 0.0)


def test_pk_wait_transform_frozen_values():
    assert pk_wait_transform(0.5, Exponential(1.0), 1.0) == pytest.approx(
        2.0 / 3.0, abs=1e-12)
    assert pk_wait_transform(0.5, Deterministic(1.0), 1.0) == pytest.approx(
        0.7310585786300049, abs=1e-12)


def test_pk_wait_transform_limits_and_monotonicity():
    values = [pk_wait_transform(lam, Exponential(1.0), 1.0)
              for lam in (0.1, 0.3, 0.5, 0.7, 0.9)]
    assert all(b < a for a, b in zip(values, values[1:]))  # more load, more wait
    assert pk_wait_transform(1e-9, Exponential(1.0), 1.0) == pytest.approx(1.0)
    with pytest.raises(InstabilityError):
        pk_wait_transform(1.0, Exponential(1.0), 1.0)
    with pytest.raises(ValueError):
        pk_wait_transform(0.5, Exponential(1.0), 0.0)


def test_mean_survival_conventions():
    assert mean_survival(_erasure_spec(0.5, 1.0)) == pytest.approx(2.0 / 3.0)
    sojourn = _erasure_spec(0.5, 1.0,
                            convention=DelayConvention.SOJOURN)
    # sojourn multiplies in the service transform F(kappa) = 1/2
    assert mean_survival(sojourn) == pytest.approx(1.0 / 3.0)
    assert mean_survival(_erasure_spec(0.5, 0.0)) == 1.0


def test_erasure_capacity_mm1_closed_form():
    result = _closed_form(_erasure_spec(0.5, 1.0))
    assert result.bits_per_sec == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert result.method == METHOD_CLOSED_FORM_MM1
    assert result.diagnostics["alpha"] == pytest.approx(0.5)


def test_erasure_capacity_md1_uses_transform_method():
    result = _closed_form(_erasure_spec(0.5, 1.0, service=Deterministic(1.0)))
    assert result.bits_per_sec == pytest.approx(0.3655292893150024, abs=1e-12)
    assert result.method == METHOD_PK


def test_erasure_capacity_scales_with_alphabet():
    two = _closed_form(_erasure_spec(0.5, 1.0, k=2))
    four = _closed_form(_erasure_spec(0.5, 1.0, k=4))
    assert four.bits_per_sec == pytest.approx(2.0 * two.bits_per_sec)


def test_mm1_closed_form_values_and_guards():
    assert mm1_capacity_closed_form(0.5, 1.0).bits_per_sec == pytest.approx(
        1.0 / 3.0, abs=1e-15)
    # capacity at the optimal rate
    assert mm1_capacity_closed_form(0.5857864376269049, 1.0).bits_per_sec == \
        pytest.approx(0.3431457505076198, abs=1e-12)
    with pytest.raises(ValueError):
        mm1_capacity_closed_form(-0.1, 1.0)
    with pytest.raises(InstabilityError):
        mm1_capacity_closed_form(1.0, 1.0)
    with pytest.raises(ValueError):
        mm1_capacity_closed_form(0.5, 0.0)


def test_optimal_lambda_frozen_values():
    assert optimal_lambda_mg1(Exponential(1.0), 1.0) == pytest.approx(
        0.5857864376269049, abs=1e-12)
    assert optimal_lambda_mg1(Exponential(1.0), 0.01) == pytest.approx(
        0.9095012437887911, abs=1e-12)
    assert optimal_lambda_mg1(Deterministic(1.0), 1.0) == pytest.approx(
        0.6224593312018546, abs=1e-12)
    assert optimal_lambda_mg1(Gamma(2.0, 0.5), 1.0) == pytest.approx(
        0.6, abs=1e-12)


def test_optimal_lambda_is_a_maximum():
    for service in (Exponential(1.0), Deterministic(1.0), Uniform(0.5, 1.5)):
        for kappa in (0.1, 1.0):
            star = optimal_lambda_mg1(service, kappa)

            def c(lam):
                return lam * pk_wait_transform(lam, service, kappa)

            assert c(star) >= c(star - 0.01)
            assert c(star) >= c(star + 0.01)


def test_optimal_lambda_scales_with_service_rate():
    # running the clock twice as fast doubles mu, kappa, and the optimum
    slow = optimal_lambda_mg1(Exponential(1.0), 1.0)
    fast = optimal_lambda_mg1(Exponential(2.0), 2.0)
    assert fast == pytest.approx(2.0 * slow)


def _h(value):
    """A noise-entropy expectation as RandomBijective.capacity_from takes it."""
    return EstimateWithError(value=value, std_error=0.0, n=2)


def _bsc_spec(lam, csir=False):
    return QueueChannelSpec(
        lam=lam, service=Exponential(1.0),
        channel=RandomBijective.binary_symmetric(DecoherenceModel(1.0)),
        receiver_knows_timing=csir)


def test_bsc_capacity_routes_on_timing_knowledge():
    # the binary symmetric channel is the k=2 bijective channel:
    # H(N(W)) = h(phi(W)) and H(E N(W)) = h(E phi(W))
    with_timing = _capacity_from(_bsc_spec(0.5, csir=True), {E_H_NOISE: _h(0.65)})
    assert with_timing.bits_per_sec == pytest.approx(0.5 * 0.35)
    assert with_timing.diagnostics["csir"] is True
    # E[phi(W)] = (1 - E[e^-W])/2 = 1/6 at lam=0.5, kappa=1
    blind = _capacity_from(_bsc_spec(0.5),
                               {H_MEAN_NOISE: _h(binary_entropy(1.0 / 6.0))},
                               assume_unpredictable=True)
    assert blind.bits_per_sec == pytest.approx(0.17498878917582289, abs=1e-12)
    assert "assumption" in blind.diagnostics


def test_bsc_capacity_accepts_estimates_and_checks_keys():
    est = EstimateWithError(value=binary_entropy(1.0 / 6.0), std_error=1e-4, n=100)
    blind = _capacity_from(_bsc_spec(0.5), {H_MEAN_NOISE: est},
                               assume_unpredictable=True)
    assert blind.bits_per_sec == pytest.approx(0.17498878917582289, abs=1e-12)
    assert blind.std_error == pytest.approx(0.5 * 1e-4)
    assert blind.diagnostics["expectation_std_error"] == 1e-4
    assert blind.n == 100
    with pytest.raises(ValueError, match="E_H_noise"):
        _capacity_from(_bsc_spec(0.5, csir=True), {H_MEAN_NOISE: _h(0.1)})
    with pytest.raises(ValueError, match="H_mean_noise"):
        _capacity_from(_bsc_spec(0.5), {E_H_NOISE: _h(0.1)},
                           assume_unpredictable=True)
    with pytest.raises(InstabilityError):
        _capacity_from(_bsc_spec(1.2), {H_MEAN_NOISE: _h(0.1)},
                           assume_unpredictable=True)


def _bijective_spec(lam, csir=False):
    channel = RandomBijective(xor_table(2), BernoulliNoise(DecoherenceModel(1.0)))
    return QueueChannelSpec(lam=lam, service=Exponential(1.0), channel=channel,
                            receiver_knows_timing=csir)


def test_bijective_capacity_timing_aware_value():
    result = _capacity_from(_bijective_spec(0.5, csir=True),
                                {E_H_NOISE: _h(0.4)})
    assert result.bits_per_sec == pytest.approx(0.5 * 0.6)
    assert result.method == METHOD_MC


def test_bijective_capacity_unpredictable_route():
    result = _capacity_from(_bijective_spec(0.5), {H_MEAN_NOISE: _h(0.65)},
                                assume_unpredictable=True)
    assert result.bits_per_sec == pytest.approx(0.5 * 0.35)
    assert "assumption" in result.diagnostics


def test_bijective_capacity_bound_pair():
    result = _capacity_from(
        _bijective_spec(0.5), {H_MEAN_NOISE: _h(0.9), E_H_KERNEL_NOISE: _h(0.7)})
    assert result.bits_per_sec is None
    assert result.method == METHOD_BOUNDS
    lower, upper = result.bounds
    assert lower.method == METHOD_BOUND_LOWER
    assert upper.method == METHOD_BOUND_UPPER
    assert lower.bits_per_sec == pytest.approx(0.5 * 0.1)
    assert upper.bits_per_sec == pytest.approx(0.5 * 0.3)
    assert lower.bits_per_sec <= upper.bits_per_sec


def test_bijective_capacity_checks_inputs():
    with pytest.raises(ValueError, match="H_mean_noise"):
        _capacity_from(_bijective_spec(0.5), {E_H_KERNEL_NOISE: _h(0.7)})
    with pytest.raises(InstabilityError):
        _capacity_from(_bijective_spec(1.2), {H_MEAN_NOISE: _h(0.5)},
                           assume_unpredictable=True)


def test_method_constants_are_distinct():
    tags = {METHOD_CLOSED_FORM_MM1, METHOD_PK, METHOD_MC, METHOD_BOUND_LOWER,
            METHOD_BOUND_UPPER}
    assert len(tags) == 5
