"""Unit tests for the shared numeric kernels: batch means and the one rule
for standard errors, golden-section search, Laplace quadrature, and seeded
RNG plumbing."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcl import simulate
from qcl.channels import (DecoherenceModel, RandomBijective, WaitGeometricNoise,
                          xor_table)
from qcl.numerics import (QuadratureError, batch_error, batch_means,
                          golden_section_extremize, quadrature_laplace, spawn_rngs)
from qcl.queueing import Exponential, QueueChannelSpec


def test_batch_means_recovers_iid_mean_and_error():
    rng = np.random.default_rng(11)
    x = rng.normal(3.0, 2.0, size=40_000)
    mean, se, m = batch_means(x)
    assert mean == pytest.approx(x.mean())
    # for iid data the batch-means error agrees with sigma/sqrt(n)
    assert se == pytest.approx(2.0 / math.sqrt(x.size), rel=0.2)
    assert m >= 100
    assert abs(mean - 3.0) <= 4.0 * se


def test_batch_means_widens_error_for_correlated_series():
    rng = np.random.default_rng(12)
    n = 100_000
    x = np.empty(n)
    x[0] = 0.0
    eps = rng.normal(size=n)
    rho = 0.9
    for i in range(1, n):
        x[i] = rho * x[i - 1] + eps[i]
    _, se, _ = batch_means(x)
    naive = x.std(ddof=1) / math.sqrt(n)
    # AR(1) inflates the true error by sqrt((1+rho)/(1-rho)) ~ 4.4x
    assert se > 2.5 * naive


def test_batch_means_constant_series_has_no_error():
    # a constant sample cannot show its spread: no standard error, not 0.0
    mean, se, m = batch_means(np.full(1000, 7.5))
    assert (mean, se, m) == (7.5, None, 31)


def test_batch_means_below_two_batches_has_no_error():
    # 3 values make one batch of 2: no i.i.d. error in its place
    assert batch_means([1.0, 2.0, 4.0]) == (7.0 / 3.0, None, 1)
    assert batch_error([0.5]) is None and batch_error([]) is None


# values on a 1/64 grid: sums of up to 20 of them are exact, and unequal
# batch means are far enough apart that their spread cannot underflow
_GRID = st.integers(-2 ** 20, 2 ** 20).map(lambda i: i / 64)
_SERIES = st.integers(1, 400).flatmap(lambda n: st.one_of(
    st.lists(_GRID, min_size=n, max_size=n), _GRID.map(lambda v: [v] * n),
    st.lists(st.booleans(), min_size=n, max_size=n),
    st.booleans().map(lambda v: [v] * n)))
# a float series, made nonnegative, also serves as delays
_K3 = QueueChannelSpec(lam=0.5, service=Exponential(1.0), channel=RandomBijective(
    xor_table(3), WaitGeometricNoise(DecoherenceModel(1.0), 3)))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(values=_SERIES)
def test_one_rule_decides_every_standard_error(values):
    x = np.array(values)
    mean, se, m = batch_means(x)
    b = math.ceil(math.sqrt(x.size))
    means = {sum(values[i * b:(i + 1) * b]) / b for i in range(x.size // b)}
    assert m == x.size // b
    assert (se is None) == (m < 2 or len(means) == 1)
    assert se is None or se > 0.0
    if x.dtype == bool:  # counted, with the bits of the 0/1 floats
        assert (mean, se, m) == batch_means(x.astype(float))
        scored = simulate._score_survival(x, 0.5, 2)
        assert scored.std_error is None or scored.std_error > 0.0
        assert (scored.std_error is None) == (se is None)
    elif x.size >= 2:
        for est in simulate.estimate_bijective_bounds(_K3, np.abs(x)).values():
            assert est.std_error is None or est.std_error > 0.0


def test_batch_means_rejects_empty():
    with pytest.raises(ValueError):
        batch_means(np.empty(0))


def test_golden_section_finds_quadratic_maximum():
    res = golden_section_extremize(lambda x: -(x - 0.3) ** 2, 0.0, 1.0)
    assert abs(res.argopt - 0.3) <= 1e-7
    assert res.converged
    assert not res.boundary
    assert res.value == pytest.approx(0.0, abs=1e-12)


def test_golden_section_reports_monotone_objective_at_boundary():
    res = golden_section_extremize(lambda x: x, 0.0, 1.0)
    assert res.boundary
    assert res.argopt == 1.0
    assert res.value == 1.0


def test_golden_section_midpoint_of_a_bracket_near_the_float_max_is_finite():
    # a + b overflows here; the bracket's midpoint must not
    res = golden_section_extremize(lambda x: -(x / 1e308 - 1.6) ** 2, 1e308, 1.7e308)
    assert res.argopt == pytest.approx(1.6e308, rel=1e-9)
    assert not res.boundary
    # no step makes this bracket 1e-8 wide: the stop is relative beyond 1
    assert res.converged and res.iterations < 200


def test_golden_section_rejects_bad_bracket():
    with pytest.raises(ValueError):
        golden_section_extremize(lambda x: x, 1.0, 0.0)


def test_golden_section_rejects_non_finite_objective():
    with pytest.raises(ValueError):
        golden_section_extremize(lambda x: float("nan"), 0.0, 1.0)


def test_quadrature_matches_closed_form_transform():
    # p(w) = 1 - exp(-kappa*w) has transform kappa / (u*(u+kappa))
    for u in (0.1, 1.0, 10.0):
        for kappa in (0.1, 1.0, 10.0):
            got = quadrature_laplace(lambda w, k=kappa: -math.expm1(-k * w), u)
            assert got == pytest.approx(kappa / (u * (u + kappa)), abs=1e-8)


def test_quadrature_exponential_density():
    # transform of exp(-w) is 1/(u+1)
    got = quadrature_laplace(lambda w: math.exp(-w), 2.0)
    assert got == pytest.approx(1.0 / 3.0, abs=1e-9)


def test_quadrature_raises_when_target_unreachable():
    with pytest.raises(QuadratureError) as excinfo:
        quadrature_laplace(lambda w: math.cos(w * w), 0.05)
    assert excinfo.value.error_estimate > 1e-9
    assert math.isfinite(excinfo.value.value)


def test_quadrature_raises_on_a_nan_integrand():
    with pytest.raises(QuadratureError):
        quadrature_laplace(lambda w: float("nan"), 1.0)


def test_quadrature_rejects_nonpositive_u():
    with pytest.raises(ValueError):
        quadrature_laplace(lambda w: 1.0, 0.0)


def test_spawn_rngs_streams_are_reproducible_and_distinct():
    first = [r.random(4) for r in spawn_rngs(123, 3)]
    second = [r.random(4) for r in spawn_rngs(123, 3)]
    for x, y in zip(first, second):
        assert np.array_equal(x, y)
    assert not np.array_equal(first[0], first[1])
    assert not np.array_equal(first[1], first[2])


def test_spawn_rngs_accepts_seed_sequence():
    ss = np.random.SeedSequence(77)
    via_ss = [r.random(2) for r in spawn_rngs(ss, 2)]
    direct = [r.random(2) for r in spawn_rngs(77, 2)]
    for x, y in zip(via_ss, direct):
        assert np.array_equal(x, y)
