"""Unit tests for the shared numeric kernels: batch means, golden-section
search, Laplace quadrature, and seeded RNG plumbing."""

import math

import numpy as np
import pytest

from qcl.numerics import (QuadratureError, batch_means, golden_section_extremize,
                          quadrature_laplace, spawn_rngs)


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


def test_batch_means_constant_series_has_zero_error():
    mean, se, m = batch_means(np.full(1000, 7.5))
    assert (mean, se, m) == (7.5, 0.0, 1)


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
