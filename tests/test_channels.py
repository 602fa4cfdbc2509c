"""Unit tests for the delay-dependent channels: error models, symbol
transmission, entropy helpers, and the bijection wire format."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcl.channels import (ERASED, BernoulliNoise, DecoherenceModel, Erasure,
                          RandomBijective, WaitGeometricNoise, apply_channel,
                          binary_entropy, discrete_entropy, load_bijection,
                          xor_table)
from qcl.config import MAX_ALPHABET


def test_decoherence_exponential_family_shape():
    model = DecoherenceModel(1.0)
    assert model.kappa == 1.0
    assert model.error_prob(0.0) == 0.0
    assert model.error_prob(50.0) == pytest.approx(1.0)
    w = np.array([0.0, 0.5, 2.0])
    assert np.allclose(model.error_prob(w), 1.0 - np.exp(-w))
    assert model.laplace(1.0) == pytest.approx(0.5)  # kappa/(u*(u+kappa))


def test_decoherence_noiseless_and_invalid_kappa():
    silent = DecoherenceModel(0.0)
    assert np.all(silent.error_prob(np.array([0.0, 3.0, 100.0])) == 0.0)
    assert silent.laplace(2.0) == 0.0
    assert silent.error_prob(math.inf) == 0.0  # not -0*inf = NaN
    for kappa in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError):
            DecoherenceModel(kappa)


def test_bit_flip_stays_below_one_half():
    # Bernoulli noise flips with probability p(w)/2, saturating at one half
    law = BernoulliNoise(DecoherenceModel(2.0))
    assert law(0.0)[1] == 0.0
    assert law(100.0)[1] == pytest.approx(0.5)
    assert np.all(law(np.linspace(0, 10, 50))[:, 1] <= 0.5)


def test_channel_constructors_validate():
    with pytest.raises(ValueError):
        Erasure(DecoherenceModel(1.0), alphabet_size=1)
    assert Erasure(DecoherenceModel(1.0), 4).size == 4
    assert RandomBijective.binary_symmetric(DecoherenceModel(1.0)).size == 2


def test_random_bijective_table_validation():
    noise = BernoulliNoise(DecoherenceModel(1.0))
    ch = RandomBijective(((0, 1), (1, 0)), noise)
    assert ch.size == 2
    with pytest.raises(ValueError):  # row is not a permutation
        RandomBijective(((0, 0), (1, 0)), noise)
    geometric3 = WaitGeometricNoise(DecoherenceModel(1.0), 3)
    with pytest.raises(ValueError, match="Latin square"):  # column is not one
        RandomBijective(((0, 1, 2), (1, 2, 0), (0, 2, 1)), geometric3)
    with pytest.raises(ValueError):  # not square
        RandomBijective(((0, 1), (1, 0), (0, 1)), noise)
    with pytest.raises(ValueError):  # single symbol
        RandomBijective(((0,),), noise)


def test_random_bijective_accepts_only_a_matching_noise_law():
    ch = RandomBijective(xor_table(2), BernoulliNoise(DecoherenceModel(1.0)))
    probs = ch.noise_dist(np.array([0.0, 1.0, 10.0]))
    assert probs.shape == (3, 2)
    assert np.allclose(probs.sum(axis=1), 1.0)
    with pytest.raises(TypeError, match="noise_law"):  # no arbitrary callables
        RandomBijective(xor_table(2), lambda w: np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match="noise law has 2 symbols"):
        RandomBijective(xor_table(3), BernoulliNoise(DecoherenceModel(1.0)))
    with pytest.raises(ValueError, match="noise law has 4 symbols"):
        RandomBijective(xor_table(3), WaitGeometricNoise(DecoherenceModel(1.0), 4))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(w=st.one_of(st.just(0.0), st.floats(0.0, 1e300), st.just(math.inf)),
       kappa=st.floats(0.0, 1e3), size=st.integers(2, MAX_ALPHABET),
       geometric=st.booleans())
def test_noise_laws_return_simplex_rows(w, kappa, size, geometric):
    # the guarantee that lets noise_dist skip validating its rows
    model = DecoherenceModel(kappa)
    law = WaitGeometricNoise(model, size) if geometric else BernoulliNoise(model)
    with np.errstate(over="ignore"):  # kappa * w may overflow to inf: p = 1
        rows = law(np.array([w, 0.0]))
    assert rows.shape == (2, law.size)
    assert np.all(rows >= 0.0)
    assert np.all(np.abs(rows.sum(axis=-1) - 1.0) <= 1e-12)


@pytest.mark.parametrize("k", [8, 32])
def test_a_law_and_its_entropy_keep_their_bits_alone(k):
    # the estimator builds laws a chunk at a time, one wait in the smallest
    law = WaitGeometricNoise(DecoherenceModel(0.7), k)
    w = np.linspace(0.01, 5.0, 50)
    rows, h = law(w), discrete_entropy(law(w))
    for i, wait in enumerate(w):
        assert np.array_equal(law(w[i:i + 1])[0], rows[i])
        assert np.array_equal(law(wait), rows[i])
        assert discrete_entropy(rows[i:i + 1])[0] == h[i] == discrete_entropy(rows[i])


def test_channels_compare_and_hash_by_value():
    def wide():
        return RandomBijective(xor_table(4), WaitGeometricNoise(DecoherenceModel(0.5), 4))
    assert wide() == wide() and hash(wide()) == hash(wide())
    assert (RandomBijective.binary_symmetric(DecoherenceModel(1.0))
            == RandomBijective(((0, 1), (1, 0)), BernoulliNoise(DecoherenceModel(1.0))))
    assert wide() != RandomBijective(xor_table(4),
                                     WaitGeometricNoise(DecoherenceModel(0.6), 4))
    assert BernoulliNoise(DecoherenceModel(1.0)) != WaitGeometricNoise(
        DecoherenceModel(1.0), 2)


def test_xor_table_is_group_table():
    assert xor_table(2) == ((0, 1), (1, 0))
    table = np.array(xor_table(5))
    want = np.arange(5)
    for row in table:
        assert np.array_equal(np.sort(row), want)
    for col in table.T:
        assert np.array_equal(np.sort(col), want)


def test_bernoulli_noise_law():
    law = BernoulliNoise(DecoherenceModel(1.0))
    assert law.size == 2
    assert np.allclose(law(0.0), [1.0, 0.0])
    q = -0.5 * math.expm1(-2.0)
    assert np.allclose(law(2.0), [1.0 - q, q])


def test_wait_geometric_noise_limits():
    law = WaitGeometricNoise(DecoherenceModel(1.0), 4)
    assert np.allclose(law(0.0), [1.0, 0.0, 0.0, 0.0])
    spread = law(200.0)
    assert np.allclose(spread, 0.25, atol=1e-6)  # flattens toward uniform
    rows = law(np.array([0.1, 1.0, 5.0]))
    assert rows.shape == (3, 4)
    assert np.allclose(rows.sum(axis=1), 1.0)
    # heavier waits push mass to higher noise symbols
    assert rows[0, 0] > rows[2, 0]
    with pytest.raises(ValueError):
        WaitGeometricNoise(DecoherenceModel(1.0), 1)


@pytest.mark.parametrize("k", [2, 8, 32, 64])
def test_wait_geometric_law_is_the_power_law_within_k_ulp(k):
    model = DecoherenceModel(0.7)
    w = np.concatenate([[0.0], np.geomspace(1e-9, 50.0, 500), np.linspace(0.0, 50.0, 501)])
    rows = WaitGeometricNoise(model, k)(w)
    assert rows.shape == (w.size, k)
    assert np.array_equal(rows[0], np.eye(k)[0])  # w = 0: the point mass on 0
    assert np.all(np.abs(rows.sum(axis=-1) - 1.0) <= k * np.finfo(float).eps)
    # the running product rounds j - 1 times and the sum k - 1 times, against
    # one rounding of np.power: k ULP is well above their random walk
    weights = np.power(model.error_prob(w)[:, None], np.arange(k))
    want = weights / weights.sum(axis=-1, keepdims=True)
    assert np.all(np.abs(rows - want) <= k * np.spacing(want))


def test_erasure_never_outputs_wrong_symbol():
    ch = Erasure(DecoherenceModel(1.0), alphabet_size=3)
    rng = np.random.default_rng(55)
    x = rng.integers(0, 3, size=20_000)
    w = rng.exponential(1.0, size=20_000)
    y = apply_channel(ch, x, w, rng)
    assert set(np.unique(y)) <= {ERASED, 0, 1, 2}
    kept = y != ERASED
    assert np.array_equal(y[kept], x[kept])
    assert 0 < kept.mean() < 1


def test_erasure_fraction_tracks_error_probability():
    ch = Erasure(DecoherenceModel(1.0), alphabet_size=2)
    rng = np.random.default_rng(56)
    n = 200_000
    x = np.zeros(n, dtype=int)
    w = np.full(n, 0.7)
    y = apply_channel(ch, x, w, rng)
    p = -math.expm1(-0.7)
    frac = (y == ERASED).mean()
    assert frac == pytest.approx(p, abs=4 * math.sqrt(p * (1 - p) / n))
    assert np.all(apply_channel(ch, x, np.zeros(n), rng) == 0)


def test_bsc_flips_track_flip_probability():
    ch = RandomBijective.binary_symmetric(DecoherenceModel(1.0))
    rng = np.random.default_rng(57)
    n = 200_000
    x = rng.integers(0, 2, size=n)
    w = np.full(n, 1.5)
    y = apply_channel(ch, x, w, rng)
    q = -0.5 * math.expm1(-1.5)
    frac = (y != x).mean()
    assert frac == pytest.approx(q, abs=4 * math.sqrt(q * (1 - q) / n))
    assert set(np.unique(y)) <= {0, 1}


def test_xor_bernoulli_matches_bsc_distribution():
    # the XOR table driven by Bernoulli(p(w)/2) noise IS the flip channel:
    # it flips with probability p(w)/2 at every delay, so over W ~ Exp(1)
    # the flip rate is E[(1 - exp(-W))/2] = 1/4
    flip = DecoherenceModel(1.0)
    bsc = RandomBijective.binary_symmetric(flip)
    assert bsc.table == xor_table(2)
    assert np.allclose(bsc.noise_dist(1.5), BernoulliNoise(flip)(1.5))
    rng_w = np.random.default_rng(58)
    w = rng_w.exponential(1.0, size=200_000)
    x = rng_w.integers(0, 2, size=200_000)
    y = apply_channel(bsc, x, w, np.random.default_rng(2))
    se = math.sqrt(0.25 * 0.75 / x.size)
    assert (y != x).mean() == pytest.approx(0.25, abs=4 * se)


def test_apply_channel_scalar_round_trip():
    ch = Erasure(DecoherenceModel(1.0))
    y = apply_channel(ch, 1, 0.0, np.random.default_rng(0))
    assert isinstance(y, int) and y == 1
    ch2 = RandomBijective(xor_table(2), BernoulliNoise(DecoherenceModel(1.0)))
    assert apply_channel(ch2, 0, 0.0, np.random.default_rng(0)) == 0


def test_apply_channel_input_validation():
    ch = Erasure(DecoherenceModel(1.0))
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        apply_channel(ch, 2, 1.0, rng)  # outside binary alphabet
    bsc = RandomBijective.binary_symmetric(DecoherenceModel(1.0))
    for channel in (ch, bsc):
        for bad in (-1.0, math.nan, [1.0, math.nan, 2.0]):
            with pytest.raises(ValueError, match="waits must be nonnegative"):
                apply_channel(channel, np.zeros(np.size(bad), dtype=int), bad, rng)
    with pytest.raises(TypeError):
        apply_channel(object(), 0, 1.0, rng)


def test_apply_channel_bijective_uses_table_rows():
    table = ((1, 0, 2), (2, 1, 0), (0, 2, 1))
    ch = RandomBijective(table, WaitGeometricNoise(DecoherenceModel(1.0), 3))
    y = apply_channel(ch, np.array([0, 1, 2]), np.zeros(3),
                      np.random.default_rng(0))
    # zero wait pins the noise symbol to 0, so y = table[x][0]
    assert np.array_equal(y, [1, 2, 0])


def test_binary_entropy_values():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.11) == pytest.approx(0.4999159581645280, abs=1e-13)
    assert binary_entropy(1.0 / 6.0) == pytest.approx(0.6500224216483542,
                                                      abs=1e-13)
    arr = binary_entropy(np.array([0.0, 0.5, 1.0]))
    assert np.allclose(arr, [0.0, 1.0, 0.0])
    with pytest.raises(ValueError):
        binary_entropy(1.2)
    with pytest.raises(ValueError):
        binary_entropy(-0.01)


def test_binary_entropy_concavity():
    rng = np.random.default_rng(60)
    for _ in range(200):
        p, q = rng.random(2)
        a = rng.random()
        mixed = binary_entropy(a * p + (1 - a) * q)
        parts = a * binary_entropy(p) + (1 - a) * binary_entropy(q)
        assert mixed >= parts - 1e-12


def test_discrete_entropy_values():
    assert discrete_entropy([0.25, 0.25, 0.25, 0.25]) == pytest.approx(2.0)
    assert discrete_entropy([1.0, 0.0, 0.0]) == 0.0
    both = discrete_entropy(np.array([[0.5, 0.5], [1.0, 0.0]]))
    assert np.allclose(both, [1.0, 0.0])
    assert discrete_entropy([0.5, 0.5]) == binary_entropy(0.5)
    with pytest.raises(ValueError):
        discrete_entropy([0.6, 0.6])
    with pytest.raises(ValueError):
        discrete_entropy([1.5, -0.5])


def test_bijection_json_round_trip(tmp_path):
    doc = {"alphabet": ["a", "b", "c"],
           "g": {"a": ["b", "c", "a"], "b": ["a", "b", "c"], "c": ["c", "a", "b"]}}
    table = ((1, 2, 0), (0, 1, 2), (2, 0, 1))  # "a", "b", "c" are 0, 1, 2
    assert load_bijection(doc) == table
    path = tmp_path / "bijection.json"
    path.write_text(json.dumps(doc))
    assert load_bijection(str(path)) == table


def test_load_bijection_rejects_malformed_documents():
    with pytest.raises(ValueError):
        load_bijection({"alphabet": [0, 1]})  # missing g
    with pytest.raises(ValueError):
        load_bijection({"alphabet": [0, 1], "g": {"0": [0, 1]}})  # missing row
    with pytest.raises(ValueError):
        load_bijection({"alphabet": [0, 1],
                        "g": {"0": [0, 1], "1": [0, 7]}})  # alien symbol
    with pytest.raises(ValueError):
        load_bijection({"alphabet": [0, 1],
                        "g": {"0": [0, 1], "1": [0]}})  # short row
    with pytest.raises(ValueError):
        load_bijection({"alphabet": [0, 0], "g": {"0": [0, 0]}})  # dup symbols
