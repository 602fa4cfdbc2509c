"""Delay-dependent symbol channels.

A symbol that waited w in the queue is degraded according to an error law
evaluated at w: erased, or permuted by a noise symbol whose distribution
depends on w. The binary symmetric channel is the k=2 permutation channel
with XOR table and Bernoulli(phi(w)) noise. Symbols are integer indices
0..k-1; erasure output uses the ERASED sentinel (rendered "?" in transcripts).
"""

import json
from dataclasses import dataclass

import numpy as np

from .numerics import as_rng

ERASED = -1

_PROB_SLACK = 1e-12


@dataclass(frozen=True)
class DecoherenceModel:
    """Wait-to-error-probability map p(w) for erasure channels.

    kappa and laplace are set for the built-in exponential family
    p(w) = 1 - exp(-kappa*w), whose transform integral exp(-u*w) p(w) dw is
    kappa/(u*(u+kappa)); user-supplied p may leave them None.
    """

    p: object
    kappa: float = None
    laplace: object = None

    @staticmethod
    def exponential(kappa):
        """The saturating family p(w) = 1 - exp(-kappa*w); kappa=0 means noiseless."""
        if kappa < 0:
            raise ValueError("kappa must be nonnegative")

        def p(w):
            return -np.expm1(-kappa * np.asarray(w, dtype=float))

        def laplace(u):
            if kappa == 0.0:
                return 0.0
            return kappa / (u * (u + kappa))

        return DecoherenceModel(p=p, kappa=kappa, laplace=laplace)

    def error_prob(self, w):
        """Evaluate p at w (scalar or array), enforcing the [0, 1] range."""
        v = np.asarray(self.p(w), dtype=float)
        if np.any(v < -_PROB_SLACK) or np.any(v > 1.0 + _PROB_SLACK):
            raise ValueError("decoherence probability left the [0, 1] range")
        return np.clip(v, 0.0, 1.0)


@dataclass(frozen=True)
class BitFlipModel:
    """Wait-to-flip-probability map phi(w) for the binary symmetric channel.

    phi must stay in [0, 0.5]; values above one half are rejected at
    evaluation rather than silently clamped, since the capacity expressions
    assume the sub-half regime.
    """

    phi: object
    kappa: float = None

    @staticmethod
    def exponential(kappa):
        """phi(w) = (1 - exp(-kappa*w)) / 2, saturating at one half."""
        if kappa < 0:
            raise ValueError("kappa must be nonnegative")

        def phi(w):
            return -0.5 * np.expm1(-kappa * np.asarray(w, dtype=float))

        return BitFlipModel(phi=phi, kappa=kappa)

    def flip_prob(self, w):
        v = np.asarray(self.phi(w), dtype=float)
        if np.any(v < -_PROB_SLACK) or np.any(v > 0.5 + _PROB_SLACK):
            raise ValueError("flip probability must stay within [0, 0.5]")
        return np.clip(v, 0.0, 0.5)


@dataclass(frozen=True)
class Erasure:
    """Erasure channel: input survives intact or is replaced by ERASED."""

    decoherence: DecoherenceModel
    alphabet_size: int = 2
    kind = "erasure"

    def __post_init__(self):
        if int(self.alphabet_size) < 2:
            raise ValueError("alphabet_size must be at least 2")

    @property
    def size(self):
        return int(self.alphabet_size)

    @property
    def error_law(self):
        return self.decoherence

    def apply(self, x, w, rng):
        """Outputs for aligned symbol and wait arrays: x or ERASED, never a
        wrong symbol."""
        p = self.decoherence.error_prob(w)
        u = rng.random(x.shape)
        return np.where(u < p, ERASED, x)


@dataclass(frozen=True)
class RandomBijective:
    """Channel y = g(x, n): noise index n drawn from noise_law(w), then a
    per-input permutation. Each row of the table must be a permutation, so
    given (x, w) the output is an invertible function of the noise.
    """

    alphabet: tuple
    table: tuple
    noise_law: object
    kind = "bijective"

    def __post_init__(self):
        alphabet = tuple(self.alphabet)
        k = len(alphabet)
        if k < 2:
            raise ValueError("alphabet needs at least two symbols")
        if len(set(alphabet)) != k:
            raise ValueError("alphabet symbols must be distinct")
        table = np.asarray(self.table, dtype=int)
        if table.shape != (k, k):
            raise ValueError(f"table must be {k}x{k} (inputs x noise symbols)")
        want = np.arange(k)
        for row in table:
            if not np.array_equal(np.sort(row), want):
                raise ValueError("every table row must be a permutation of the outputs")
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "table", tuple(tuple(int(v) for v in row) for row in table))
        object.__setattr__(self, "_table_arr", table)

    @staticmethod
    def binary_symmetric(flip):
        """The binary symmetric channel: XOR table, Bernoulli(phi(w)) noise."""
        return RandomBijective((0, 1), xor_table(2), bernoulli_noise(flip))

    @property
    def size(self):
        return len(self.alphabet)

    @property
    def error_law(self):
        return self.noise_law

    def apply(self, x, w, rng):
        """Outputs for aligned symbol and wait arrays: table[x, noise]."""
        noise = _sample_categorical(self.noise_dist(w), rng)
        return self._table_arr[x, noise]

    def noise_dist(self, w):
        """Noise distribution(s) at wait(s) w, validated as a simplex vector."""
        probs = np.asarray(self.noise_law(w), dtype=float)
        if probs.shape[-1] != self.size:
            raise ValueError("noise_law must return one probability per noise symbol")
        if np.any(probs < -_PROB_SLACK):
            raise ValueError("noise probabilities must be nonnegative")
        sums = probs.sum(axis=-1)
        if np.any(np.abs(sums - 1.0) > 1e-9):
            raise ValueError("noise probabilities must sum to 1")
        return np.clip(probs, 0.0, None)


def _known(channel):
    if not isinstance(channel, (Erasure, RandomBijective)):
        raise TypeError(f"unknown channel kind: {type(channel).__name__}")
    return channel


def alphabet_size(channel):
    """Number of distinct input symbols for any channel kind."""
    return _known(channel).size


def xor_table(k=2):
    """The modular-shift table g(x, n) = (x + n) mod k; XOR for k=2."""
    return tuple(tuple((x + n) % k for n in range(k)) for x in range(k))


def bernoulli_noise(flip):
    """Binary noise law N ~ Bernoulli(phi(w)); with xor_table(2) this is the
    binary symmetric channel (RandomBijective.binary_symmetric)."""

    def law(w):
        q = flip.flip_prob(w)
        return np.stack([1.0 - q, q], axis=-1)

    return law


def wait_geometric_noise(kappa, size):
    """Truncated-geometric noise law spreading with the delay:
    P(j | w) proportional to (1 - exp(-kappa*w))**j for j = 0..size-1.
    A point mass at 0 when w = 0, flattening toward uniform as w grows."""
    if kappa < 0:
        raise ValueError("kappa must be nonnegative")
    if int(size) < 2:
        raise ValueError("need at least two noise symbols")
    powers = np.arange(int(size))

    def law(w):
        q = -np.expm1(-kappa * np.asarray(w, dtype=float))
        weights = np.power(q[..., None], powers)
        return weights / weights.sum(axis=-1, keepdims=True)

    return law


def _sample_categorical(probs, rng):
    """One draw per row of a (m, k) probability matrix."""
    cum = np.cumsum(probs, axis=-1)
    cum /= cum[..., -1:]
    u = rng.random(probs.shape[:-1] + (1,))
    idx = (u > cum).sum(axis=-1)
    return np.minimum(idx, probs.shape[-1] - 1)


def apply_channel(channel, x, w, rng):
    """Send symbol(s) x through the channel at wait(s) w.

    Accepts scalars or aligned arrays; returns the same shape. Erasure outputs
    ERASED where the symbol is lost and never a wrong symbol.
    """
    rng = as_rng(rng)
    scalar = np.isscalar(x) or (np.ndim(x) == 0)
    xs = np.atleast_1d(np.asarray(x, dtype=int))
    ws = np.broadcast_to(np.asarray(w, dtype=float), xs.shape)
    if np.any(ws < 0):
        raise ValueError("waits must be nonnegative")
    k = alphabet_size(channel)
    if np.any(xs < 0) or np.any(xs >= k):
        raise ValueError(f"input symbol outside alphabet of size {k}")
    y = channel.apply(xs, ws, rng)
    return int(y[0]) if scalar else y


def binary_entropy(q):
    """Binary entropy in bits, with 0*log(0) = 0. Accepts scalars or arrays."""
    arr = np.asarray(q, dtype=float)
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ValueError("probability out of [0, 1]")
    out = np.zeros_like(arr)
    interior = (arr > 0.0) & (arr < 1.0)
    v = arr[interior]
    out[interior] = -v * np.log2(v) - (1.0 - v) * np.log2(1.0 - v)
    return float(out) if out.ndim == 0 else out


def discrete_entropy(dist):
    """Shannon entropy in bits of a probability vector (or rows of vectors)."""
    p = np.asarray(dist, dtype=float)
    if np.any(p < -_PROB_SLACK):
        raise ValueError("probabilities must be nonnegative")
    sums = p.sum(axis=-1)
    if np.any(np.abs(sums - 1.0) > 1e-9):
        raise ValueError("probabilities must sum to 1")
    p = np.clip(p, 0.0, None)
    safe = np.where(p > 0.0, p, 1.0)
    h = -(p * np.log2(safe)).sum(axis=-1)
    return float(h) if np.ndim(h) == 0 else h


def load_bijection(source):
    """Read an (alphabet, table) pair from the JSON wire format.

    Format: {"alphabet": [...], "g": {"<symbol>": [output symbols indexed by
    noise]}}. Keys of "g" are string forms of the alphabet symbols; each row
    must be a permutation of the alphabet. Accepts a path, a file object, or an
    already-parsed dict.
    """
    if isinstance(source, dict):
        doc = source
    elif hasattr(source, "read"):
        doc = json.load(source)
    else:
        with open(source) as fh:
            doc = json.load(fh)
    try:
        alphabet = tuple(doc["alphabet"])
        g = doc["g"]
    except (KeyError, TypeError) as exc:
        raise ValueError("bijection document needs 'alphabet' and 'g' keys") from exc
    index = {str(sym): i for i, sym in enumerate(alphabet)}
    if len(index) != len(alphabet):
        raise ValueError("alphabet symbols must be distinct")
    if set(g) != set(index):
        raise ValueError("'g' must have exactly one row per alphabet symbol")
    k = len(alphabet)
    table = np.empty((k, k), dtype=int)
    for key, row in g.items():
        if len(row) != k:
            raise ValueError(f"row for {key!r} must list {k} outputs")
        try:
            table[index[key]] = [index[str(sym)] for sym in row]
        except KeyError as exc:
            raise ValueError(f"row for {key!r} contains a symbol outside the alphabet") from exc
    # permutation validity is re-checked by the channel constructor
    return alphabet, tuple(tuple(int(v) for v in row) for row in table)


def dump_bijection(alphabet, table):
    """Inverse of load_bijection: build the JSON-ready document."""
    return {
        "alphabet": list(alphabet),
        "g": {str(sym): [alphabet[j] for j in row] for sym, row in zip(alphabet, table)},
    }
