"""Delay-dependent symbol channels.

A symbol that waited w in the queue has depolarized with probability
p(w) = 1 - exp(-kappa*w), the one law, stated by DecoherenceModel(kappa).
It is erased with probability p(w), or permuted by a noise symbol drawn
from a noise law of w, a value: BernoulliNoise, the depolarizing flip
Bernoulli(p(w)/2) that the XOR table makes the binary symmetric channel,
or WaitGeometricNoise. Symbols are integer indices 0..k-1; erasure output
uses the ERASED sentinel (rendered "?" in transcripts).

Each channel answers for itself, so no caller branches on its kind: its
alphabet size, apply (outputs at waits), capacity (a spec's CapacityResult)
and score (a transcript's estimate). Only sampling imports qcl.simulate.
"""

import json
import math
from dataclasses import dataclass, replace

from .capacity import (E_H_KERNEL_NOISE, E_H_NOISE, H_MEAN_NOISE, METHOD_BOUND_LOWER,
                       METHOD_BOUND_UPPER, METHOD_BOUNDS, METHOD_CLOSED_FORM_MM1,
                       METHOD_MC, METHOD_PK, UNPREDICTABILITY_NOTE, CapacityResult,
                       alpha_mg1, mean_survival)
from .queueing import DelayConvention, Exponential, stationary_wait_samples

ERASED = -1

_PROB_SLACK = 1e-12
CHUNK_CELLS = 1 << 16  # noise-law cells held at once (512 KB of float64)


@dataclass(frozen=True)
class DecoherenceModel:
    """The depolarizing law p(w) = 1 - exp(-kappa*w) of a symbol that waited
    w: the erasure probability, and twice the flip probability of Bernoulli
    noise. kappa=0 means noiseless.
    """

    kappa: float

    def __post_init__(self):
        if not 0.0 <= self.kappa < math.inf:  # NaN or inf would make p(w) NaN
            raise ValueError("kappa must be finite and nonnegative")

    def error_prob(self, w):
        """p(w) at a scalar or array of waits."""
        import numpy as np
        w = np.asarray(w, dtype=float)  # kappa=0: p(inf) is 0, not -0*inf = NaN
        return -np.expm1(-self.kappa * w) if self.kappa else np.zeros_like(w)

    def laplace(self, u):
        """The transform integral of exp(-u*w) p(w) dw, kappa/(u*(u+kappa))."""
        if self.kappa == 0.0:
            return 0.0
        return self.kappa / (u * (u + self.kappa))


@dataclass(frozen=True)
class Erasure:
    """Erasure channel: input survives intact or is replaced by ERASED."""

    decoherence: DecoherenceModel
    alphabet_size: int = 2

    def __post_init__(self):
        if int(self.alphabet_size) < 2:
            raise ValueError("alphabet_size must be at least 2")

    @property
    def size(self):
        return int(self.alphabet_size)

    def apply(self, x, w, rng):
        """Outputs for aligned symbol and wait arrays: x or ERASED, never a
        wrong symbol."""
        import numpy as np
        p = self.decoherence.error_prob(w)
        u = rng.random(x.shape)
        return np.where(u < p, ERASED, x)

    def capacity(self, spec, n=0, seed=None, assume_unpredictable=False):
        """Capacity lam * log2(k) * E[1 - p(W)] in bits/sec, drawing nothing.

        E[1 - p(W)] is mean_survival, the transform closed form of the
        decoherence law. The result ignores receiver_knows_timing and the
        sampling arguments.
        """
        diagnostics = {"alphabet_size": self.size,
                       "receiver_knows_timing_irrelevant": True}
        surv = mean_survival(spec)
        is_mm1 = (isinstance(spec.service, Exponential)
                  and spec.delay_convention is DelayConvention.WAITING_BEFORE_SERVICE)
        kappa = self.decoherence.kappa
        if kappa > 0:
            diagnostics["alpha"] = alpha_mg1(spec.service, kappa)
        diagnostics["mean_survival"] = surv
        return CapacityResult(bits_per_sec=spec.lam * math.log2(self.size) * surv,
                              method=METHOD_CLOSED_FORM_MM1 if is_mm1 else METHOD_PK,
                              diagnostics=diagnostics)

    def score(self, transcript):
        """(lam * log2(k) * (1 - erased fraction), None): no bounds."""
        from .simulate import _score_survival
        survived = transcript.y != ERASED
        return _score_survival(survived, transcript.spec.lam, self.size), None


@dataclass(frozen=True)
class BernoulliNoise:
    """Binary noise law N ~ Bernoulli(p(w)/2) for a DecoherenceModel p: the
    depolarizing flip, whose value saturates at one half. With xor_table(2)
    this is the binary symmetric channel (RandomBijective.binary_symmetric)."""

    decoherence: DecoherenceModel
    size = 2

    def __call__(self, w):
        """The law at wait(s) w, laid out like WaitGeometricNoise's."""
        import numpy as np
        q = self.decoherence.error_prob(w)
        q *= 0.5
        return np.moveaxis(np.stack([1.0 - q, q]), 0, -1)


@dataclass(frozen=True)
class WaitGeometricNoise:
    """Truncated-geometric noise law spreading with the delay:
    P(j | w) proportional to p(w)**j for j = 0..size-1, for a
    DecoherenceModel p. A point mass at 0 when w = 0, flattening toward
    uniform as w grows."""

    decoherence: DecoherenceModel
    size: int

    def __post_init__(self):
        if int(self.size) < 2:
            raise ValueError("need at least two noise symbols")

    def __call__(self, w):
        """The law at wait(s) w: shape w.shape + (size,), one law per wait,
        built symbol-major (size contiguous rows, one per noise symbol) and
        returned as the transposed view, so a reduction over the symbols is
        one vector op per symbol. Symbol j weighs q**j, q = p(w), taken as a
        running product: within size ULP of np.power(q, j) / sum, and
        exactly the point mass on symbol 0 at w = 0.
        """
        import numpy as np
        q = np.ravel(self.decoherence.error_prob(w))
        weights = np.empty((int(self.size), q.size))
        weights[0] = 1.0
        for prev, row in zip(weights, weights[1:]):
            np.multiply(prev, q, out=row)
        weights /= _symbol_sum(weights)
        return np.moveaxis(weights.reshape(weights.shape[:1] + np.shape(w)), 0, -1)


@dataclass(frozen=True)
class RandomBijective:
    """Channel y = table[x][n]: noise index n drawn from noise_law(w), then a
    per-input permutation. The k x k table must be a Latin square: its rows
    make the output, given (x, w), an invertible function of the noise, and
    its columns make a uniform input give a uniform output.
    """

    table: tuple
    noise_law: object

    def __post_init__(self):
        import numpy as np
        table = np.asarray(self.table, dtype=int)
        k = len(table) if table.ndim else 0
        if k < 2 or table.shape != (k, k):
            raise ValueError("table must be k x k (inputs x noise symbols), k >= 2")
        want = np.arange(k)
        if not all((np.sort(rows, axis=1) == want).all() for rows in (table, table.T)):
            raise ValueError("table must be a Latin square: every row and column a "
                             "permutation of the outputs")
        if not isinstance(self.noise_law, (BernoulliNoise, WaitGeometricNoise)):
            raise TypeError("noise_law must be a BernoulliNoise or a WaitGeometricNoise")
        if self.noise_law.size != k:
            raise ValueError(f"noise law has {self.noise_law.size} symbols, table {k}")
        object.__setattr__(self, "table", tuple(tuple(int(v) for v in row) for row in table))
        object.__setattr__(self, "_table_arr", table)

    @staticmethod
    def binary_symmetric(decoherence):
        """The binary symmetric channel: XOR table, Bernoulli(p(w)/2) noise."""
        return RandomBijective(xor_table(2), BernoulliNoise(decoherence))

    @property
    def size(self):
        return len(self.table)

    def apply(self, x, w, rng):
        """Outputs for aligned symbol and wait arrays: table[x, noise].

        One uniform per symbol is drawn up front, then the noise laws are
        built and sampled row_chunks at a time, so memory is O(n + chunk)
        and neither the outputs nor the rng state depend on the chunk size.
        """
        import numpy as np
        u = rng.random(x.size)
        w = np.ravel(w)
        noise = np.empty(x.size, dtype=np.intp)
        for rows in row_chunks(x.size, self.size):
            noise[rows] = _sample_categorical(self.noise_dist(w[rows]), u[rows])
        return self._table_arr[x, noise.reshape(x.shape)]

    def noise_dist(self, w):
        """Noise distribution(s) at wait(s) w >= 0, one row per wait: for m
        waits, the (m, k) transposed view of a symbol-major buffer."""
        return self.noise_law(w)

    def capacity(self, spec, n=0, seed=None, assume_unpredictable=False):
        """The capacity estimated over n stationary delays drawn from seed
        (see stationary_wait_samples), computing only the expectations
        capacity_from reads for this spec. Raises ValueError for n < 2, as
        one delay gives no standard error, before drawing any.
        """
        if spec.receiver_knows_timing:
            keys = (E_H_NOISE,)
        elif assume_unpredictable:
            keys = (H_MEAN_NOISE,)
        else:
            keys = (H_MEAN_NOISE, E_H_KERNEL_NOISE)
        if n < 2:
            raise ValueError(f"need at least 2 delays, got {n}")
        from .simulate import estimate_bijective_bounds
        waits = stationary_wait_samples(spec.lam, spec.service, n, seed=seed,
                                        convention=spec.delay_convention)
        expectations = estimate_bijective_bounds(spec, waits.samples, keys)
        return self.capacity_from(spec, expectations, assume_unpredictable)

    def capacity_from(self, spec, noise_entropy_expectations,
                      assume_unpredictable=False):
        """The capacity from noise-entropy expectations (estimated over delays by
        qcl.simulate.estimate_bijective_bounds), in bits per symbol:
          - "E_H_noise": E[H(N(W))], per-delay noise entropy;
          - "H_mean_noise": H(E[N(W)]), entropy of the delay-averaged noise law;
          - "E_H_kernel_noise": E[H(one-step-ahead averaged noise law)].

        Returns the exact value lam*(log2 k - E_H_noise) when the receiver
        knows the timing. Otherwise: the exact value lam*(log2 k -
        H_mean_noise) if the caller asserts the queue is unpredictable from
        past noise, else a result with bits_per_sec None and the bound pair
        lam*(log2 k - H_mean_noise) <= C <= lam*(log2 k - E_H_kernel_noise).
        Each expectation is an EstimateWithError: its value sets the rate and
        goes to the diagnostics with its std_error; the result carries that
        std_error in bits/sec (None stays None) and its n.
        """
        log_k = math.log2(self.size)

        def rate(key, method, **diagnostics):
            try:
                expectation = noise_entropy_expectations[key]
            except (KeyError, TypeError):
                raise ValueError(f"missing noise entropy expectation {key!r}") from None
            h, se = float(expectation.value), expectation.std_error
            return CapacityResult(spec.lam * (log_k - h), method,
                                  {**diagnostics, key: h, "expectation_std_error": se},
                                  std_error=None if se is None else spec.lam * se,
                                  n=expectation.n)

        if spec.receiver_knows_timing:
            return rate(E_H_NOISE, METHOD_MC, csir=True)
        if assume_unpredictable:
            return rate(H_MEAN_NOISE, METHOD_MC, csir=False,
                        assumption=UNPREDICTABILITY_NOTE)
        lower = rate(H_MEAN_NOISE, METHOD_BOUND_LOWER, csir=False)
        upper = rate(E_H_KERNEL_NOISE, METHOD_BOUND_UPPER, csir=False)
        return CapacityResult(None, METHOD_BOUNDS, {"csir": False}, n=lower.n,
                              bounds=(lower, upper))

    def score(self, transcript):
        """(estimate, bounds) from the transcript's own delay column: bounds
        maps lower, upper and csir_exact to their results, and the estimate
        is csir_exact when the receiver knows the timing, else lower."""
        from .simulate import estimate_bijective_bounds
        spec = transcript.spec
        h = estimate_bijective_bounds(spec, transcript.w)
        lower, upper = self.capacity_from(replace(spec, receiver_knows_timing=False),
                                          h).bounds
        exact = self.capacity_from(replace(spec, receiver_knows_timing=True), h)
        bounds = {"lower": lower, "upper": upper, "csir_exact": exact}
        return exact if spec.receiver_knows_timing else lower, bounds


def xor_table(k=2):
    """The modular-shift table g(x, n) = (x + n) mod k; XOR for k=2."""
    return tuple(tuple((x + n) % k for n in range(k)) for x in range(k))


def row_chunks(rows, k, unit=1):
    """Slices covering range(rows) in order, each a whole number of unit-row
    groups (bar the last) holding about CHUNK_CELLS cells of a k-column
    matrix, and at least one group."""
    step = unit * max(1, CHUNK_CELLS // (unit * k))
    return [slice(lo, min(lo + step, rows)) for lo in range(0, rows, step)]


def _sample_categorical(probs, u):
    """One draw per row of an (m, k) probability matrix, by inversion of the
    m uniforms u: the number of normalized running sums below u, counted
    over the first k - 1 symbols, so it is at most k - 1. The running sums
    are taken over the symbol-major rows, one vector add per symbol, in the
    order a cumsum along each law takes: the draws do not depend on the
    layout of probs or the number of rows."""
    import numpy as np
    cum = np.moveaxis(probs, -1, 0).copy()
    for prev, row in zip(cum, cum[1:]):
        row += prev
    return np.count_nonzero(u > cum[:-1] / cum[-1], axis=0)


def apply_channel(channel, x, w, rng):
    """Send symbol(s) x through the channel at wait(s) w; rng is a Generator.

    Accepts scalars or aligned arrays; returns the same shape. The channel
    is any object with an alphabet size and apply(x, w, rng); one without
    them fails before any draw. Erasure outputs ERASED where the symbol is
    lost and never a wrong symbol.
    """
    import numpy as np
    scalar = np.isscalar(x) or (np.ndim(x) == 0)
    xs = np.atleast_1d(np.asarray(x, dtype=int))
    ws = np.broadcast_to(np.asarray(w, dtype=float), xs.shape)
    if not np.all(ws >= 0):  # NaN fails this too
        raise ValueError("waits must be nonnegative")
    k = channel.size
    if np.any(xs < 0) or np.any(xs >= k):
        raise ValueError(f"input symbol outside alphabet of size {k}")
    y = channel.apply(xs, ws, rng)
    return int(y[0]) if scalar else y


def binary_entropy(q):
    """Binary entropy in bits, with 0*log(0) = 0. Accepts scalars or arrays."""
    import numpy as np
    arr = np.asarray(q, dtype=float)
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ValueError("probability out of [0, 1]")
    out = np.zeros_like(arr)
    interior = (arr > 0.0) & (arr < 1.0)
    v = arr[interior]
    out[interior] = -v * np.log2(v) - (1.0 - v) * np.log2(1.0 - v)
    return float(out) if out.ndim == 0 else out


def discrete_entropy(dist):
    """Shannon entropy in bits of a probability vector (or rows of vectors).

    The sums over the last (symbol) axis add one symbol at a time, in symbol
    order, so an entropy has the same bits however many rows come with it;
    a noise law's symbol-major layout makes each add one contiguous pass.
    """
    import numpy as np
    p = np.moveaxis(np.asarray(dist, dtype=float), -1, 0)
    if np.any(p < -_PROB_SLACK):
        raise ValueError("probabilities must be nonnegative")
    if np.any(np.abs(_symbol_sum(p) - 1.0) > 1e-9):
        raise ValueError("probabilities must sum to 1")
    p = np.clip(p, 0.0, None)
    safe = np.where(p > 0.0, p, 1.0)
    h = -_symbol_sum(p * np.log2(safe))
    return float(h) if np.ndim(h) == 0 else h


def _symbol_sum(rows):
    """Sum over the leading (symbol) axis, one add per symbol in symbol
    order: numpy's axis-0 sum takes a pairwise order when only one law
    remains, which would tie the bits to the chunk size."""
    total = rows[0].copy()
    for row in rows[1:]:
        total += row
    return total


def load_bijection(source):
    """Read a table of symbol indices from the JSON wire format.

    Format: {"alphabet": [...], "g": {"<symbol>": [output symbols indexed by
    noise]}}. Keys of "g" are string forms of the alphabet symbols; the table
    must be a Latin square, each row and each column a permutation of the
    alphabet. The symbols only name table entries: symbol i of the alphabet
    becomes index i. Accepts a path or an already-parsed dict.
    """
    if isinstance(source, dict):
        doc = source
    else:
        with open(source) as fh:
            doc = json.load(fh)
    try:
        alphabet = tuple(doc["alphabet"])
        g = doc["g"]
    except (KeyError, TypeError) as exc:
        raise ValueError("bijection document needs 'alphabet' and 'g' keys") from exc
    if not all(isinstance(sym, (str, int, float)) for sym in alphabet):
        raise ValueError("alphabet symbols must be strings or numbers")
    if not (isinstance(g, dict) and all(isinstance(row, list) for row in g.values())):
        raise ValueError("'g' must map each alphabet symbol to a list of outputs")
    index = {str(sym): i for i, sym in enumerate(alphabet)}
    if len(index) != len(alphabet):
        raise ValueError("alphabet symbols must be distinct")
    if set(g) != set(index):
        raise ValueError("'g' must have exactly one row per alphabet symbol")
    k = len(alphabet)
    table = [None] * k
    for key, row in g.items():
        if len(row) != k:
            raise ValueError(f"row for {key!r} must list {k} outputs")
        try:
            table[index[key]] = tuple(index[str(sym)] for sym in row)
        except KeyError as exc:
            raise ValueError(f"row for {key!r} contains a symbol outside the alphabet") from exc
    # the Latin-square property is checked by the channel constructor
    return tuple(table)
