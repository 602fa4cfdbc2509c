"""Single-server FIFO queue primitives.

Arrival/service sampling, the Lindley waiting-time recursion, and stationary
waiting-time sample sets with burn-in. Everything here is about the delay
process only; what the delay does to a transmitted symbol lives in
qcl.channels.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .numerics import as_rng


class InstabilityError(ValueError):
    """Raised when the offered load is at or above service capacity.

    An unstable queue has no stationary waiting-time law, so none of the
    capacity formulas or estimators apply.
    """


def check_stability(lam, mu):
    if lam >= mu:
        raise InstabilityError(f"unstable: lambda >= mu (lambda={lam:g}, mu={mu:g})")


class DelayConvention(Enum):
    """Which delay drives the per-symbol error probability.

    WAITING_BEFORE_SERVICE is the time spent queued before service starts;
    SOJOURN adds the symbol's own service time. The closed-form transform
    results describe the first, so it is the default everywhere.
    """

    WAITING_BEFORE_SERVICE = "waiting"
    SOJOURN = "sojourn"


@dataclass(frozen=True)
class PoissonArrivals:
    """Memoryless arrival stream: i.i.d. exponential interarrival gaps."""

    rate: float

    def __post_init__(self):
        if not (self.rate > 0.0 and math.isfinite(self.rate)):
            raise ValueError("arrival rate must be a positive finite number")

    def sample_interarrival(self, rng, size=None):
        return as_rng(rng).exponential(1.0 / self.rate, size=size)


class ServiceDistribution:
    """Base class for nonnegative service-time laws.

    Subclasses provide the mean, a sampler, and the Laplace transform
    E[exp(-s*S)]; `one_minus_laplace` exists so small-s evaluations do not lose
    precision to cancellation (it feeds the alpha factor at tiny kappa).
    """

    kind = "service"

    @property
    def mean(self):
        raise NotImplementedError

    def sample(self, rng, size=None):
        raise NotImplementedError

    def laplace(self, s):
        raise NotImplementedError

    def one_minus_laplace(self, s):
        return 1.0 - self.laplace(s)


@dataclass(frozen=True)
class Exponential(ServiceDistribution):
    rate: float = 1.0
    kind = "exponential"

    def __post_init__(self):
        if not (self.rate > 0.0 and math.isfinite(self.rate)):
            raise ValueError("service rate must be a positive finite number")

    @property
    def mean(self):
        return 1.0 / self.rate

    def sample(self, rng, size=None):
        return as_rng(rng).exponential(self.mean, size=size)

    def laplace(self, s):
        return self.rate / (self.rate + s)

    def one_minus_laplace(self, s):
        return s / (self.rate + s)


@dataclass(frozen=True)
class Deterministic(ServiceDistribution):
    value: float = 1.0
    kind = "deterministic"

    def __post_init__(self):
        if not (self.value > 0.0 and math.isfinite(self.value)):
            raise ValueError("deterministic service time must be positive")

    @property
    def mean(self):
        return self.value

    def sample(self, rng, size=None):
        if size is None:
            return self.value
        return np.full(size, self.value)

    def laplace(self, s):
        return math.exp(-s * self.value)

    def one_minus_laplace(self, s):
        return -math.expm1(-s * self.value)


@dataclass(frozen=True)
class Gamma(ServiceDistribution):
    shape: float
    scale: float
    kind = "gamma"

    def __post_init__(self):
        if not (self.shape > 0.0 and self.scale > 0.0):
            raise ValueError("gamma shape and scale must be positive")
        if not (math.isfinite(self.shape) and math.isfinite(self.scale)):
            raise ValueError("gamma shape and scale must be finite")

    @property
    def mean(self):
        return self.shape * self.scale

    def sample(self, rng, size=None):
        return as_rng(rng).gamma(self.shape, self.scale, size=size)

    def laplace(self, s):
        return (1.0 + self.scale * s) ** (-self.shape)

    def one_minus_laplace(self, s):
        return -math.expm1(-self.shape * math.log1p(self.scale * s))


@dataclass(frozen=True)
class Uniform(ServiceDistribution):
    low: float
    high: float
    kind = "uniform"

    def __post_init__(self):
        if not (0.0 <= self.low < self.high):
            raise ValueError("uniform service needs 0 <= low < high")
        if not math.isfinite(self.high):
            raise ValueError("uniform service needs a finite high")

    @property
    def mean(self):
        return 0.5 * (self.low + self.high)

    def sample(self, rng, size=None):
        return as_rng(rng).uniform(self.low, self.high, size=size)

    def laplace(self, s):
        if s == 0.0:
            return 1.0
        width = self.high - self.low
        # exp(-s*low) * (1 - exp(-s*width)) / (s*width), stable for small s
        return math.exp(-s * self.low) * (-math.expm1(-s * width)) / (s * width)

    def one_minus_laplace(self, s):
        # 1 - exp(-s*low) + exp(-s*low) * g(y)/y with y = s*width and
        # g(y) = y + expm1(-y), summed from its series where it would cancel
        y = s * (self.high - self.low)
        if y > 0.5:
            g_over_y = (y + math.expm1(-y)) / y
        else:
            term = g_over_y = 0.5 * y  # y/2! - y^2/3! + y^3/4! - ...
            k = 2
            while abs(term) > 1e-17 * g_over_y:
                term *= -y / (k + 1)
                g_over_y += term
                k += 1
        return -math.expm1(-s * self.low) + math.exp(-s * self.low) * g_over_y


@dataclass(frozen=True)
class Empirical(ServiceDistribution):
    """Service law given by observed samples (resampled with replacement)."""

    samples: tuple
    kind = "empirical"

    def __post_init__(self):
        data = np.asarray(self.samples, dtype=float)
        if data.size == 0:
            raise ValueError("empirical service law needs at least one sample")
        if np.any(data < 0) or not np.all(np.isfinite(data)):
            raise ValueError("empirical service samples must be finite and nonnegative")
        object.__setattr__(self, "samples", tuple(float(v) for v in data))
        object.__setattr__(self, "_data", data)

    @property
    def mean(self):
        return float(self._data.mean())

    def sample(self, rng, size=None):
        return as_rng(rng).choice(self._data, size=size, replace=True)

    def laplace(self, s):
        return float(np.exp(-s * self._data).mean())

    def one_minus_laplace(self, s):
        return float(-np.expm1(-s * self._data).mean())


def lindley_waits(services, interarrivals):
    """Vectorized Lindley recursion over aligned arrays, from an empty queue.

    services[j] is customer j's service time; interarrivals[j] is the gap
    between arrivals j-1 and j (entry 0 is the first arrival epoch and does not
    influence waits). Returns the waiting-before-service times, using the
    prefix-sum identity W_j = max(P_j, P_j - min_k<=j P_k) with P_j = sum of
    (services - interarrivals) increments; the larger term is never negative.
    """
    s = np.asarray(services, dtype=float)
    t = np.asarray(interarrivals, dtype=float)
    if s.shape != t.shape:
        raise ValueError("services and interarrivals must have equal length")
    n = s.size
    w = np.empty(n)
    if n == 0:
        return w
    w[0] = 0.0
    p = np.cumsum(s[:-1] - t[1:])
    np.maximum(p, p - np.minimum.accumulate(p), out=w[1:])
    return w


def default_burn_in(lam, mu):
    """Burn-in long enough to forget the empty start: max(1e4, 10/(mu-lam))."""
    return max(10_000, math.ceil(10.0 / (mu - lam)))


@dataclass(frozen=True)
class WaitSampleSet:
    """Post-burn-in draws from the stationary per-symbol delay law."""

    samples: np.ndarray
    burn_in: int

    def __len__(self):
        return self.samples.size


def queue_path(arrival, service, n, rng, convention):
    """Run n symbols through the queue from empty, drawing the interarrival
    gaps and then the service times from rng. Returns (gaps, services, waits
    before service, delays), each delay under the given DelayConvention."""
    t = arrival.sample_interarrival(rng, size=n)
    s = np.asarray(service.sample(rng, size=n), dtype=float)
    wq = lindley_waits(s, t)
    return t, s, wq, (wq + s if convention is DelayConvention.SOJOURN else wq)


def stationary_wait_samples(arrival, service, n, seed=None,
                            convention=DelayConvention.WAITING_BEFORE_SERVICE):
    """Sample n stationary delays: run the queue from empty and discard the
    first default_burn_in(lambda, mu) of them.

    Args:
        arrival: PoissonArrivals with rate lambda < 1/service.mean.
        service: a ServiceDistribution.
        n: samples to keep after the burn-in.
        seed: int seed, SeedSequence, or Generator.
        convention: with SOJOURN, each emitted sample is the queue wait plus
            the symbol's own service time.

    Raises InstabilityError when lambda >= mu.
    """
    lam = arrival.rate
    mu = 1.0 / service.mean
    check_stability(lam, mu)
    if n < 1:
        raise ValueError("need n >= 1 samples")
    burn_in = default_burn_in(lam, mu)
    *_, w = queue_path(arrival, service, n + burn_in, as_rng(seed), convention)
    return WaitSampleSet(samples=w[burn_in:], burn_in=burn_in)
