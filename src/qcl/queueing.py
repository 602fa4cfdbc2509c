"""Single-server FIFO queue primitives.

The experiment description QueueChannelSpec and its stability rule, service
laws, the Lindley waiting-time recursion, the one queue path queue_blocks
(Poisson arrivals and service draws, run block by block), and stationary
waiting-time sample sets with burn-in. Everything here is about the delay
process; what the delay does to a transmitted symbol lives in qcl.channels.
"""

import math
from dataclasses import dataclass
from enum import Enum

MAX_N = 10 ** 9  # symbols per run; one float64 column of 10**9 takes 8 GB
# symbols per queue_blocks step: blocks of 2**12 to 2**16 time alike at
# n = 10**6, and both 2**10 and 2**18 are slower
QUEUE_BLOCK = 1 << 14


class InstabilityError(ValueError):
    """Raised when the offered load is at or above service capacity.

    An unstable queue has no stationary waiting-time law, so none of the
    capacity formulas or estimators apply.
    """


def check_stability(lam, mu):
    """Reject an arrival rate lam that is not a positive finite number
    (ValueError), then one at or above the service rate mu: the queue is
    stable only for lam < mu (InstabilityError)."""
    if not (lam > 0.0 and math.isfinite(lam)):
        raise ValueError("arrival rate must be a positive finite number")
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
class QueueChannelSpec:
    """Complete experiment description: Poisson(lam) arrivals, a service law,
    the channel, and conventions. Building one (dataclasses.replace too) runs
    check_stability(lam, mu), so every spec describes a stable queue."""

    lam: float
    service: object
    channel: object
    delay_convention: DelayConvention = DelayConvention.WAITING_BEFORE_SERVICE
    receiver_knows_timing: bool = False

    def __post_init__(self):
        check_stability(self.lam, self.mu)

    @property
    def mu(self):
        return 1.0 / self.service.mean


class ServiceDistribution:
    """Base class for nonnegative service-time laws.

    Subclasses provide a `kind`, the mean, a sampler, the Laplace transform
    E[exp(-s*S)] and `one_minus_laplace`, which keeps small-s evaluations
    from cancellation (it feeds the alpha factor at tiny kappa). Each ends
    its __post_init__ in this one: every formula divides by the mean or mu.
    """

    def __post_init__(self):
        mean = self.mean
        if not (mean > 0.0 and math.isfinite(mean) and math.isfinite(1.0 / mean)):
            raise ValueError(f"{self.kind} service needs a positive mean, with the "
                             f"mean and the rate 1/mean finite, got mean {mean!r}")

    @property
    def mean(self):
        raise NotImplementedError

    def sample(self, rng, size=None):
        raise NotImplementedError

    def laplace(self, s):
        raise NotImplementedError


@dataclass(frozen=True)
class Exponential(ServiceDistribution):
    rate: float = 1.0
    kind = "exponential"

    def __post_init__(self):
        if not (self.rate > 0.0 and math.isfinite(self.rate)):
            raise ValueError("service rate must be a positive finite number")
        super().__post_init__()

    @property
    def mean(self):
        return 1.0 / self.rate

    def sample(self, rng, size=None):
        return rng.exponential(self.mean, size=size)

    def laplace(self, s):
        return self.rate / (self.rate + s)

    def one_minus_laplace(self, s):
        return s / (self.rate + s)


@dataclass(frozen=True)
class Deterministic(ServiceDistribution):
    value: float = 1.0
    kind = "deterministic"

    @property
    def mean(self):
        return self.value

    def sample(self, rng, size=None):
        if size is None:
            return self.value
        import numpy as np
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
        super().__post_init__()

    @property
    def mean(self):
        return self.shape * self.scale

    def sample(self, rng, size=None):
        return rng.gamma(self.shape, self.scale, size=size)

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
        super().__post_init__()

    @property
    def mean(self):
        return 0.5 * self.low + 0.5 * self.high

    def sample(self, rng, size=None):
        return rng.uniform(self.low, self.high, size=size)

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
        import numpy as np
        data = np.asarray(self.samples, dtype=float)
        if data.size == 0:
            raise ValueError("empirical service law needs at least one sample")
        if np.any(data < 0) or not np.all(np.isfinite(data)):
            raise ValueError("empirical service samples must be finite and nonnegative")
        object.__setattr__(self, "samples", tuple(float(v) for v in data))
        object.__setattr__(self, "_data", data)
        super().__post_init__()

    @property
    def mean(self):
        return float(self._data.mean())

    def sample(self, rng, size=None):
        return rng.choice(self._data, size=size, replace=True)

    def laplace(self, s):
        import numpy as np
        return float(np.exp(-s * self._data).mean())

    def one_minus_laplace(self, s):
        import numpy as np
        return float(-np.expm1(-s * self._data).mean())


def lindley_waits(services, interarrivals):
    """Vectorized Lindley recursion over aligned arrays, from an empty queue.

    services[j] is customer j's service time; interarrivals[j] is the gap
    between arrivals j-1 and j (entry 0 is the first arrival epoch and does not
    influence waits). Returns the waiting-before-service times: W_0 = 0, then
    waits_from_prefix_sums' from floor 0, with P_j the running sum of the
    increments services[j-1] - interarrivals[j]. It works in place: one
    temporary of n - 1 floats besides the output, allocated after it, so that
    freeing it leaves no hole below w where the heap holds arrays this size.
    """
    import numpy as np
    s = np.asarray(services, dtype=float)
    t = np.asarray(interarrivals, dtype=float)
    if s.shape != t.shape:
        raise ValueError("services and interarrivals must have equal length")
    w = np.empty(s.size)
    if s.size == 0:
        return w
    p = np.subtract(s[:-1], t[1:])
    np.cumsum(p, out=p)
    w[0] = 0.0
    waits_from_prefix_sums(p, w[1:])
    return w


def waits_from_prefix_sums(p, w, floor=0.0):
    """Waits W_j = P_j - min(floor, P_1, ..., P_j), written into w (as long
    as p), from prefix sums P_j = sum over i = 1..j of (S_{i-1} - T_i),
    services minus interarrival gaps; floor is the running minimum before p,
    0 for a queue that starts empty (whose W_0 = 0 comes before P_1). Returns
    the running minimum after p, the floor of the block that follows, so a
    long path can be taken block by block with the bits of one whole pass.
    These bits equal those of max(P_j, P_j - min(P_1, ..., P_j)) from floor
    0; np.fmin.accumulate gives np.minimum.accumulate's bits on NaN-free
    sums, faster. p is read, not written.
    """
    import numpy as np
    np.fmin.accumulate(p, out=w)
    np.fmin(w, floor, out=w)
    floor = w[-1] if w.size else floor
    np.subtract(p, w, out=w)
    return floor


def default_burn_in(lam, mu):
    """Burn-in long enough to forget the empty start: max(1e4, 10/(mu-lam))."""
    return max(10_000, math.ceil(10.0 / (mu - lam)))


@dataclass(frozen=True)
class WaitSampleSet:
    """Post-burn-in draws from the stationary per-symbol delay law."""

    samples: "numpy.ndarray"
    burn_in: int

    def __len__(self):
        return self.samples.size


def queue_blocks(lam, service, n, rng, convention):
    """Run n symbols through the queue from empty, QUEUE_BLOCK at a time.

    The Poisson(lam) interarrival gaps and the service times are drawn from
    two generators spawned from rng, one block of each per step. Yields
    (gaps, services, waits before service, delays) per block, each delay
    under the given DelayConvention; the consumer owns the arrays. Between
    blocks it carries the last prefix sum, the running minimum and the last
    service time, so the waits have the bits of lindley_waits over the
    concatenated draws.
    """
    import numpy as np
    gap_rng, service_rng = rng.spawn(2)
    prefix = floor = last_service = 0.0  # P_0 = 0: the queue starts empty
    for lo in range(0, n, QUEUE_BLOCK):
        size = min(QUEUE_BLOCK, n - lo)
        t = gap_rng.exponential(1.0 / lam, size=size)
        s = np.asarray(service.sample(service_rng, size=size), dtype=float)
        p = np.empty(size)  # P_lo .. P_hi-1, summed in lindley_waits' order
        p[0] = prefix + (last_service - t[0]) if lo else 0.0
        np.subtract(s[:-1], t[1:], out=p[1:])
        np.cumsum(p, out=p)
        w = np.empty(size)
        floor = waits_from_prefix_sums(p, w, floor)
        prefix, last_service = p[-1], s[-1]
        del p  # not held while the consumer runs
        yield t, s, w, (w + s if convention is DelayConvention.SOJOURN else w)


def stationary_wait_samples(lam, service, n, seed=None,
                            convention=DelayConvention.WAITING_BEFORE_SERVICE):
    """Sample n stationary delays: run the queue from empty and discard the
    first default_burn_in(lambda, mu) of them. Only the n kept delays are
    held; the burn-in passes through queue_blocks a block at a time.

    Args:
        lam: Poisson arrival rate, 0 < lambda < 1/service.mean.
        service: a ServiceDistribution.
        n: samples to keep after the burn-in.
        seed: int seed, SeedSequence, or Generator.
        convention: with SOJOURN, each emitted sample is the queue wait plus
            the symbol's own service time.

    Raises check_stability's errors for a bad lambda, and ValueError, before
    drawing anything, when n + burn-in exceeds MAX_N.
    """
    import numpy as np
    mu = 1.0 / service.mean
    check_stability(lam, mu)
    if n < 1:
        raise ValueError("need n >= 1 samples")
    burn_in = default_burn_in(lam, mu)
    if n + burn_in > MAX_N:
        raise ValueError(f"n + burn-in must be at most {MAX_N}, got {n} + {burn_in}")
    samples = np.empty(n)
    lo = -burn_in  # where the block's first delay lands in samples
    for *_, delays in queue_blocks(lam, service, n + burn_in,
                                   np.random.default_rng(seed), convention):
        hi = lo + delays.size
        if hi > 0:
            samples[max(lo, 0):hi] = delays[max(-lo, 0):]
        lo = hi
    return WaitSampleSet(samples=samples, burn_in=burn_in)
