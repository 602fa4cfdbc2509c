"""End-to-end Monte Carlo transmission and empirical capacity estimation.

A transcript is one realization of the whole system: Poisson arrivals queue up
for a single server, each symbol's delay drives its channel noise, and the
received sequence is recorded alongside the timing. The estimators here are
the ground truth every closed form in qcl.capacity is checked against.
"""

import csv
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .capacity import (E_H_KERNEL_NOISE, E_H_NOISE, H_MEAN_NOISE,
                       QueueChannelSpec, bijective_capacity, erasure_capacity)
from .channels import (ERASED, DecoherenceModel, Erasure, alphabet_size,
                       apply_channel, discrete_entropy)
from .numerics import batch_means, spawn_rngs
from .queueing import (DelayConvention, Exponential, PoissonArrivals,
                       lindley_waits, stationary_wait_samples)


@dataclass(frozen=True)
class EstimateWithError:
    """A Monte Carlo estimate with its standard error and sample count."""

    value: float
    std_error: float
    n: int
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.std_error < 0:
            raise ValueError("std_error must be nonnegative")
        if self.n < 1:
            raise ValueError("n must be at least 1")


@dataclass(frozen=True)
class Transcript:
    """Per-symbol record of one simulated transmission.

    Columns: input symbol x, arrival time a, departure time d, service time s,
    delay w (under the spec's convention), output symbol y.
    """

    x: np.ndarray
    a: np.ndarray
    d: np.ndarray
    s: np.ndarray
    w: np.ndarray
    y: np.ndarray
    spec: QueueChannelSpec
    seed: object = None

    def __len__(self):
        return self.x.size

    @property
    def lam(self):
        return self.spec.lam

    def to_csv(self, path_or_file):
        """Write `index,x,a,d,s,w,y` rows; ERASED symbols render as `?`.

        Floats are written with repr (shortest round-trip), so files are
        bit-identical across runs with the same seed.
        """
        own = not hasattr(path_or_file, "write")
        fh = open(path_or_file, "w", newline="") if own else path_or_file
        try:
            writer = csv.writer(fh)
            writer.writerow(["index", "x", "a", "d", "s", "w", "y"])
            for i in range(len(self)):
                y = int(self.y[i])
                writer.writerow([i, int(self.x[i]), repr(float(self.a[i])),
                                 repr(float(self.d[i])), repr(float(self.s[i])),
                                 repr(float(self.w[i])),
                                 "?" if y == ERASED else y])
        finally:
            if own:
                fh.close()


def simulate_transmission(spec, n, seed=None):
    """Push n i.i.d. uniform input symbols through the queue channel.

    The queue starts empty; waits follow the Lindley recursion, and each
    output is drawn by the channel at that symbol's realized delay. Three
    independent substreams (queue, inputs, channel noise) are split from the
    seed, so the draw order is stable across versions.
    """
    spec.check_stable()
    if n < 0:
        raise ValueError("n must be nonnegative")
    queue_rng, input_rng, noise_rng = spawn_rngs(seed, 3)
    k = alphabet_size(spec.channel)
    if n == 0:
        empty = np.empty(0)
        return Transcript(x=np.empty(0, dtype=int), a=empty, d=empty, s=empty,
                          w=empty, y=np.empty(0, dtype=int), spec=spec, seed=seed)
    t = spec.arrival.sample_interarrival(queue_rng, size=n)
    s = np.asarray(spec.service.sample(queue_rng, size=n), dtype=float)
    a = np.cumsum(t)
    wq = lindley_waits(s, t)
    d = a + wq + s
    if spec.delay_convention is DelayConvention.SOJOURN:
        w = wq + s
    else:
        w = wq
    x = input_rng.integers(0, k, size=n)
    y = apply_channel(spec.channel, x, w, noise_rng)
    return Transcript(x=x, a=a, d=d, s=s, w=w, y=np.asarray(y, dtype=int),
                      spec=spec, seed=seed)


def estimate_erasure_capacity(transcript):
    """Plug-in erasure capacity lam * log2(k) * (1 - erased fraction).

    The standard error is batch-means (the erased indicators inherit the
    delay autocorrelation); the i.i.d. binomial error is kept in details.
    """
    if transcript.spec.channel.kind != "erasure":
        raise TypeError("estimate_erasure_capacity needs an erasure transcript")
    n = len(transcript)
    if n == 0:
        raise ValueError("empty transcript")
    survived = (transcript.y != ERASED).astype(float)
    mean, se, m = batch_means(survived)
    scale = transcript.lam * math.log2(alphabet_size(transcript.spec.channel))
    frac = survived.mean()
    binomial_se = scale * math.sqrt(max(frac * (1.0 - frac), 0.0) / n)
    return EstimateWithError(value=scale * mean, std_error=scale * se, n=n,
                             details={"erased_fraction": 1.0 - frac,
                                      "binomial_std_error": binomial_se,
                                      "batches": m})


def estimate_expectation_over_pi(f, spec, n, burn_in=None, seed=None):
    """Batch-means estimate of E[f(W)] over the stationary delay law."""
    waits = stationary_wait_samples(spec.arrival, spec.service, n,
                                    burn_in=burn_in, seed=seed,
                                    convention=spec.delay_convention)
    values = np.asarray(f(waits.samples), dtype=float)
    if values.shape != waits.samples.shape:
        raise ValueError("f must map the wait array elementwise")
    mean, se, m = batch_means(values)
    return EstimateWithError(value=mean, std_error=se, n=int(values.size),
                             details={"batches": m, "burn_in": waits.burn_in})


def _quantile_buckets(w, buckets):
    """Assign each delay to one of `buckets` near-equal-count bins."""
    edges = np.quantile(w, np.linspace(0.0, 1.0, buckets + 1)[1:-1])
    return np.searchsorted(edges, w, side="right")


def estimate_bijective_bounds(spec, w, buckets=64,
                              keys=(E_H_NOISE, H_MEAN_NOISE, E_H_KERNEL_NOISE)):
    """Estimate, from the delays w in time order, the noise-entropy
    expectations that qcl.capacity.bijective_capacity turns into the
    timing-aware value, the unpredictable-queue value and the no-timing bounds.

    w may be stationary samples or a transcript's delay column. Returns a dict
    mapping each requested key to an EstimateWithError in bits per symbol:
      - E_H_noise: mean of the per-delay noise entropies;
      - H_mean_noise: entropy of the delay-averaged noise law;
      - E_H_kernel_noise: mean entropy of the one-step-ahead averaged noise
        law, where the one-step kernel is estimated from consecutive delay
        pairs bucketed into delay quantiles.

    When E_H_kernel_noise is requested, H_mean_noise averages over the same
    successor delays w[1:], so by entropy concavity the lower bound stays
    below the upper bound sample by sample, not just in expectation.
    """
    if spec.channel.kind != "bijective":
        raise TypeError("estimate_bijective_bounds needs a RandomBijective channel")
    spec.check_stable()
    w = np.asarray(w, dtype=float)
    kernel = E_H_KERNEL_NOISE in keys
    need = 2 if kernel else 1
    if w.size < need:
        raise ValueError(f"need at least {need} delays, got {w.size}")
    probs = spec.channel.noise_dist(w)
    out = {}

    if E_H_NOISE in keys:
        mean_h, se_h, _ = batch_means(discrete_entropy(probs))
        out[E_H_NOISE] = EstimateWithError(value=mean_h, std_error=se_h, n=w.size)

    # beside the kernel, only the successors W_1..W_{n-1} it averages over
    mixed = probs[1:] if kernel else probs
    if H_MEAN_NOISE in keys:
        h_mean = discrete_entropy(mixed.mean(axis=0))
        m = max(2, int(math.isqrt(mixed.shape[0])))
        nb = mixed.shape[0] // m
        if nb >= 2:
            batch_dists = mixed[: nb * m].reshape(nb, m, -1).mean(axis=1)
            se_mean = float(discrete_entropy(batch_dists).std(ddof=1) / math.sqrt(nb))
        else:
            se_mean = 0.0
        out[H_MEAN_NOISE] = EstimateWithError(value=h_mean, std_error=se_mean,
                                              n=mixed.shape[0])

    if kernel:
        # one-step kernel: average successor noise laws within delay buckets
        idx = _quantile_buckets(w[:-1], buckets)
        counts = np.bincount(idx, minlength=buckets).astype(float)
        sums = np.stack([np.bincount(idx, weights=mixed[:, j], minlength=buckets)
                         for j in range(probs.shape[1])], axis=1)
        occupied = counts > 0
        kernel_dists = np.zeros_like(sums)
        kernel_dists[occupied] = sums[occupied] / counts[occupied, None]
        h_bucket = np.zeros(buckets)
        h_bucket[occupied] = discrete_entropy(kernel_dists[occupied])
        mean_hk, se_hk, _ = batch_means(h_bucket[idx])
        out[E_H_KERNEL_NOISE] = EstimateWithError(
            value=mean_hk, std_error=se_hk, n=w.size - 1,
            details={"buckets": int(occupied.sum())})
    return out


def evaluate_capacity(spec, n=0, burn_in=None, seed=None, buckets=64,
                      assume_unpredictable=False):
    """The capacity of spec's channel as a CapacityResult.

    An erasure channel has a transform closed form and draws nothing. A
    noise-permutation channel is estimated over n stationary delays (see
    stationary_wait_samples for burn_in and seed), computing only the
    expectations bijective_capacity reads for this spec.
    """
    if spec.channel.kind == "erasure":
        return erasure_capacity(spec)
    if spec.receiver_knows_timing:
        keys = (E_H_NOISE,)
    elif assume_unpredictable:
        keys = (H_MEAN_NOISE,)
    else:
        keys = (H_MEAN_NOISE, E_H_KERNEL_NOISE)
    waits = stationary_wait_samples(spec.arrival, spec.service, n,
                                    burn_in=burn_in, seed=seed,
                                    convention=spec.delay_convention)
    expectations = estimate_bijective_bounds(spec, waits.samples, buckets, keys)
    return bijective_capacity(spec, expectations, assume_unpredictable)


def estimate_capacity(transcript, buckets=64):
    """Capacity estimated from one transcript, as (estimate, bounds).

    An erasure transcript is scored by its erased fraction and has no bounds.
    A noise-permutation transcript is scored from its own delay column: bounds
    maps lower, upper and csir_exact to bits/sec estimates, and the estimate
    is csir_exact when the receiver knows the timing, else lower. Both are
    None when the transcript is too short to estimate from.
    """
    spec = transcript.spec
    if spec.channel.kind == "erasure":
        return (estimate_erasure_capacity(transcript) if len(transcript) else None), None
    if len(transcript) < 2:
        return None, None
    lam, log_k = spec.lam, math.log2(alphabet_size(spec.channel))
    h = estimate_bijective_bounds(spec, transcript.w, buckets)
    bounds = {name: EstimateWithError(value=lam * (log_k - h[key].value),
                                      std_error=lam * h[key].std_error,
                                      n=h[key].n)
              for name, key in (("lower", H_MEAN_NOISE), ("upper", E_H_KERNEL_NOISE),
                                ("csir_exact", E_H_NOISE))}
    return bounds["csir_exact" if spec.receiver_knows_timing else "lower"], bounds


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of one formula-versus-simulation comparison."""

    formula_value: float
    estimate: float
    std_error: float
    sigma_distance: float
    tolerance_sigma: float
    passed: bool

    def __str__(self):
        mark = "pass" if self.passed else "FAIL"
        return (f"{mark}: formula {self.formula_value:.6g} vs estimate "
                f"{self.estimate:.6g} +/- {self.std_error:.2g} "
                f"({self.sigma_distance:.2f} sigma, gate {self.tolerance_sigma:g})")


def validate_formula(formula_value, estimate, tolerance_sigma=4.0):
    """Compare a closed-form value against a Monte Carlo estimate.

    Passes when |estimate - formula| <= tolerance_sigma * std_error; a
    zero-variance estimate must match exactly.
    """
    value = float(getattr(estimate, "value", estimate))
    se = float(getattr(estimate, "std_error", 0.0))
    diff = abs(value - formula_value)
    if se == 0.0:
        passed = diff == 0.0
        sigma = 0.0 if passed else math.inf
    else:
        sigma = diff / se
        passed = sigma <= tolerance_sigma
    return ValidationReport(formula_value=float(formula_value), estimate=value,
                            std_error=se, sigma_distance=sigma,
                            tolerance_sigma=tolerance_sigma, passed=passed)


def sweep_rows(lambdas, kappas, n=0, seed=None, service=None, alphabet=2,
               convention=DelayConvention.WAITING_BEFORE_SERVICE, jobs=None):
    """Capacity grid for the exponential-decoherence erasure family.

    Returns one dict per stable (kappa, lambda) grid point with keys
    `lambda`, `kappa`, `capacity_analytic`, `capacity_mc`, `mc_stderr`; the
    Monte Carlo cells stay None when n == 0. Arrival rates at or past the
    stability boundary are dropped with a warning. Rows iterate kappas outer
    and lambdas inner, both in the order given. Each Monte Carlo cell has its
    own child seed keyed to its grid index, so cells can be evaluated on a
    thread pool (jobs > 1) with results identical to the serial order.
    """
    service = Exponential(1.0) if service is None else service
    mu = 1.0 / service.mean
    kept = [float(lam) for lam in lambdas if 0.0 <= lam < mu]
    dropped = [float(lam) for lam in lambdas if not 0.0 <= lam < mu]
    if dropped:
        warnings.warn(f"dropping arrival rates outside the stability region "
                      f"(mu = {mu:g}): {dropped}", stacklevel=2)
    rows = []
    specs = []
    for kappa in kappas:
        for lam in kept:
            if lam == 0.0:
                analytic, spec = 0.0, None
            else:
                spec = QueueChannelSpec(
                    arrival=PoissonArrivals(lam), service=service,
                    channel=Erasure(DecoherenceModel.exponential(kappa), alphabet),
                    delay_convention=convention)
                analytic = erasure_capacity(spec).bits_per_sec
            specs.append(spec)
            rows.append({"lambda": lam, "kappa": float(kappa),
                         "capacity_analytic": analytic, "capacity_mc": None,
                         "mc_stderr": None})
    if n > 0 and rows:
        ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
        children = ss.spawn(len(rows))

        def mc_cell(i):
            if specs[i] is None:
                return 0.0, 0.0
            est = estimate_erasure_capacity(
                simulate_transmission(specs[i], n, seed=children[i]))
            return est.value, est.std_error

        if jobs is not None and jobs > 1:
            from concurrent.futures import ThreadPoolExecutor
            with ThreadPoolExecutor(max_workers=jobs) as pool:
                cells = list(pool.map(mc_cell, range(len(rows))))
        else:
            cells = [mc_cell(i) for i in range(len(rows))]
        for row, (value, stderr) in zip(rows, cells):
            row["capacity_mc"], row["mc_stderr"] = value, stderr
    return rows
