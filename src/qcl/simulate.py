"""End-to-end Monte Carlo transmission and empirical capacity estimation.

A transcript is one realization of the whole system: Poisson arrivals queue up
for a single server, each symbol's delay drives its channel noise, and the
received sequence is recorded alongside the timing. The estimators here are
the ground truth every closed form in qcl.capacity is checked against.
"""

import math
import os
import threading
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .capacity import (E_H_KERNEL_NOISE, E_H_NOISE, H_MEAN_NOISE, METHOD_MC,
                       CapacityResult, bijective_capacity, erasure_capacity)
from .channels import (ERASED, DecoherenceModel, Erasure, apply_channel,
                       discrete_entropy, row_chunks)
from .numerics import batch_error, batch_means, spawn_rngs
from .queueing import (DelayConvention, Exponential, QueueChannelSpec,
                       queue_path, waits_from_prefix_sums)

BUCKETS = 64  # delay-quantile buckets of the one-step kernel estimate
CSV_BLOCK_ROWS = 1 << 16  # transcript rows formatted per write
SWEEP_BLOCK = 1 << 14  # waits per block of a sweep column, fastest at n = 10**6
SWEEP_KAPPAS = 16  # survival rows a sweep column holds, one per kappa


@dataclass(frozen=True)
class EstimateWithError:
    """A Monte Carlo expectation in bits per symbol, its std_error (or None), n."""

    value: float
    std_error: float
    n: int

    def __post_init__(self):
        if self.std_error is not None and self.std_error < 0:
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

    def __len__(self):
        return self.x.size

    def to_csv(self, path_or_file):
        """Write `index,x,a,d,s,w,y` rows to the file at path_or_file, a path
        (perfbench/tracer.py reads the argument by this name); ERASED symbols
        render as `?`.

        Floats are written with repr (shortest round-trip), so files are
        bit-identical across runs with the same seed. Rows end in \\r\\n, as
        with the csv module's default dialect; no field needs quoting. Rows
        are formatted CSV_BLOCK_ROWS at a time by fork_map and written in
        block order. The bytes are the same whether a pool or this process
        formats them.
        """
        with open(path_or_file, "w", newline="") as fh:
            fh.write("index,x,a,d,s,w,y\r\n")
            fh.writelines(fork_map(lambda lo: _csv_block(self, lo),
                                   range(0, len(self), CSV_BLOCK_ROWS)))


def fork_map(fn, items):
    """Yield fn(item) for each of items, in order, computed on a fork pool of
    min(os.cpu_count(), len(items)) worker processes. fn may be any callable,
    a closure too: it reaches each worker through fork, as the argument of
    the pool's initializer, so only items and results are pickled and no
    module state of this process is written. With one worker, no "fork"
    start method or another thread running (forking a threaded process can
    deadlock) the items are mapped here. multiprocessing is imported only
    on the pool path: it would add about 13 ms to loading this module."""
    items = list(items)
    workers = min(os.cpu_count() or 1, len(items))
    if workers > 1 and threading.active_count() == 1:
        import multiprocessing
        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures import ProcessPoolExecutor
            context = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(workers, mp_context=context,
                                     initializer=_adopt, initargs=(fn,)) as pool:
                yield from pool.map(_call_adopted, items)
            return
    yield from map(fn, items)


_ADOPTED = None  # in a fork_map worker, the fn it maps


def _adopt(fn):
    """fork_map's pool initializer, run once in each worker."""
    global _ADOPTED
    _ADOPTED = fn


def _call_adopted(item):
    return _ADOPTED(item)


def _csv_block(t, lo):
    """CSV rows lo .. lo + CSV_BLOCK_ROWS - 1 of transcript t, as text."""
    block = slice(lo, lo + CSV_BLOCK_ROWS)
    x, y = t.x[block].tolist(), t.y[block].tolist()
    label = {v: str(v) for v in {*x, *y}} | {ERASED: "?"}
    rows = zip(map(str, range(lo, lo + len(x))), map(label.__getitem__, x),
               *(map(repr, col[block].tolist()) for col in (t.a, t.d, t.s, t.w)),
               map(label.__getitem__, y))
    return "\r\n".join(map(",".join, rows)) + "\r\n"


def simulate_transmission(spec, n, seed=None):
    """Push n i.i.d. uniform input symbols through the queue channel.

    The queue starts empty; waits follow the Lindley recursion, and each
    output is drawn by the channel at that symbol's realized delay. Three
    independent substreams (queue, inputs, channel noise) are split from the
    seed, so the draw order is stable across versions.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    queue_rng, input_rng, noise_rng = spawn_rngs(seed, 3)
    t, s, wq, w = queue_path(spec.lam, spec.service, n, queue_rng,
                             spec.delay_convention)
    a = np.cumsum(t)
    d = a + wq + s
    x = input_rng.integers(0, spec.channel.size, size=n)
    y = apply_channel(spec.channel, x, w, noise_rng)
    return Transcript(x=x, a=a, d=d, s=s, w=w, y=np.asarray(y, dtype=int),
                      spec=spec)


def _score_survival(survived, lam, alphabet):
    """Erasure capacity lam * log2(alphabet) * (surviving fraction) from the
    boolean survival indicators of consecutive symbols.

    The fraction and its standard error are batch_means' on the booleans
    (the indicators inherit the delay autocorrelation), so the error is None
    below 2 batches or when every symbol survived or every one was erased.
    """
    frac, se, m = batch_means(survived)
    n = survived.size
    scale = lam * math.log2(alphabet)
    return CapacityResult(bits_per_sec=scale * frac, method=METHOD_MC,
                          diagnostics={"erased_fraction": 1.0 - frac,
                                       "batches": m},
                          std_error=None if se is None else scale * se, n=n)


def _quantile_buckets(w):
    """Assign each delay to one of BUCKETS near-equal-count bins."""
    edges = np.quantile(w, np.linspace(0.0, 1.0, BUCKETS + 1)[1:-1])
    return np.searchsorted(edges, w, side="right")


def estimate_bijective_bounds(spec, w, keys=(E_H_NOISE, H_MEAN_NOISE, E_H_KERNEL_NOISE)):
    """Estimate, from the delays w in time order, the noise-entropy
    expectations that qcl.capacity.bijective_capacity turns into the
    timing-aware value, the unpredictable-queue value and the no-timing bounds.

    w may be stationary samples or a transcript's delay column, at least 2 of
    them. Returns a dict mapping each requested key to an EstimateWithError
    in bits per symbol, with a std_error from numerics.batch_error:
      - E_H_noise: mean of the per-delay noise entropies;
      - H_mean_noise: entropy of the delay-averaged noise law;
      - E_H_kernel_noise: mean entropy of the one-step-ahead averaged noise
        law, where the one-step kernel is estimated from consecutive delay
        pairs bucketed into BUCKETS delay quantiles.

    H_mean_noise is recomputed per batch of max(2, floor(sqrt(rows))) delays.

    When E_H_kernel_noise is requested, H_mean_noise averages over the same
    successor delays w[1:], so by entropy concavity the lower bound stays
    below the upper bound sample by sample, not just in expectation.

    The noise laws are built channels.row_chunks at a time, each chunk
    symbol-major (k contiguous rows of its delays), and never held as one
    (n, k) matrix, so memory is O(n + chunk). Every sum runs along those
    rows: a per-delay entropy adds one symbol at a time, a batch's law sums
    its delays per symbol, the delay-averaged law sums the batch sums and
    the last partial batch, and each symbol's bucket sums are one bincount
    seeded with the running sums. So the output bits do not depend on the
    chunk size.
    """
    if spec.channel.kind != "bijective":
        raise TypeError("estimate_bijective_bounds needs a RandomBijective channel")
    w = np.asarray(w, dtype=float)
    if w.size < 2:
        raise ValueError(f"need at least 2 delays, got {w.size}")
    if not np.all(w >= 0):  # NaN fails this too
        raise ValueError("waits must be nonnegative")
    kernel = E_H_KERNEL_NOISE in keys
    first = 1 if kernel else 0
    noise_dist, k = spec.channel.noise_dist, spec.channel.size
    h_rows = np.empty(w.size) if E_H_NOISE in keys else None
    if kernel:  # W_0 enters only the per-delay entropies
        if h_rows is not None:
            h_rows[:1] = discrete_entropy(noise_dist(w[:1]))
        idx = _quantile_buckets(w[:-1])
        sums = np.zeros((k, BUCKETS))  # (noise symbol, bucket) cells
        labels = np.arange(BUCKETS)
    # beside the kernel, only the successors W_1..W_{n-1} it averages over;
    # chunks hold whole batches of their batch means
    rows = w.size - first
    m = max(2, math.isqrt(rows))
    batch_sums = []
    for chunk in row_chunks(rows, k, m):
        lo, hi = first + chunk.start, first + chunk.stop
        probs = noise_dist(w[lo:hi])
        laws = probs.T  # (k, hi - lo), C-contiguous
        if h_rows is not None:
            h_rows[lo:hi] = discrete_entropy(probs)
        if kernel:
            # bincount adds in index order: the running bucket sums go first
            at = np.concatenate([labels, idx[chunk]])
            sums = np.array([np.bincount(at, weights=row, minlength=BUCKETS)
                             for row in np.concatenate([sums, laws], axis=1)])
        if H_MEAN_NOISE in keys:
            full = laws.shape[1] // m * m
            batch_sums.append(laws[:, :full].reshape(k, -1, m).sum(axis=-1))
            tail = laws[:, full:].sum(axis=-1)  # only the last chunk has a partial batch
    out = {}

    if h_rows is not None:
        mean_h, se_h, _ = batch_means(h_rows)
        out[E_H_NOISE] = EstimateWithError(value=mean_h, std_error=se_h, n=w.size)

    if H_MEAN_NOISE in keys:
        batch_sums = np.concatenate(batch_sums, axis=1)  # (k, batches)
        h_mean = discrete_entropy((batch_sums.sum(axis=1) + tail) / rows)
        se_mean = batch_error(discrete_entropy((batch_sums / m).T))
        out[H_MEAN_NOISE] = EstimateWithError(value=h_mean, std_error=se_mean, n=rows)

    if kernel:
        # one-step kernel: average successor noise laws within delay buckets
        counts = np.bincount(idx, minlength=BUCKETS).astype(float)
        occupied = counts > 0
        h_bucket = np.zeros(BUCKETS)
        h_bucket[occupied] = discrete_entropy((sums[:, occupied] / counts[occupied]).T)
        mean_hk, se_hk, _ = batch_means(h_bucket[idx])
        out[E_H_KERNEL_NOISE] = EstimateWithError(value=mean_hk, std_error=se_hk,
                                                  n=w.size - 1)
    return out


def estimate_capacity(transcript):
    """Capacity estimated from one transcript, as (estimate, bounds) of
    sampled CapacityResults.

    An erasure transcript is scored as lam * log2(k) * (1 - erased fraction)
    by _score_survival and has no bounds.
    A noise-permutation transcript is scored from its own delay column by
    bijective_capacity: bounds maps lower, upper and csir_exact to its
    results, and the estimate is csir_exact when the receiver knows the
    timing, else lower. Both are None for a transcript of fewer than 2
    symbols, whose estimate would have no standard error.
    """
    spec = transcript.spec
    if len(transcript) < 2:
        return None, None
    if spec.channel.kind == "erasure":
        return _score_survival(transcript.y != ERASED, spec.lam,
                               spec.channel.size), None
    h = estimate_bijective_bounds(spec, transcript.w)
    lower, upper = bijective_capacity(replace(spec, receiver_knows_timing=False),
                                      h).bounds
    exact = bijective_capacity(replace(spec, receiver_knows_timing=True), h)
    bounds = {"lower": lower, "upper": upper, "csir_exact": exact}
    return exact if spec.receiver_knows_timing else lower, bounds


def sweep_rows(lambdas, kappas, n=0, seed=None, service=None, alphabet=2,
               convention=DelayConvention.WAITING_BEFORE_SERVICE):
    """Capacity grid for the exponential-decoherence erasure family.

    Returns one dict per stable (kappa, lambda) grid point with keys
    `lambda`, `kappa`, `capacity_analytic`, `capacity_mc`, `mc_stderr`; the
    Monte Carlo cells stay None when n == 0; 0 < n < 2 raises ValueError,
    as one symbol gives no standard error. Arrival rates at or past the
    stability boundary are dropped with a warning. Rows iterate kappas outer
    and lambdas inner, both in the order given.

    The Monte Carlo cells share one draw per sweep (common random numbers),
    split from seed: n standard exponential gaps G, n service times S and n
    standard exponential survival marks E. The running sums CG of G and CS
    of S are taken once, in place (SOJOURN keeps S apart, to add it to the
    waits). Each lambda walks them once per SWEEP_KAPPAS kappas, in blocks
    of SWEEP_BLOCK that stay in a core's L2 cache: per block the prefix sums
    CS - CG / lambda, their waits by waits_from_prefix_sums (the running
    minimum carried from block to block, so the bits are those of one whole
    pass), and for each kappa of the walk the survivals kappa * w <= E
    (probability exp(-kappa * w)), one boolean row of n per kappa and no
    n-length float array. So the cells, each with its own batch-means
    mc_stderr or None, are correlated across lambda and kappa: at a fixed
    lambda capacity_mc cannot rise with kappa, and a repeated kappa repeats
    its cells. The lambdas are mapped by
    fork_map, whose workers inherit the one draw; lambda = 0 scores 0,
    with no mc_stderr, without running the queue, and alone draws nothing.

    These waits differ from lindley_waits(S, G / lambda) in their last bits,
    within sqrt(n) * eps * (CS[-1] + CG[-1] / lambda), eps the float64
    machine epsilon: on the default grid at n = 10**6, seeds 0-9, by at most
    3.0e-8 (under 6% of the bound), flipping no survival indicator.
    """
    if 0 < n < 2:
        raise ValueError(f"need at least 2 symbols per Monte Carlo cell, got {n}")
    service = Exponential(1.0) if service is None else service
    mu = 1.0 / service.mean
    kept = [float(lam) for lam in lambdas if 0.0 <= lam < mu]
    dropped = [float(lam) for lam in lambdas if not 0.0 <= lam < mu]
    if dropped:
        warnings.warn(f"dropping arrival rates outside the stability region "
                      f"(mu = {mu:g}): {dropped}", stacklevel=2)
    rows = []
    for kappa in kappas:
        for lam in kept:
            if lam == 0.0:
                analytic = 0.0
            else:
                spec = QueueChannelSpec(
                    lam=lam, service=service,
                    channel=Erasure(DecoherenceModel(kappa), alphabet),
                    delay_convention=convention)
                analytic = erasure_capacity(spec).bits_per_sec
            rows.append({"lambda": lam, "kappa": float(kappa),
                         "capacity_analytic": analytic, "capacity_mc": None,
                         "mc_stderr": None})
    if n > 0 and rows:
        if any(kept):
            gap_rng, service_rng, mark_rng = spawn_rngs(seed, 3)
            gaps = gap_rng.standard_exponential(n)
            services = service.sample(service_rng, size=n)
            marks = mark_rng.standard_exponential(n)
            # the running sums every lambda shares; only SOJOURN reads S again
            sojourn = convention is DelayConvention.SOJOURN
            cum_gaps = np.cumsum(gaps[1:], out=gaps[1:])
            cum_services = np.cumsum(services[:-1],
                                     out=None if sojourn else services[:-1])

        def mc_column(lam, group):
            if lam == 0.0:
                return [(0.0, None)] * len(group)
            # one pass over the running sums in cache-resident blocks: per
            # block the prefix sums P = CS - CG / lambda (in p), their waits
            # (the running minimum carried in floor), then p = kappa * w
            survived = np.empty((len(group), n), dtype=bool)
            first = services[0] if sojourn else 0.0  # W_0 of the empty queue
            for row, kappa in zip(survived, group):
                row[0] = kappa * first <= marks[0]
            buffers, floor = np.empty((2, SWEEP_BLOCK)), 0.0
            for lo in range(1, n, SWEEP_BLOCK):
                hi = min(lo + SWEEP_BLOCK, n)
                p, w = buffers[:, : hi - lo]
                np.divide(cum_gaps[lo - 1: hi - 1], lam, out=p)
                np.subtract(cum_services[lo - 1: hi - 1], p, out=p)
                floor = waits_from_prefix_sums(p, w, floor)
                if sojourn:
                    w += services[lo:hi]
                for row, kappa in zip(survived, group):
                    np.less_equal(np.multiply(kappa, w, out=p), marks[lo:hi],
                                  out=row[lo:hi])
            return [(est.bits_per_sec, est.std_error) for est in
                    (_score_survival(row, lam, alphabet) for row in survived)]

        columns = list(fork_map(lambda lam: [
            cell for lo in range(0, len(kappas), SWEEP_KAPPAS)
            for cell in mc_column(lam, kappas[lo: lo + SWEEP_KAPPAS])], kept))
        # columns[i][j] is (lambda i, kappa j); rows run kappas outer
        cells = [cell for by_kappa in zip(*columns) for cell in by_kappa]
        for row, (value, stderr) in zip(rows, cells):
            row["capacity_mc"], row["mc_stderr"] = value, stderr
    return rows
