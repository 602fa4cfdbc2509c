"""Scalar optimization, Laplace-transform quadrature, and shared numeric utilities.

The capacity formulas only ever need one-dimensional unimodal extremization and
one improper integral, so the kernels here stay small and need only numpy.
Randomness policy for the whole package also lives here: a seed becomes
numpy Generators (PCG64) only at the entry points, through spawn_rngs or
np.random.default_rng, and everything below them draws from a Generator it
is given. So does the rule for error bars: every standard error comes from
batch_error.
"""

import math
from dataclasses import dataclass

INVPHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/golden ratio, the section step
SECTION_TOL = 1e-8  # golden-section stop: bracket width, relative beyond 1
QUAD_TARGET = 1e-9  # absolute error target of quadrature_laplace


class QuadratureError(RuntimeError):
    """Adaptive quadrature could not reach the requested error target."""

    def __init__(self, message, value=None, error_estimate=None):
        super().__init__(message)
        self.value = value
        self.error_estimate = error_estimate


def spawn_rngs(seed, k):
    """Split one seed (an int, None, a SeedSequence or a Generator) into k
    independent generators (stable child order). Each call on the same
    SeedSequence or Generator spawns new children."""
    import numpy as np
    return np.random.default_rng(seed).spawn(k)


def batch_averages(x):
    """The averages of the n // b leading batches of b = ceil(sqrt(n)) values
    of the n-array x, which decorrelate Markov-dependent series. A boolean x
    is counted, with no float copy and the bits of its 0/1 floats."""
    import numpy as np
    b = math.ceil(math.sqrt(x.size))
    head = x[: x.size // b * b].reshape(-1, b)
    if x.dtype == bool:
        return np.count_nonzero(head, axis=1) / b
    return head.mean(axis=1)


def batch_error(means):
    """The one rule for a sampled number's standard error: std(ddof=1)/sqrt(m)
    over m batch means, or None when m < 2 or they do not vary, as then the
    sample cannot show its spread and a 0.0 would claim an exact value."""
    import numpy as np
    means = np.asarray(means, dtype=float)
    if means.size < 2 or np.ptp(means) == 0.0:
        return None
    return float(means.std(ddof=1) / math.sqrt(means.size)) or None


def batch_means(x):
    """(mean, batch_error(batch_averages(x)), m) of a correlated series x of
    m batches; the error is None below 2 batches (n = 1, 2, 3 or 5) or for
    equal batch averages, as of a constant x. A boolean x is counted."""
    import numpy as np
    x = np.asarray(x)
    if x.size == 0:
        raise ValueError("batch_means needs at least one sample")
    x = x if x.dtype == bool else x.astype(float, copy=False)
    means = batch_averages(x)
    mean = int(np.count_nonzero(x)) / x.size if x.dtype == bool else float(x.mean())
    return mean, batch_error(means), means.size


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of a 1-D golden-section search."""

    argopt: float
    value: float
    iterations: int
    converged: bool
    boundary: bool = False


def golden_section_extremize(f, lo, hi):
    """Golden-section search for the maximum of a unimodal f on [lo, hi].

    Args:
        f: scalar function, evaluable on the closed bracket.
        lo, hi: bracket endpoints, lo < hi.

    Stops once the bracket is SECTION_TOL wide, times its largest endpoint
    magnitude when that exceeds 1. Returns an OptimizationResult. If an
    endpoint value beats the interior optimum (monotone f), the endpoint is
    reported with boundary=True.
    """
    if not lo < hi:
        raise ValueError("bracket must satisfy lo < hi")

    def g(x):
        v = f(x)
        if not math.isfinite(v):
            raise ValueError(f"objective returned a non-finite value at x={x!r}")
        return v

    def wide():  # relative beyond 1: near the float max 1e-8 is below one ULP
        return b - a > SECTION_TOL * max(1.0, abs(a), abs(b))

    a, b = float(lo), float(hi)
    c = b - INVPHI * (b - a)
    d = a + INVPHI * (b - a)
    gc, gd = g(c), g(d)
    iterations = 2
    while wide() and iterations < 10_000:
        if gc > gd:
            b, d, gd = d, c, gc
            c = b - INVPHI * (b - a)
            gc = g(c)
        else:
            a, c, gc = c, d, gd
            d = a + INVPHI * (b - a)
            gd = g(d)
        iterations += 1
    x = 0.5 * a + 0.5 * b
    gx = g(x)
    # monotone objectives end up pinned to an edge; report the edge itself
    glo, ghi = g(lo), g(hi)
    boundary = False
    if glo > gx or ghi > gx:
        x, gx = (lo, glo) if glo >= ghi else (hi, ghi)
        boundary = True
    return OptimizationResult(
        argopt=float(x),
        value=gx,
        iterations=iterations,
        converged=not wide(),
        boundary=boundary,
    )


def quadrature_laplace(p, u):
    """Laplace transform of p: integral of exp(-u*x) p(x) over x in [0, inf).

    Substitutes t = exp(-u*x), turning the improper integral into
    (1/u) * integral over (0, 1] of p(-ln(t)/u) dt, which the tanh-sinh rule
    (Takahasi & Mori 1974) sums on nodes s in [-4, 4] at step h = 2**-level,
    halving h until two sums agree within QUAD_TARGET / 10. Raises
    QuadratureError (carrying the last sum and that difference) otherwise.
    """
    import numpy as np
    if u <= 0:
        raise ValueError("u must be positive")
    value = math.inf
    for level in range(1, 9):
        s = np.linspace(-4.0, 4.0, 8 * 2 ** level + 1)
        z = 0.5 * math.pi * np.sinh(s)
        weights = 0.25 * math.pi * np.cosh(s) / np.cosh(z) ** 2 / (u * 2 ** level)
        waits = np.logaddexp(0.0, -2.0 * z) / u  # -ln(t)/u at t = (1 + tanh z)/2
        previous, value = value, math.fsum(
            w * p(x) for w, x in zip(weights.tolist(), waits.tolist()))
        err = abs(value - previous)
        if err <= QUAD_TARGET / 10.0:
            return value
    raise QuadratureError(f"quadrature stalled at error estimate {err:.3e} "
                          f"(target {QUAD_TARGET:.1e})", value=value, error_estimate=err)
