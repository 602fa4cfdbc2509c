"""Closed-form capacity expressions for delay-noise channels.

Everything routes through two quantities: the service Laplace transform
F(s) = E[exp(-s*S)] and the stationary-wait transform E[exp(-kappa*W)] given by
the Pollaczek-Khinchin formula. Expectations with no transform expression
(the entropy functionals of the permutation channels) are the channel's
to estimate (qcl.channels): nothing here samples. A queue comes either as a
QueueChannelSpec, stable by construction (qcl.queueing), or as a bare arrival
rate lam, which pk_wait_transform and mm1_capacity_closed_form check with
check_stability.
"""

import math
from dataclasses import dataclass, field

from .queueing import DelayConvention, check_stability

METHOD_CLOSED_FORM_MM1 = "ClosedFormMM1"
METHOD_PK = "PKTransform"
METHOD_MC = "MonteCarlo"
METHOD_BOUND_LOWER = "Bound-Lower"
METHOD_BOUND_UPPER = "Bound-Upper"
METHOD_BOUNDS = "Bounds"
ALPHA_ROUNDING = 4 * math.ulp(1.0)  # how far above 1 a rounded alpha may land

UNPREDICTABILITY_NOTE = ("no-timing-information value assumes the queue state is "
                         "unpredictable from past noise alone")


@dataclass(frozen=True)
class CapacityResult:
    """A capacity value in bits per unit time with provenance diagnostics.

    A sampled value carries its std_error (bits/sec, or None) and sample count
    n; a closed form has neither. When only an interval is known, bits_per_sec
    is None and bounds holds the (lower, upper) pair as CapacityResults.
    """

    bits_per_sec: float
    method: str
    diagnostics: dict = field(default_factory=dict)
    std_error: float = None
    n: int = None
    bounds: tuple = ()


def alpha_mg1(service, kappa):
    """The load-independent factor (1 - F(kappa)) / kappa for unit-mean service.

    For general service means the formulas below use the normalized version
    mu * alpha, which lies in (0, 1] for kappa > 0. It is below 1 in exact
    arithmetic; _alpha_normalized rounds a value a few ulps above 1 down to
    exactly 1, a case optimal_lambda_mg1 rejects.
    """
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    return float(service.one_minus_laplace(kappa)) / kappa


def _alpha_normalized(service, kappa):
    a = alpha_mg1(service, kappa) / service.mean
    if 1.0 < a <= 1.0 + ALPHA_ROUNDING:
        a = 1.0  # 1 - exp(-x) <= x, so a few ulps above 1 is rounding
    if not 0.0 < a <= 1.0:
        raise ValueError(f"degenerate alpha {a:g}; service law and kappa are inconsistent")
    return a


def pk_wait_transform(lam, service, kappa):
    """Stationary E[exp(-kappa * W_q)] from the Pollaczek-Khinchin formula.

    W_q is the waiting time before service in a FIFO single-server queue with
    Poisson(lam) arrivals. Equals (1-rho) / (1 - rho * alpha_normalized).
    """
    mu = 1.0 / service.mean
    check_stability(lam, mu)
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    rho = lam * service.mean
    return (1.0 - rho) / (1.0 - rho * _alpha_normalized(service, kappa))


def mean_survival(spec):
    """E[exp(-kappa*W)] under the spec's delay convention.

    This is the per-symbol survival probability 1 - E[p(W)] of an erasure
    channel whose DecoherenceModel is p(w) = 1 - exp(-kappa*w); SOJOURN
    multiplies in the service transform F(kappa).
    """
    kappa = spec.channel.decoherence.kappa
    if kappa == 0.0:
        return 1.0
    value = pk_wait_transform(spec.lam, spec.service, kappa)
    if spec.delay_convention is DelayConvention.SOJOURN:
        value *= spec.service.laplace(kappa)
    return value


def mm1_capacity_closed_form(lam, kappa):
    """Binary erasure capacity of the unit-rate exponential-service queue:
    lam*(1-lam)/(1 - alpha*lam) with alpha = 1/(1+kappa)."""
    check_stability(lam, 1.0)
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    alpha = 1.0 / (1.0 + kappa)
    value = lam * (1.0 - lam) / (1.0 - alpha * lam)
    return CapacityResult(bits_per_sec=value, method=METHOD_CLOSED_FORM_MM1,
                          diagnostics={"alpha": alpha})


def optimal_lambda_mg1(service, kappa):
    """Arrival rate maximizing lam * E[exp(-kappa*W_q)] for a given service law.

    Closed form: with a = mu*(1 - F(kappa))/kappa, the maximizing load is
    rho* = 1/(1 + sqrt(1-a)) and lam* = mu * rho*. Raises ValueError when
    kappa is so small that a rounds to 1, which would put the optimum at the
    stability limit rho* = 1.
    """
    a = _alpha_normalized(service, kappa)
    if a == 1.0:
        raise ValueError(f"kappa={kappa:g} is too small to resolve: alpha rounds "
                         f"to 1, so the optimal load rounds to rho = 1")
    mu = 1.0 / service.mean
    rho_star = 1.0 / (1.0 + math.sqrt(1.0 - a))
    return mu * rho_star


E_H_NOISE = "E_H_noise"
H_MEAN_NOISE = "H_mean_noise"
E_H_KERNEL_NOISE = "E_H_kernel_noise"
