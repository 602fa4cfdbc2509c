"""Closed-form capacity expressions for delay-noise channels.

Everything routes through two quantities: the service Laplace transform
F(s) = E[exp(-s*S)] and the stationary-wait transform E[exp(-kappa*W)] given by
the Pollaczek-Khinchin formula. Expectations with no transform expression
(entropy functionals, general error laws) are supplied by the caller, normally
from qcl.simulate.
"""

import math
from dataclasses import dataclass, field

from .channels import alphabet_size
from .numerics import OptimizationResult, golden_section_extremize
from .queueing import DelayConvention, Exponential, check_stability

METHOD_CLOSED_FORM_MM1 = "ClosedFormMM1"
METHOD_PK = "PKTransform"
METHOD_GENERAL_LAPLACE = "GeneralLaplace"
METHOD_MC = "MonteCarlo"
METHOD_BOUND_LOWER = "Bound-Lower"
METHOD_BOUND_UPPER = "Bound-Upper"
METHOD_BOUNDS = "Bounds"

UNPREDICTABILITY_NOTE = ("no-timing-information value assumes the queue state is "
                         "unpredictable from past noise alone")


@dataclass(frozen=True)
class QueueChannelSpec:
    """Complete experiment description: queue, channel, and conventions."""

    arrival: object
    service: object
    channel: object
    delay_convention: DelayConvention = DelayConvention.WAITING_BEFORE_SERVICE
    receiver_knows_timing: bool = False

    @property
    def lam(self):
        return self.arrival.rate

    @property
    def mu(self):
        return 1.0 / self.service.mean

    @property
    def decoherence(self):
        """The channel's own error model, whatever its kind."""
        return self.channel.error_law

    def check_stable(self):
        check_stability(self.lam, self.mu)


@dataclass(frozen=True)
class CapacityResult:
    """A capacity value in bits per unit time with provenance diagnostics.

    When only an interval is known, bits_per_sec is None and bounds holds the
    (lower, upper) pair as CapacityResults of their own.
    """

    bits_per_sec: float
    method: str
    diagnostics: dict = field(default_factory=dict)
    bounds: tuple = ()


def laplace_service(service, s):
    """Service-time Laplace transform E[exp(-s*S)] at s >= 0."""
    if s < 0:
        raise ValueError("s must be nonnegative")
    return float(service.laplace(s))


def alpha_mg1(service, kappa):
    """The load-independent factor (1 - F(kappa)) / kappa for unit-mean service.

    For general service means the formulas below use the normalized version
    mu * alpha, which always lies in (0, 1) for kappa > 0.
    """
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    return float(service.one_minus_laplace(kappa)) / kappa


def _alpha_normalized(service, kappa):
    a = alpha_mg1(service, kappa) / service.mean
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
    """E[exp(-kappa*W)] under the spec's delay convention, exponential family.

    This is the per-symbol survival probability 1 - E[p(W)] for the erasure
    family p(w) = 1 - exp(-kappa*w). Requires the channel's error model to
    carry a kappa; SOJOURN multiplies in the service transform F(kappa).
    """
    model = spec.decoherence
    kappa = getattr(model, "kappa", None)
    if kappa is None:
        raise ValueError("error model has no kappa; use a Monte Carlo expectation")
    spec.check_stable()
    if kappa == 0.0:
        return 1.0
    value = pk_wait_transform(spec.lam, spec.service, kappa)
    if spec.delay_convention is DelayConvention.SOJOURN:
        value *= laplace_service(spec.service, kappa)
    return value


def erasure_capacity(spec, survival=None):
    """Erasure-channel capacity lam * log2(k) * E[1 - p(W)] in bits/sec.

    E[1 - p(W)] comes from the transform closed form for the exponential
    decoherence family; for a general p, pass `survival` estimated over
    stationary waits (qcl.simulate.estimate_expectation_over_pi). The result
    does not depend on receiver_knows_timing.
    """
    if spec.channel.kind != "erasure":
        raise TypeError("erasure_capacity needs an Erasure channel")
    spec.check_stable()
    k = alphabet_size(spec.channel)
    diagnostics = {"alphabet_size": k, "receiver_knows_timing_irrelevant": True}
    if survival is None:
        surv = mean_survival(spec)
        is_mm1 = (isinstance(spec.service, Exponential)
                  and spec.delay_convention is DelayConvention.WAITING_BEFORE_SERVICE)
        method = METHOD_CLOSED_FORM_MM1 if is_mm1 else METHOD_PK
        kappa = spec.decoherence.kappa
        if kappa and kappa > 0:
            diagnostics["alpha"] = alpha_mg1(spec.service, kappa)
    else:
        surv = getattr(survival, "value", survival)
        se = getattr(survival, "std_error", None)
        if se is not None:
            diagnostics["std_error"] = spec.lam * math.log2(k) * se
        method = METHOD_MC
    diagnostics["mean_survival"] = surv
    value = spec.lam * math.log2(k) * surv
    return CapacityResult(bits_per_sec=value, method=method, diagnostics=diagnostics)


def mm1_capacity_closed_form(lam, kappa):
    """Binary erasure capacity of the unit-rate exponential-service queue:
    lam*(1-lam)/(1 - alpha*lam) with alpha = 1/(1+kappa)."""
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
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
    rho* = 1/(1 + sqrt(1-a)) and lam* = mu * rho*. The flat-capacity degenerate
    case cannot arise here since a > 0 for kappa > 0. Raises ValueError when
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


@dataclass(frozen=True)
class LaplaceRouteResult:
    """Outcome of the transform-premise optimal-rate route (see
    optimal_lambda_mm1_laplace): the rate, the underlying 1-D search, and
    degeneracy flags."""

    lam_star: float
    search: OptimizationResult
    boundary: bool
    degenerate: bool
    caveat: str


LAPLACE_ROUTE_CAVEAT = (
    "derived under the premise that the unit-rate-exponential-service delay is "
    "exponential with rate (1-lam)/lam, which the wait transform contradicts; "
    "cross-check against optimal_lambda_mg1 and simulation"
)


def optimal_lambda_mm1_laplace(laplace_p, tol=1e-8):
    """Optimal arrival rate from the Laplace transform of a general error law,
    for exponential unit-rate service.

    Evaluates lam* = 1 - argmin over u in (0,1) of u * (1 + pt(u/(1-u))),
    where pt is the transform of p. The premise behind this expression models
    the delay as exponential, which disagrees with the exact wait transform,
    so results carry method=GeneralLaplace and a caveat; a monotone objective
    is reported as a boundary solution, a flat one (e.g. p identically 1) as
    degenerate with the smallest rate in the bracket.
    """

    def objective(u):
        return u * (1.0 + laplace_p(u / (1.0 - u)))

    lo, hi = 1e-9, 1.0 - 1e-9
    res = golden_section_extremize(objective, lo, hi, tol=tol, mode="min")
    probes = [lo + (hi - lo) * i / 32.0 for i in range(33)]
    values = [objective(u) for u in probes]
    degenerate = (max(values) - min(values)) < 1e-9
    if degenerate:
        # flat capacity: prefer the smallest arrival rate, i.e. the largest u
        lam_star = 1.0 - hi
    else:
        lam_star = 1.0 - res.argopt
    return LaplaceRouteResult(lam_star=float(lam_star), search=res,
                              boundary=res.boundary, degenerate=degenerate,
                              caveat=LAPLACE_ROUTE_CAVEAT)


def mm1_capacity_exponential_premise(lam, kappa):
    """Capacity implied by the exponential-delay premise for the saturating
    erasure family: lam*(1-lam)/(1-(1-kappa)*lam). Kept for diagnostics and
    for comparing the two optimal-rate routes; not the transform-exact value.
    """
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    check_stability(lam, 1.0)
    return lam * (1.0 - lam) / (1.0 - (1.0 - kappa) * lam)


E_H_NOISE = "E_H_noise"
H_MEAN_NOISE = "H_mean_noise"
E_H_KERNEL_NOISE = "E_H_kernel_noise"


def bijective_capacity(spec, noise_entropy_expectations, assume_unpredictable=False):
    """Capacity of a noise-permutation channel from noise-entropy expectations.

    Expectations (estimated over delays by
    qcl.simulate.estimate_bijective_bounds), in bits per symbol:
      - "E_H_noise": E[H(N(W))], per-delay noise entropy;
      - "H_mean_noise": H(E[N(W)]), entropy of the delay-averaged noise law;
      - "E_H_kernel_noise": E[H(one-step-ahead averaged noise law)].

    Returns the exact value lam*(log2 k - E_H_noise) when the receiver knows
    the timing. Otherwise: the exact value lam*(log2 k - H_mean_noise) if the
    caller asserts the queue is unpredictable from past noise, else a result
    with bits_per_sec None and the bound pair
    lam*(log2 k - H_mean_noise) <= C <= lam*(log2 k - E_H_kernel_noise).
    An expectation given as an estimate (with .std_error and .n) adds its
    standard error, scaled to bits/sec and as given, and its count to the
    diagnostics.
    """
    if spec.channel.kind != "bijective":
        raise TypeError("bijective_capacity needs a RandomBijective channel")
    spec.check_stable()
    log_k = math.log2(alphabet_size(spec.channel))

    def rate(key, method, **diagnostics):
        try:
            expectation = noise_entropy_expectations[key]
        except (KeyError, TypeError):
            raise ValueError(f"missing noise entropy expectation {key!r}") from None
        h = _value_of(expectation)
        diagnostics[key] = h
        se = getattr(expectation, "std_error", None)
        if se is not None:
            diagnostics.update(std_error=spec.lam * se, expectation_std_error=se,
                               n=expectation.n)
        return CapacityResult(bits_per_sec=spec.lam * (log_k - h), method=method,
                              diagnostics=diagnostics)

    if spec.receiver_knows_timing:
        return rate(E_H_NOISE, METHOD_MC, csir=True)
    if assume_unpredictable:
        return rate(H_MEAN_NOISE, METHOD_MC, csir=False,
                    assumption=UNPREDICTABILITY_NOTE)
    lower = rate(H_MEAN_NOISE, METHOD_BOUND_LOWER, csir=False)
    upper = rate(E_H_KERNEL_NOISE, METHOD_BOUND_UPPER, csir=False)
    diagnostics = {"csir": False}
    if "n" in lower.diagnostics:
        diagnostics["n"] = lower.diagnostics["n"]
    return CapacityResult(bits_per_sec=None, method=METHOD_BOUNDS,
                          diagnostics=diagnostics, bounds=(lower, upper))


def _value_of(x):
    """Accept plain floats or estimate objects carrying .value."""
    return float(getattr(x, "value", x))
