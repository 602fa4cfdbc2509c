"""Cross-validation suite: every closed form checked against the simulator.

Each check compares an analytic result with an independent route (Monte Carlo
transcript, numeric optimization, quadrature) at a fixed sigma or absolute
gate, and reports one line per comparison. The CLI `validate` command and the
acceptance tests both run these.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import capacity, simulate
from .channels import (DecoherenceModel, Erasure, RandomBijective,
                       WaitGeometricNoise, binary_entropy)
from .numerics import (batch_averages, batch_error, batch_means,
                       golden_section_extremize, quadrature_laplace)
from .queueing import (DelayConvention, Deterministic, Exponential, Gamma,
                       InstabilityError, QueueChannelSpec, Uniform,
                       default_burn_in, lindley_waits, stationary_wait_samples)

N_DEFAULT = 10 ** 6
SIGMA_GATE = 4.0


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of one formula-versus-simulation comparison."""

    formula_value: float
    estimate: float
    std_error: float
    sigma_distance: float
    gate: float
    passed: bool

    def __str__(self):
        mark = "pass" if self.passed else "FAIL"
        return (f"{mark}: formula {self.formula_value:.6g} vs estimate "
                f"{self.estimate:.6g} +/- {self.std_error:.2g} "
                f"({self.sigma_distance:.2f} sigma, gate {self.gate:g})")


def _sigma(*errors):
    """The joint standard error hypot(*errors) of independent estimates, NaN
    if one has none (None, or a 0.0 that batch_error never gives): every
    sigma gate then fails, and its line prints."""
    return math.hypot(*(se or math.nan for se in errors))


def validate_formula(formula_value, estimate, std_error):
    """Compare a closed-form value against a Monte Carlo estimate: pass when
    |estimate - formula| <= SIGMA_GATE * std_error, fail when std_error is
    None or 0.0."""
    value, se = float(estimate), _sigma(std_error)
    sigma = abs(value - formula_value) / se
    return ValidationReport(formula_value=float(formula_value), estimate=value,
                            std_error=se, sigma_distance=sigma, gate=SIGMA_GATE,
                            passed=sigma <= SIGMA_GATE)


@dataclass
class CheckOutcome:
    """Aggregated result of one named validation check."""

    name: str
    passed: bool = True
    lines: list = field(default_factory=list)

    def note(self, ok, text):
        self.lines.append(("pass: " if ok else "FAIL: ") + text)
        self.passed = self.passed and bool(ok)
        return ok

    def expect_raises(self, exc_type, fn, label):
        try:
            fn()
        except exc_type:
            return self.note(True, f"{label} raises {exc_type.__name__}")
        except Exception as other:  # noqa: BLE001 - report whatever came out
            return self.note(False, f"{label} raised {type(other).__name__} instead")
        return self.note(False, f"{label} did not raise")


def _seed_for(base, index):
    return np.random.SeedSequence([0 if base is None else int(base), index])


def _erasure_spec(lam, kappa):
    return QueueChannelSpec(lam=lam, service=Exponential(1.0),
                            channel=Erasure(DecoherenceModel(kappa), alphabet_size=2))


def _bsc_spec(lam, kappa, service=None, convention=DelayConvention.WAITING_BEFORE_SERVICE,
              csir=False):
    return QueueChannelSpec(
        lam=lam, service=service if service is not None else Exponential(1.0),
        channel=RandomBijective.binary_symmetric(DecoherenceModel(kappa)),
        delay_convention=convention,
        receiver_knows_timing=csir)


def _bsc_pair(spec, w):
    """Timing-aware and unpredictable-queue capacities of a binary symmetric
    spec, both estimated over the same delays w."""
    h = simulate.estimate_bijective_bounds(
        spec, w, keys=(capacity.E_H_NOISE, capacity.H_MEAN_NOISE))
    with_t = spec.channel.capacity_from(replace(spec, receiver_knows_timing=True), h)
    without = spec.channel.capacity_from(spec, h, assume_unpredictable=True)
    return with_t, without


_DOMINANCE_KAPPAS = (0.1, 1.0)


def _alt_services():
    return (Exponential(1.0), Gamma(2.0, 0.5), Uniform(0.5, 1.5))


def _note_dominance(out):
    """Note, per kappa, whether deterministic service has a strictly larger
    normalized alpha = mu*(1 - F(kappa))/kappa than each same-mean
    alternative. E exp(-kappa*W_q) = (1 - rho)/(1 - rho*alpha) rises with
    alpha at every load, and h is increasing on [0, 1/2], so a strict lead
    proves deterministic service best at every stable lam under the waiting
    convention, for the erasure and the blind flip channel alike."""
    det = Deterministic(1.0)
    for kappa in _DOMINANCE_KAPPAS:
        a_det = capacity.alpha_mg1(det, kappa) / det.mean
        alts = [(alt.kind, capacity.alpha_mg1(alt, kappa) / alt.mean)
                for alt in _alt_services()]
        lead = a_det - max(a for _, a in alts)
        listed = ", ".join(f"{kind} {a:.6f}" for kind, a in alts)
        out.note(lead > 0.0, f"kappa={kappa:g}: normalized alpha deterministic "
                             f"{a_det:.6f} vs {listed} (thinnest lead {lead:.3e}); "
                             f"a strict lead covers every stable lam")


def _service_quantile(service, u, v):
    """Service times from shared uniform columns u and v, so different service
    laws share the same random numbers: inverse-CDF sampling from u, except
    Gamma(2, theta), drawn as theta*(E1 + E2) with E1 from u and E2 from v."""
    if isinstance(service, Deterministic):
        return np.full_like(u, service.value)
    if isinstance(service, Exponential):
        return -np.log1p(-u) * service.mean
    if isinstance(service, Gamma):
        if service.shape != 2.0:
            raise TypeError(f"no sampler for gamma shape {service.shape:g}")
        return (-np.log1p(-u) - np.log1p(-v)) * service.scale
    if isinstance(service, Uniform):
        return service.low + (service.high - service.low) * u
    raise TypeError(f"no quantile sampler for {type(service).__name__}")


# --- the eleven checks -----------------------------------------------------

def check_mm1_erasure_formula(seed=None):
    """Closed-form M/M/1 erasure capacity vs end-to-end transcript estimates."""
    out = CheckOutcome("erasure-mm1-formula-vs-simulation")
    children = iter(_seed_for(seed, 1).spawn(6))
    for kappa in (0.1, 1.0):
        for lam in (0.3, 0.5, 0.7):
            formula = capacity.mm1_capacity_closed_form(lam, kappa).bits_per_sec
            est, _ = simulate.estimate_capacity(simulate.simulate_transmission(
                _erasure_spec(lam, kappa), N_DEFAULT, seed=next(children)))
            rep = validate_formula(formula, est.bits_per_sec, est.std_error)
            out.note(rep.passed, f"lam={lam:g} kappa={kappa:g}: {rep}")
    return out


def check_wait_transform(seed=None):
    """Transform values E[exp(-kappa*W)] vs Lindley sample averages."""
    out = CheckOutcome("wait-transform-vs-simulation")
    services = (Exponential(1.0), Deterministic(1.0), Gamma(2.0, 0.5))
    children = iter(_seed_for(seed, 2).spawn(len(services) * 4))
    for service in services:
        for lam in (0.3, 0.7):
            for kappa in (0.1, 1.0):
                formula = capacity.pk_wait_transform(lam, service, kappa)
                waits = stationary_wait_samples(lam, service,
                                                N_DEFAULT, seed=next(children))
                mean, se, _ = batch_means(np.exp(-kappa * waits.samples))
                rep = validate_formula(formula, mean, se)
                out.note(rep.passed,
                         f"{service.kind} lam={lam:g} kappa={kappa:g}: {rep}")
    return out


def check_optimal_rate_agreement(seed=None):
    """Closed-form optimal arrival rate vs golden-section maximization."""
    out = CheckOutcome("optimal-rate-closed-form-vs-numeric")
    for service in (Exponential(1.0), Deterministic(1.0), Gamma(2.0, 0.5)):
        for kappa in (0.01, 0.1, 1.0):
            closed = capacity.optimal_lambda_mg1(service, kappa)
            numeric = golden_section_extremize(
                lambda lam: lam * capacity.pk_wait_transform(lam, service, kappa),
                1e-9, 1.0 - 1e-9)
            gap = abs(closed - numeric.argopt)
            out.note(gap <= 1e-6,
                     f"{service.kind} kappa={kappa:g}: closed {closed:.9f} vs "
                     f"numeric {numeric.argopt:.9f} (|diff|={gap:.2e})")
    # frozen unit-rate-exponential values, from the closed form evaluated in
    # high-precision arithmetic
    for kappa, expected in ((1.0, 0.5857864376269049), (0.01, 0.9095012437887911)):
        got = capacity.optimal_lambda_mg1(Exponential(1.0), kappa)
        out.note(abs(got - expected) <= 1e-6,
                 f"exponential kappa={kappa:g}: lam*={got:.9f} expected {expected:.9f}")
    return out


def check_erasure_service_dominance(seed=None):
    """Deterministic service beats the same-mean alternatives, analytically."""
    out = CheckOutcome("erasure-deterministic-service-dominance")
    _note_dominance(out)
    return out


def _flip_entropy(lam, service, kappa):
    """h(E phi(W)) for the flip channel with phi(w) = (1 - exp(-kappa*w))/2:
    the bits per symbol that the blind channel loses, from the transform."""
    return binary_entropy(0.5 * (1.0 - capacity.pk_wait_transform(lam, service, kappa)))


def check_bsc_service_dominance(seed=None):
    """Deterministic service beats the same-mean alternatives for the flip
    channel without timing information.

    The blind capacity is lam * (1 - h((1 - E exp(-kappa*W))/2)), so the
    comparison is analytic at every stable lam, through the normalized alpha
    of each law. A Monte Carlo witness at lam = 0.5 and 0.9 uses common
    random numbers: one set of gaps and two service uniform columns per load
    drive all four service laws, and both kappa values are scored on the
    same waits. Each paired margin must clear the 4-sigma gate and agree
    with its closed form within it.
    """
    out = CheckOutcome("bsc-deterministic-service-dominance")
    services = (Deterministic(1.0),) + _alt_services()
    _note_dominance(out)
    witness = (0.5, 0.9)
    children = iter(_seed_for(seed, 5).spawn(len(witness)))
    n = N_DEFAULT
    for lam in witness:
        rng = np.random.default_rng(next(children))
        burn = default_burn_in(lam, 1.0)
        gaps = rng.exponential(1.0 / lam, size=n + burn)
        u_service = rng.random(n + burn)
        v_service = rng.random(n + burn)
        # (mean, batch means) of phi(W) per service law and kappa
        phi = {}
        for i, service in enumerate(services):
            wq = lindley_waits(_service_quantile(service, u_service, v_service),
                               gaps)[burn:]
            for kappa in _DOMINANCE_KAPPAS:
                p = 0.5 * DecoherenceModel(kappa).error_prob(wq)
                phi[i, kappa] = p.mean(), batch_averages(p)
        for kappa in _DOMINANCE_KAPPAS:
            h_det = binary_entropy(phi[0, kappa][0])
            hb_det = binary_entropy(phi[0, kappa][1])
            closed_det = _flip_entropy(lam, services[0], kappa)
            sigmas = []
            ok = True
            for i, alt in enumerate(services[1:], start=1):
                margin = lam * (binary_entropy(phi[i, kappa][0]) - h_det)
                paired = lam * (binary_entropy(phi[i, kappa][1]) - hb_det)
                se = _sigma(batch_error(paired))
                sigmas.append(f"{alt.kind} {margin / se:.1f}")
                ok = ok and margin > SIGMA_GATE * se
                closed = lam * (_flip_entropy(lam, alt, kappa) - closed_det)
                rep = validate_formula(closed, margin, se)
                out.note(rep.passed, f"witness lam={lam:g} kappa={kappa:g} {alt.kind} "
                                     f"margin: {rep}")
            out.note(ok, f"witness lam={lam:g} kappa={kappa:g}: paired margins over "
                         f"deterministic {', '.join(sigmas)} sigma "
                         f"(each > {SIGMA_GATE:g} required)")
    return out


def check_csir_ordering(seed=None):
    """Timing side information never hurts; with near-degenerate delays the
    two flip-channel values coincide within joint error bars."""
    out = CheckOutcome("bsc-csir-ordering-and-degenerate-equality")
    rng = np.random.default_rng(_seed_for(seed, 6))
    services = (Exponential(1.0), Deterministic(1.0), Gamma(2.0, 0.5), Uniform(0.5, 1.5))
    ok = True
    min_gap = math.inf
    for _ in range(20):
        lam = rng.uniform(0.1, 0.85)
        kappa = 10.0 ** rng.uniform(-1.0, 0.5)
        service = services[rng.integers(len(services))]
        convention = (DelayConvention.SOJOURN if rng.random() < 0.5
                      else DelayConvention.WAITING_BEFORE_SERVICE)
        spec = _bsc_spec(lam, kappa, service, convention)
        # both expectations over one shared wait sample set, so the ordering
        # is the concavity gap itself, not a Monte Carlo race
        waits = stationary_wait_samples(
            spec.lam, spec.service, 200_000, seed=int(rng.integers(2 ** 63)),
            convention=convention)
        with_t, without = _bsc_pair(spec, waits.samples)
        gap = with_t.bits_per_sec - without.bits_per_sec
        min_gap = min(min_gap, gap)
        ok = ok and gap >= -1e-12
    out.note(ok, f"20 randomized specs: timing-aware >= blind every time "
                 f"(smallest gap {min_gap:.3e})")
    # equality corner: sojourn delays degenerate at the deterministic service
    # time as lam -> 0, where the concavity gap vanishes
    spec = _bsc_spec(1e-4, 1.0, Deterministic(1.0), DelayConvention.SOJOURN)
    tr = simulate.simulate_transmission(spec, N_DEFAULT, seed=_seed_for(seed, 66))
    with_t, without = _bsc_pair(spec, tr.w)
    joint = _sigma(with_t.std_error, without.std_error)
    diff = abs(with_t.bits_per_sec - without.bits_per_sec)
    out.note(diff <= SIGMA_GATE * joint,
             f"deterministic service, lam=1e-4, sojourn: |csir - blind| = {diff:.2e}"
             f" = {diff / joint:.2f} joint sigma")
    return out


def check_bijective_bounds(seed=None):
    """No-timing capacity bounds sandwich the unpredictable-queue value on
    random Latin-square tables, and for the XOR/Bernoulli (binary symmetric)
    instance the stationary-sample and transcript routes agree."""
    out = CheckOutcome("bijective-bound-sandwich")
    rng = np.random.default_rng(_seed_for(seed, 7))
    services = (Exponential(1.0), Deterministic(1.0), Gamma(2.0, 0.5), Uniform(0.5, 1.5))
    n = 300_000
    for i in range(10):
        k = int(rng.integers(2, 6))
        # g(x, n) = sigma((pi(x) + tau(n)) mod k)
        sigma, pi, tau = (rng.permutation(k) for _ in range(3))
        table = sigma[(pi[:, None] + tau) % k]
        kappa = 10.0 ** rng.uniform(-1.0, 0.3)
        lam = rng.uniform(0.2, 0.8)
        service = services[rng.integers(len(services))]
        channel = RandomBijective(table, WaitGeometricNoise(DecoherenceModel(kappa), k))
        spec = QueueChannelSpec(lam=lam, service=service, channel=channel)
        lower, upper = channel.capacity(spec, n, seed=int(rng.integers(2 ** 63))).bounds
        # an independent replicate of the exact unpredictable-queue value
        exact = channel.capacity(
            spec, n, seed=int(rng.integers(2 ** 63)), assume_unpredictable=True)
        se_lower, se_upper, se_exact = (r.std_error for r in (lower, upper, exact))
        ordered = lower.bits_per_sec <= upper.bits_per_sec + 1e-12
        lo_gap = (exact.bits_per_sec - lower.bits_per_sec) / _sigma(se_lower, se_exact)
        hi_gap = (upper.bits_per_sec - exact.bits_per_sec) / _sigma(se_upper, se_exact)
        ok = ordered and lo_gap >= -SIGMA_GATE and hi_gap >= -SIGMA_GATE
        out.note(ok, f"spec {i}: k={k} lam={lam:.3f} kappa={kappa:.3f} "
                     f"{service.kind}: lower {lower.bits_per_sec:.4f} <= exact "
                     f"{exact.bits_per_sec:.4f} <= upper {upper.bits_per_sec:.4f} "
                     f"(slacks {lo_gap:+.1f}, {hi_gap:+.1f} sigma)")
    # XOR/Bernoulli: stationary samples against an independent transcript
    xor_spec = _bsc_spec(0.5, 1.0, csir=True)
    stationary = xor_spec.channel.capacity(xor_spec, n, seed=_seed_for(seed, 77))
    transcript, _ = simulate.estimate_capacity(
        simulate.simulate_transmission(xor_spec, n, seed=_seed_for(seed, 78)))
    joint = _sigma(stationary.std_error, transcript.std_error)
    diff = abs(stationary.bits_per_sec - transcript.bits_per_sec)
    out.note(diff <= SIGMA_GATE * joint,
             f"XOR/Bernoulli stationary vs transcript route: |diff| = {diff:.2e} "
             f"= {diff / joint:.2f} joint sigma")
    return out


def check_sweep_curve_shape(seed=None):
    """Capacity curves: unimodal in lam, peak at the closed-form rate, and the
    post-peak falloff thresholds."""
    out = CheckOutcome("sweep-curve-shape")
    lambdas = [round(0.01 * i, 2) for i in range(1, 100)]
    kappas = (0.01, 0.1, 1.0)
    rows = simulate.sweep_rows(lambdas, kappas, n=0)
    for kappa in kappas:
        values = [r["capacity_analytic"] for r in rows if r["kappa"] == kappa]
        grid = [r["lambda"] for r in rows if r["kappa"] == kappa]
        diffs = np.diff(values)
        signs = np.sign(diffs[np.abs(diffs) > 1e-12])
        changes = int(np.count_nonzero(np.diff(signs)))
        out.note(changes <= 1, f"kappa={kappa:g}: unimodal ({changes} sign change)")
        peak_lam = grid[int(np.argmax(values))]
        closed = capacity.optimal_lambda_mg1(Exponential(1.0), kappa)
        out.note(abs(peak_lam - closed) <= 0.01 + 1e-9,
                 f"kappa={kappa:g}: grid argmax {peak_lam:g} within one step of "
                 f"closed form {closed:.6f}")
        ratio = values[grid.index(0.99)] / max(values)
        out.note(ratio < 0.25,
                 f"kappa={kappa:g}: capacity at lam=0.99 is {ratio:.3f} of peak "
                 f"(< 0.25 required)")
    return out


def check_noiseless_and_instability(seed=None):
    """Tiny kappa reduces capacity to the arrival rate; overload is rejected
    by every entry point."""
    out = CheckOutcome("noiseless-limit-and-instability")
    for lam in (0.3, 0.7):
        c_mm1 = capacity.mm1_capacity_closed_form(lam, 1e-6).bits_per_sec
        out.note(abs(c_mm1 - lam) <= 1e-3,
                 f"mm1 lam={lam:g}, kappa=1e-6: capacity {c_mm1:.6f} within 1e-3 of lam")
        c_det = lam * capacity.pk_wait_transform(lam, Deterministic(1.0), 1e-6)
        out.note(abs(c_det - lam) <= 1e-3,
                 f"deterministic-service lam={lam:g}: capacity {c_det:.6f} within 1e-3")
    # an unstable spec cannot be built, so no spec entry point is reached
    lam = 1.2
    entry_points = [
        ("stationary_wait_samples",
         lambda: stationary_wait_samples(lam, Exponential(1.0), 10)),
        ("pk_wait_transform",
         lambda: capacity.pk_wait_transform(lam, Exponential(1.0), 1.0)),
        ("QueueChannelSpec", lambda: _erasure_spec(lam, 1.0)),
        ("mm1_capacity_closed_form",
         lambda: capacity.mm1_capacity_closed_form(lam, 1.0)),
    ]
    for label, fn in entry_points:
        out.expect_raises(InstabilityError, fn, f"lam=1.2: {label}")
    return out


def check_numerics_gates(seed=None):
    """Quadrature against the closed-form transform; optimizer on knowns."""
    out = CheckOutcome("numerics-gates")
    worst = 0.0
    for u in (0.1, 1.0, 10.0):
        for kappa in (0.1, 1.0, 10.0):
            model = DecoherenceModel(kappa)
            got = quadrature_laplace(model.error_prob, u)
            worst = max(worst, abs(got - model.laplace(u)))
    out.note(worst <= 1e-8, f"quadrature vs closed form on 9-point grid: "
                            f"worst |diff| = {worst:.2e}")
    quad = golden_section_extremize(lambda x: -(x - 0.3) ** 2, 0.0, 1.0)
    out.note(abs(quad.argopt - 0.3) <= 1e-7,
             f"quadratic argmax {quad.argopt:.10f} within 1e-7 of 0.3")
    edge = golden_section_extremize(lambda x: x, 0.0, 1.0)
    out.note(edge.boundary and edge.argopt == 1.0,
             f"monotone objective reported at boundary ({edge.argopt:g})")
    return out


def check_optimizer_route_discrepancy(seed=None):
    """Monte Carlo witness that the closed-form optimal rate beats its
    first-order approximation 1/(1 + sqrt(kappa)) (mu = 1), which models the
    M/M/1 wait as one exponential of matching mean."""
    out = CheckOutcome("optimal-rate-route-discrepancy")
    kappa = 1.0
    lam_pk = capacity.optimal_lambda_mg1(Exponential(1.0), kappa)
    lam_premise = 1.0 / (1.0 + math.sqrt(kappa))
    gap = abs(lam_pk - lam_premise)
    out.note(gap > 1e-3, f"candidates differ: transform {lam_pk:.6f} vs "
                         f"exponential-premise {lam_premise:.6f} (|diff|={gap:.4f})")
    children = iter(_seed_for(seed, 11).spawn(2))
    estimates = {}
    for label, lam in (("transform", lam_pk), ("premise", lam_premise)):
        # one transcript alive at a time: each is dropped once scored
        estimates[label] = simulate.estimate_capacity(simulate.simulate_transmission(
            _erasure_spec(lam, kappa), N_DEFAULT, seed=next(children)))[0]
    margin = estimates["transform"].bits_per_sec - estimates["premise"].bits_per_sec
    joint = _sigma(estimates["transform"].std_error, estimates["premise"].std_error)
    out.note(margin > SIGMA_GATE * joint,
             f"measured capacity {estimates['transform'].bits_per_sec:.6f} vs "
             f"{estimates['premise'].bits_per_sec:.6f}: margin {margin / joint:.1f} "
             f"joint sigma in favor of the transform route")
    return out


ALL_CHECKS = (
    check_mm1_erasure_formula,
    check_wait_transform,
    check_optimal_rate_agreement,
    check_erasure_service_dominance,
    check_bsc_service_dominance,
    check_csir_ordering,
    check_bijective_bounds,
    check_sweep_curve_shape,
    check_noiseless_and_instability,
    check_numerics_gates,
    check_optimizer_route_discrepancy,
)

SUITES = {
    "all": ALL_CHECKS,
    "erasure": (check_mm1_erasure_formula, check_wait_transform,
                check_optimal_rate_agreement, check_sweep_curve_shape,
                check_noiseless_and_instability, check_numerics_gates,
                check_optimizer_route_discrepancy),
    "bsc": (check_csir_ordering,),
    "bijective": (check_bijective_bounds,),
    "service-optimality": (check_erasure_service_dominance,
                           check_bsc_service_dominance),
}

