"""Information capacity of single-server queue channels with
delay-dependent noise.

Symbols queue for a single server; the longer one waits, the noisier its
channel use becomes: erased, or permuted by a delay-dependent noise symbol.
The binary symmetric channel is the two-symbol permutation channel with XOR
table and Bernoulli noise (RandomBijective.binary_symmetric). The package
pairs closed-form capacity expressions with a discrete-event Monte Carlo
simulator and a check suite that holds the two against each other;
evaluate_capacity and estimate_capacity are the one evaluation path per
channel that the command line renders.
"""

from .capacity import (CapacityResult, LaplaceRouteResult, QueueChannelSpec,
                       alpha_mg1, bijective_capacity, erasure_capacity, laplace_service,
                       mean_survival, mm1_capacity_closed_form,
                       mm1_capacity_exponential_premise, optimal_lambda_mg1,
                       optimal_lambda_mm1_laplace, pk_wait_transform)
from .channels import (ERASED, BitFlipModel, DecoherenceModel,
                       Erasure, RandomBijective, alphabet_size, apply_channel,
                       bernoulli_noise, binary_entropy, discrete_entropy,
                       dump_bijection, load_bijection, wait_geometric_noise,
                       xor_table)
from .config import ConfigError, build_spec, load_config, validate_config
from .numerics import (OptimizationResult, QuadratureError, as_rng,
                       batch_means, golden_section_extremize,
                       quadrature_laplace, spawn_rngs)
from .queueing import (DelayConvention, Deterministic, Empirical, Exponential,
                       Gamma, InstabilityError, PoissonArrivals,
                       ServiceDistribution, Uniform, WaitSampleSet,
                       check_stability, default_burn_in, lindley_waits,
                       stationarity_diagnostic, stationary_wait_samples)
from .simulate import (EstimateWithError, Transcript, ValidationReport,
                       estimate_bijective_bounds, estimate_capacity,
                       estimate_erasure_capacity, estimate_expectation_over_pi,
                       evaluate_capacity, simulate_transmission, sweep_rows,
                       validate_formula)
from .validation import SUITES, CheckOutcome, run_suite

__version__ = "0.1.0"

__all__ = [
    "ERASED",
    "BitFlipModel",
    "CapacityResult",
    "CheckOutcome",
    "ConfigError",
    "DecoherenceModel",
    "DelayConvention",
    "Deterministic",
    "Empirical",
    "Erasure",
    "EstimateWithError",
    "Exponential",
    "Gamma",
    "InstabilityError",
    "LaplaceRouteResult",
    "OptimizationResult",
    "PoissonArrivals",
    "QuadratureError",
    "QueueChannelSpec",
    "RandomBijective",
    "SUITES",
    "ServiceDistribution",
    "Transcript",
    "Uniform",
    "ValidationReport",
    "WaitSampleSet",
    "alpha_mg1",
    "alphabet_size",
    "apply_channel",
    "as_rng",
    "batch_means",
    "bernoulli_noise",
    "bijective_capacity",
    "binary_entropy",
    "build_spec",
    "check_stability",
    "default_burn_in",
    "discrete_entropy",
    "dump_bijection",
    "erasure_capacity",
    "estimate_bijective_bounds",
    "estimate_capacity",
    "estimate_erasure_capacity",
    "estimate_expectation_over_pi",
    "evaluate_capacity",
    "golden_section_extremize",
    "laplace_service",
    "lindley_waits",
    "load_bijection",
    "load_config",
    "mean_survival",
    "mm1_capacity_closed_form",
    "mm1_capacity_exponential_premise",
    "optimal_lambda_mg1",
    "optimal_lambda_mm1_laplace",
    "pk_wait_transform",
    "quadrature_laplace",
    "run_suite",
    "simulate_transmission",
    "spawn_rngs",
    "stationarity_diagnostic",
    "stationary_wait_samples",
    "sweep_rows",
    "validate_config",
    "validate_formula",
    "wait_geometric_noise",
    "xor_table",
]
