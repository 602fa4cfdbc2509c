"""Information capacity of single-server queue channels with
delay-dependent noise.

Symbols queue for a single server; the longer one waits, the noisier its
channel use becomes: erased, or permuted by a delay-dependent noise symbol.
One DecoherenceModel(kappa), the depolarizing law p(w) = 1 - exp(-kappa*w),
drives both kinds: the erasure channel erases with probability p(w), and
the binary symmetric channel, the two-symbol permutation channel with XOR
table (RandomBijective.binary_symmetric), flips with probability p(w)/2, the
depolarizing flip. The package pairs closed-form capacity expressions with a
discrete-event Monte Carlo simulator and a check suite that holds the two
against each other; evaluate_capacity and estimate_capacity are the one
evaluation path per channel that the command line renders. Both return a
CapacityResult, which carries a sampled value's std_error and n with it.

numpy is imported only by the code that draws or holds arrays, so the
closed forms start without it: the names of qcl.simulate and qcl.validation
are looked up on first use, and the other modules import numpy inside their
array functions.
"""

import importlib

from .capacity import (CapacityResult, alpha_mg1,
                       bijective_capacity, erasure_capacity, evaluate_capacity,
                       mean_survival, mm1_capacity_closed_form,
                       optimal_lambda_mg1, pk_wait_transform)
from .channels import (ERASED, BernoulliNoise, DecoherenceModel, Erasure,
                       RandomBijective, WaitGeometricNoise, apply_channel,
                       binary_entropy, discrete_entropy, load_bijection,
                       xor_table)
from .config import ConfigError, build_spec, load_config, validate_config
from .numerics import (OptimizationResult, QuadratureError, batch_means,
                       golden_section_extremize, quadrature_laplace, spawn_rngs)
from .queueing import (DelayConvention, Deterministic, Empirical, Exponential,
                       Gamma, InstabilityError, QueueChannelSpec,
                       ServiceDistribution, Uniform, WaitSampleSet,
                       check_stability, default_burn_in, lindley_waits,
                       stationary_wait_samples)

# names of the modules that import numpy at load time, resolved on first use
_LAZY = {**dict.fromkeys(("EstimateWithError", "Transcript",
                          "estimate_bijective_bounds", "estimate_capacity",
                          "simulate_transmission", "sweep_rows"), "simulate"),
         **dict.fromkeys(("SUITES", "CheckOutcome", "ValidationReport",
                          "validate_formula"), "validation")}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


__version__ = "0.1.0"

__all__ = [
    "ERASED",
    "BernoulliNoise",
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
    "OptimizationResult",
    "QuadratureError",
    "QueueChannelSpec",
    "RandomBijective",
    "SUITES",
    "ServiceDistribution",
    "Transcript",
    "Uniform",
    "ValidationReport",
    "WaitGeometricNoise",
    "WaitSampleSet",
    "alpha_mg1",
    "apply_channel",
    "batch_means",
    "bijective_capacity",
    "binary_entropy",
    "build_spec",
    "check_stability",
    "default_burn_in",
    "discrete_entropy",
    "erasure_capacity",
    "estimate_bijective_bounds",
    "estimate_capacity",
    "evaluate_capacity",
    "golden_section_extremize",
    "lindley_waits",
    "load_bijection",
    "load_config",
    "mean_survival",
    "mm1_capacity_closed_form",
    "optimal_lambda_mg1",
    "pk_wait_transform",
    "quadrature_laplace",
    "simulate_transmission",
    "spawn_rngs",
    "stationary_wait_samples",
    "sweep_rows",
    "validate_config",
    "validate_formula",
    "xor_table",
]
