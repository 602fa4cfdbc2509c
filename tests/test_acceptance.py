"""End-to-end checks: every closed form in the package against its own
Monte Carlo simulator, at a fixed seed so failures are reproducible.

Each test wraps one check from qcl.validation (the same code `qcl validate`
runs) and asserts it passes, echoing the check's evidence lines on failure.

Known failure: test_capacity_curve_rises_peaks_and_falls. The slow-decoherence
curve (kappa = 0.01) peaks near lambda = 0.91 but only falls to about 60% of
the peak by lambda = 0.99, short of the <25% falloff this check demands. The
demanded falloff is not a property of the curve lambda*(1-lambda)/(1-lambda/
(1+kappa)): as kappa -> 0 the post-peak decline flattens toward the noiseless
line C = lambda, which does not fall at all. The check is kept as stated
rather than loosened to fit; see its evidence lines for the measured ratios.

Each check's evidence lines are also pinned by sha256 at SEED, ahead of the
pass assertion, so a change to any line `qcl validate` prints fails here,
the known red included.
"""

import hashlib

from qcl import validation

SEED = 0

EVIDENCE_SHA256 = {
    "erasure-mm1-formula-vs-simulation":
        "c80477ce9f392f5766e1528b29807f36b9fa2d0229418d21a62e03ff972555a9",
    "wait-transform-vs-simulation":
        "aff7e01c999b8db097abc529b9a09d8445fae70fdfdc9aa1bdb314128a604ecc",
    "optimal-rate-closed-form-vs-numeric":
        "421e9a092262153c511419d4490cc9107c0db7bd8d97ecfe54438de49001e69a",
    "erasure-deterministic-service-dominance":
        "c546b424283c6aec643f2fdbc1086536be11292bb75a4f4ac9d29db466b49841",
    "bsc-deterministic-service-dominance":
        "adc0c61241e37a484f0016072de367e28342f165125f485657e113e48641a0c9",
    "bsc-csir-ordering-and-degenerate-equality":
        "6f1ef17deb0a5e5ea8c62989168122fa6211a43a6a7f3611cfa8311ddafc5dc7",
    "bijective-bound-sandwich":
        "92f3374eeda7ac34d4e1a9ae475e9658d78bceffade54a670a1bfdb97271b583",
    "sweep-curve-shape":
        "2a738a100c51a615632158b40ae49375582a96eaee9adda1643a10f12ce19b11",
    "noiseless-limit-and-instability":
        "c79c3ada107e10992233c73b4adf87c76151172b661a2204f9304a18cd61ebf3",
    "numerics-gates":
        "382a26207b635598174c2a8d0f64f8083fc49afe9c5e8bb388ac7ee294f61825",
    "optimal-rate-route-discrepancy":
        "a9af3a403d51ff7332bde50eaa1e52f36d865b32b7b0bd4b64eb050f126814ec",
}


def _run(check):
    outcome = check(seed=SEED)
    evidence = "\n".join(outcome.lines)
    digest = hashlib.sha256(evidence.encode()).hexdigest()
    assert digest == EVIDENCE_SHA256[outcome.name], \
        f"{outcome.name} evidence changed at seed {SEED}:\n{evidence}"
    assert outcome.passed, f"{outcome.name} failed:\n{evidence}"
    return outcome


def test_erasure_capacity_formula_matches_simulation():
    _run(validation.check_mm1_erasure_formula)


def test_wait_transform_matches_simulation():
    _run(validation.check_wait_transform)


def test_optimal_rate_closed_form_agrees_with_search():
    _run(validation.check_optimal_rate_agreement)


def test_deterministic_service_dominates_for_erasure():
    _run(validation.check_erasure_service_dominance)


def test_deterministic_service_dominates_for_flip_channel():
    _run(validation.check_bsc_service_dominance)


def test_timing_knowledge_never_hurts():
    _run(validation.check_csir_ordering)


def test_permutation_bounds_bracket_capacity():
    _run(validation.check_bijective_bounds)


def test_capacity_curve_rises_peaks_and_falls():
    # known red: the kappa=0.01 falloff clause fails; see the module docstring
    _run(validation.check_sweep_curve_shape)


def test_noiseless_limit_and_instability_guards():
    _run(validation.check_noiseless_and_instability)


def test_numeric_kernels_meet_tolerances():
    _run(validation.check_numerics_gates)


def test_rate_routes_disagree_measurably():
    _run(validation.check_optimizer_route_discrepancy)
