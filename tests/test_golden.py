"""Golden outputs of the command line.

Each case runs one `qcl` command at small n with a fixed seed and pins its
stdout JSON exactly (floats compare by value, so every digit counts) and,
for commands that write a file, the sha256 of the file's bytes. Output
paths are replaced by "<out>" before the comparison.

The only tolerance: the diagnostics of Monte Carlo bijective capacities may
gain keys, as long as every pinned key keeps its value.
"""

import hashlib
import json

import pytest

from qcl.cli import main

GAMMA = {"kind": "gamma", "shape": 2.0, "scale": 0.5}
K8 = {"channel": "bijective", "alphabet_size": 8, "noise": {"kind": "wait_geometric"}}

# name -> (argv, config document or None, writes an output file,
#          diagnostics may gain keys)
CASES = {
    "capacity-erasure-mm1": (["capacity", "--lambda", "0.5", "--kappa", "1.0"],
                             None, False, False),
    "capacity-erasure-gamma-sojourn": (
        ["capacity"], {"channel": "erasure", "lambda": 0.7, "service": GAMMA,
                       "delay_convention": "sojourn"}, False, False),
    "capacity-bijective-k8-bounds": (["capacity", "--n", "5000", "--seed", "11"],
                                     K8, False, True),
    "capacity-bijective-k8-timing": (["capacity", "--n", "5000", "--seed", "11"],
                                     {**K8, "receiver_knows_timing": True},
                                     False, True),
    "optimize-exponential": (["optimize", "--kappa", "1.0"], None, False, False),
    "optimize-gamma": (["optimize"], {"service": GAMMA}, False, False),
    "sweep-n0": (["sweep", "--n", "0"], None, True, False),
    "sweep-n2000": (["sweep", "--n", "2000", "--seed", "21"],
                    {"grid": {"start": 0.1, "stop": 0.9, "step": 0.2},
                     "kappas": [0.1, 1.0]}, True, False),
    "simulate-erasure": (["simulate", "--n", "500", "--seed", "3"], None, True,
                         False),
}

PREMISE_CAVEAT = (
    "derived under the premise that the unit-rate-exponential-service delay is "
    "exponential with rate (1-lam)/lam, which the wait transform contradicts; "
    "cross-check against optimal_lambda_mg1 and simulation")

GOLDEN = {
    "capacity-erasure-mm1": {
        "stdout": {
            "bits_per_sec": 0.3333333333333333,
            "method": "ClosedFormMM1",
            "diagnostics": {
                "alphabet_size": 2,
                "receiver_knows_timing_irrelevant": True,
                "alpha": 0.5,
                "mean_survival": 0.6666666666666666
            }
        }
    },
    "capacity-erasure-gamma-sojourn": {
        "stdout": {
            "bits_per_sec": 0.15272727272727274,
            "method": "PKTransform",
            "diagnostics": {
                "alphabet_size": 2,
                "receiver_knows_timing_irrelevant": True,
                "alpha": 0.5555555555555556,
                "mean_survival": 0.2181818181818182
            }
        }
    },
    "capacity-bijective-k8-bounds": {
        "stdout": {
            "bits_per_sec": None,
            "method": "Bounds",
            "lower": {
                "bits_per_sec": 0.6487466529632048,
                "method": "Bound-Lower",
                "std_error": 0.020000427114424235
            },
            "upper": {
                "bits_per_sec": 0.7286646832465117,
                "method": "Bound-Upper",
                "std_error": 0.009858660849105551
            },
            "diagnostics": {
                "csir": False,
                "n": 4999
            }
        }
    },
    "capacity-bijective-k8-timing": {
        "stdout": {
            "bits_per_sec": 0.9365533358735241,
            "method": "MonteCarlo",
            "diagnostics": {
                "csir": True,
                "std_error": 0.01608301110070556,
                "n": 5000
            }
        }
    },
    "optimize-exponential": {
        "stdout": {
            "lambda_star": 0.585786437626905,
            "capacity_at_lambda_star": 0.3431457505076198,
            "method": "ClosedFormMM1",
            "numeric_check": {
                "lambda_star": 0.5857864409775124,
                "gap": 3.3506074581524103e-09,
                "iterations": 41
            },
            "exponential_premise_route": {
                "lambda_star": 0.5000000000000001,
                "method": "GeneralLaplace",
                "discrepancy": 0.08578643762690485,
                "degenerate": False,
                "caveat": PREMISE_CAVEAT
            }
        }
    },
    "optimize-gamma": {
        "stdout": {
            "lambda_star": 0.6000000000000001,
            "capacity_at_lambda_star": 0.36,
            "method": "PKTransform",
            "numeric_check": {
                "lambda_star": 0.6000000007134314,
                "gap": 7.134313140255699e-10,
                "iterations": 41
            }
        }
    },
    "sweep-n0": {
        "stdout": {
            "out": "<out>",
            "rows": 297,
            "kappas": [0.01, 0.1, 1.0],
            "n": 0
        },
        "sha256": "4fba4827f3809f649e7a9eac149fd7ce80eb76fd5b3689af4eabb3b0512fcd48"
    },
    "sweep-n2000": {
        "stdout": {
            "out": "<out>",
            "rows": 10,
            "kappas": [0.1, 1.0],
            "n": 2000
        },
        "sha256": "24b51917d2a0e7dab540c3b7146a2592a8d03b717631364956ad0f8f41c057c5"
    },
    "simulate-erasure": {
        "stdout": {
            "out": "<out>",
            "n": 500,
            "seed": 3,
            "estimate": {
                "bits_per_sec": 0.342,
                "std_error": 0.016669559822446323,
                "method": "MonteCarlo",
                "details": {
                    "erased_fraction": 0.31599999999999995,
                    "binomial_std_error": 0.010395768369870502,
                    "batches": 21
                }
            }
        },
        "sha256": "dd1a6a95a3aa082643979d0dfe4fa7fcbfbc7887f5595e3480cf4809c77108bc"
    }
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_is_pinned(name, tmp_path, capsys):
    argv, config, writes, open_diagnostics = CASES[name]
    argv = list(argv)
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    out = tmp_path / "out.csv"
    if writes:
        argv += ["--out", str(out)]
    assert main(argv) == 0
    got = json.loads(capsys.readouterr().out)
    want = GOLDEN[name]
    if writes:
        assert got["out"] == str(out)
        got["out"] = "<out>"
        assert hashlib.sha256(out.read_bytes()).hexdigest() == want["sha256"]
    expected = want["stdout"]
    if open_diagnostics:
        pinned = expected["diagnostics"]
        assert {k: got["diagnostics"].get(k) for k in pinned} == pinned
        expected = {**expected, "diagnostics": got["diagnostics"]}
    assert got == expected
