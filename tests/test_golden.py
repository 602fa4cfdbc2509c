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
BERNOULLI = {"channel": "bijective", "kappa": 0.3, "noise": {"kind": "bernoulli"}}
# a named 3-symbol Latin table: transcripts print the indices 0..2, not the names
NAMED = {"channel": "bijective", "noise": {"kind": "wait_geometric"},
         "bijection": {"alphabet": ["a", "b", "c"],
                       "g": {"a": ["c", "a", "b"], "b": ["b", "c", "a"],
                             "c": ["a", "b", "c"]}}}

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
    "capacity-bsc-blind": (["capacity", "--n", "5000", "--seed", "11"],
                           {"channel": "bsc"}, False, True),
    "capacity-bijective-bernoulli-bounds": (["capacity", "--n", "5000", "--seed", "11"],
                                            BERNOULLI, False, True),
    "capacity-bijective-named-bounds": (["capacity", "--n", "5000", "--seed", "11"],
                                        NAMED, False, True),
    "optimize-exponential": (["optimize", "--kappa", "1.0"], None, False, False),
    "optimize-gamma": (["optimize"], {"service": GAMMA}, False, False),
    "sweep-n0": (["sweep", "--n", "0"], None, True, False),
    "sweep-n2000": (["sweep", "--n", "2000", "--seed", "21"],
                    {"grid": {"start": 0.1, "stop": 0.9, "step": 0.2},
                     "kappas": [0.1, 1.0]}, True, False),
    "sweep-gamma-sojourn-n20001": (
        ["sweep", "--n", "20001", "--seed", "4"],
        {"grid": {"start": 0.1, "stop": 0.9, "step": 0.2}, "kappas": [0.1, 1.0],
         "service": GAMMA, "delay_convention": "sojourn"}, True, False),
    "simulate-erasure": (["simulate", "--n", "500", "--seed", "3"], None, True,
                         False),
    "simulate-bsc-timing": (["simulate", "--n", "500", "--seed", "5"],
                            {"channel": "bsc", "receiver_knows_timing": True}, True,
                            False),
    "simulate-bijective-named": (["simulate", "--n", "500", "--seed", "11"], NAMED,
                                 True, False),
}

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
                "bits_per_sec": 0.6780836262390004,
                "method": "Bound-Lower",
                "std_error": 0.02416069114002188
            },
            "upper": {
                "bits_per_sec": 0.7487653998677871,
                "method": "Bound-Upper",
                "std_error": 0.010320812191666317
            },
            "diagnostics": {
                "csir": False,
                "n": 4999
            }
        }
    },
    "capacity-bijective-k8-timing": {
        "stdout": {
            "bits_per_sec": 0.9564270729919033,
            "method": "MonteCarlo",
            "diagnostics": {
                "csir": True,
                "std_error": 0.01721109701682125,
                "n": 5000
            }
        }
    },
    "capacity-bsc-blind": {
        "stdout": {
            "bits_per_sec": 0.18742801886063953,
            "method": "MonteCarlo",
            "diagnostics": {
                "csir": False,
                "assumption": "no-timing-information value assumes the queue "
                              "state is unpredictable from past noise alone",
                "H_mean_noise": 0.6251439622787209,
                "std_error": 0.007874705289976615,
                "expectation_std_error": 0.01574941057995323,
                "n": 5000
            }
        }
    },
    "capacity-bijective-bernoulli-bounds": {
        "stdout": {
            "bits_per_sec": None,
            "method": "Bounds",
            "lower": {
                "bits_per_sec": 0.2898239909073696,
                "method": "Bound-Lower",
                "std_error": 0.007930436619444543
            },
            "upper": {
                "bits_per_sec": 0.3140602786605378,
                "method": "Bound-Upper",
                "std_error": 0.003484341822534844
            },
            "diagnostics": {
                "csir": False,
                "n": 4999
            }
        }
    },
    "capacity-bijective-named-bounds": {
        "stdout": {
            "bits_per_sec": None,
            "method": "Bounds",
            "lower": {
                "bits_per_sec": 0.2858145473659356,
                "method": "Bound-Lower",
                "std_error": 0.01202624468395162
            },
            "upper": {
                "bits_per_sec": 0.32675622580844055,
                "method": "Bound-Upper",
                "std_error": 0.004776262332357201
            },
            "diagnostics": {
                "csir": False,
                "n": 4999
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
        "sha256": "2be460a9f62c4540511f3c4259184c763cbba1b91fdbffd3de66dbfb234e82f3"
    },
    "sweep-gamma-sojourn-n20001": {
        "stdout": {
            "out": "<out>",
            "rows": 10,
            "kappas": [0.1, 1.0],
            "n": 20001
        },
        "sha256": "38982dbaf7ad61ac7189a7f925490d40a9fc39bd57bffd7faeab643d56657d25"
    },
    "simulate-erasure": {
        "stdout": {
            "out": "<out>",
            "n": 500,
            "seed": 3,
            "estimate": {
                "bits_per_sec": 0.308,
                "std_error": 0.01932798433582541,
                "method": "MonteCarlo",
                "details": {
                    "erased_fraction": 0.384,
                    "batches": 21
                }
            }
        },
        "sha256": "7ad2ec2d4845018fc1a9965e571d4a87599fc74e58a5a54024deb409498dbbc0"
    },
    "simulate-bsc-timing": {
        "stdout": {
            "out": "<out>",
            "n": 500,
            "seed": 5,
            "bounds": {
                "lower": 0.17695939555173268,
                "upper": 0.21686145812387403,
                "csir_exact": 0.29386941071970374
            },
            "estimate": {
                "bits_per_sec": 0.29386941071970374,
                "std_error": 0.02177344887126655,
                "method": "MonteCarlo",
                "details": {
                    "csir": True,
                    "E_H_noise": 0.4122611785605925,
                    "expectation_std_error": 0.0435468977425331
                }
            }
        },
        "sha256": "a934b778a57cc126e9c4dfe77e4ef4c39476b055efdb7ad09cb4ae7445e0a1d7"
    },
    "simulate-bijective-named": {
        "stdout": {
            "out": "<out>",
            "n": 500,
            "seed": 11,
            "bounds": {
                "lower": 0.3049707530324108,
                "upper": 0.3580058320349207,
                "csir_exact": 0.48726298688266734
            },
            "estimate": {
                "bits_per_sec": 0.3049707530324108,
                "std_error": 0.037117734125803006,
                "method": "Bound-Lower",
                "details": {
                    "csir": False,
                    "H_mean_noise": 0.9750209946563345,
                    "expectation_std_error": 0.07423546825160601
                }
            }
        },
        "sha256": "00de0e688b2ae474f66ca378b13bf04f0a9d8018e671d5f6510ea07ed0dfcbc6"
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
    # and in the same key order
    assert json.dumps(got) == json.dumps(expected)
