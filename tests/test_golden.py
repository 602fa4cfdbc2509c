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
                "bits_per_sec": 0.6487466529632047,
                "method": "Bound-Lower",
                "std_error": 0.02000042711442424
            },
            "upper": {
                "bits_per_sec": 0.7286646832465118,
                "method": "Bound-Upper",
                "std_error": 0.009858660849105557
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
    "capacity-bsc-blind": {
        "stdout": {
            "bits_per_sec": 0.1781689425267905,
            "method": "MonteCarlo",
            "diagnostics": {
                "csir": False,
                "assumption": "no-timing-information value assumes the queue "
                              "state is unpredictable from past noise alone",
                "H_mean_noise": 0.643662114946419,
                "std_error": 0.006492664263312615,
                "expectation_std_error": 0.01298532852662523,
                "n": 5000
            }
        }
    },
    "capacity-bijective-bernoulli-bounds": {
        "stdout": {
            "bits_per_sec": None,
            "method": "Bounds",
            "lower": {
                "bits_per_sec": 0.27850568164091216,
                "method": "Bound-Lower",
                "std_error": 0.006571532834247992
            },
            "upper": {
                "bits_per_sec": 0.30582087796034285,
                "method": "Bound-Upper",
                "std_error": 0.0033436708800658878
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
                "bits_per_sec": 0.27386271711789956,
                "method": "Bound-Lower",
                "std_error": 0.009907259160140796
            },
            "upper": {
                "bits_per_sec": 0.3208747379508656,
                "method": "Bound-Upper",
                "std_error": 0.00459288947878396
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
                "bits_per_sec": 0.342,
                "std_error": 0.016669559822446323,
                "method": "MonteCarlo",
                "details": {
                    "erased_fraction": 0.31599999999999995,
                    "batches": 21
                }
            }
        },
        "sha256": "dd1a6a95a3aa082643979d0dfe4fa7fcbfbc7887f5595e3480cf4809c77108bc"
    },
    "simulate-bsc-timing": {
        "stdout": {
            "out": "<out>",
            "n": 500,
            "seed": 5,
            "bounds": {
                "lower": 0.1292257451775708,
                "upper": 0.18044113151540508,
                "csir_exact": 0.25071234587141233
            },
            "estimate": {
                "bits_per_sec": 0.25071234587141233,
                "std_error": 0.021869737120763334,
                "method": "MonteCarlo",
                "details": {
                    "csir": True,
                    "E_H_noise": 0.49857530825717533,
                    "expectation_std_error": 0.04373947424152667
                }
            }
        },
        "sha256": "b930ca0cd09e4bc22fd6ab59a36a744b207a30b3fbf621679491193d7bf9a536"
    },
    "simulate-bijective-named": {
        "stdout": {
            "out": "<out>",
            "n": 500,
            "seed": 11,
            "bounds": {
                "lower": 0.276854411168732,
                "upper": 0.32910292008565456,
                "csir_exact": 0.4629139958440344
            },
            "estimate": {
                "bits_per_sec": 0.276854411168732,
                "std_error": 0.03197412176489097,
                "method": "Bound-Lower",
                "details": {
                    "csir": False,
                    "H_mean_noise": 1.031253678383692,
                    "expectation_std_error": 0.06394824352978194
                }
            }
        },
        "sha256": "67c7b5e9cf7145823e5907b062e7e3b90298d7f796f8c6d2c032ded97e12cc63"
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
