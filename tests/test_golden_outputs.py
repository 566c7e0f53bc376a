"""Pinned SHA-256 digests of the CLI's CSVs on small fixed inputs.

The run-versus-run tests elsewhere compare two runs of the same code, so a
change that moves a random draw, or reorders how draws are consumed, passes
them. These digests were taken from a known-good build and catch that.
numpy does not promise the same Generator streams across releases, nor scipy
bit-identical special functions, so the test skips on any other versions.
"""

import hashlib
import json

import numpy as np
import pytest
import scipy

from riskcap.cli import main

NUMPY_VERSION = "2.4.6"
SCIPY_VERSION = "1.17.1"

COUNTS = [3, 2, 4, 4, 6, 5, 2, 4, 2, 5, 0, 4]
LOGNORMAL = [
    6.0703, 18.3814, 0.1894, 9.28, 9.0753, 0.0792, 5.4415, 1.6473, 12.9753, 1.1296, 2.6209,
    5.3962, 0.4712, 8.9997, 2.2036, 7.2788, 0.9573, 23.8648, 9.1194, 1.904, 9.6207, 33.7679,
    97.7439, 0.1168, 15.8991, 6.8905, 2.253, 0.363, 33.595, 0.218, 8.4477, 36.7352, 0.1109,
    1.4843, 0.1982, 4.4287, 56.1906, 155.5725, 0.0776, 0.8608, 11.1016,
]
PARETO = [
    1.8027, 2.1371, 3.714, 1.0845, 1.6355, 1.0806, 1.3401, 2.1631, 3.0816, 2.038, 1.0182,
    1.2494, 1.0931, 28.8975, 1.0809, 1.1503, 1.2473, 1.0319, 2.7776, 1.6583, 1.0909, 1.4118,
    1.0418, 1.6033, 1.1408, 1.0199, 1.0631, 1.4995, 1.6597, 1.217, 1.6747, 1.2423, 1.0725,
    1.2084, 1.2859, 3.3833, 1.0634, 1.0461, 1.5101, 5.2266, 3.2836,
]

DIGESTS = {
    "capital": "f13a73642e6424138397791734a706249cc0b62904a3ba32257908256a6299cf",
    "fit": "5b0378a2d6635d54e633e3046726ab4594b05a11a76f1e700b40eddc3ad3a6df",
    "track-lognormal": "59775983d10797527610619b5124648d53d3bfb335603934d8a0fd5f75860043",
    "track-pareto": "c91c69644a25cc00b6dacd288add299855026f5dff80454ec92d03c13b2dad8a",
    "bias-lognormal": "bc9dfc43d866bb6f583545d54e61edb8503fb76b95b55a2aca7f050863bbbb61",
    "bias-pareto": "1cc288326cf2bf6d63c82d8d7e7d50648edeb1367b0baa2cb2690db7e0ccbdc6",
    "simulate-lognormal-counts": "ec7f3525bcdee7430853e7adc3664ed39fd714ba901b1e8dc5f47f73d55ef884",
    "simulate-lognormal-events": "3163645df4c316cd4eb64f81d647ae50a8b4e5b74b5bdc2104b9e0a96160b49a",
    "simulate-pareto-counts": "ec7f3525bcdee7430853e7adc3664ed39fd714ba901b1e8dc5f47f73d55ef884",
    "simulate-pareto-events": "977ba7aeaa688a3c1db2f4fc80b101ca0ac371bdc2eaa59e734d2c6907c7e706",
    "aggregate-conditional": "d41046c1c27dd6d33b87bd2f8517e0b532577583a366c85d5b19fea5fb1a93cd",
    "aggregate-predictive": "0f14970d009c0d78835f15e4ede032582a8c2040e736a349f8281884a0978be1",
}


def _history(tmp_path, name, amounts):
    counts = tmp_path / f"{name}-counts.csv"
    events = tmp_path / f"{name}-events.csv"
    counts.write_text("year,count\n" + "".join(f"{y},{c}\n" for y, c in enumerate(COUNTS, 1)))
    years = [y for y, c in enumerate(COUNTS, 1) for _ in range(c)]
    events.write_text("year,amount\n" + "".join(f"{y},{a!r}\n" for y, a in zip(years, amounts)))
    return {"counts_file": str(counts), "events_file": str(events)}


@pytest.fixture
def config(tmp_path):
    cells = [
        {"id": "ln", "severity_family": "lognormal", **_history(tmp_path, "ln", LOGNORMAL)},
        {"id": "ln-trunc", "severity_family": "lognormal", "truncation": {"sigma_sq": [None, 4.0]},
         **_history(tmp_path, "ln", LOGNORMAL)},
        {"id": "pareto", "severity_family": "pareto", "threshold_L": 1.0,
         "enforce_finite_mean": True, **_history(tmp_path, "pareto", PARETO)},
    ]
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"seed": 7, "cells": cells}))
    return str(path)


def _runs(config, out):
    """The argv of each pinned run; ``out(name)`` is the path of a CSV it writes."""
    experiment = {"track": ["--m-grid", "5,10", "--K", "20000", "--seed", "5"]}
    experiment["bias"] = experiment["track"] + ["--R", "2"]
    yield ["capital", "--config", config, "--K", "20000", "--mode", "both", "--workers", "2",
           "--csv", out("capital")]
    yield ["fit", "--config", config, "--csv", out("fit")]
    for which in ("track", "bias"):
        for family in ("lognormal", "pareto"):
            yield ["experiment", which, "--severity", family, *experiment[which],
                   "--out", out(f"{which}-{family}")]
    for family in ("lognormal", "pareto"):
        yield ["simulate", "--family", family, "--lambda0", "4", "--years", "12", "--seed", "5",
               "--counts-out", out(f"simulate-{family}-counts"),
               "--events-out", out(f"simulate-{family}-events")]
    # aggregate refuses mixed modes, so it sums each mode's rows of the capital CSV.
    for mode in ("conditional", "predictive"):
        yield ["aggregate", _rows_of_mode(out("capital"), mode), "--out", out(f"aggregate-{mode}")]


def _rows_of_mode(capital_csv, mode):
    """A copy of ``capital_csv`` without the rows of the other mode."""
    other = {"conditional": "predictive", "predictive": "conditional"}[mode]
    lines = open(capital_csv).read().splitlines(keepends=True)
    path = capital_csv.replace(".csv", f"-{mode}-rows.csv")
    with open(path, "w") as fh:
        fh.writelines(line for line in lines if line.split(",")[1:2] != [other])
    return path


@pytest.mark.skipif(
    (np.__version__, scipy.__version__) != (NUMPY_VERSION, SCIPY_VERSION),
    reason=f"digests were taken with numpy {NUMPY_VERSION} and scipy {SCIPY_VERSION}; "
    f"this is numpy {np.__version__} and scipy {scipy.__version__}",
)
def test_outputs_match_pinned_digests(config, tmp_path, capsys):
    paths = {}
    out = lambda name: paths.setdefault(name, str(tmp_path / f"{name}.csv"))
    for argv in _runs(config, out):
        assert main(argv) == 0, capsys.readouterr().err
    digests = {name: hashlib.sha256(open(path, "rb").read()).hexdigest()
               for name, path in paths.items()}
    assert digests == DIGESTS
