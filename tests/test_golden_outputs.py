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
    "capital": "88f7612ce12257c095d42bf9008ae7982b1b800598b971031917ed3ceaf8e929",
    "fit": "5b0378a2d6635d54e633e3046726ab4594b05a11a76f1e700b40eddc3ad3a6df",
    "track-lognormal": "e94519be4c83d527b1caad44a2ec99592513ae178e4c32c3e3f2f65a17e90b3e",
    "track-pareto": "7bfae7e4530a1a6a3432524901eeb2ed7e0a9db892bd9563033e103f12fa1556",
    "bias-lognormal": "a612b1d036fa0b0140aff537aa239de7e25960731eea8679179a239aec10cd4b",
    "bias-pareto": "f17d1518ca17c43ce7e738ae3ded134467a6445a6951dd44fd427264d8ed09cd",
    "simulate-lognormal-counts": "0bb8df46ba8fd288352041373260a6a20a14f3f558ca4522d4ff2faa12e54820",
    "simulate-lognormal-events": "451b2a49297ec719fd74a2e08d9f1cf625f4e90bbab622e085ac18bcf96b54ba",
    "simulate-pareto-counts": "0bb8df46ba8fd288352041373260a6a20a14f3f558ca4522d4ff2faa12e54820",
    "simulate-pareto-events": "17e14be1c89074184a5c8aff2256c6f1c6d17b8e3551bb694c8293bc293ee964",
    "aggregate-conditional": "9ac6b5e33163e724f37631246565d09f5697dd6fcf557e18a77119be764b7d9a",
    "aggregate-predictive": "8d79c5327013f9d83b63c893f06a91424d4b9655e044e0b377e1b1208019e072",
    "capital-informative": "0b5d5dd2f97455d55a6efe95c75754517c6a417d4b2c054689bde9d10dff4508",
    "fit-informative": "4829ca9cf9ce2acd44aecf0f284e7df7781648106d9b3d7b2404349734f52f81",
}


def _history(tmp_path, name, amounts):
    counts = tmp_path / f"{name}-counts.csv"
    events = tmp_path / f"{name}-events.csv"
    counts.write_text("year,count\n" + "".join(f"{y},{c}\n" for y, c in enumerate(COUNTS, 1)))
    years = [y for y, c in enumerate(COUNTS, 1) for _ in range(c)]
    events.write_text("year,amount\n" + "".join(f"{y},{a!r}\n" for y, a in zip(years, amounts)))
    return {"counts_file": str(counts), "events_file": str(events)}


def _config(tmp_path, name, cells):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"seed": 7, "cells": cells}))
    return str(path)


@pytest.fixture
def config(tmp_path):
    return _config(tmp_path, "config", [
        {"id": "ln", "severity_family": "lognormal", **_history(tmp_path, "ln", LOGNORMAL)},
        {"id": "ln-trunc", "severity_family": "lognormal", "truncation": {"sigma_sq": [None, 4.0]},
         **_history(tmp_path, "ln", LOGNORMAL)},
        {"id": "pareto", "severity_family": "pareto", "threshold_L": 1.0,
         "enforce_finite_mean": True, **_history(tmp_path, "pareto", PARETO)},
    ])


@pytest.fixture
def informative_config(tmp_path):
    """Cells whose every prior is informative: the flat-prior runs never reach those bits."""
    freq_prior = {"shape": 8.0, "scale": 0.5}
    return _config(tmp_path, "informative", [
        {"id": "ln-prior", "severity_family": "lognormal", "freq_prior": freq_prior,
         "sev_prior": {"dof_nu": 4.0, "scale_beta": 6.0, "loc_theta": 1.0, "prec_phi": 2.0},
         **_history(tmp_path, "ln", LOGNORMAL)},
        {"id": "pareto-prior", "severity_family": "pareto", "threshold_L": 1.0,
         "freq_prior": freq_prior, "sev_prior": {"shape": 6.0, "scale": 0.5},
         **_history(tmp_path, "pareto", PARETO)},
    ])


def _runs(config, informative_config, out):
    """The argv of each pinned run; ``out(name)`` is the path of a CSV it writes."""
    experiment = {"track": ["--m-grid", "5,10", "--K", "20000", "--seed", "5"]}
    experiment["bias"] = experiment["track"] + ["--R", "2"]
    for cfg, suffix in ((config, ""), (informative_config, "-informative")):
        yield ["capital", "--config", cfg, "--K", "20000", "--mode", "both", "--workers", "2",
               "--csv", out(f"capital{suffix}")]
        yield ["fit", "--config", cfg, "--csv", out(f"fit{suffix}")]
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
def test_outputs_match_pinned_digests(config, informative_config, tmp_path, capsys):
    paths = {}
    out = lambda name: paths.setdefault(name, str(tmp_path / f"{name}.csv"))
    for argv in _runs(config, informative_config, out):
        assert main(argv) == 0, capsys.readouterr().err
    digests = {name: hashlib.sha256(open(path, "rb").read()).hexdigest()
               for name, path in paths.items()}
    assert digests == DIGESTS
