"""Workload definitions and the seeded input generator.

The generator has its own numpy Generator, seeded by the workload seed, and
writes the counts, events and config files that ``riskcap capital`` reads. It
never calls riskcap, so a change to riskcap's samplers leaves the inputs as
they were.

Each history is drawn conditional on its sufficient statistics:

* the event total is exactly ``lambda0 * years``, spread over the years
  multinomially, which is the law of Poisson counts given their sum;
* lognormal log-amounts are a normal sample rescaled to mean ``mu0`` and
  divide-by-n variance ``sigma0**2``;
* Pareto log-excesses ``ln(x / L)`` are an exponential sample rescaled to
  sum ``n / xi0``.

So every seed gives different files but the same MLE and posteriors. The
run-to-run spread then measures the program and its own seed, not the luck
of a 20-year sample, which moves a 1e6-year run by more than the bounds.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: Thread-pool size of every capital call; the benchmark machine has 2 CPUs.
WORKERS = 2
#: Simulated years per capital call, the paper's K.
CAPITAL_K = 10**6


@dataclass(frozen=True)
class Cell:
    id: str
    family: str  # "lognormal" | "pareto"
    lambda0: float
    years: int
    mu0: float = 1.0
    sigma0: float = 2.0
    xi0: float = 2.0
    threshold_L: float = 1.0
    sigma_sq_max: float | None = None  # truncation of the sigma_sq posterior
    enforce_finite_mean: bool = False


@dataclass(frozen=True)
class Study:
    """Arguments of one ``riskcap experiment bias`` call."""

    severity: str
    lambda0: float
    m_grid: tuple
    R: int
    K: int = 10**5
    mu0: float = 1.0
    sigma0: float = 2.0
    xi0: float = 2.0
    threshold_L: float = 1.0
    #: Published 0.999 quantile at the true parameters, if there is one.
    anchor: float | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    cells: tuple
    study: Study
    #: Call kinds that fill the closed loop; the others run whenever their
    #: share of the call time falls below ``worker.SECONDARY_SHARE``.
    primary: tuple


# Why each workload exists is in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="capital-ln",
            cells=(Cell("ln-ref", "lognormal", 10.0, 20),),
            study=Study("lognormal", 10.0, (20,), R=2, anchor=4900.0),
            primary=("conditional", "predictive"),
        ),
        Workload(
            name="capital-tail",
            cells=(
                Cell("pareto-tail", "pareto", 2.0, 20, enforce_finite_mean=True),
                Cell("ln-trunc", "lognormal", 2.0, 20, sigma_sq_max=6.0),
            ),
            study=Study("pareto", 2.0, (20,), R=2),
            primary=("conditional", "predictive"),
        ),
        Workload(
            name="bias-desk",
            cells=(Cell("ln-desk", "lognormal", 10.0, 40),),
            study=Study("lognormal", 10.0, (5, 40, 400), R=20, anchor=4900.0),
            primary=("study",),
        ),
    )
}

CAPITAL_MODES = ("conditional", "predictive")


def cell_history(cell: Cell, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Annual counts and amounts of one cell with exact sufficient statistics."""
    n = int(round(cell.lambda0 * cell.years))
    counts = rng.multinomial(n, np.full(cell.years, 1.0 / cell.years))
    if cell.family == "lognormal":
        z = rng.standard_normal(n)
        z = (z - z.mean()) / z.std()
        amounts = np.exp(cell.mu0 + cell.sigma0 * z)
    else:
        e = rng.standard_exponential(n)
        e *= (n / cell.xi0) / e.sum()
        amounts = cell.threshold_L * np.exp(e)
    return counts, amounts


def write_inputs(workload: Workload, seed: int, directory: Path) -> tuple[Path, list]:
    """Write the workload's loss files and config; return the config path and
    the (cell, counts, amounts) triples as they read back from the files."""
    directory.mkdir(parents=True, exist_ok=True)
    cells_cfg = []
    histories = []
    for index, cell in enumerate(workload.cells):
        counts, amounts = cell_history(cell, np.random.default_rng([seed, 0, index]))
        counts_path = directory / f"{cell.id}-counts.csv"
        events_path = directory / f"{cell.id}-events.csv"
        with open(counts_path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["year", "count"])
            w.writerows([year + 1, int(c)] for year, c in enumerate(counts))
        text_amounts = [repr(float(a)) for a in amounts]
        with open(events_path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["year", "amount"])
            years = np.repeat(np.arange(1, cell.years + 1), counts)
            w.writerows(zip(years.tolist(), text_amounts))
        entry = {
            "id": cell.id,
            "severity_family": cell.family,
            "counts_file": str(counts_path),
            "events_file": str(events_path),
        }
        if cell.family == "pareto":
            entry["threshold_L"] = cell.threshold_L
            entry["enforce_finite_mean"] = cell.enforce_finite_mean
        if cell.sigma_sq_max is not None:
            entry["truncation"] = {"sigma_sq": [None, cell.sigma_sq_max]}
        cells_cfg.append(entry)
        histories.append((cell, counts, np.array([float(a) for a in text_amounts])))
    config_path = directory / "config.json"
    config_path.write_text(json.dumps({"cells": cells_cfg}, indent=1))
    return config_path, histories


def mle(cell: Cell, counts: np.ndarray, amounts: np.ndarray) -> dict:
    """Maximum-likelihood estimates, computed here and not by riskcap."""
    out = {"lambda": float(counts.mean())}
    if cell.family == "lognormal":
        y = np.log(amounts)
        out["mu"] = float(y.mean())
        out["sigma_sq"] = float(np.mean((y - y.mean()) ** 2))
    else:
        out["xi"] = float(amounts.size / np.sum(np.log(amounts / cell.threshold_L)))
    return out


def program_seed(seed: int, index: int) -> int:
    """Seed passed to riskcap for repetition *index*, derived from the workload seed."""
    return int(np.random.SeedSequence([seed, 1, index]).generate_state(1, np.uint64)[0] >> 33)


def sim_years_of_study(study: Study, k_reference: int) -> int:
    """Annual losses one bias study simulates: the reference run plus a
    conditional and a predictive run per (year count, realization)."""
    return k_reference + 2 * len(study.m_grid) * study.R * study.K


def study_argv(study: Study, seed: int, out: Path) -> list[str]:
    argv = ["experiment", "bias", "--severity", study.severity,
            "--lambda0", repr(study.lambda0)]
    if study.severity == "lognormal":
        argv += ["--mu0", repr(study.mu0), "--sigma0", repr(study.sigma0)]
    else:
        argv += ["--xi0", repr(study.xi0), "--threshold-L", repr(study.threshold_L)]
    argv += ["--m-grid", ",".join(str(m) for m in study.m_grid), "--R", str(study.R),
             "--K", str(study.K), "--seed", str(seed), "--out", str(out)]
    return argv


def capital_argv(config: Path, mode: str, workers: int, seed: int, out: Path) -> list[str]:
    return ["capital", "--config", str(config), "--mode", mode, "--K", str(CAPITAL_K),
            "--workers", str(workers), "--seed", str(seed), "--csv", str(out)]


def study_params(study: Study) -> dict:
    """The study's true parameters, in the form :func:`mle` returns."""
    if study.severity == "lognormal":
        return {"lambda": study.lambda0, "mu": study.mu0, "sigma_sq": study.sigma0**2}
    return {"lambda": study.lambda0, "xi": study.xi0}
