"""Synthetic-data studies of the capital bias induced by parameter uncertainty.

Two tracks:

* a single growing realization (nested datasets across the year grid),
  reporting fits, posterior intervals, and both capital quantiles per row;
* a bias study averaging the predictive-minus-conditional quantile gap over
  many independent realizations, normalized by the true-parameter quantile.

Quantiles in the per-row records are reported in thousands of loss units for
comparability with published tables.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .capital import CellModel, LossData, fit_mle, fit_posteriors, fit_summary
from .distributions import ParetoParams, PointParams, RngStream, sample_severities
from .mc_engine import empirical_quantile, simulate_conditional_sample, simulate_predictive_sample

__all__ = [
    "BiasRecord",
    "BiasCurve",
    "generate_synthetic",
    "single_realization_track",
    "bias_study",
]

REFERENCE_YEARS = 10**6  #: years the bias study simulates at the true point


@dataclass(frozen=True)
class BiasRecord:
    """One row of the single-realization track.

    ``estimates`` is :func:`fit_summary`'s dict: each parameter's (point
    estimate, interval lower, interval upper) with 0.95 equal-tail posterior
    intervals. Quantiles are in thousands.
    """

    M: int
    K_data: int
    estimates: dict
    q_conditional: float
    q_predictive: float


@dataclass(frozen=True)
class BiasCurve:
    """Relative bias E[Q_predictive - Q_conditional] / Q0 per year count."""

    points: tuple  # of (M, relative_bias)
    realizations: int
    reference_quantile: float

    def __post_init__(self):
        if self.realizations < 1:
            raise ValueError("at least one realization is required")
        if not self.reference_quantile > 0:
            raise ValueError("reference quantile must be positive")


def generate_synthetic(true_model: PointParams, M: int, rng: RngStream) -> LossData:
    """Simulate M years of counts and the matching severities.

    Each year consumes its own substream, so for a fixed stream the dataset
    at M years is an exact prefix of the dataset at any larger M (one
    growing loss history).
    """
    if M < 1:
        raise ValueError("M must be at least 1")
    sev = true_model.sampler_args()
    counts = np.empty(M, dtype=int)
    sev_chunks = []
    for m in range(M):
        gen = rng.substream("year", m).generator
        n = int(gen.poisson(true_model.lam))
        counts[m] = n
        sev_chunks.append(sample_severities(n, gen, **sev))
    severities = np.concatenate(sev_chunks) if sev_chunks else np.array([])
    return LossData(annual_counts=counts, severities=severities)


def _fit_and_quantiles(true_model, data: LossData, q, K_sims, stream: RngStream, workers: int = 1):
    """MLE fit, non-informative posteriors, and both quantiles for one dataset.

    Returns ``(q_conditional, q_predictive, mle, (post_freq, post_sev))``.
    """
    if isinstance(true_model.severity, ParetoParams):
        model = CellModel("synthetic", "pareto", threshold_L=true_model.severity.threshold_L)
    else:
        model = CellModel("synthetic", "lognormal")
    mle = fit_mle(model, data)
    posteriors = fit_posteriors(model, data)
    cond = simulate_conditional_sample(mle, K_sims, stream.substream("cond"), workers=workers)
    pred = simulate_predictive_sample(*posteriors, K_sims, stream.substream("pred"), workers=workers)
    return empirical_quantile(cond, q), empirical_quantile(pred, q), mle, posteriors


def single_realization_track(
    true_model: PointParams,
    M_grid,
    q: float = 0.999,
    K_sims: int = 10**6,
    seed: int = 0,
    workers: int = 1,
) -> list[BiasRecord]:
    """Fits and capital quantiles along one growing loss history.

    The dataset at a larger M extends the dataset at a smaller M as a prefix,
    so each row shows how the same history resolves parameter uncertainty.
    Each row's simulations run on ``workers`` threads; the records do not
    depend on it.
    """
    M_grid = list(M_grid)
    if not M_grid or sorted(M_grid) != M_grid:
        raise ValueError("M_grid must be non-empty and ascending")
    rng = RngStream(seed)
    full = generate_synthetic(true_model, M_grid[-1], rng.substream("data"))

    records = []
    for M in M_grid:
        counts = full.annual_counts[:M]
        n = int(counts.sum())
        data = LossData(annual_counts=counts, severities=full.severities[:n])
        stream = rng.substream("track", M)
        q_cond, q_pred, mle, (post_freq, post_sev) = _fit_and_quantiles(
            true_model, data, q, K_sims, stream, workers
        )
        records.append(
            BiasRecord(
                M=M,
                K_data=n,
                estimates=fit_summary(mle, post_freq, post_sev),
                q_conditional=q_cond / 1e3,
                q_predictive=q_pred / 1e3,
            )
        )
    return records


def true_parameter_quantile(
    true_model: PointParams, q: float, K: int, rng: RngStream, workers: int = 1
) -> float:
    """Quantile of the annual loss at the true parameters (the bias reference)."""
    return empirical_quantile(simulate_conditional_sample(true_model, K, rng, workers), q)


def bias_study(
    true_model: PointParams,
    M_grid,
    R: int = 100,
    q: float = 0.999,
    K_sims: int = 10**6,
    seed: int = 0,
    K_reference: int = REFERENCE_YEARS,
    workers: int = 1,
) -> BiasCurve:
    """Average predictive-vs-conditional quantile gap over R realizations.

    Each (realization, M) pair uses an independent derived stream, so the
    pairs run concurrently on ``workers`` threads, each simulating on one
    thread, and the curve does not depend on the worker count. The reference
    run comes first, with its batches on the same number of threads.
    """
    if R < 1:
        raise ValueError("R must be at least 1")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    M_grid = list(M_grid)
    rng = RngStream(seed)
    q0 = true_parameter_quantile(true_model, q, K_reference, rng.substream("reference"), workers)

    def gap(task):
        M, r = task
        stream = rng.substream("bias", r, M)
        data = generate_synthetic(true_model, M, stream.substream("data"))
        q_cond, q_pred, _, _ = _fit_and_quantiles(true_model, data, q, K_sims, stream)
        return q_pred - q_cond

    tasks = [(M, r) for M in M_grid for r in range(R)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        gaps = list(pool.map(gap, tasks))
    # Row i holds the gaps of year count M_grid[i] in realization order.
    rows = np.array(gaps).reshape(len(M_grid), R)
    points = [(M, float(row.mean() / q0)) for M, row in zip(M_grid, rows)]
    return BiasCurve(points=tuple(points), realizations=R, reference_quantile=q0)
