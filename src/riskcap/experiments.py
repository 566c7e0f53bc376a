"""Synthetic-data studies of the capital bias induced by parameter uncertainty.

Two tracks:

* a single growing realization (nested datasets across the year grid),
  reporting fits, posterior intervals, and both capital quantiles per row;
* a bias study averaging the predictive-minus-conditional quantile gap over
  many independent realizations, normalized by the true-parameter quantile
  Q0, which Asmussen and Kroese's conditional Monte Carlo estimator
  (:func:`~riskcap.mc_engine.ak_quantile`) gives from ``REFERENCE_YEARS`` years.

Quantiles in the per-row records are reported in thousands of loss units for
comparability with published tables.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .capital import CellModel, LossData, fit_mle, fit_posteriors, fit_summary
from .distributions import ParetoParams, PointParams, RngStream, sample_severities
from .mc_engine import (NonFiniteLossError, ak_quantile, empirical_quantile, quantile_tail,
                        simulate_pair)
# Unused here: perfbench's tracer patches these names on this module.
from .mc_engine import simulate_conditional_sample, simulate_predictive_sample  # noqa: F401

__all__ = [
    "BiasRecord",
    "BiasCurve",
    "generate_synthetic",
    "single_realization_track",
    "bias_study",
]

#: Years of the estimator behind the bias study's Q0: about 0.2% relative sd on the
#: reference lognormal cell (lam=10, mu=1, sigma=2) and 0.4% on a lam=2, xi=2 Pareto one.
REFERENCE_YEARS = 10**4


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
    """Simulate M years of counts, then the matching severities in year order.

    The counts come from one substream and the severities from another, each
    drawn in order, so for a fixed stream the dataset at M years is an exact
    prefix of the dataset at any larger M (one growing loss history).
    """
    if M < 1:
        raise ValueError("M must be at least 1")
    counts = rng.substream("counts").generator.poisson(true_model.lam, M)
    severities = sample_severities(int(counts.sum()), rng.substream("severities").generator,
                                   **true_model.sampler_args())
    return LossData(annual_counts=counts, severities=severities)


def _fit_and_quantiles(true_model, data: LossData, q, K_sims, stream: RngStream, workers: int = 1,
                       realization: int | None = None):
    """MLE fit, non-informative posteriors, and both quantiles for one dataset.

    Both quantiles come from one :func:`simulate_pair` of K_sims years a mode on
    ``stream``, which shares their severity draws. Non-finite losses
    raise :class:`NonFiniteLossError` naming the history, the ``realization`` when
    given, and the mode. Returns ``(q_conditional, q_predictive, mle, (post_freq,
    post_sev))``.
    """
    name = f"synthetic {data.years}-year history"
    if isinstance(true_model.severity, ParetoParams):
        model = CellModel(name, "pareto", threshold_L=true_model.severity.threshold_L)
    else:
        model = CellModel(name, "lognormal")
    mle = fit_mle(model, data)
    posteriors = fit_posteriors(model, data)
    keep = quantile_tail(K_sims, q)
    try:
        cond, pred = simulate_pair(mle, *posteriors, K_sims, stream.substream("pair"), workers,
                                   keep=keep)
    except NonFiniteLossError as e:
        where = f"cell {name!r}" + ("" if realization is None else f", realization {realization}")
        raise NonFiniteLossError(f"{where}: {e}") from e
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
    A row's two quantiles share their severity draws (:func:`simulate_pair`).
    Each row's simulation runs on ``workers`` threads; the records do not
    depend on it.
    """
    M_grid = list(M_grid)
    if not M_grid or sorted(M_grid) != M_grid:
        raise ValueError("M_grid must be non-empty and ascending")
    rng = RngStream(seed)
    records = []
    for M in M_grid:
        data = generate_synthetic(true_model, M, rng.substream("data"))
        q_cond, q_pred, mle, (post_freq, post_sev) = _fit_and_quantiles(
            true_model, data, q, K_sims, rng.substream("track", M), workers
        )
        records.append(
            BiasRecord(
                M=M,
                K_data=data.severities.size,
                estimates=fit_summary(mle, post_freq, post_sev),
                q_conditional=q_cond / 1e3,
                q_predictive=q_pred / 1e3,
            )
        )
    return records


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
    thread, and the curve does not depend on the worker count. Each task's two
    quantiles come from one :func:`simulate_pair`, so its gap has far less
    Monte Carlo noise than two independent simulations give it. The reference
    Q0 comes first, on the calling thread: :func:`ak_quantile` over
    ``K_reference`` years at the true point.
    """
    if R < 1:
        raise ValueError("R must be at least 1")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    M_grid = list(M_grid)
    rng = RngStream(seed)
    q0 = ak_quantile(true_model, K_reference, rng.substream("reference"), q)
    if not q0 > 0:  # refused before the realizations are simulated
        raise ValueError("reference quantile must be positive")

    def gap(task):
        M, r = task
        stream = rng.substream("bias", r, M)
        data = generate_synthetic(true_model, M, stream.substream("data"))
        q_cond, q_pred, _, _ = _fit_and_quantiles(true_model, data, q, K_sims, stream,
                                                  realization=r)
        return q_pred - q_cond

    tasks = [(M, r) for M in M_grid for r in range(R)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        gaps = list(pool.map(gap, tasks))
    # Row i holds the gaps of year count M_grid[i] in realization order.
    rows = np.array(gaps).reshape(len(M_grid), R)
    points = [(M, float(row.mean() / q0)) for M, row in zip(M_grid, rows)]
    return BiasCurve(points=tuple(points), realizations=R, reference_quantile=q0)
