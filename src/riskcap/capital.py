"""Risk-cell capital API.

Two paths share one simulation engine: the conditional path plugs maximum
likelihood point estimates into the compound-loss simulator; the predictive
path draws a fresh parameter vector from the posterior for every simulated
year, so the resulting quantile carries parameter uncertainty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bayes, estimators
from .bayes import InsufficientDataError, NIXParams, PosteriorState
from .distributions import GammaParams, LognormalParams, ParetoParams, PointParams, RngStream
from .mc_engine import (
    QuantileEstimate,
    estimate_quantile,
    quantile_tail,
    simulate_conditional_sample,
    simulate_predictive_sample,
)

__all__ = [
    "CellModel",
    "LossData",
    "CapitalReport",
    "AGGREGATION_NOTE",
    "fit_mle",
    "fit_posteriors",
    "fit_summary",
    "conditional_capital",
    "predictive_capital",
]

#: Summing per-cell quantiles assumes perfect dependence between risks and is
#: therefore a conservative bank-level figure.
AGGREGATION_NOTE = (
    "bank total is the sum of per-cell quantiles, which is equivalent to "
    "assuming perfect dependence between risk cells (conservative)"
)

#: Warn about an infinite predictive mean when the posterior probability of a
#: Pareto tail index <= 1 exceeds this.
INFINITE_MEAN_PROB_THRESHOLD = 1e-6


@dataclass(frozen=True)
class CellModel:
    """A risk cell: Poisson frequency plus one severity family and priors.

    Priors default to non-informative (improper constant); pass explicit
    GammaParams / NIXParams to use conjugate informative priors. Setting
    ``enforce_finite_mean`` truncates the Pareto tail-index posterior to
    xi > 1 so the predictive loss has a finite mean; a lognormal cell, whose
    mean is always finite, refuses it, and refuses ``threshold_L``, the Pareto
    severity threshold.
    """

    cell_id: str
    severity_family: str  # "lognormal" | "pareto"
    threshold_L: float | None = None
    freq_prior: GammaParams | None = None
    sev_prior: NIXParams | GammaParams | None = None
    truncation: dict | None = None
    enforce_finite_mean: bool = False

    def __post_init__(self):
        if self.severity_family not in ("lognormal", "pareto"):
            raise ValueError(f"unknown severity family: {self.severity_family}")
        if self.severity_family == "pareto":
            if self.threshold_L is None or not self.threshold_L > 0:
                raise ValueError("pareto severity requires a positive threshold_L")
            if self.sev_prior is not None and not isinstance(self.sev_prior, GammaParams):
                raise TypeError("pareto severity prior must be GammaParams")
            names = ("lambda", "xi")
        else:
            if self.threshold_L is not None:
                raise ValueError("threshold_L is the Pareto severity threshold; "
                                 "a lognormal cell takes none")
            if self.sev_prior is not None and not isinstance(self.sev_prior, NIXParams):
                raise TypeError("lognormal severity prior must be NIXParams")
            names = ("lambda", "mu", "sigma_sq")
        for name, (lo, hi) in (self.truncation or {}).items():
            if name not in names or not lo < hi:
                raise ValueError(f"truncation of {name!r} must bound one of {names} by lo < hi")
        if not isinstance(self.enforce_finite_mean, bool):
            raise TypeError(f"enforce_finite_mean must be a bool, got {self.enforce_finite_mean!r}")
        if self.enforce_finite_mean and self.severity_family != "pareto":
            raise ValueError("enforce_finite_mean bounds a Pareto tail index; "
                             "a lognormal cell's mean is always finite")


@dataclass(frozen=True)
class LossData:
    """Observed history: annual event counts plus individual severities."""

    annual_counts: np.ndarray
    severities: np.ndarray

    def __post_init__(self):
        counts = np.asarray(self.annual_counts, dtype=float)
        # Checked before the int cast, which would turn 2.7 into 2 and nan into garbage.
        bad = ~np.isfinite(counts) | (counts != np.floor(counts))
        if np.any(bad):
            raise ValueError(
                f"annual counts must be integers; {int(bad.sum())} of {counts.size} are not, "
                f"the first is {float(counts[bad][0])!r}"
            )
        counts = counts.astype(int)
        sev = np.asarray(self.severities, dtype=float)
        for bad, what in ((~np.isfinite(sev), "finite"), (sev <= 0, "positive")):
            if np.any(bad):
                raise ValueError(
                    f"severities must be {what}; {int(bad.sum())} of {sev.size} are not, "
                    f"the first is {float(sev[bad][0])!r}"
                )
        object.__setattr__(self, "annual_counts", counts)
        object.__setattr__(self, "severities", sev)
        if counts.size < 1:
            raise ValueError("at least one observation year is required")
        if np.any(counts < 0):
            raise ValueError("annual counts must be non-negative")
        if sev.size != counts.sum():
            raise ValueError(
                f"severity count {sev.size} does not match total annual counts {counts.sum()}"
            )

    @property
    def years(self) -> int:
        return self.annual_counts.size


@dataclass(frozen=True)
class CapitalReport:
    """One capital figure for one cell, with its warnings."""

    cell_id: str
    mode: str  # "conditional" | "predictive"
    estimate: QuantileEstimate
    warnings: tuple = ()


def fit_mle(model: CellModel, data: LossData) -> PointParams:
    """Maximum-likelihood point estimates: the conditional path's point."""
    try:
        lam = estimators.mle_poisson(data.annual_counts)
        if model.severity_family == "lognormal":
            severity = LognormalParams(*estimators.mle_lognormal(data.severities))
        else:
            xi = estimators.mle_pareto(data.severities, model.threshold_L)
            severity = ParetoParams(xi=xi, threshold_L=model.threshold_L)
        return PointParams(lam=lam, severity=severity)
    except ValueError as e:  # too little data for a point estimate
        raise InsufficientDataError(f"cell {model.cell_id!r}: {e}") from e


def fit_posteriors(model: CellModel, data: LossData) -> tuple[PosteriorState, PosteriorState]:
    """Conjugate posteriors for frequency and severity, each built with its final
    truncation (``enforce_finite_mean`` adds xi > 1); a prior of None is flat."""
    bounds = dict(model.truncation or {})
    freq_bounds = {"lambda": bounds.pop("lambda")} if "lambda" in bounds else None
    if model.severity_family == "pareto" and model.enforce_finite_mean:
        lo, hi = bounds.get("xi", (-math.inf, math.inf))
        bounds["xi"] = (max(lo, 1.0), hi)
    sev, L = data.severities, model.threshold_L
    try:
        freq = bayes.poisson_posterior(model.freq_prior, data.annual_counts)
        post_freq = PosteriorState("poisson-rate", freq, truncation=freq_bounds)
        if model.severity_family == "lognormal":
            nix = bayes.lognormal_posterior(model.sev_prior, np.log(sev))
            post_sev = PosteriorState("lognormal", nix, truncation=bounds or None)
        else:
            g = bayes.pareto_posterior(model.sev_prior, sev, L)
            post_sev = PosteriorState("pareto-tail", g, truncation=bounds or None, threshold_L=L)
    except ValueError as e:  # too little data, an improper posterior, or a massless truncation
        raise InsufficientDataError(f"cell {model.cell_id!r}: {e}") from e
    return post_freq, post_sev


def fit_summary(mle: PointParams | None, post_freq: PosteriorState,
                post_sev: PosteriorState) -> dict:
    """Each parameter's MLE with its exact 0.95 posterior credible interval.

    Maps the parameter name to ``(estimate, lower, upper)``; every estimate is
    None when ``mle`` is, for a history that only informative priors carry.
    Lognormal cells report ``sigma``, whose interval is the square root of
    the ``sigma_sq`` interval.
    """
    iv = {**bayes.credible_interval(post_freq, 0.95), **bayes.credible_interval(post_sev, 0.95)}
    if "sigma_sq" in iv:
        iv["sigma"] = tuple(float(np.sqrt(v)) for v in iv.pop("sigma_sq"))
    point = {}
    if mle is not None:
        sev = mle.severity
        point = ({"lambda": mle.lam, "mu": sev.mu, "sigma": float(np.sqrt(sev.sigma_sq))}
                 if isinstance(sev, LognormalParams) else {"lambda": mle.lam, "xi": sev.xi})
    return {name: (point.get(name), *bounds) for name, bounds in iv.items()}


def conditional_capital(
    model: CellModel,
    data: LossData,
    q: float = 0.999,
    K: int = 10**6,
    gamma: float = 0.95,
    seed: int = 0,
    workers: int = 1,
) -> CapitalReport:
    """Capital at the q-quantile of the loss distribution at the MLE point.

    Parameter uncertainty is ignored on this path.
    """
    rng = RngStream(seed).substream("cell", model.cell_id, "conditional")
    sample = simulate_conditional_sample(fit_mle(model, data), K, rng, workers=workers,
                                         keep=quantile_tail(K, q, gamma))
    est = estimate_quantile(sample, q, gamma)
    return CapitalReport(model.cell_id, "conditional", est, tuple(_common_warnings(est)))


def predictive_capital(
    model: CellModel,
    data: LossData,
    q: float = 0.999,
    K: int = 10**6,
    gamma: float = 0.95,
    seed: int = 0,
    workers: int = 1,
) -> CapitalReport:
    """Capital at the q-quantile of the predictive loss distribution.

    Every simulated year uses a fresh parameter draw from the posterior, so
    both process risk and parameter risk are reflected. No point estimate is
    fitted, so informative priors carry a cell too thin for the MLE.
    """
    post_freq, post_sev = fit_posteriors(model, data)
    rng = RngStream(seed).substream("cell", model.cell_id, "predictive")
    sample = simulate_predictive_sample(post_freq, post_sev, K, rng, workers=workers,
                                        keep=quantile_tail(K, q, gamma))
    est = estimate_quantile(sample, q, gamma)

    warnings = _common_warnings(est)
    if post_sev.family == "pareto-tail":
        p_heavy = bayes.prob_tail_index_below(post_sev, 1.0)
        if p_heavy > INFINITE_MEAN_PROB_THRESHOLD:
            warnings.append(
                f"predictive loss has infinite mean: Pr[xi <= 1] = {p_heavy:.3g} "
                "under the posterior; consider enforce_finite_mean"
            )

    return CapitalReport(model.cell_id, "predictive", est, tuple(warnings))


def _common_warnings(est: QuantileEstimate) -> list:
    warnings = []
    if not est.reliable_ci:
        warnings.append(
            "quantile CI is unreliable: K*q*(1-q) < 50, the normal approximation "
            "to the binomial order-statistic count is poor"
        )
    return warnings
