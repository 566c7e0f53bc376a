"""Risk-cell and bank-level capital API.

Two paths share one simulation engine: the conditional path plugs maximum
likelihood point estimates into the compound-loss simulator; the predictive
path draws a fresh parameter vector from the posterior for every simulated
year, so the resulting quantile carries parameter uncertainty.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bayes, estimators
from .bayes import NIXParams, PosteriorState
from .distributions import GammaParams, LognormalParams, ParetoParams, PoissonParams, RngStream
from .estimators import MleReport
from .mc_engine import (
    QuantileEstimate,
    estimate_quantile,
    simulate_conditional_sample,
    simulate_predictive_sample,
)

__all__ = [
    "CellModel",
    "LossData",
    "CapitalReport",
    "AGGREGATION_NOTE",
    "conditional_capital",
    "predictive_capital",
    "aggregate_bank_capital",
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
    xi > 1 so the predictive loss has a finite mean.
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
        else:
            if self.sev_prior is not None and not isinstance(self.sev_prior, NIXParams):
                raise TypeError("lognormal severity prior must be NIXParams")


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
        bad = ~np.isfinite(sev)
        if np.any(bad):
            raise ValueError(
                f"severities must be finite; {int(bad.sum())} of {sev.size} are not, "
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
    """One capital figure for one cell, with fit context and warnings."""

    cell_id: str
    mode: str  # "conditional" | "predictive"
    estimate: QuantileEstimate
    mle: MleReport
    warnings: tuple = ()


def fit_mle(model: CellModel, data: LossData) -> MleReport:
    """Maximum-likelihood point estimates for the cell's families."""
    lam = estimators.mle_poisson(data.annual_counts)
    if model.severity_family == "lognormal":
        mu, s2 = estimators.mle_lognormal(data.severities)
        return MleReport(
            family="lognormal",
            lambda_hat=lam,
            years=data.years,
            event_count=int(data.severities.size),
            mu_hat=mu,
            sigma_sq_hat=s2,
        )
    xi = estimators.mle_pareto(data.severities, model.threshold_L)
    return MleReport(
        family="pareto",
        lambda_hat=lam,
        years=data.years,
        event_count=int(data.severities.size),
        xi_hat=xi,
    )


def fit_posteriors(model: CellModel, data: LossData) -> tuple[PosteriorState, PosteriorState]:
    """Conjugate (or non-informative) posteriors for frequency and severity."""
    if model.freq_prior is not None:
        freq_gamma = bayes.update_poisson_gamma(model.freq_prior, data.annual_counts)
    else:
        freq_gamma = bayes.noninformative_poisson(data.annual_counts)
    post_freq = PosteriorState(family="poisson-rate", params=freq_gamma)

    if model.severity_family == "lognormal":
        log_sev = np.log(data.severities)
        if model.sev_prior is not None:
            nix = bayes.update_lognormal(model.sev_prior, log_sev)
        else:
            nix = bayes.noninformative_lognormal(log_sev)
        post_sev = PosteriorState(family="lognormal", params=nix)
    else:
        if model.sev_prior is not None:
            g = bayes.update_pareto(model.sev_prior, data.severities, model.threshold_L)
        else:
            g = bayes.noninformative_pareto(data.severities, model.threshold_L)
        post_sev = PosteriorState(family="pareto-tail", params=g, threshold_L=model.threshold_L)
        if model.enforce_finite_mean:
            post_sev = bayes.truncate_posterior(post_sev, {"xi": (1.0, float("inf"))})

    if model.truncation:
        freq_bounds = {k: v for k, v in model.truncation.items() if k == "lambda"}
        sev_bounds = {k: v for k, v in model.truncation.items() if k != "lambda"}
        if freq_bounds:
            post_freq = bayes.truncate_posterior(post_freq, freq_bounds)
        if sev_bounds:
            post_sev = bayes.truncate_posterior(post_sev, sev_bounds)
    return post_freq, post_sev


def fit_summary(mle: MleReport, post_freq: PosteriorState, post_sev: PosteriorState,
                rng: RngStream | None = None) -> dict:
    """Each parameter's MLE with its 0.95 posterior credible interval.

    Maps the parameter name to ``(estimate, lower, upper)``. Lognormal cells
    report ``sigma``, whose interval is the square root of the ``sigma_sq``
    interval. ``rng`` is needed only by a truncated lognormal posterior.
    """
    summary = {"lambda": (mle.lambda_hat, *bayes.credible_interval(post_freq, 0.95)["lambda"])}
    iv = bayes.credible_interval(post_sev, 0.95, rng)
    if mle.family == "lognormal":
        summary["mu"] = (mle.mu_hat, *iv["mu"])
        summary["sigma"] = tuple(float(np.sqrt(v)) for v in (mle.sigma_sq_hat, *iv["sigma_sq"]))
    else:
        summary["xi"] = (mle.xi_hat, *iv["xi"])
    return summary


def _severity_point_params(model: CellModel, mle: MleReport):
    if model.severity_family == "lognormal":
        return LognormalParams(mu=mle.mu_hat, sigma_sq=mle.sigma_sq_hat)
    return ParetoParams(xi=mle.xi_hat, threshold_L=model.threshold_L)


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
    mle = fit_mle(model, data)
    if mle.lambda_hat <= 0:
        raise ValueError(
            "fitted Poisson rate is 0 (no events observed); the compound loss "
            "model is degenerate and no capital simulation is possible"
        )
    freq = PoissonParams(lam=mle.lambda_hat)
    sev = _severity_point_params(model, mle)
    rng = RngStream(seed).substream("cell", model.cell_id, "conditional")
    sample = simulate_conditional_sample(freq, sev, K, rng, workers=workers)
    est = estimate_quantile(sample, q, gamma)
    warnings = _common_warnings(est)
    return CapitalReport(
        cell_id=model.cell_id, mode="conditional", estimate=est, mle=mle, warnings=tuple(warnings)
    )


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
    both process risk and parameter risk are reflected.
    """
    mle = fit_mle(model, data)
    post_freq, post_sev = fit_posteriors(model, data)
    rng = RngStream(seed).substream("cell", model.cell_id, "predictive")
    sample = simulate_predictive_sample(post_freq, post_sev, K, rng, workers=workers)
    est = estimate_quantile(sample, q, gamma)

    warnings = _common_warnings(est)
    if post_sev.family == "pareto-tail":
        p_heavy = bayes.prob_tail_index_below(post_sev, 1.0)
        if p_heavy > INFINITE_MEAN_PROB_THRESHOLD:
            warnings.append(
                f"predictive loss has infinite mean: Pr[xi <= 1] = {p_heavy:.3g} "
                "under the posterior; consider enforce_finite_mean"
            )

    return CapitalReport(
        cell_id=model.cell_id, mode="predictive", estimate=est, mle=mle, warnings=tuple(warnings)
    )


def _common_warnings(est: QuantileEstimate) -> list:
    warnings = []
    if not est.reliable_ci:
        warnings.append(
            "quantile CI is unreliable: K*q*(1-q) < 50, the normal approximation "
            "to the binomial order-statistic count is poor"
        )
    return warnings


def aggregate_bank_capital(reports) -> dict:
    """Sum per-cell capital into a bank total (perfect-dependence assumption).

    All reports must share the same mode and quantile level. Returns the
    total, a per-cell breakdown, and the conservatism note.
    """
    reports = list(reports)
    if not reports:
        raise ValueError("at least one capital report is required")
    modes = {r.mode for r in reports}
    qs = {r.estimate.q for r in reports}
    if len(modes) > 1 or len(qs) > 1:
        raise ValueError(
            f"cannot aggregate mixed reports: modes={sorted(modes)}, q levels={sorted(qs)}"
        )
    breakdown = {r.cell_id: r.estimate.value for r in reports}
    return {
        "total": float(sum(breakdown.values())),
        "breakdown": breakdown,
        "mode": reports[0].mode,
        "q": reports[0].estimate.q,
        "note": AGGREGATION_NOTE,
    }
