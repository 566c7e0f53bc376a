"""Maximum-likelihood point estimators for the frequency/severity families."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["MleReport", "mle_poisson", "mle_lognormal", "mle_pareto"]


@dataclass(frozen=True)
class MleReport:
    """Point estimates for one risk cell's frequency and severity."""

    family: str
    lambda_hat: float
    mu_hat: float | None = None
    sigma_sq_hat: float | None = None
    xi_hat: float | None = None


def mle_poisson(counts) -> float:
    """MLE of the Poisson rate: the sample mean of annual counts.

    An all-zero history yields 0.0, which is outside the model support;
    downstream simulation rejects it with a clear diagnostic.
    """
    counts = np.asarray(counts, dtype=float)
    if counts.size == 0:
        raise ValueError("at least one observation year is required")
    return float(counts.mean())


def mle_lognormal(severities) -> tuple[float, float]:
    """MLE of (mu, sigma_sq) from positive severities.

    sigma_sq uses the divide-by-n convention so it matches the
    non-informative posterior mode exactly.
    """
    x = np.asarray(severities, dtype=float)
    if x.size < 2:
        raise ValueError("at least two severities are required")
    if np.any(x <= 0):
        raise ValueError("severities must be strictly positive")
    y = np.log(x)
    mu_hat = float(y.mean())
    sigma_sq_hat = float(np.mean((y - mu_hat) ** 2))
    if sigma_sq_hat <= 0:
        raise ValueError("severities have zero log-scale variance")
    return mu_hat, sigma_sq_hat


def mle_pareto(severities, threshold_L: float) -> float:
    """MLE of the Pareto tail index: n / sum(ln(X_i / L))."""
    x = np.asarray(severities, dtype=float)
    if x.size == 0:
        raise ValueError("at least one severity is required")
    if np.any(x < threshold_L):
        raise ValueError("severity below threshold")
    log_ratio = float(np.sum(np.log(x / threshold_L)))
    if log_ratio <= 0:
        raise ValueError("all severities sit at the threshold; tail index is unidentified")
    return x.size / log_ratio
