"""Conjugate posterior updates, posterior sampling, and the Gaussian
(Laplace) approximation.

Three conjugate pairs are supported:

* Poisson rate with a Gamma prior;
* Lognormal (mu, sigma_sq) with a Normal-Inverse-Chi-squared prior;
* Pareto tail index with a Gamma prior.

Non-informative (improper constant) priors yield posteriors whose mode
coincides with the maximum-likelihood estimate; this identity is enforced
by the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .distributions import GammaParams, RngStream

__all__ = [
    "NIXParams",
    "PosteriorState",
    "LaplaceResult",
    "InsufficientDataError",
    "update_poisson_gamma",
    "noninformative_poisson",
    "update_lognormal",
    "noninformative_lognormal",
    "update_pareto",
    "noninformative_pareto",
    "truncate_posterior",
    "sample_posterior",
    "credible_interval",
    "prob_tail_index_below",
    "laplace_approximation",
]

# Rejection sampling from a truncated posterior refuses to proceed when the
# acceptance rate over a probe batch falls below this.
MIN_TRUNCATION_ACCEPTANCE = 1e-4


class InsufficientDataError(ValueError):
    """Too little data for a proper posterior, or no posterior mass in a truncation region."""


@dataclass(frozen=True)
class NIXParams:
    """Normal-Inverse-Chi-squared parameters for the lognormal model.

    sigma_sq ~ InvChiSq(dof_nu, scale_beta) and, given sigma_sq,
    mu ~ Normal(loc_theta, sigma_sq / prec_phi).
    """

    dof_nu: float
    scale_beta: float
    loc_theta: float
    prec_phi: float

    def __post_init__(self):
        if not self.scale_beta > 0:
            raise ValueError(f"scale_beta must be positive, got {self.scale_beta}")
        if not self.prec_phi > 0:
            raise ValueError(f"prec_phi must be positive, got {self.prec_phi}")


@dataclass(frozen=True)
class PosteriorState:
    """A tagged conjugate posterior, optionally truncated.

    ``family`` is one of ``poisson-rate``, ``lognormal``, ``pareto-tail``.
    ``truncation`` maps parameter names ("lambda", "xi", "mu", "sigma_sq")
    to (lower, upper) bounds; use -inf/inf for one-sided bounds.
    ``threshold_L`` is the Pareto severity threshold, carried alongside the
    tail-index posterior so predictive simulation can draw severities.
    """

    family: str
    params: GammaParams | NIXParams
    truncation: dict | None = None
    threshold_L: float | None = None

    def __post_init__(self):
        if self.threshold_L is not None and not self.threshold_L > 0:
            raise ValueError(f"threshold_L must be positive, got {self.threshold_L}")
        if self.family in ("poisson-rate", "pareto-tail"):
            if not isinstance(self.params, GammaParams):
                raise TypeError(f"{self.family} posterior requires GammaParams")
        elif self.family == "lognormal":
            if not isinstance(self.params, NIXParams):
                raise TypeError("lognormal posterior requires NIXParams")
        else:
            raise ValueError(f"unknown posterior family: {self.family}")
        if self.truncation is not None:
            for name, (lo, hi) in self.truncation.items():
                if name not in self.param_names:
                    raise ValueError(f"unknown parameter {name!r} for {self.family}")
                if not lo < hi:
                    raise ValueError(f"empty truncation range for {name!r}: ({lo}, {hi})")

    @property
    def param_names(self) -> tuple:
        if self.family == "poisson-rate":
            return ("lambda",)
        if self.family == "pareto-tail":
            return ("xi",)
        return ("mu", "sigma_sq")

    def bounds(self, name: str) -> tuple:
        if self.truncation and name in self.truncation:
            return self.truncation[name]
        return (-math.inf, math.inf)


@dataclass(frozen=True)
class LaplaceResult:
    """Gaussian posterior approximation: mode and inverse-information covariance."""

    mode: np.ndarray
    covariance: np.ndarray


# ---------------------------------------------------------------------------
# Conjugate updates


def update_poisson_gamma(prior: GammaParams, counts) -> GammaParams:
    """Posterior Gamma for the Poisson rate after observing annual counts."""
    counts = np.asarray(counts, dtype=float)
    _check_counts(counts)
    n = counts.size
    if n == 0:
        return prior
    shape = prior.shape + counts.sum()
    scale = prior.scale / (1.0 + prior.scale * n)
    return GammaParams(shape=shape, scale=scale)


def noninformative_poisson(counts) -> GammaParams:
    """Posterior Gamma for the Poisson rate under a flat prior.

    Mode (shape - 1) * scale equals the sample mean count.
    """
    counts = np.asarray(counts, dtype=float)
    if counts.size == 0:
        raise InsufficientDataError("at least one observation year is required")
    _check_counts(counts)
    return GammaParams(shape=counts.sum() + 1.0, scale=1.0 / counts.size)


def _check_counts(counts):
    if counts.size and (np.any(counts < 0) or np.any(counts != np.floor(counts))):
        raise ValueError("annual counts must be non-negative integers")


def update_lognormal(prior: NIXParams, log_severities) -> NIXParams:
    """Posterior NIX parameters after observing log severities Y = ln X."""
    y = np.asarray(log_severities, dtype=float)
    n = y.size
    if n == 0:
        return prior
    ybar = y.mean()
    y2bar = np.mean(y**2)
    phi_hat = prior.prec_phi + n
    theta_hat = (prior.prec_phi * prior.loc_theta + n * ybar) / phi_hat
    beta_hat = (
        prior.scale_beta
        + prior.prec_phi * prior.loc_theta**2
        + n * y2bar
        - (prior.prec_phi * prior.loc_theta + n * ybar) ** 2 / phi_hat
    )
    return NIXParams(
        dof_nu=prior.dof_nu + n,
        scale_beta=beta_hat,
        loc_theta=theta_hat,
        prec_phi=phi_hat,
    )


def noninformative_lognormal(log_severities) -> NIXParams:
    """Posterior NIX parameters under a flat prior on (mu, sigma_sq).

    Requires n >= 4 so the sigma_sq posterior has at least one degree of
    freedom and is samplable.
    """
    y = np.asarray(log_severities, dtype=float)
    n = y.size
    if n < 4:
        raise InsufficientDataError(
            f"insufficient data for non-informative lognormal posterior: "
            f"need at least 4 severities, got {n}"
        )
    ybar = y.mean()
    beta_hat = float(np.sum((y - ybar) ** 2))
    if beta_hat <= 0:
        raise InsufficientDataError("log severities have zero sample variance")
    return NIXParams(dof_nu=n - 3.0, scale_beta=beta_hat, loc_theta=ybar, prec_phi=float(n))


def update_pareto(prior: GammaParams, severities, threshold_L: float) -> GammaParams:
    """Posterior Gamma for the Pareto tail index."""
    x = np.asarray(severities, dtype=float)
    if x.size == 0:
        return prior
    if np.any(x < threshold_L):
        raise ValueError("severity below threshold")
    log_ratio = float(np.sum(np.log(x / threshold_L)))
    shape = prior.shape + x.size
    scale = 1.0 / (1.0 / prior.scale + log_ratio)
    return GammaParams(shape=shape, scale=scale)


def noninformative_pareto(severities, threshold_L: float) -> GammaParams:
    """Posterior Gamma for the Pareto tail index under a flat prior."""
    x = np.asarray(severities, dtype=float)
    if x.size == 0:
        raise InsufficientDataError("at least one severity is required")
    if np.any(x < threshold_L):
        raise ValueError("severity below threshold")
    log_ratio = float(np.sum(np.log(x / threshold_L)))
    if log_ratio <= 0:
        raise InsufficientDataError(
            "all severities sit at the threshold; tail index is unidentified"
        )
    return GammaParams(shape=x.size + 1.0, scale=1.0 / log_ratio)


# ---------------------------------------------------------------------------
# Truncation, sampling, summaries


def truncate_posterior(state: PosteriorState, bounds: dict) -> PosteriorState:
    """Restrict a posterior to per-parameter (lower, upper) bounds.

    The density inside the bounds is unchanged up to renormalization;
    sampling is by rejection from the untruncated posterior.
    """
    merged = dict(state.truncation or {})
    for name, (lo, hi) in bounds.items():
        cur_lo, cur_hi = merged.get(name, (-math.inf, math.inf))
        merged[name] = (max(lo, cur_lo), min(hi, cur_hi))
    new = PosteriorState(
        family=state.family,
        params=state.params,
        truncation=merged,
        threshold_L=state.threshold_L,
    )
    _check_truncation_mass(new)
    return new


def _check_truncation_mass(state: PosteriorState):
    if not state.truncation:
        return
    if isinstance(state.params, GammaParams):
        name = state.param_names[0]
        lo, hi = state.bounds(name)
        mass = _gamma_cdf(state.params, hi) - _gamma_cdf(state.params, lo)
        if mass <= 0:
            raise ValueError(f"truncation region for {name!r} has zero posterior mass")


def prob_tail_index_below(state: PosteriorState, threshold: float = 1.0) -> float:
    """Posterior probability that the Pareto tail index is <= threshold.

    When this is non-negligible the predictive annual loss has infinite mean.
    """
    if state.family != "pareto-tail":
        raise ValueError("tail-index probability is defined for pareto-tail posteriors")
    lo, hi = state.bounds("xi")  # (-inf, inf) when untruncated: cdf 0 and 1 exactly
    cdf = lambda x: _gamma_cdf(state.params, x)
    num = cdf(min(threshold, hi)) - cdf(lo)
    return float(max(num, 0.0) / (cdf(hi) - cdf(lo)))


def sample_posterior(state: PosteriorState, rng: RngStream, size=None):
    """Draw parameters from the (possibly truncated) posterior.

    Gamma-type families return lambda or xi draws; the lognormal family
    returns a (mu, sigma_sq) pair of arrays. Truncation is honored by
    rejection, with a guard against pathologically small acceptance rates.
    """
    scalar = size is None
    n = 1 if scalar else int(size)
    if isinstance(state.params, GammaParams):
        name = state.param_names[0]
        lo, hi = state.bounds(name)
        draw = lambda k: rng.generator.gamma(state.params.shape, state.params.scale, size=k)
        if math.isinf(lo) and math.isinf(hi):
            out = draw(n)
        else:
            accept = lambda v: (v > lo) & (v < hi)
            out = _rejection_sample(draw, accept, n)
        return float(out[0]) if scalar else out

    # lognormal: sigma_sq ~ InvChiSq(nu, beta), then mu | sigma_sq ~ N(theta, sigma_sq/phi)
    p = state.params
    if p.dof_nu <= 0:
        raise ValueError(
            f"lognormal posterior is not samplable: dof_nu = {p.dof_nu} (need > 0)"
        )
    mu_lo, mu_hi = state.bounds("mu")
    s2_lo, s2_hi = state.bounds("sigma_sq")

    def draw(k):
        g = rng.generator
        s2 = p.scale_beta / g.chisquare(p.dof_nu, size=k)
        mu = g.normal(p.loc_theta, np.sqrt(s2 / p.prec_phi), size=k)
        return np.column_stack([mu, s2])

    if all(math.isinf(b) for b in (mu_lo, mu_hi, s2_lo, s2_hi)):
        out = draw(n)
    else:

        def accept(v):
            return (
                (v[:, 0] > mu_lo) & (v[:, 0] < mu_hi) & (v[:, 1] > s2_lo) & (v[:, 1] < s2_hi)
            )

        out = _rejection_sample(draw, accept, n)
    mu, s2 = out[:, 0], out[:, 1]
    if scalar:
        return float(mu[0]), float(s2[0])
    return mu, s2


def _rejection_sample(draw, accept, n):
    """Accumulate n accepted draws; error if acceptance collapses."""
    kept = []
    got = 0
    proposed = 0
    accepted = 0
    probe_checked = False
    while got < n:
        batch = max(n - got, 1000)
        v = draw(batch)
        mask = accept(v)
        proposed += batch
        accepted += int(mask.sum())
        if not probe_checked and proposed >= 1000:
            probe_checked = True
            if accepted / proposed < MIN_TRUNCATION_ACCEPTANCE:
                raise ValueError(
                    "truncated-posterior rejection sampling acceptance rate below "
                    f"{MIN_TRUNCATION_ACCEPTANCE}; bounds are too restrictive"
                )
        v_ok = v[mask]
        kept.append(v_ok)
        got += v_ok.shape[0]
    out = np.concatenate(kept)
    return out[:n]


# The scipy.special expressions that scipy.stats evaluates for these
# distributions, bit for bit. Importing scipy.stats would cost more than the
# CLI's whole start-up without it.


def _gamma_cdf(params: GammaParams, x: float) -> float:
    """Gamma(shape, scale) CDF; 0 at and below the support's lower edge."""
    return special.gammainc(params.shape, max(x, 0.0) / params.scale)


def _gamma_ppf(params: GammaParams, p):
    return special.gammaincinv(params.shape, p) * params.scale


def _chi2_ppf(p, dof):
    return 2 * special.gammaincinv(dof / 2, p)


#: Number of draws used for empirical credible intervals of truncated posteriors.
EMPIRICAL_CI_DRAWS = 10**6


def credible_interval(state: PosteriorState, level: float, rng: RngStream | None = None) -> dict:
    """Central (equal-tail) credible interval for each posterior parameter.

    Untruncated posteriors, and truncated Gamma-type ones, use exact numeric
    inversion of the marginal CDFs. A truncated lognormal posterior falls back
    to empirical quantiles of 10^6 rejection draws from ``rng``, which it
    then requires, so the caller's seed fixes the interval.
    """
    if not 0 < level < 1:
        raise ValueError(f"level must be in (0, 1), got {level}")
    p_lo = (1.0 - level) / 2.0
    p_hi = (1.0 + level) / 2.0

    if isinstance(state.params, GammaParams):
        name = state.param_names[0]
        lo, hi = state.bounds(name)  # (-inf, inf) when untruncated: cdf 0 and 1 exactly
        c_lo, c_hi = _gamma_cdf(state.params, lo), _gamma_cdf(state.params, hi)
        q = _gamma_ppf(state.params, c_lo + np.array([p_lo, p_hi]) * (c_hi - c_lo))
        return {name: (float(q[0]), float(q[1]))}

    if state.truncation:
        if rng is None:
            raise ValueError("a truncated lognormal posterior's interval needs an rng stream")
        mu, s2 = sample_posterior(state, rng, size=EMPIRICAL_CI_DRAWS)
        return {
            "mu": tuple(np.quantile(mu, [p_lo, p_hi])),
            "sigma_sq": tuple(np.quantile(s2, [p_lo, p_hi])),
        }

    p = state.params
    # The marginal of mu is a t with dof_nu degrees of freedom, centred on
    # loc_theta, with scale sqrt(scale_beta / (prec_phi * dof_nu)).
    if p.dof_nu <= 0:
        raise ValueError(f"marginal of mu requires dof_nu > 0, got {p.dof_nu}")
    t_scale = math.sqrt(p.scale_beta / (p.prec_phi * p.dof_nu))
    mu_iv = (
        p.loc_theta + t_scale * special.stdtrit(p.dof_nu, p_lo),
        p.loc_theta + t_scale * special.stdtrit(p.dof_nu, p_hi),
    )
    # sigma_sq = beta / W with W ~ ChiSq(nu): quantile_p = beta / chi2 quantile(1-p, nu)
    s2_iv = (
        p.scale_beta / _chi2_ppf(1.0 - p_lo, p.dof_nu),
        p.scale_beta / _chi2_ppf(1.0 - p_hi, p.dof_nu),
    )
    return {"mu": (float(mu_iv[0]), float(mu_iv[1])), "sigma_sq": (float(s2_iv[0]), float(s2_iv[1]))}


# ---------------------------------------------------------------------------
# Laplace approximation

HESSIAN_REL_STEP = 1e-5
HESSIAN_ABS_STEP = 1e-7


def laplace_approximation(log_posterior, initial_guess) -> LaplaceResult:
    """Gaussian approximation of a log-posterior around its mode.

    The mode is found by numeric maximization from ``initial_guess``; the
    covariance is the inverse of the negated central-difference Hessian at
    the mode. Raises if the maximization fails or the Hessian is not
    negative definite.
    """
    from scipy import optimize  # only this function needs it; it is slow to import

    x0 = np.atleast_1d(np.asarray(initial_guess, dtype=float))
    if not np.isfinite(log_posterior(x0)):
        raise ValueError("log_posterior is not finite at the initial guess")

    neg = lambda x: -log_posterior(x)
    res = optimize.minimize(neg, x0, method="Nelder-Mead", options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 20000})
    if not res.success:
        raise RuntimeError(f"posterior maximization failed to converge: {res.message}")
    mode = np.atleast_1d(res.x)

    hess = _central_hessian(log_posterior, mode)
    neg_hess = -hess
    try:
        chol = np.linalg.cholesky(neg_hess)
    except np.linalg.LinAlgError:
        raise RuntimeError("Hessian is not negative definite at the located mode")
    identity = np.eye(mode.size)
    inv_chol = np.linalg.solve(chol, identity)
    cov = inv_chol.T @ inv_chol
    cov = 0.5 * (cov + cov.T)
    return LaplaceResult(mode=mode, covariance=cov)


def _central_hessian(f, x):
    x = np.asarray(x, dtype=float)
    d = x.size
    h = np.maximum(HESSIAN_REL_STEP * np.abs(x), HESSIAN_ABS_STEP)
    hess = np.empty((d, d))
    f0 = f(x)
    for i in range(d):
        ei = np.zeros(d)
        ei[i] = h[i]
        hess[i, i] = (f(x + ei) - 2 * f0 + f(x - ei)) / h[i] ** 2
        for j in range(i + 1, d):
            ej = np.zeros(d)
            ej[j] = h[j]
            fpp = f(x + ei + ej)
            fpm = f(x + ei - ej)
            fmp = f(x - ei + ej)
            fmm = f(x - ei - ej)
            hess[i, j] = hess[j, i] = (fpp - fpm - fmp + fmm) / (4 * h[i] * h[j])
    return hess
