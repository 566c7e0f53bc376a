"""Conjugate posterior updates, posterior sampling, and the Gaussian
(Laplace) approximation.

Three conjugate pairs are supported, each with one posterior constructor:

* Poisson rate, Gamma prior: ``poisson_posterior``;
* Lognormal (mu, sigma_sq), Normal-Inverse-Chi-squared prior: ``lognormal_posterior``;
* Pareto tail index, Gamma prior: ``pareto_posterior``.

A prior of None is the non-informative (improper constant) prior, the flat
limit of the update, whose posterior mode is the maximum-likelihood estimate
(the test suite enforces this). ``PosteriorState`` refuses an improper posterior.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .distributions import GammaParams, RngStream

__all__ = [
    "NIXParams",
    "PosteriorState",
    "LaplaceResult",
    "InsufficientDataError",
    "poisson_posterior",
    "lognormal_posterior",
    "pareto_posterior",
    "sample_posterior",
    "credible_interval",
    "prob_tail_index_below",
    "laplace_approximation",
]

# Truncation bounds holding less posterior mass than this are refused when the
# posterior is built. The mass is exact, so it is also the expected acceptance
# rate of rejection sampling inside the bounds, which checks nothing itself.
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
        if not all(map(math.isfinite, vars(self).values())):
            raise ValueError(f"NIX parameters must be finite, got {self}")
        if not self.scale_beta > 0:
            raise ValueError(f"scale_beta must be positive, got {self.scale_beta}")
        if not self.prec_phi > 0:
            raise ValueError(f"prec_phi must be positive, got {self.prec_phi}")


#: Each posterior family's parameter type and parameter names.
_FAMILIES = {"poisson-rate": (GammaParams, ("lambda",)), "pareto-tail": (GammaParams, ("xi",)),
             "lognormal": (NIXParams, ("mu", "sigma_sq"))}


@dataclass(frozen=True)
class PosteriorState:
    """A tagged conjugate posterior, optionally truncated.

    ``family`` is one of ``poisson-rate``, ``lognormal`` (proper: ``dof_nu > 0``), ``pareto-tail``.
    ``truncation`` maps parameter names ("lambda", "xi", "mu", "sigma_sq")
    to (lower, upper) bounds; use -inf/inf for one-sided bounds. Sampling is
    by rejection, so a box of bounds holding less than
    ``MIN_TRUNCATION_ACCEPTANCE`` of the joint posterior mass is refused here,
    and this exact mass is the only check that a truncation is usable.
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
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown posterior family: {self.family}")
        if not isinstance(self.params, _FAMILIES[self.family][0]):
            raise TypeError(f"{self.family} posterior requires {_FAMILIES[self.family][0].__name__}")
        if self.family == "lognormal" and not self.params.dof_nu > 0:
            raise ValueError(f"lognormal posterior needs dof_nu > 0, got {self.params.dof_nu}")
        if self.truncation is not None:
            for name, (lo, hi) in self.truncation.items():
                if name not in self.param_names:
                    raise ValueError(f"unknown parameter {name!r} for {self.family}")
                if not lo < hi:
                    raise ValueError(f"empty truncation range for {name!r}: ({lo}, {hi})")
            mass = _truncation_mass(self)
            if mass < MIN_TRUNCATION_ACCEPTANCE:
                names = ", ".join(map(repr, self.truncation))
                raise ValueError(f"truncation region for {names} holds posterior mass "
                                 f"{mass:.3g}, below {MIN_TRUNCATION_ACCEPTANCE}")

    @property
    def param_names(self) -> tuple:
        return _FAMILIES[self.family][1]

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


def _gamma_update(prior: GammaParams | None, shape: float, rate: float) -> GammaParams:
    """Add the data's ``shape`` and ``rate`` (1/scale) to the prior's; the flat
    prior None is their improper limit, shape 1 and rate 0."""
    shape0, rate0 = (1.0, 0.0) if prior is None else (prior.shape, 1.0 / prior.scale)
    return GammaParams(shape=shape0 + shape, scale=1.0 / (rate0 + rate))


def poisson_posterior(prior: GammaParams | None, counts) -> GammaParams:
    """Posterior Gamma for the Poisson rate after observing annual counts.

    A ``prior`` of None is the flat prior, which needs at least one year; the
    mode (shape - 1) * scale then equals the sample mean count.
    """
    counts = np.asarray(counts, dtype=float)
    if prior is None and counts.size == 0:
        raise InsufficientDataError("at least one observation year is required")
    if np.any(counts < 0) or np.any(counts != np.floor(counts)):
        raise ValueError("annual counts must be non-negative integers")
    return _gamma_update(prior, counts.sum(), counts.size)


def lognormal_posterior(prior: NIXParams | None, log_severities) -> NIXParams:
    """Posterior NIX parameters after observing log severities Y = ln X.

    A ``prior`` of None is the flat prior on (mu, sigma_sq), the improper limit
    (dof_nu, scale_beta, loc_theta, prec_phi) = (-3, 0, 0, 0), which needs
    n >= 4 so the sigma_sq posterior has at least one degree of freedom.
    scale_beta adds the centred sum of squares, so it never falls below the
    prior's.
    """
    y = np.asarray(log_severities, dtype=float)
    n = y.size
    if prior is None and n < 4:
        raise InsufficientDataError(
            f"insufficient data for non-informative lognormal posterior: "
            f"need at least 4 severities, got {n}"
        )
    nu0, beta0, theta0, phi0 = ((-3.0, 0.0, 0.0, 0.0) if prior is None else
                                (prior.dof_nu, prior.scale_beta, prior.loc_theta, prior.prec_phi))
    ybar = float(y.mean()) if n else theta0  # no data: the prior comes back unchanged
    shrink = phi0 / (phi0 + n)  # the prior's weight on the location
    beta_hat = beta0 + float(np.sum((y - ybar) ** 2)) + shrink * n * (ybar - theta0) ** 2
    if prior is None and beta_hat <= 0:
        raise InsufficientDataError("log severities have zero sample variance")
    return NIXParams(dof_nu=nu0 + n, scale_beta=beta_hat,
                     loc_theta=ybar + shrink * (theta0 - ybar), prec_phi=phi0 + n)


def pareto_posterior(prior: GammaParams | None, severities, threshold_L: float) -> GammaParams:
    """Posterior Gamma for the Pareto tail index.

    A ``prior`` of None is the flat prior, which needs at least one severity
    above the threshold.
    """
    x = np.asarray(severities, dtype=float)
    if prior is None and x.size == 0:
        raise InsufficientDataError("at least one severity is required")
    if np.any(x < threshold_L):
        raise ValueError("severity below threshold")
    log_ratio = float(np.sum(np.log(x / threshold_L)))
    if prior is None and log_ratio <= 0:
        raise InsufficientDataError(
            "all severities sit at the threshold; tail index is unidentified"
        )
    return _gamma_update(prior, x.size, log_ratio)


# ---------------------------------------------------------------------------
# Truncation, sampling, summaries


def _truncation_mass(state: PosteriorState) -> float:
    """The exact posterior mass inside the truncation box."""
    p = state.params
    if isinstance(p, GammaParams):
        lo, hi = state.bounds(state.param_names[0])
        return _gamma_cdf(p, hi) - _gamma_cdf(p, lo)
    u_bounds = [_sigma_sq_cdf(p, s2) for s2 in state.bounds("sigma_sq")]
    return _nix_box_mass(p, state.bounds("mu"), u_bounds)


def _sigma_sq_cdf(p: NIXParams, s2: float) -> float:
    """P(sigma_sq <= s2): sigma_sq = beta / W with W ~ ChiSq(nu)."""
    from scipy import special
    return special.gammaincc(p.dof_nu / 2, p.scale_beta / s2 / 2) if s2 > 0 else 0.0


def _t_scale(p: NIXParams) -> float:
    """Scale of mu's marginal, a t with dof_nu degrees of freedom centred on loc_theta."""
    return math.sqrt(p.scale_beta / (p.prec_phi * p.dof_nu))


@functools.cache
def _legendre_200():
    """Gauss-Legendre nodes and weights on [-1, 1]; computing them takes about 50 ms."""
    return np.polynomial.legendre.leggauss(200)


def _nix_box_mass(p: NIXParams, m_bounds, u_bounds) -> float:
    """P(mu in ``m_bounds``, u in ``u_bounds``), where u = P(sigma_sq <= s) is
    sigma_sq's probability coordinate: inclusion-exclusion over the corners.

    A corner P(mu <= m, u' <= u) takes a closed form on an infinite edge
    (u = 1 is s = inf); otherwise it is the integral over u' in [0, u] of
    P(mu <= m | sigma_sq at u'), on 200 Gauss-Legendre nodes.
    """
    from scipy import special

    def corner(m, u):
        if u <= 0 or m == -math.inf:
            return 0.0
        if m == math.inf:
            return u
        if u >= 1:
            return special.stdtr(p.dof_nu, (m - p.loc_theta) / _t_scale(p))
        x, w = _legendre_200()
        chi2 = 2 * special.gammainccinv(p.dof_nu / 2, u * (x + 1) / 2)  # beta / sigma_sq
        z = (m - p.loc_theta) * np.sqrt(p.prec_phi * chi2 / p.scale_beta)
        return u / 2 * math.fsum(w * special.ndtr(z))  # fsum: the same bits on any BLAS

    (m_lo, m_hi), (u_lo, u_hi) = m_bounds, u_bounds
    return corner(m_hi, u_hi) - corner(m_lo, u_hi) - corner(m_hi, u_lo) + corner(m_lo, u_lo)


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


def sample_posterior(state: PosteriorState, rng: RngStream, size: int):
    """Draw ``size`` parameter points from the (possibly truncated) posterior.

    Gamma-type families return an array of lambda or xi draws; the lognormal
    family returns a (mu, sigma_sq) pair of arrays. Truncation is honored by
    rejection; its acceptance rate is the truncation mass ``PosteriorState``
    checked.
    """
    p = state.params
    g = rng.generator
    if isinstance(p, GammaParams):
        draw = lambda k: (g.gamma(p.shape, p.scale, size=k),)
    else:  # sigma_sq ~ InvChiSq(nu, beta), then mu | sigma_sq ~ N(theta, sigma_sq/phi)
        def draw(k):
            s2 = p.scale_beta / g.chisquare(p.dof_nu, size=k)
            return g.normal(p.loc_theta, np.sqrt(s2 / p.prec_phi), size=k), s2
    bounds = [state.bounds(name) for name in state.param_names]
    bounded = not all(math.isinf(a) and math.isinf(b) for a, b in bounds)
    out = _rejection_sample(draw, bounds, size) if bounded else draw(size)
    return out[0] if len(out) == 1 else out


def _rejection_sample(draw, bounds, n):
    """Accumulate n draws whose every column lies in its open interval of ``bounds``.
    ``draw(k)`` returns one array of k draws per column. ``PosteriorState``
    refused the bounds if they hold too little mass, so the loop ends."""
    kept = []
    got = 0
    while not kept or got < n:
        cols = draw(max(n - got, 1000))
        ok = np.ones(cols[0].size, dtype=bool)
        for col, (a, b) in zip(cols, bounds):
            ok &= col > a
            ok &= col < b
        kept.append([col[ok] for col in cols])
        got += kept[-1][0].size
    if len(kept) == 1:
        return tuple(col[:n] for col in kept[0])
    return tuple(np.concatenate(parts)[:n] for parts in zip(*kept))


# The scipy.special expressions that scipy.stats evaluates for these
# distributions, bit for bit. Importing scipy.stats would cost more than the
# CLI's whole start-up without it. Every function here that calls
# scipy.special imports it itself, so runs that evaluate no special function
# (capital on an untruncated lognormal cell, experiment bias) never load scipy.


def _gamma_cdf(params: GammaParams, x: float) -> float:
    """Gamma(shape, scale) CDF; 0 at and below the support's lower edge."""
    from scipy import special
    return special.gammainc(params.shape, max(x, 0.0) / params.scale)


def _gamma_ppf(params: GammaParams, p):
    from scipy import special
    return special.gammaincinv(params.shape, p) * params.scale


def _chi2_ppf(p, dof):
    from scipy import special
    return 2 * special.gammaincinv(dof / 2, p)


def credible_interval(state: PosteriorState, level: float) -> dict:
    """Central (equal-tail) credible interval for each posterior parameter.

    Every interval is exact and draws nothing. Untruncated posteriors, and
    truncated Gamma-type ones, invert the marginal CDFs in closed form. A
    truncated lognormal posterior inverts each parameter's marginal CDF inside
    the box, the box's exact mass up to the parameter's value, numerically.
    """
    from scipy import special
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

    p = state.params
    if state.truncation:
        return _truncated_nix_interval(state, (p_lo, p_hi))
    probs = np.array([p_lo, p_hi])
    mu_iv = p.loc_theta + _t_scale(p) * special.stdtrit(p.dof_nu, probs)
    # sigma_sq = beta / W with W ~ ChiSq(nu): quantile_p = beta / chi2 quantile(1-p, nu)
    s2_iv = p.scale_beta / _chi2_ppf(1.0 - probs, p.dof_nu)
    return {"mu": tuple(map(float, mu_iv)), "sigma_sq": tuple(map(float, s2_iv))}


def _truncated_nix_interval(state: PosteriorState, probs) -> dict:
    """Quantiles ``probs`` of mu and sigma_sq inside a lognormal posterior's box.

    Each is solved in probability coordinates, where the bracket is finite:
    mu's marginal t CDF, and u = P(sigma_sq <= s).
    """
    from scipy import special
    from scipy.optimize import brentq  # only this function needs it; it is slow to import

    p = state.params
    m_lo, m_hi = state.bounds("mu")
    u_lo, u_hi = (_sigma_sq_cdf(p, s2) for s2 in state.bounds("sigma_sq"))
    mass = _truncation_mass(state)
    t_of = lambda m: special.stdtr(p.dof_nu, (m - p.loc_theta) / _t_scale(p))
    m_of = lambda t: (p.loc_theta + _t_scale(p) * special.stdtrit(p.dof_nu, t)
                      if t > 0 else -math.inf)  # stdtrit gives +inf at t = 0
    mu_cdf = lambda t: _nix_box_mass(p, (m_lo, m_of(t)), (u_lo, u_hi)) / mass
    s2_cdf = lambda u: _nix_box_mass(p, (m_lo, m_hi), (u_lo, u)) / mass
    mu = [m_of(brentq(lambda t: mu_cdf(t) - q, t_of(m_lo), t_of(m_hi))) for q in probs]
    u = [brentq(lambda u: s2_cdf(u) - q, u_lo, u_hi) for q in probs]
    s2 = [p.scale_beta / (2 * special.gammainccinv(p.dof_nu / 2, v)) for v in u]
    return {"mu": tuple(map(float, mu)), "sigma_sq": tuple(map(float, s2))}


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
