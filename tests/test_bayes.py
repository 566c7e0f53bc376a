import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

from riskcap import bayes
from riskcap.bayes import (
    InsufficientDataError,
    LaplaceResult,
    NIXParams,
    PosteriorState,
    credible_interval,
    laplace_approximation,
    noninformative_lognormal,
    noninformative_pareto,
    noninformative_poisson,
    prob_tail_index_below,
    sample_posterior,
    truncate_posterior,
    update_lognormal,
    update_pareto,
    update_poisson_gamma,
)
from riskcap.distributions import GammaParams, RngStream


def nix_mode(nix: NIXParams) -> tuple:
    """Joint mode (mu, sigma_sq) of a NIX density; the MLE under flat priors."""
    return nix.loc_theta, nix.scale_beta / (nix.dof_nu + 3.0)


# ---------------------------------------------------------------------------
# Poisson-Gamma


def test_update_poisson_gamma_hand_example():
    post = update_poisson_gamma(GammaParams(1.0, 1.0), [2, 3])
    assert post.shape == pytest.approx(6.0)
    assert post.scale == pytest.approx(1.0 / 3.0)


def test_update_poisson_gamma_empty_is_identity():
    prior = GammaParams(2.5, 0.7)
    assert update_poisson_gamma(prior, []) == prior


def test_update_poisson_gamma_zero_counts():
    post = update_poisson_gamma(GammaParams(2.0, 0.5), [0, 0])
    assert post.shape == pytest.approx(2.0)
    assert post.scale == pytest.approx(0.25)


def test_noninformative_poisson():
    post = noninformative_poisson([2, 3])
    assert (post.shape, post.scale) == (6.0, 0.5)
    assert (post.shape - 1) * post.scale == pytest.approx(2.5)  # mode = sample mean

    post0 = noninformative_poisson([0])
    assert (post0.shape, post0.scale) == (1.0, 1.0)
    assert (post0.shape - 1) * post0.scale == 0.0


def test_noninformative_poisson_table_row():
    # 400 years totalling 4003 events: posterior mean 4004/400 = 10.01
    counts = np.zeros(400, dtype=int)
    counts[:4003 % 400] = 4003 // 400 + 1
    counts[4003 % 400:] = 4003 // 400
    assert counts.sum() == 4003
    post = noninformative_poisson(counts)
    assert post.shape * post.scale == pytest.approx(10.01)  # posterior mean


def test_noninformative_poisson_empty_errors():
    with pytest.raises(InsufficientDataError):
        noninformative_poisson([])


# ---------------------------------------------------------------------------
# Lognormal NIX


def test_update_lognormal_hand_example():
    prior = NIXParams(dof_nu=2.0, scale_beta=1.0, loc_theta=0.0, prec_phi=1.0)
    post = update_lognormal(prior, [0.0, 1.0, 1.0, 2.0])
    assert post.dof_nu == pytest.approx(6.0)
    assert post.prec_phi == pytest.approx(5.0)
    assert post.loc_theta == pytest.approx(0.8)
    assert post.scale_beta == pytest.approx(3.8)


def test_update_lognormal_empty_is_identity():
    prior = NIXParams(dof_nu=2.0, scale_beta=1.0, loc_theta=0.5, prec_phi=3.0)
    assert update_lognormal(prior, []) == prior


def test_noninformative_lognormal_hand_example():
    post = noninformative_lognormal([0.0, 1.0, 1.0, 2.0])
    assert post.dof_nu == pytest.approx(1.0)
    assert post.scale_beta == pytest.approx(2.0)
    assert post.loc_theta == pytest.approx(1.0)
    assert post.prec_phi == pytest.approx(4.0)
    assert nix_mode(post) == pytest.approx((1.0, 0.5))


def test_noninformative_lognormal_errors():
    with pytest.raises(InsufficientDataError):
        noninformative_lognormal([0.0, 1.0, 2.0])
    with pytest.raises(InsufficientDataError):
        noninformative_lognormal([0.0, 0.0, 0.0, 0.0])


def test_marginal_mu():
    # The marginal of mu is a t with dof_nu degrees of freedom, centre
    # loc_theta and scale sqrt(scale_beta / (prec_phi * dof_nu)) = sqrt(0.5).
    post = NIXParams(dof_nu=1.0, scale_beta=2.0, loc_theta=1.0, prec_phi=4.0)
    lo, hi = credible_interval(PosteriorState("lognormal", post), 0.9)["mu"]
    t = stats.t(df=1.0, loc=1.0, scale=math.sqrt(0.5))
    assert (lo, hi) == pytest.approx((t.ppf(0.05), t.ppf(0.95)), rel=1e-12)


def test_marginal_mu_requires_positive_dof():
    post = NIXParams(dof_nu=-1.0, scale_beta=2.0, loc_theta=0.0, prec_phi=1.0)
    with pytest.raises(ValueError, match="dof_nu > 0"):
        credible_interval(PosteriorState("lognormal", post), 0.95)


# ---------------------------------------------------------------------------
# Pareto-Gamma


def test_update_pareto_hand_example():
    post = update_pareto(GammaParams(1.0, 1.0), [math.e, math.e**2], 1.0)
    assert post.shape == pytest.approx(3.0)
    assert post.scale == pytest.approx(0.25)


def test_update_pareto_empty_and_errors():
    prior = GammaParams(2.0, 0.5)
    assert update_pareto(prior, [], 1.0) == prior
    with pytest.raises(ValueError, match="below threshold"):
        update_pareto(prior, [0.5], 1.0)


def test_noninformative_pareto():
    post = noninformative_pareto([math.e, math.e**2], 1.0)
    assert post.shape == pytest.approx(3.0)
    assert post.scale == pytest.approx(1.0 / 3.0)
    assert (post.shape - 1) * post.scale == pytest.approx(2.0 / 3.0)

    single = noninformative_pareto([math.e**4], 1.0)
    assert single.shape == pytest.approx(2.0)
    assert single.scale == pytest.approx(0.25)

    with pytest.raises(InsufficientDataError):
        noninformative_pareto([1.0], 1.0)


# ---------------------------------------------------------------------------
# Sequential-update equivalence (property)

counts_lists = st.lists(st.integers(min_value=0, max_value=50), min_size=0, max_size=20)


@given(d1=counts_lists, d2=counts_lists)
@settings(max_examples=200)
def test_poisson_sequential_equals_batch(d1, d2):
    prior = GammaParams(1.3, 0.8)
    seq = update_poisson_gamma(update_poisson_gamma(prior, d1), d2)
    batch = update_poisson_gamma(prior, d1 + d2)
    assert seq.shape == pytest.approx(batch.shape, rel=1e-12)
    assert seq.scale == pytest.approx(batch.scale, rel=1e-12)


reals = st.lists(st.floats(min_value=-5, max_value=5), min_size=0, max_size=20)


@given(d1=reals, d2=reals)
@settings(max_examples=200)
def test_lognormal_sequential_equals_batch(d1, d2):
    prior = NIXParams(dof_nu=2.0, scale_beta=1.5, loc_theta=0.3, prec_phi=2.0)
    seq = update_lognormal(update_lognormal(prior, d1), d2)
    batch = update_lognormal(prior, d1 + d2)
    assert seq.dof_nu == pytest.approx(batch.dof_nu, rel=1e-12)
    assert seq.scale_beta == pytest.approx(batch.scale_beta, rel=1e-12, abs=1e-12)
    assert seq.loc_theta == pytest.approx(batch.loc_theta, rel=1e-12, abs=1e-12)
    assert seq.prec_phi == pytest.approx(batch.prec_phi, rel=1e-12)


@given(d1=reals, d2=reals)
@settings(max_examples=100)
def test_lognormal_posterior_beta_nonnegative(d1, d2):
    prior = NIXParams(dof_nu=2.0, scale_beta=1.0, loc_theta=0.0, prec_phi=1.0)
    post = update_lognormal(prior, d1 + d2)
    assert post.scale_beta >= -1e-9


@given(
    d1=st.lists(st.floats(min_value=1.01, max_value=1e4), min_size=0, max_size=20),
    d2=st.lists(st.floats(min_value=1.01, max_value=1e4), min_size=0, max_size=20),
)
@settings(max_examples=200)
def test_pareto_sequential_equals_batch(d1, d2):
    prior = GammaParams(1.7, 0.6)
    seq = update_pareto(update_pareto(prior, d1, 1.0), d2, 1.0)
    batch = update_pareto(prior, d1 + d2, 1.0)
    assert seq.shape == pytest.approx(batch.shape, rel=1e-12)
    assert seq.scale == pytest.approx(batch.scale, rel=1e-12)


def test_posterior_concentration():
    data = [2, 3, 5, 1]
    once = noninformative_poisson(data)
    twice = noninformative_poisson(data * 2)
    assert twice.shape * twice.scale**2 < once.shape * once.scale**2  # posterior variance


# ---------------------------------------------------------------------------
# Truncation and sampling


def test_truncated_pareto_posterior_draws_above_one():
    state = PosteriorState("pareto-tail", GammaParams(3.0, 1.0 / 3.0), threshold_L=1.0)
    trunc = truncate_posterior(state, {"xi": (1.0, math.inf)})
    draws = sample_posterior(trunc, RngStream(11), size=20000)
    assert np.all(draws > 1.0)


def test_truncation_acceptance_fraction():
    # Pr[Gamma(3, 1/3) > 1] via the analytic CDF matches the brute-force figure
    p = 1.0 - stats.gamma(3.0, scale=1.0 / 3.0).cdf(1.0)
    assert p == pytest.approx(0.4232, abs=5e-4)


def test_truncation_identity_bounds():
    state = PosteriorState("poisson-rate", GammaParams(6.0, 0.5))
    trunc = truncate_posterior(state, {"lambda": (-math.inf, math.inf)})
    a = sample_posterior(state, RngStream(12), size=5000)
    b = sample_posterior(trunc, RngStream(12), size=5000)
    assert np.array_equal(a, b)


def test_truncation_zero_mass_errors():
    state = PosteriorState("pareto-tail", GammaParams(3.0, 1.0 / 3.0), threshold_L=1.0)
    with pytest.raises(ValueError):
        truncate_posterior(state, {"xi": (1e9, 2e9)})


def test_truncation_tiny_acceptance_errors():
    state = PosteriorState("poisson-rate", GammaParams(6.0, 0.5))
    # mass ~3.5e-7: positive, but acceptance is far below the 1e-4 guard
    tight = truncate_posterior(state, {"lambda": (13.0, 13.5)})
    with pytest.raises(ValueError, match="acceptance"):
        sample_posterior(tight, RngStream(13), size=10)


def test_sample_posterior_gamma_mean():
    state = PosteriorState("poisson-rate", GammaParams(6.0, 0.5))
    draws = sample_posterior(state, RngStream(14), size=10**5)
    se = math.sqrt(6.0 * 0.25 / 10**5)
    assert draws.mean() == pytest.approx(3.0, abs=5 * se)


def test_sample_posterior_lognormal_support_and_marginal():
    nix = NIXParams(dof_nu=1.0, scale_beta=2.0, loc_theta=1.0, prec_phi=4.0)
    state = PosteriorState("lognormal", nix)
    mu, s2 = sample_posterior(state, RngStream(15), size=10**5)
    assert np.all(s2 > 0)
    # mu draws follow the analytic shifted-t marginal
    scale = math.sqrt(nix.scale_beta / (nix.prec_phi * nix.dof_nu))
    t = stats.t(df=nix.dof_nu, loc=nix.loc_theta, scale=scale)
    res = stats.kstest(mu, t.cdf)
    assert res.pvalue > 0.01


def test_sample_posterior_unsamplable_lognormal():
    nix = NIXParams(dof_nu=-1.0, scale_beta=2.0, loc_theta=1.0, prec_phi=4.0)
    state = PosteriorState("lognormal", nix)
    with pytest.raises(ValueError, match="not samplable"):
        sample_posterior(state, RngStream(16))


def test_prob_tail_index_below():
    state = PosteriorState("pareto-tail", GammaParams(3.0, 1.0 / 3.0), threshold_L=1.0)
    p = prob_tail_index_below(state, 1.0)
    assert p == pytest.approx(stats.gamma(3.0, scale=1.0 / 3.0).cdf(1.0))
    trunc = truncate_posterior(state, {"xi": (1.0, math.inf)})
    assert prob_tail_index_below(trunc, 1.0) == 0.0


# ---------------------------------------------------------------------------
# Credible intervals and modes


def test_credible_interval_table_row():
    state = PosteriorState("poisson-rate", GammaParams(4004.0, 1.0 / 400.0))
    lo, hi = credible_interval(state, 0.95)["lambda"]
    assert lo == pytest.approx(9.70, abs=0.02)
    assert hi == pytest.approx(10.32, abs=0.02)


def test_credible_interval_gamma_brute_force_row():
    state = PosteriorState("poisson-rate", GammaParams(6.0, 0.5))
    lo, hi = credible_interval(state, 0.95)["lambda"]
    # frozen from empirical quantiles of 1e7 Gamma(6, 1/2) draws
    assert lo == pytest.approx(1.101, abs=5e-3)
    assert hi == pytest.approx(5.834, abs=5e-3)


def test_credible_interval_collapses_toward_median():
    state = PosteriorState("poisson-rate", GammaParams(6.0, 0.5))
    lo, hi = credible_interval(state, 1e-9)["lambda"]
    median = stats.gamma(6.0, scale=0.5).ppf(0.5)
    assert lo == pytest.approx(median, rel=1e-4)
    assert hi == pytest.approx(median, rel=1e-4)


def test_credible_interval_bad_level():
    state = PosteriorState("poisson-rate", GammaParams(6.0, 0.5))
    with pytest.raises(ValueError):
        credible_interval(state, 1.5)


def test_credible_interval_truncated_lognormal_needs_rng():
    nix = NIXParams(dof_nu=5.0, scale_beta=4.0, loc_theta=1.0, prec_phi=8.0)
    state = truncate_posterior(PosteriorState("lognormal", nix), {"sigma_sq": (0.0, 1.0)})
    # No hidden default stream: the caller's seed fixes the interval.
    with pytest.raises(ValueError, match="rng"):
        credible_interval(state, 0.95)
    assert credible_interval(state, 0.95, RngStream(3)) == credible_interval(
        state, 0.95, RngStream(3)
    )
    # A truncated Gamma-type interval is exact and draws nothing.
    gamma = truncate_posterior(PosteriorState("poisson-rate", GammaParams(6.0, 0.5)),
                               {"lambda": (1.0, 4.0)})
    lo, hi = credible_interval(gamma, 0.95)["lambda"]
    assert 1.0 < lo < hi < 4.0


def test_credible_interval_lognormal_matches_empirical():
    nix = NIXParams(dof_nu=5.0, scale_beta=4.0, loc_theta=1.0, prec_phi=8.0)
    state = PosteriorState("lognormal", nix)
    iv = credible_interval(state, 0.95)
    mu, s2 = sample_posterior(state, RngStream(17), size=10**6)
    emp_mu = np.quantile(mu, [0.025, 0.975])
    emp_s2 = np.quantile(s2, [0.025, 0.975])
    assert iv["mu"][0] == pytest.approx(emp_mu[0], rel=0.02)
    assert iv["mu"][1] == pytest.approx(emp_mu[1], rel=0.02)
    assert iv["sigma_sq"][0] == pytest.approx(emp_s2[0], rel=0.02)
    assert iv["sigma_sq"][1] == pytest.approx(emp_s2[1], rel=0.02)


# ---------------------------------------------------------------------------
# Laplace approximation


def test_laplace_exact_on_normal():
    m, v = 1.7, 0.3
    logp = lambda x: -0.5 * (x[0] - m) ** 2 / v
    res = laplace_approximation(logp, [0.0])
    assert res.mode[0] == pytest.approx(m, abs=1e-6)
    assert res.covariance[0, 0] == pytest.approx(v, rel=1e-4)


def test_laplace_gamma_log_density():
    p = GammaParams(6.0, 0.5)
    logpdf = stats.gamma(p.shape, scale=p.scale).logpdf
    res = laplace_approximation(lambda x: logpdf(float(x[0])), [2.0])
    assert res.mode[0] == pytest.approx(2.5, rel=1e-4)
    assert res.covariance[0, 0] == pytest.approx(1.25, rel=1e-4)


def test_laplace_rejects_degenerate_curvature():
    # plateau objective: zero Hessian wherever the optimizer stops
    with pytest.raises(RuntimeError, match="negative definite"):
        laplace_approximation(lambda x: min(-((float(x[0]) - 5.0) ** 2), -1.0), [10.0])


def test_laplace_lognormal_posterior_vs_empirical():
    rng = RngStream(18)
    y = rng.generator.normal(1.0, 2.0, size=1000)
    nix = noninformative_lognormal(y)
    state = PosteriorState("lognormal", nix)

    def logpost(x):
        mu, s2 = float(x[0]), float(x[1])
        if s2 <= 0:
            return -math.inf
        # NIX joint log-density up to a constant
        return (
            -0.5 * math.log(s2)
            - nix.prec_phi * (mu - nix.loc_theta) ** 2 / (2 * s2)
            - (nix.dof_nu / 2 + 1) * math.log(s2)
            - nix.scale_beta / (2 * s2)
        )

    res = laplace_approximation(logpost, [0.5, 3.0])
    mode_mu, mode_s2 = nix_mode(nix)
    assert res.mode[0] == pytest.approx(mode_mu, rel=0.01, abs=0.01)
    assert res.mode[1] == pytest.approx(mode_s2, rel=0.01)

    mu, s2 = sample_posterior(state, RngStream(19), size=10**6)
    assert math.sqrt(res.covariance[0, 0]) == pytest.approx(mu.std(), rel=0.05)
    assert math.sqrt(res.covariance[1, 1]) == pytest.approx(s2.std(), rel=0.05)


# ---------------------------------------------------------------------------
# scipy.special forms used in place of scipy.stats (kept off the import path)

_P = [1e-12, 1e-6, 0.0005, 0.025, 0.05, 0.3, 0.5, 0.7, 0.95, 0.975, 0.9995, 1 - 1e-9]
_SHAPES = [0.3, 1.0, 2.5, 21.0, 201.0, 4000.5]
_SCALES = [0.005, 0.05, 1.0, 17.3]
_DOFS = [0.5, 1.0, 3.0, 17.0, 196.0, 1e5]
_X = [-1.0, 0.0, 1e-3, 0.5, 1.0, 3.7, 50.0, math.inf]
_TAILS = np.array([0.025, 0.975])  # credible_interval evaluates both tails in one call

_SPECIAL_FORMS = {
    "norm.ppf": ([(p,) for p in _P], special.ndtri, stats.norm.ppf),
    "gamma.cdf": (
        list(itertools.product(_SHAPES, _SCALES, _X)),
        lambda a, s, x: bayes._gamma_cdf(GammaParams(a, s), x),
        lambda a, s, x: stats.gamma(a, scale=s).cdf(x),
    ),
    "gamma.ppf": (
        list(itertools.product(_SHAPES, _SCALES, _P + [_TAILS])),
        lambda a, s, p: bayes._gamma_ppf(GammaParams(a, s), p),
        lambda a, s, p: stats.gamma(a, scale=s).ppf(p),
    ),
    "t.ppf": (
        list(itertools.product(_DOFS, _P)),
        special.stdtrit,
        lambda df, p: stats.t.ppf(p, df),
    ),
    "chi2.ppf": (
        list(itertools.product(_DOFS, _P)),
        lambda nu, p: bayes._chi2_ppf(p, nu),
        lambda nu, p: stats.chi2.ppf(p, nu),
    ),
}


@pytest.mark.parametrize("form", sorted(_SPECIAL_FORMS))
def test_special_form_equals_scipy_stats(form):
    grid, ours, reference = _SPECIAL_FORMS[form]
    for args in grid:
        assert np.array_equal(ours(*args), reference(*args)), (form, args)
