import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
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
    lognormal_posterior,
    pareto_posterior,
    poisson_posterior,
    prob_tail_index_below,
    sample_posterior,
)
from riskcap.distributions import GammaParams, RngStream


def nix_mode(nix: NIXParams) -> tuple:
    """Joint mode (mu, sigma_sq) of a NIX density; the MLE under flat priors."""
    return nix.loc_theta, nix.scale_beta / (nix.dof_nu + 3.0)


# ---------------------------------------------------------------------------
# Poisson-Gamma


def test_update_poisson_gamma_hand_example():
    post = poisson_posterior(GammaParams(1.0, 1.0), [2, 3])
    assert post.shape == pytest.approx(6.0)
    assert post.scale == pytest.approx(1.0 / 3.0)


def test_update_poisson_gamma_empty_is_identity():
    prior = GammaParams(2.5, 0.7)
    assert poisson_posterior(prior, []) == prior


def test_update_poisson_gamma_zero_counts():
    post = poisson_posterior(GammaParams(2.0, 0.5), [0, 0])
    assert post.shape == pytest.approx(2.0)
    assert post.scale == pytest.approx(0.25)


def test_noninformative_poisson():
    post = poisson_posterior(None, [2, 3])
    assert (post.shape, post.scale) == (6.0, 0.5)
    assert (post.shape - 1) * post.scale == pytest.approx(2.5)  # mode = sample mean

    post0 = poisson_posterior(None, [0])
    assert (post0.shape, post0.scale) == (1.0, 1.0)
    assert (post0.shape - 1) * post0.scale == 0.0


def test_noninformative_poisson_table_row():
    # 400 years totalling 4003 events: posterior mean 4004/400 = 10.01
    counts = np.zeros(400, dtype=int)
    counts[:4003 % 400] = 4003 // 400 + 1
    counts[4003 % 400:] = 4003 // 400
    assert counts.sum() == 4003
    post = poisson_posterior(None, counts)
    assert post.shape * post.scale == pytest.approx(10.01)  # posterior mean


def test_noninformative_poisson_empty_errors():
    with pytest.raises(InsufficientDataError):
        poisson_posterior(None, [])


# ---------------------------------------------------------------------------
# Lognormal NIX


def test_update_lognormal_hand_example():
    prior = NIXParams(dof_nu=2.0, scale_beta=1.0, loc_theta=0.0, prec_phi=1.0)
    post = lognormal_posterior(prior, [0.0, 1.0, 1.0, 2.0])
    assert post.dof_nu == pytest.approx(6.0)
    assert post.prec_phi == pytest.approx(5.0)
    assert post.loc_theta == pytest.approx(0.8)
    assert post.scale_beta == pytest.approx(3.8)


def test_update_lognormal_empty_is_identity():
    prior = NIXParams(dof_nu=2.0, scale_beta=1.0, loc_theta=0.5, prec_phi=3.0)
    assert lognormal_posterior(prior, []) == prior


def test_noninformative_lognormal_hand_example():
    post = lognormal_posterior(None, [0.0, 1.0, 1.0, 2.0])
    assert post.dof_nu == pytest.approx(1.0)
    assert post.scale_beta == pytest.approx(2.0)
    assert post.loc_theta == pytest.approx(1.0)
    assert post.prec_phi == pytest.approx(4.0)
    assert nix_mode(post) == pytest.approx((1.0, 0.5))


def test_noninformative_lognormal_errors():
    with pytest.raises(InsufficientDataError):
        lognormal_posterior(None, [0.0, 1.0, 2.0])
    with pytest.raises(InsufficientDataError):
        lognormal_posterior(None, [0.0, 0.0, 0.0, 0.0])


def test_marginal_mu():
    # The marginal of mu is a t with dof_nu degrees of freedom, centre
    # loc_theta and scale sqrt(scale_beta / (prec_phi * dof_nu)) = sqrt(0.5).
    post = NIXParams(dof_nu=1.0, scale_beta=2.0, loc_theta=1.0, prec_phi=4.0)
    lo, hi = credible_interval(PosteriorState("lognormal", post), 0.9)["mu"]
    t = stats.t(df=1.0, loc=1.0, scale=math.sqrt(0.5))
    assert (lo, hi) == pytest.approx((t.ppf(0.05), t.ppf(0.95)), rel=1e-12)


def test_marginal_mu_requires_positive_dof():
    # Neither mu's marginal t nor sigma_sq's inverse chi-squared exists, so
    # PosteriorState refuses the posterior when built, before any interval.
    for dof_nu in (-1.0, 0.0):
        post = NIXParams(dof_nu=dof_nu, scale_beta=2.0, loc_theta=0.0, prec_phi=1.0)
        with pytest.raises(ValueError, match=f"lognormal posterior needs dof_nu > 0, got {dof_nu}"):
            credible_interval(PosteriorState("lognormal", post), 0.95)


# ---------------------------------------------------------------------------
# Pareto-Gamma


def test_update_pareto_hand_example():
    post = pareto_posterior(GammaParams(1.0, 1.0), [math.e, math.e**2], 1.0)
    assert post.shape == pytest.approx(3.0)
    assert post.scale == pytest.approx(0.25)


def test_update_pareto_empty_and_errors():
    prior = GammaParams(2.0, 0.5)
    assert pareto_posterior(prior, [], 1.0) == prior
    with pytest.raises(ValueError, match="below threshold"):
        pareto_posterior(prior, [0.5], 1.0)


def test_noninformative_pareto():
    post = pareto_posterior(None, [math.e, math.e**2], 1.0)
    assert post.shape == pytest.approx(3.0)
    assert post.scale == pytest.approx(1.0 / 3.0)
    assert (post.shape - 1) * post.scale == pytest.approx(2.0 / 3.0)

    single = pareto_posterior(None, [math.e**4], 1.0)
    assert single.shape == pytest.approx(2.0)
    assert single.scale == pytest.approx(0.25)

    with pytest.raises(InsufficientDataError):
        pareto_posterior(None, [1.0], 1.0)


# ---------------------------------------------------------------------------
# Sequential-update equivalence (property)

counts_lists = st.lists(st.integers(min_value=0, max_value=50), min_size=0, max_size=20)


@given(d1=counts_lists, d2=counts_lists)
@settings(max_examples=200)
def test_poisson_sequential_equals_batch(d1, d2):
    prior = GammaParams(1.3, 0.8)
    seq = poisson_posterior(poisson_posterior(prior, d1), d2)
    batch = poisson_posterior(prior, d1 + d2)
    assert seq.shape == pytest.approx(batch.shape, rel=1e-12)
    assert seq.scale == pytest.approx(batch.scale, rel=1e-12)


reals = st.lists(st.floats(min_value=-5, max_value=5), min_size=0, max_size=20)


@given(d1=reals, d2=reals)
@settings(max_examples=200)
def test_lognormal_sequential_equals_batch(d1, d2):
    prior = NIXParams(dof_nu=2.0, scale_beta=1.5, loc_theta=0.3, prec_phi=2.0)
    seq = lognormal_posterior(lognormal_posterior(prior, d1), d2)
    batch = lognormal_posterior(prior, d1 + d2)
    assert seq.dof_nu == pytest.approx(batch.dof_nu, rel=1e-12)
    assert seq.scale_beta == pytest.approx(batch.scale_beta, rel=1e-12, abs=1e-12)
    assert seq.loc_theta == pytest.approx(batch.loc_theta, rel=1e-12, abs=1e-12)
    assert seq.prec_phi == pytest.approx(batch.prec_phi, rel=1e-12)


@given(d1=reals, d2=reals)
@settings(max_examples=100)
def test_lognormal_posterior_beta_nonnegative(d1, d2):
    prior = NIXParams(dof_nu=2.0, scale_beta=1.0, loc_theta=0.0, prec_phi=1.0)
    post = lognormal_posterior(prior, d1 + d2)
    assert post.scale_beta >= prior.scale_beta


@given(
    d1=st.lists(st.floats(min_value=1.01, max_value=1e4), min_size=0, max_size=20),
    d2=st.lists(st.floats(min_value=1.01, max_value=1e4), min_size=0, max_size=20),
)
@settings(max_examples=200)
def test_pareto_sequential_equals_batch(d1, d2):
    prior = GammaParams(1.7, 0.6)
    seq = pareto_posterior(pareto_posterior(prior, d1, 1.0), d2, 1.0)
    batch = pareto_posterior(prior, d1 + d2, 1.0)
    assert seq.shape == pytest.approx(batch.shape, rel=1e-12)
    assert seq.scale == pytest.approx(batch.scale, rel=1e-12)


@given(counts=st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=20),
       y=st.lists(st.floats(min_value=-5, max_value=5), min_size=4, max_size=20),
       x=st.lists(st.floats(min_value=1.01, max_value=1e4), min_size=1, max_size=20))
@settings(max_examples=200)
def test_flat_prior_is_the_limit_of_a_proper_prior(counts, y, x):
    # Each update takes the flat prior None as the limit of its prior's parameters.
    assume(np.var(y) > 1e-6)
    near_flat = GammaParams(1.0, 1e300)
    pairs = [(poisson_posterior(near_flat, counts), poisson_posterior(None, counts)),
             (pareto_posterior(near_flat, x, 1.0), pareto_posterior(None, x, 1.0)),
             (lognormal_posterior(NIXParams(-3.0, 1e-300, 0.0, 1e-300), y),
              lognormal_posterior(None, y))]
    for near, flat in pairs:
        for got, want in zip(dataclasses.astuple(near), dataclasses.astuple(flat)):
            assert got == pytest.approx(want, rel=1e-9)


def test_posterior_concentration():
    data = [2, 3, 5, 1]
    once = poisson_posterior(None, data)
    twice = poisson_posterior(None, data * 2)
    assert twice.shape * twice.scale**2 < once.shape * once.scale**2  # posterior variance


# ---------------------------------------------------------------------------
# Truncation and sampling


def test_truncated_pareto_posterior_draws_above_one():
    trunc = PosteriorState("pareto-tail", GammaParams(3.0, 1.0 / 3.0),
                           truncation={"xi": (1.0, math.inf)}, threshold_L=1.0)
    draws = sample_posterior(trunc, RngStream(11), size=20000)
    assert np.all(draws > 1.0)


TRUNCATION_NIX = NIXParams(dof_nu=5.0, scale_beta=4.0, loc_theta=1.0, prec_phi=8.0)


def _region_with_mass(name, mass):
    """A one-sided truncation whose posterior mass scipy.stats puts at ``mass``."""
    p = TRUNCATION_NIX
    if name == "lambda":
        return ("poisson-rate", GammaParams(6.0, 0.5),
                (stats.gamma(6.0, scale=0.5).isf(mass), math.inf))
    if name == "sigma_sq":  # sigma_sq = beta / W with W ~ chi2(nu)
        return "lognormal", p, (p.scale_beta / stats.chi2(p.dof_nu).ppf(mass), math.inf)
    scale = math.sqrt(p.scale_beta / (p.prec_phi * p.dof_nu))
    return "lognormal", p, (stats.t(p.dof_nu, loc=p.loc_theta, scale=scale).isf(mass), math.inf)


def test_truncation_acceptance_fraction():
    floor = bayes.MIN_TRUNCATION_ACCEPTANCE
    for name in ("lambda", "sigma_sq", "mu"):
        family, params, bounds = _region_with_mass(name, 1.01 * floor)
        PosteriorState(family, params, truncation={name: bounds})
        family, params, bounds = _region_with_mass(name, 0.99 * floor)
        with pytest.raises(ValueError, match=f"truncation region for '{name}'"):
            PosteriorState(family, params, truncation={name: bounds})


def test_truncation_masses_of_one_parameter_are_the_closed_forms():
    # Exact to the bit: the box mass takes a closed form on every infinite edge.
    p = TRUNCATION_NIX
    gamma = GammaParams(6.0, 0.5)
    u = lambda s2: special.gammaincc(p.dof_nu / 2, p.scale_beta / s2 / 2)
    t = lambda mu: special.stdtr(p.dof_nu, (mu - p.loc_theta) / math.sqrt(
        p.scale_beta / (p.prec_phi * p.dof_nu)))
    cases = [
        ("poisson-rate", gamma, "lambda", (1.0, 4.0),
         special.gammainc(6.0, 4.0 / 0.5) - special.gammainc(6.0, 1.0 / 0.5)),
        ("lognormal", p, "sigma_sq", (0.3, 1.2), u(1.2) - u(0.3)),
        ("lognormal", p, "sigma_sq", (-math.inf, 1.2), u(1.2) - 0.0),
        ("lognormal", p, "mu", (0.8, 1.4), t(1.4) - t(0.8)),
        ("lognormal", p, "mu", (0.8, math.inf), t(math.inf) - t(0.8)),
    ]
    for family, params, name, bounds, mass in cases:
        assert bayes._truncation_mass(PosteriorState(family, params, {name: bounds})) == mass


@pytest.mark.parametrize(
    "dof_nu, mu_bounds, sigma_sq_bounds",
    [
        (TRUNCATION_NIX.dof_nu, (1.1, 1.6), (0.3, 1.2)),
        # At nu <= 1 mu's marginal t has no mean. Every corner of the first box
        # of each pair is a quadrature; two of the second's are.
        (1.0, (0.0, 3.0), (1.0, 30.0)),
        (1.0, (-math.inf, 2.0), (1.0, 30.0)),
        (0.5, (0.0, 3.0), (1.0, 30.0)),
        (0.5, (-math.inf, 2.0), (1.0, 30.0)),
    ],
    ids=["nu5", "nu1", "nu1-mu-below", "nu0.5", "nu0.5-mu-below"],
)
def test_truncation_box_mass_matches_draws(dof_nu, mu_bounds, sigma_sq_bounds):
    p = dataclasses.replace(TRUNCATION_NIX, dof_nu=dof_nu)
    state = PosteriorState("lognormal", p)
    (m_lo, m_hi), (s_lo, s_hi) = mu_bounds, sigma_sq_bounds
    mass = bayes._truncation_mass(
        PosteriorState("lognormal", p, {"mu": (m_lo, m_hi), "sigma_sq": (s_lo, s_hi)})
    )
    rng = RngStream(23)
    inside = 0
    for _ in range(4):
        mu, s2 = sample_posterior(state, rng, size=10**6)
        inside += int(np.sum((mu > m_lo) & (mu < m_hi) & (s2 > s_lo) & (s2 < s_hi)))
    sd = math.sqrt(mass * (1 - mass) / 4e6)
    assert 0.05 < mass < 0.95
    assert abs(inside / 4e6 - mass) < 3 * sd


def test_truncation_box_without_joint_mass_fails_when_built():
    # Each marginal holds 1e-3 of the mass, but a tiny sigma_sq leaves mu no
    # room to reach its upper tail: the joint box is empty in practice.
    p = TRUNCATION_NIX
    scale = math.sqrt(p.scale_beta / (p.prec_phi * p.dof_nu))
    box = {
        "mu": (stats.t(p.dof_nu, loc=p.loc_theta, scale=scale).isf(1e-3), math.inf),
        "sigma_sq": (0.0, p.scale_beta / stats.chi2(p.dof_nu).isf(1e-3)),
    }
    for name, bounds in box.items():
        PosteriorState("lognormal", p, truncation={name: bounds})
    with pytest.raises(ValueError, match="truncation region for 'mu', 'sigma_sq'"):
        PosteriorState("lognormal", p, truncation=box)


def test_truncation_low_mass_samples_for_every_seed():
    # The region holds 3e-4 of the mass: a first batch of 1000 proposals often
    # accepts none, which is no reason to refuse it.
    family, params, bounds = _region_with_mass("lambda", 3e-4)
    state = PosteriorState(family, params, truncation={"lambda": bounds})
    for seed in range(20):
        draws = sample_posterior(state, RngStream(seed), size=500)
        assert draws.shape == (500,) and np.all(draws > bounds[0])


def _edges(draw, quantile):
    """Bounds at two drawn probabilities; a None draw gives an infinite edge."""
    lo, hi = (draw(st.none() | st.floats(1e-9, 1 - 1e-9)) for _ in range(2))
    if lo is not None and hi is not None:
        lo, hi = sorted((lo, hi))
    return (-math.inf if lo is None else quantile(lo), math.inf if hi is None else quantile(hi))


@st.composite
def truncated_posteriors(draw):
    if draw(st.booleans()):
        params = GammaParams(draw(st.floats(0.5, 50)), draw(st.floats(0.05, 5)))
        dist = stats.gamma(params.shape, scale=params.scale)
        return "poisson-rate", params, {"lambda": _edges(draw, dist.ppf)}
    p = NIXParams(draw(st.floats(1, 60)), draw(st.floats(0.1, 100)), draw(st.floats(-5, 5)),
                  draw(st.floats(0.5, 100)))
    t = stats.t(p.dof_nu, loc=p.loc_theta, scale=math.sqrt(p.scale_beta / (p.prec_phi * p.dof_nu)))
    box = {"mu": _edges(draw, t.ppf),
           "sigma_sq": _edges(draw, lambda q: p.scale_beta / stats.chi2(p.dof_nu).isf(q))}
    return "lognormal", p, {k: v for k, v in box.items() if draw(st.booleans())} or box


@settings(max_examples=30, deadline=None)
@given(truncated_posteriors(), st.integers(0, 2**32))
def test_truncation_is_refused_when_built_or_sampled_inside(posterior, seed):
    # The one rule: no exit is left to depend on the sample size or the seed.
    family, params, box = posterior
    try:
        state = PosteriorState(family, params, truncation=box)
    except ValueError:
        return
    for size in (1, 500):
        draws = sample_posterior(state, RngStream(seed), size=size)
        named = dict(zip(state.param_names, draws if family == "lognormal" else [draws]))
        for name, (lo, hi) in box.items():
            assert np.all((named[name] > lo) & (named[name] < hi))


def test_truncation_identity_bounds():
    state = PosteriorState("poisson-rate", GammaParams(6.0, 0.5))
    trunc = PosteriorState("poisson-rate", GammaParams(6.0, 0.5),
                           truncation={"lambda": (-math.inf, math.inf)})
    a = sample_posterior(state, RngStream(12), size=5000)
    b = sample_posterior(trunc, RngStream(12), size=5000)
    assert np.array_equal(a, b)


def test_truncation_zero_mass_errors():
    with pytest.raises(ValueError, match="truncation region for 'xi'"):
        PosteriorState("pareto-tail", GammaParams(3.0, 1.0 / 3.0),
                       truncation={"xi": (1e9, 2e9)}, threshold_L=1.0)


def test_truncation_tiny_acceptance_errors():
    # mass ~3.5e-7: positive, but far below the 1e-4 floor, so refused when built
    with pytest.raises(ValueError, match="truncation region for 'lambda'"):
        PosteriorState("poisson-rate", GammaParams(6.0, 0.5), truncation={"lambda": (13.0, 13.5)})


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
    # An improper posterior is refused when its state is built, so there is
    # nothing for sample_posterior to draw from.
    nix = NIXParams(dof_nu=-1.0, scale_beta=2.0, loc_theta=1.0, prec_phi=4.0)
    with pytest.raises(ValueError, match="lognormal posterior needs dof_nu > 0, got -1.0"):
        sample_posterior(PosteriorState("lognormal", nix), RngStream(16), size=1)


def test_prob_tail_index_below():
    state = PosteriorState("pareto-tail", GammaParams(3.0, 1.0 / 3.0), threshold_L=1.0)
    p = prob_tail_index_below(state, 1.0)
    assert p == pytest.approx(stats.gamma(3.0, scale=1.0 / 3.0).cdf(1.0))
    trunc = PosteriorState("pareto-tail", GammaParams(3.0, 1.0 / 3.0),
                           truncation={"xi": (1.0, math.inf)}, threshold_L=1.0)
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


def test_credible_interval_truncated_lognormal_matches_draws():
    # Exact, and drawn from no stream: 1e6 draws put each end of the interval
    # at its probability within their Monte Carlo error.
    nix = NIXParams(dof_nu=5.0, scale_beta=4.0, loc_theta=1.0, prec_phi=8.0)
    box = {"mu": (0.7, math.inf), "sigma_sq": (0.0, 1.0)}
    state = PosteriorState("lognormal", nix, truncation=box)
    iv = credible_interval(state, 0.95)
    mu, s2 = sample_posterior(state, RngStream(3), size=10**6)
    sd = math.sqrt(0.025 * 0.975 / 10**6)
    for draws, (lo, hi) in ((mu, iv["mu"]), (s2, iv["sigma_sq"])):
        assert np.mean(draws <= lo) == pytest.approx(0.025, abs=3 * sd)
        assert np.mean(draws <= hi) == pytest.approx(0.975, abs=3 * sd)
    # A truncated Gamma-type interval is exact too.
    gamma = PosteriorState("poisson-rate", GammaParams(6.0, 0.5), truncation={"lambda": (1.0, 4.0)})
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
    nix = lognormal_posterior(None, y)
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
