import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskcap.bayes import NIXParams, PosteriorState, sample_posterior
from riskcap.distributions import (
    GammaParams,
    LognormalParams,
    ParetoParams,
    PoissonParams,
    RngStream,
    sample_severities,
)
from riskcap.mc_engine import simulate_conditional_sample

N = 10**5


class FixedUniforms:
    """Stands in for a generator whose uniform draws are given."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, size):
        assert size == self.u.size
        return self.u


def _inv_chi_sq_draws(dof, scale_beta, seed):
    # The lognormal posterior's sigma_sq marginal is InvChiSq(dof_nu, scale_beta).
    state = PosteriorState("lognormal", NIXParams(dof, scale_beta, loc_theta=0.0, prec_phi=1.0))
    return sample_posterior(state, RngStream(seed), size=N)[1]


def test_param_validation():
    with pytest.raises(ValueError):
        PoissonParams(0.0)
    with pytest.raises(ValueError):
        LognormalParams(mu=0.0, sigma_sq=-1.0)
    with pytest.raises(ValueError):
        ParetoParams(xi=-2.0, threshold_L=1.0)
    with pytest.raises(ValueError):
        GammaParams(shape=1.0, scale=0.0)


def test_poisson_moments():
    # Counts are drawn only inside the compound kernel; with every severity
    # exactly 1 (sigma_sq so small that exp rounds to 1), each annual loss is its count.
    unit = LognormalParams(mu=0.0, sigma_sq=1e-300)
    draws = simulate_conditional_sample(PoissonParams(10.0), unit, N, RngStream(11)).values
    assert np.all(draws >= 0)
    assert np.all(draws == draws.astype(int))
    assert draws.mean() == pytest.approx(10.0, abs=3 * math.sqrt(10.0 / N))
    assert draws.var() == pytest.approx(10.0, rel=0.05)


def test_lognormal_moments():
    draws = sample_severities(N, RngStream(2).generator, mu=1.0, sigma=2.0)
    assert np.all(draws > 0)
    y = np.log(draws)
    assert y.mean() == pytest.approx(1.0, abs=3 * 2.0 / math.sqrt(N))
    assert y.var() == pytest.approx(4.0, rel=0.05)


def test_lognormal_sampler_matches_root_per_loss():
    # Callers take sqrt(sigma_sq) once per parameter value; the losses must
    # be the bits of exp(Z * sqrt(sigma_sq) + mu) with the root taken per loss.
    z = RngStream(8).generator.standard_normal(1000)
    point = LognormalParams(mu=1.0, sigma_sq=3.0).sampler_args()
    x = sample_severities(1000, RngStream(8).generator, **point)
    assert np.array_equal(x, np.exp(z * np.sqrt(np.full(1000, 3.0)) + 1.0))

    mu = RngStream(9).generator.normal(size=1000)
    sigma_sq = RngStream(10).generator.gamma(2.0, size=1000)
    x = sample_severities(1000, RngStream(8).generator, mu=mu, sigma=np.sqrt(sigma_sq))
    assert np.array_equal(x, np.exp(z * np.sqrt(sigma_sq) + mu))


def test_pareto_forced_uniforms():
    x = sample_severities(2, FixedUniforms([0.75, 0.0]), xi=2.0, threshold_L=1.0)
    assert x == pytest.approx([2.0, 1.0])


def test_pareto_mean():
    draws = sample_severities(N, RngStream(3).generator, xi=2.0, threshold_L=1.0)
    assert np.all(draws >= 1.0)
    # heavy tail: wide tolerance
    assert draws.mean() == pytest.approx(2.0, rel=0.10)


def test_gamma_moments():
    state = PosteriorState("poisson-rate", GammaParams(shape=6.0, scale=1.0 / 3.0))
    draws = sample_posterior(state, RngStream(4), size=N)
    assert np.all(draws > 0)
    assert draws.mean() == pytest.approx(2.0, abs=3 * math.sqrt(6.0 / 9.0 / N))
    assert draws.var() == pytest.approx(2.0 / 3.0, rel=0.05)


def test_gamma_shape_one_is_exponential():
    state = PosteriorState("pareto-tail", GammaParams(shape=1.0, scale=0.7))
    draws = sample_posterior(state, RngStream(5), size=N)
    assert draws.mean() == pytest.approx(0.7, rel=0.03)


def test_inv_chi_sq_mean_and_median():
    draws = _inv_chi_sq_draws(dof=10.0, scale_beta=8.0, seed=6)
    assert np.all(draws > 0)
    assert draws.mean() == pytest.approx(8.0 / (10.0 - 2.0), rel=0.05)
    # median of beta / ChiSq(4): 4 / 3.3567 (chi-squared-4 median)
    draws4 = _inv_chi_sq_draws(dof=4.0, scale_beta=4.0, seed=7)
    assert np.median(draws4) == pytest.approx(4.0 / 3.3567, rel=0.05)


@given(
    u=st.floats(min_value=0.0, max_value=0.999999),
    xi=st.floats(min_value=0.1, max_value=10.0),
    L=st.floats(min_value=0.01, max_value=100.0),
)
@settings(max_examples=200)
def test_pareto_inverse_cdf_roundtrip(u, xi, L):
    x = sample_severities(1, FixedUniforms([u]), xi=xi, threshold_L=L)[0]
    recovered = 1.0 - (x / L) ** (-xi)
    assert abs(recovered - u) < 1e-12


def test_stream_reproducibility():
    a = sample_severities(1000, RngStream(99, 3).generator, mu=1.0, sigma=2.0)
    b = sample_severities(1000, RngStream(99, 3).generator, mu=1.0, sigma=2.0)
    assert np.array_equal(a, b)


def test_streams_are_distinct():
    a = sample_severities(100, RngStream(99, 0).generator, xi=2.0, threshold_L=1.0)
    b = sample_severities(100, RngStream(99, 1).generator, xi=2.0, threshold_L=1.0)
    assert not np.array_equal(a, b)


def test_substream_derivation_is_stable():
    s = RngStream(5)
    assert s.substream("batch", 3).stream_id == s.substream("batch", 3).stream_id
    assert s.substream("batch", 3).stream_id != s.substream("batch", 4).stream_id
