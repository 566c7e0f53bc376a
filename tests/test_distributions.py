import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from riskcap.bayes import NIXParams, PosteriorState, sample_posterior
from riskcap.distributions import (
    GammaParams,
    LognormalParams,
    ParetoParams,
    PointParams,
    RngStream,
    sample_severities,
    severity_tail,
)
from riskcap.mc_engine import simulate_conditional_sample, simulate_predictive_sample

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
        PointParams(0.0, LognormalParams(mu=0.0, sigma_sq=1.0))
    with pytest.raises(ValueError):
        LognormalParams(mu=0.0, sigma_sq=-1.0)
    with pytest.raises(ValueError):
        ParetoParams(xi=-2.0, threshold_L=1.0)
    with pytest.raises(ValueError):
        GammaParams(shape=1.0, scale=0.0)
    with pytest.raises(TypeError, match="unsupported severity family: GammaParams"):
        PointParams(1.0, GammaParams(shape=1.0, scale=1.0))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_params_refuse_non_finite_fields(bad):
    ln = LognormalParams(mu=0.0, sigma_sq=1.0)
    nix = dict(dof_nu=-2.0, scale_beta=1.0, loc_theta=0.0, prec_phi=1.0)
    NIXParams(**nix)  # a prior's dof_nu may be negative, but not infinite
    makers = [lambda: PointParams(bad, ln), lambda: LognormalParams(bad, 1.0),
              lambda: LognormalParams(0.0, bad), lambda: ParetoParams(bad, 1.0),
              lambda: ParetoParams(2.0, bad), lambda: GammaParams(bad, 1.0),
              lambda: GammaParams(1.0, bad)]
    makers += [lambda k=k: NIXParams(**{**nix, k: bad}) for k in nix]
    for make in makers:
        with pytest.raises(ValueError, match="finite"):
            make()


def test_poisson_moments():
    # Counts are drawn only inside the compound kernel; with every severity
    # exactly 1 (sigma_sq so small that exp rounds to 1), each annual loss is its count.
    unit = LognormalParams(mu=0.0, sigma_sq=1e-300)
    draws = simulate_conditional_sample(PointParams(10.0, unit), N, RngStream(11), keep=N).values
    assert np.all(draws >= 0)
    assert np.all(draws == draws.astype(int))
    assert draws.mean() == pytest.approx(10.0, abs=3 * math.sqrt(10.0 / N))
    assert draws.var() == pytest.approx(10.0, rel=0.05)


def test_predictive_count_moments():
    # The predictive count is negative binomial: a Poisson whose rate is
    # Gamma(a, s) has mean a*s and variance a*s*(1 + s). Unit severities again.
    a, s = 40.0, 0.25
    rate = PosteriorState("poisson-rate", GammaParams(a, s))
    unit = PosteriorState("lognormal", NIXParams(dof_nu=10.0, scale_beta=1e-299,
                                                 loc_theta=0.0, prec_phi=1.0))
    draws = simulate_predictive_sample(rate, unit, N, RngStream(11), keep=N).values
    assert np.all(draws == draws.astype(int))
    assert draws.mean() == pytest.approx(a * s, abs=3 * math.sqrt(a * s * (1 + s) / N))
    assert draws.var() == pytest.approx(a * s * (1 + s), rel=0.05)


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
    point = PointParams(1.0, LognormalParams(mu=1.0, sigma_sq=3.0)).sampler_args()
    x = sample_severities(1000, RngStream(8).generator, **point)
    assert np.array_equal(x, np.exp(z * np.sqrt(np.full(1000, 3.0)) + 1.0))

    mu = RngStream(9).generator.normal(size=1000)
    sigma_sq = RngStream(10).generator.gamma(2.0, size=1000)
    x = sample_severities(1000, RngStream(8).generator, mu=mu, sigma=np.sqrt(sigma_sq))
    assert np.array_equal(x, np.exp(z * np.sqrt(sigma_sq) + mu))


def test_pareto_forced_uniforms():
    x = sample_severities(2, FixedUniforms([0.75, 0.0]), xi=2.0, threshold_L=1.0)
    assert x == pytest.approx([2.0, 1.0])


def test_pareto_sampler_in_place_matches_expression():
    # The sampler works in place on its uniforms; the losses must be the bits
    # of threshold_L * (1 - U)^(-1/xi), for a scalar xi and one xi per row.
    u = RngStream(12).generator.random((300, 4))
    x = sample_severities((300, 4), RngStream(12).generator, xi=0.7, threshold_L=2.5)
    assert x.tobytes() == (2.5 * np.power(1.0 - u, -1.0 / 0.7)).tobytes()

    xi = 0.5 + RngStream(13).generator.gamma(2.0, size=(300, 1))
    x = sample_severities((300, 4), RngStream(12).generator, xi=xi, threshold_L=2.5)
    assert x.tobytes() == (2.5 * np.power(1.0 - u, -1.0 / xi)).tobytes()


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


TOP = sys.float_info.max


@pytest.mark.parametrize("args", [{"mu": 1.0, "sigma": 2.0}, {"mu": 1.0, "sigma": 20.0},
                                  {"xi": 2.0, "threshold_L": 1.0},
                                  {"xi": 0.01, "threshold_L": 0.5}],
                         ids=["lognormal", "lognormal-wide", "pareto", "pareto-heavy"])
def test_severity_tail_matches_scipy(args):
    # x = 0, below and at the median, the far tail and the largest double; for a
    # Pareto also below and at L.
    if "xi" in args:
        xi, L = args["xi"], args["threshold_L"]
        x = np.array([0.0, L / 2, L, L * 2 ** (1 / xi), 1e100, TOP])
        # pareto(scale=L).sf(x) overflows in x / L at the largest double when L < 1,
        # so that point's reference is L^xi * x^-xi, both factors finite.
        want = np.append(stats.pareto(b=xi, scale=L).sf(x[:-1]),
                         L**xi * stats.pareto(b=xi).sf(TOP))
    else:
        median = math.exp(args["mu"])
        x = np.array([0.0, median / 10, median, 1e10, TOP])
        want = stats.lognorm(s=args["sigma"], scale=median).sf(x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = severity_tail(x, **args)
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=0)
    assert got[0] == 1.0
    assert (got[-1] > 0) == (want[-1] > 0)  # no tail underflows to 0 early


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
