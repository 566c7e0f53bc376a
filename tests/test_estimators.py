import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskcap import bayes, estimators
from riskcap.distributions import RngStream, sample_severities
from riskcap.estimators import mle_lognormal, mle_pareto, mle_poisson


def test_mle_poisson():
    assert mle_poisson([2, 3]) == pytest.approx(2.5)
    assert mle_poisson([0, 0, 0]) == 0.0
    counts = [10] * 399 + [13]  # 400 years, 4003 events
    assert sum(counts) == 4003
    assert mle_poisson(counts) == pytest.approx(10.0075)
    with pytest.raises(ValueError):
        mle_poisson([])


def test_mle_lognormal():
    mu, s2 = mle_lognormal([1.0, math.e**2])
    assert mu == pytest.approx(1.0)
    assert s2 == pytest.approx(1.0)
    with pytest.raises(ValueError):
        mle_lognormal([3.0, 3.0])
    with pytest.raises(ValueError):
        mle_lognormal([5.0])
    with pytest.raises(ValueError):
        mle_lognormal([1.0, -2.0])


def test_mle_lognormal_consistency():
    x = sample_severities(10**5, RngStream(20).generator, mu=1.0, sigma=2.0)
    mu, s2 = mle_lognormal(x)
    assert mu == pytest.approx(1.0, abs=0.05)
    assert math.sqrt(s2) == pytest.approx(2.0, abs=0.05)


def test_mle_pareto():
    assert mle_pareto([math.e, math.e**2], 1.0) == pytest.approx(2.0 / 3.0)
    assert mle_pareto([math.e], 1.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        mle_pareto([0.5], 1.0)
    with pytest.raises(ValueError):
        mle_pareto([1.0, 1.0], 1.0)


def test_mle_pareto_consistency():
    x = sample_severities(10**5, RngStream(21).generator, xi=2.0, threshold_L=1.0)
    assert mle_pareto(x, 1.0) == pytest.approx(2.0, rel=0.03)


@given(
    c=st.floats(min_value=0.1, max_value=100.0),
    xs=st.lists(st.floats(min_value=1.1, max_value=1e3), min_size=2, max_size=30),
)
@settings(max_examples=100)
def test_mle_pareto_scale_equivariance(c, xs):
    base = mle_pareto(xs, 1.0)
    scaled = mle_pareto([c * x for x in xs], c)
    assert scaled == pytest.approx(base, rel=1e-9)


counts_lists = st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=30)


@given(counts=counts_lists)
@settings(max_examples=200)
def test_poisson_mle_equals_noninformative_mode(counts):
    g = bayes.noninformative_poisson(counts)
    mode = (g.shape - 1) * g.scale
    assert mode == pytest.approx(mle_poisson(counts), rel=1e-12, abs=1e-12)


@given(xs=st.lists(st.floats(min_value=1.01, max_value=1e4), min_size=1, max_size=30))
@settings(max_examples=200)
def test_pareto_mle_equals_noninformative_mode(xs):
    g = bayes.noninformative_pareto(xs, 1.0)
    mode = (g.shape - 1) * g.scale
    assert mode == pytest.approx(mle_pareto(xs, 1.0), rel=1e-12)


@given(
    ys=st.lists(
        st.floats(min_value=-3, max_value=3), min_size=4, max_size=30
    ).filter(lambda v: np.std(v) > 1e-3)
)
@settings(max_examples=200)
def test_lognormal_mle_equals_noninformative_joint_mode(ys):
    nix = bayes.noninformative_lognormal(ys)
    mode_mu, mode_s2 = nix.loc_theta, nix.scale_beta / (nix.dof_nu + 3.0)  # joint NIX mode
    mu, s2 = mle_lognormal(np.exp(ys))
    assert mode_mu == pytest.approx(mu, rel=1e-12, abs=1e-12)
    assert mode_s2 == pytest.approx(s2, rel=1e-10)
