import math
import tracemalloc

import numpy as np
import pytest

from riskcap import bayes, mc_engine
from riskcap.bayes import NIXParams, PosteriorState, sample_posterior
from riskcap.distributions import (
    GammaParams,
    LognormalParams,
    ParetoParams,
    PoissonParams,
    RngStream,
    sample_severities,
)
from riskcap.mc_engine import (
    LossSample,
    ci_indices,
    empirical_quantile,
    estimate_quantile,
    simulate_conditional_sample,
    simulate_predictive_sample,
)

LN12 = LognormalParams(mu=1.0, sigma_sq=4.0)
PAR21 = ParetoParams(xi=2.0, threshold_L=1.0)


def test_annual_loss_zero_when_no_events():
    # lam small enough that N=0 happens quickly
    freq = PoissonParams(1e-9)
    sample = simulate_conditional_sample(freq, LN12, 1, RngStream(1))
    assert sample.values.tolist() == [0.0]


def test_compound_mean_lognormal():
    sample = simulate_conditional_sample(PoissonParams(10.0), LN12, 10**5, RngStream(2))
    # Wald: E[Z] = lam * exp(mu + sigma_sq/2)
    expected = 10.0 * math.exp(1.0 + 2.0)
    se = sample.values.std() / math.sqrt(sample.K)
    assert sample.values.mean() == pytest.approx(expected, abs=5 * se)


def test_compound_mean_pareto():
    sample = simulate_conditional_sample(PoissonParams(10.0), PAR21, 10**5, RngStream(3))
    assert sample.values.mean() == pytest.approx(20.0, rel=0.10)


def test_conditional_sample_basic_contracts():
    s1 = simulate_conditional_sample(PoissonParams(10.0), LN12, 1, RngStream(4))
    assert s1.K == 1
    a = simulate_conditional_sample(PoissonParams(10.0), LN12, 5000, RngStream(5))
    b = simulate_conditional_sample(PoissonParams(10.0), LN12, 5000, RngStream(5))
    assert np.array_equal(a.values, b.values)
    assert np.all(np.diff(a.values) >= 0)
    assert np.all(a.values >= 0)


def test_parallelism_invariance():
    args = (PoissonParams(10.0), LN12, 250_000)
    samples = [
        simulate_conditional_sample(*args, RngStream(6), batch_size=50_000, workers=w)
        for w in (1, 2, 8)
    ]
    assert np.array_equal(samples[0].values, samples[1].values)
    assert np.array_equal(samples[0].values, samples[2].values)


def test_predictive_parallelism_invariance():
    pf = PosteriorState("poisson-rate", GammaParams(51.0, 0.2))
    ps = PosteriorState(
        "lognormal", NIXParams(dof_nu=47.0, scale_beta=180.0, loc_theta=1.0, prec_phi=50.0)
    )
    samples = [
        simulate_predictive_sample(pf, ps, 120_000, RngStream(7), batch_size=50_000, workers=w)
        for w in (1, 2, 8)
    ]
    assert np.array_equal(samples[0].values, samples[1].values)
    assert np.array_equal(samples[0].values, samples[2].values)


def test_predictive_point_mass_limit_matches_conditional():
    # posterior pinched to a near-point mass behaves like fixed parameters
    pf = PosteriorState(
        "poisson-rate",
        GammaParams(1e12, 10.0 / 1e12),  # mean 10, sd ~1e-5
    )
    ps = PosteriorState(
        "lognormal",
        NIXParams(dof_nu=1e10, scale_beta=4e10, loc_theta=1.0, prec_phi=1e10),
    )
    pred = simulate_predictive_sample(pf, ps, 10**5, RngStream(8))
    cond = simulate_conditional_sample(PoissonParams(10.0), LN12, 10**5, RngStream(9))
    q_pred = empirical_quantile(pred, 0.99)
    q_cond = empirical_quantile(cond, 0.99)
    assert q_pred == pytest.approx(q_cond, rel=0.1)


def test_predictive_pareto_runs():
    pf = PosteriorState("poisson-rate", GammaParams(51.0, 0.2))
    ps = PosteriorState("pareto-tail", GammaParams(51.0, 1.0 / 25.0), threshold_L=1.0)
    sample = simulate_predictive_sample(pf, ps, 50_000, RngStream(10))
    assert sample.K == 50_000
    assert np.all(sample.values >= 0)


def test_predictive_pareto_requires_threshold():
    pf = PosteriorState("poisson-rate", GammaParams(51.0, 0.2))
    ps = PosteriorState("pareto-tail", GammaParams(51.0, 1.0 / 25.0))
    with pytest.raises(ValueError, match="threshold_L"):
        simulate_predictive_sample(pf, ps, 100, RngStream(11))


def _reference_batch(stream, n, lam, sev):
    """The compound loss as a plain loop: all counts, then each scenario's
    severities in scenario order, each summed from 0 in draw order. A
    lognormal severity is written out as exp(Z * sqrt(sigma_sq) + mu)."""
    gen = stream.generator
    counts = gen.poisson(lam, size=n)
    out = np.zeros(n)
    for i, count in enumerate(counts):
        p = {k: v[i] if np.ndim(v) else v for k, v in sev.items()}
        if "sigma_sq" in p:
            draws = np.exp(gen.standard_normal(int(count)) * np.sqrt(p["sigma_sq"]) + p["mu"])
        else:
            draws = sample_severities(int(count), gen, **p)
        total = 0.0
        for x in draws:
            total += x
        out[i] = total
    return out


LOW_RATE = GammaParams(4.0, 0.1)  # lambda around 0.4: most years have no event
NIX = NIXParams(dof_nu=17.0, scale_beta=68.0, loc_theta=1.0, prec_phi=20.0)


@pytest.mark.parametrize(
    "sev",
    [LN12, PAR21],
    ids=["lognormal", "pareto"],
)
def test_conditional_kernel_matches_reference_loop(sev):
    n, rng = 3000, RngStream(21)
    expected = _reference_batch(rng.substream("batch", 0), n, 0.4, vars(sev))
    assert np.count_nonzero(expected == 0) > n // 2
    sample = simulate_conditional_sample(PoissonParams(0.4), sev, n, rng, batch_size=n)
    assert np.array_equal(sample.values, np.sort(expected))


@pytest.mark.parametrize(
    "post_sev",
    [
        PosteriorState("lognormal", NIX),
        PosteriorState("pareto-tail", GammaParams(21.0, 0.1), threshold_L=1.0),
        bayes.truncate_posterior(PosteriorState("lognormal", NIX), {"sigma_sq": (0.0, 4.0)}),
    ],
    ids=["lognormal", "pareto", "truncated-lognormal"],
)
def test_predictive_kernel_matches_reference_loop(post_sev):
    n, rng = 3000, RngStream(22)
    post_freq = PosteriorState("poisson-rate", LOW_RATE)
    stream = rng.substream("batch", 0)
    lam = sample_posterior(post_freq, stream, size=n)
    if post_sev.family == "lognormal":
        mu, sigma_sq = sample_posterior(post_sev, stream, size=n)
        sev = {"mu": mu, "sigma_sq": sigma_sq}
    else:
        sev = {"xi": sample_posterior(post_sev, stream, size=n), "threshold_L": 1.0}
    expected = _reference_batch(stream, n, lam, sev)
    assert np.count_nonzero(expected == 0) > n // 2
    sample = simulate_predictive_sample(post_freq, post_sev, n, rng, batch_size=n)
    assert np.array_equal(sample.values, np.sort(expected))


CHUNK = 7  # below the losses of many years at a rate near 4


def _chunked(monkeypatch, simulate):
    """``simulate()`` with the kernel's chunks cut to CHUNK losses."""
    sizes = []

    def recording(size, gen, **params):
        sizes.append(size)
        return sample_severities(size, gen, **params)

    monkeypatch.setattr(mc_engine, "CHUNK_LOSSES", CHUNK)
    monkeypatch.setattr(mc_engine, "sample_severities", recording)
    sample = simulate()
    # Many chunks, one of them a single year with more losses than CHUNK.
    assert len(sizes) > 100 and max(sizes) > CHUNK
    return sample


@pytest.mark.parametrize("sev", [LN12, PAR21], ids=["lognormal", "pareto"])
def test_conditional_kernel_exact_across_chunk_edges(sev, monkeypatch):
    rng, batches = RngStream(23), (1000, 1000, 500)

    def simulate():
        return simulate_conditional_sample(PoissonParams(4.0), sev, 2500, rng, 1000, workers=2)

    expected = np.concatenate(
        [_reference_batch(rng.substream("batch", b), n, 4.0, vars(sev)) for b, n in enumerate(batches)]
    )
    default = simulate()
    chunked = _chunked(monkeypatch, simulate)
    assert chunked.values.tobytes() == default.values.tobytes()
    assert np.array_equal(chunked.values, np.sort(expected))


@pytest.mark.parametrize(
    "post_sev",
    [
        PosteriorState("lognormal", NIX),
        PosteriorState("pareto-tail", GammaParams(21.0, 0.1), threshold_L=1.0),
        bayes.truncate_posterior(PosteriorState("lognormal", NIX), {"sigma_sq": (0.0, 4.0)}),
    ],
    ids=["lognormal", "pareto", "truncated-lognormal"],
)
def test_predictive_kernel_exact_across_chunk_edges(post_sev, monkeypatch):
    n, rng = 2000, RngStream(24)
    post_freq = PosteriorState("poisson-rate", GammaParams(40.0, 0.1))  # lambda around 4
    stream = rng.substream("batch", 0)
    lam = sample_posterior(post_freq, stream, size=n)
    if post_sev.family == "lognormal":
        mu, sigma_sq = sample_posterior(post_sev, stream, size=n)
        sev = {"mu": mu, "sigma_sq": sigma_sq}
    else:
        sev = {"xi": sample_posterior(post_sev, stream, size=n), "threshold_L": 1.0}
    expected = _reference_batch(stream, n, lam, sev)

    def simulate():
        return simulate_predictive_sample(post_freq, post_sev, n, rng, batch_size=n)

    default = simulate()
    chunked = _chunked(monkeypatch, simulate)
    assert chunked.values.tobytes() == default.values.tobytes()
    assert np.array_equal(chunked.values, np.sort(expected))


@pytest.mark.parametrize(
    "simulate, params",
    [
        (simulate_conditional_sample, (PoissonParams(1000.0), LN12)),
        (simulate_predictive_sample,
         (PosteriorState("poisson-rate", GammaParams(1e4, 0.1)), PosteriorState("lognormal", NIX))),
    ],
    ids=["conditional", "predictive"],
)
def test_kernel_memory_does_not_grow_with_rate(simulate, params):
    # 2e7 losses in one batch: 306 MiB conditional and 611 MiB predictive
    # when a batch's severities are drawn at once, 2 and 4 MiB in chunks.
    tracemalloc.start()
    try:
        sample = simulate(*params, 20_000, RngStream(3), workers=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sample.values.mean() > 1e4  # about 1000 losses of mean e^3 a year
    assert peak < 16 * 2**20


# ---------------------------------------------------------------------------
# Quantiles


def test_empirical_quantile_index_rule():
    values = np.arange(10.0, 10010.0, 10.0)  # 10, 20, ..., 10000 (K=1000)
    sample = LossSample(values=values)
    assert empirical_quantile(sample, 0.999) == 10000.0

    s10 = LossSample(values=np.arange(1.0, 11.0))
    assert empirical_quantile(s10, 0.5) == 6.0

    s1 = LossSample(values=np.array([7.0]))
    assert empirical_quantile(s1, 0.9) == 7.0

    with pytest.raises(ValueError):
        empirical_quantile(s10, 1.5)


def test_quantile_monotone_in_q():
    rng = RngStream(12)
    sample = simulate_conditional_sample(PoissonParams(10.0), LN12, 10_000, rng)
    qs = [0.5, 0.9, 0.99, 0.999]
    vals = [empirical_quantile(sample, q) for q in qs]
    assert vals == sorted(vals)


def test_ci_indices_exact():
    assert ci_indices(10**5, 0.999, 0.95) == (99880, 99920, True)


def test_ci_collapses_as_gamma_to_zero():
    r, s, _ = ci_indices(10**5, 0.999, 1e-12)
    # z -> 0: both endpoints land next to floor(K*q)
    assert abs(r - 99900) <= 1
    assert abs(s - 99900) <= 1


def test_ci_reliability_flag():
    _, _, reliable = ci_indices(10**3, 0.999, 0.95)
    assert not reliable  # Kq(1-q) = 0.999 < 50


def test_ci_brackets_point_estimate():
    sample = simulate_conditional_sample(PoissonParams(10.0), LN12, 10**5, RngStream(13))
    est = estimate_quantile(sample, 0.999, 0.95)
    assert est.ci_lower <= est.value == empirical_quantile(sample, 0.999) <= est.ci_upper


def test_ci_validation():
    sample = LossSample(values=np.arange(1.0, 11.0))
    with pytest.raises(ValueError):
        estimate_quantile(sample, 0.999, 0.0)


def test_loss_sample_validation():
    with pytest.raises(ValueError):
        LossSample(values=np.array([3.0, 1.0]))
    with pytest.raises(ValueError):
        LossSample(values=np.array([-1.0, 2.0]))


@pytest.mark.parametrize(
    "values, bad",
    [([1.0, 2.0, np.inf, np.inf], 2), ([1.0, np.nan, 3.0], 1), ([-np.inf, 1.0], 1)],
)
def test_loss_sample_rejects_non_finite(values, bad):
    # nan < x is False, so the order check alone cannot catch these.
    with pytest.raises(ValueError, match=f"{bad} non-finite values out of {len(values)}"):
        LossSample(values=np.array(values))


def test_coverage_of_conservative_interval():
    # analytic 0.999 quantile of LN(1, 2): exp(1 + 2 * z_0.999)
    from scipy.stats import norm

    true_q = math.exp(1.0 + 2.0 * norm.ppf(0.999))
    hits = 0
    reps = 200
    for i in range(reps):
        draws = sample_severities(10**5, RngStream(1000 + i).generator, mu=1.0, sigma=2.0)
        est = estimate_quantile(LossSample(values=np.sort(draws)), 0.999, 0.95)
        assert est.reliable_ci
        if est.ci_lower <= true_q <= est.ci_upper:
            hits += 1
    assert hits / reps >= 0.90
