import math
import sys
import tracemalloc

import numpy as np
import pytest

from riskcap import mc_engine
from riskcap.bayes import NIXParams, PosteriorState, sample_posterior
from riskcap.distributions import (
    GammaParams,
    LognormalParams,
    ParetoParams,
    PointParams,
    RngStream,
    sample_severities,
    severity_variates,
)
from riskcap.mc_engine import (
    LossSample,
    _ci_indices,
    _count_table,
    _predictive_count_table,
    ak_quantile,
    empirical_quantile,
    estimate_quantile,
    quantile_tail,
    simulate_conditional_sample,
    simulate_pair,
    simulate_predictive_sample,
)

LN12 = LognormalParams(mu=1.0, sigma_sq=4.0)
PAR21 = ParetoParams(xi=2.0, threshold_L=1.0)


def test_annual_loss_zero_when_no_events():
    # lam small enough that N=0 happens quickly
    sample = simulate_conditional_sample(PointParams(1e-9, LN12), 1, RngStream(1), keep=1)
    assert sample.values.tolist() == [0.0]


def test_compound_mean_lognormal():
    sample = simulate_conditional_sample(PointParams(10.0, LN12), 10**5, RngStream(2), keep=10**5)
    # Wald: E[Z] = lam * exp(mu + sigma_sq/2)
    expected = 10.0 * math.exp(1.0 + 2.0)
    se = sample.values.std() / math.sqrt(sample.K)
    assert sample.values.mean() == pytest.approx(expected, abs=5 * se)


def test_compound_mean_pareto():
    sample = simulate_conditional_sample(PointParams(10.0, PAR21), 10**5, RngStream(3), keep=10**5)
    assert sample.values.mean() == pytest.approx(20.0, rel=0.10)


def test_conditional_sample_basic_contracts():
    s1 = simulate_conditional_sample(PointParams(10.0, LN12), 1, RngStream(4), keep=1)
    assert s1.K == 1
    a = simulate_conditional_sample(PointParams(10.0, LN12), 5000, RngStream(5), keep=5000)
    b = simulate_conditional_sample(PointParams(10.0, LN12), 5000, RngStream(5), keep=5000)
    assert np.array_equal(a.values, b.values)
    assert np.all(np.diff(a.values) >= 0)
    assert np.all(a.values >= 0)


def test_parallelism_invariance():
    args = (PointParams(10.0, LN12), 250_000)
    samples = [
        simulate_conditional_sample(*args, RngStream(6), workers=w, keep=250_000)
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
        simulate_predictive_sample(pf, ps, 120_000, RngStream(7), workers=w, keep=120_000)
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
    pred = simulate_predictive_sample(pf, ps, 10**5, RngStream(8), keep=10**5)
    cond = simulate_conditional_sample(PointParams(10.0, LN12), 10**5, RngStream(9), keep=10**5)
    q_pred = empirical_quantile(pred, 0.99)
    q_cond = empirical_quantile(cond, 0.99)
    assert q_pred == pytest.approx(q_cond, rel=0.1)


def test_predictive_pareto_runs():
    pf = PosteriorState("poisson-rate", GammaParams(51.0, 0.2))
    ps = PosteriorState("pareto-tail", GammaParams(51.0, 1.0 / 25.0), threshold_L=1.0)
    sample = simulate_predictive_sample(pf, ps, 50_000, RngStream(10), keep=50_000)
    assert sample.K == 50_000
    assert np.all(sample.values >= 0)


def test_predictive_pareto_requires_threshold():
    pf = PosteriorState("poisson-rate", GammaParams(51.0, 0.2))
    ps = PosteriorState("pareto-tail", GammaParams(51.0, 1.0 / 25.0))
    with pytest.raises(ValueError, match="threshold_L"):
        simulate_predictive_sample(pf, ps, 100, RngStream(11), keep=100)


def _poisson_log_terms(lam):
    return lambda k: (k * math.log(lam), -lam, -math.lgamma(k + 1))


def _nb_log_terms(rate: GammaParams):
    """A Poisson count whose rate is Gamma(shape a, scale s) is NB(a, q = s/(1+s))."""
    a, q = rate.shape, rate.scale / (1 + rate.scale)
    return lambda k: (math.lgamma(a + k), -math.lgamma(a), -math.lgamma(k + 1),
                      a * math.log1p(-q), k * math.log(q))


def _reference_batch(stream, n, table, sev):
    """The compound loss as a plain loop over the kernel's layout: the count
    histogram as one multinomial over ``table``, then the severity parameters
    ``sev(m)`` of the m years that have a loss, then each count in ascending
    order and each of its years' severities, summed from 0 in draw order. A
    lognormal severity is written out as exp(Z * sqrt(sigma_sq) + mu)."""
    gen = stream.generator
    k0, pmf = table
    years = gen.multinomial(n, pmf)
    counts = [k0 + c for c, m in enumerate(years) for _ in range(m) if k0 + c > 0]
    params = sev(len(counts)) if counts else {}
    out = np.zeros(n)
    for i, count in enumerate(counts):
        p = {k: v[i] if np.ndim(v) else v for k, v in params.items()}
        if "sigma_sq" in p:
            draws = np.exp(gen.standard_normal(count) * np.sqrt(p["sigma_sq"]) + p["mu"])
        else:
            draws = sample_severities(count, gen, **p)
        total = 0.0
        for x in draws:
            total += x
        out[i] = total
    return out


def _conditional_reference(stream, n, point):
    return _reference_batch(stream, n, _count_table(0.0, point.lam), lambda m: vars(point.severity))


def _predictive_reference(stream, n, post_freq, post_sev):
    """A predictive batch: the reference loop with counts from the negative-binomial
    marginal, so no rate is drawn, and severity parameters drawn only for the years
    that have a loss."""
    def sev(m):
        if post_sev.family == "lognormal":
            mu, sigma_sq = sample_posterior(post_sev, stream, size=m)
            return {"mu": mu, "sigma_sq": sigma_sq}
        return {"xi": sample_posterior(post_sev, stream, size=m), "threshold_L": 1.0}

    return _reference_batch(stream, n, _predictive_count_table(post_freq), sev)


LOW_RATE = GammaParams(4.0, 0.1)  # lambda around 0.4: most years have no event
NIX = NIXParams(dof_nu=17.0, scale_beta=68.0, loc_theta=1.0, prec_phi=20.0)


@pytest.mark.parametrize(
    "sev",
    [LN12, PAR21],
    ids=["lognormal", "pareto"],
)
def test_conditional_kernel_matches_reference_loop(sev):
    n, rng, point = 3000, RngStream(21), PointParams(0.4, sev)
    expected = _conditional_reference(rng.substream("batch", 0), n, point)
    assert np.count_nonzero(expected == 0) > n // 2
    sample = simulate_conditional_sample(point, n, rng, keep=n)
    assert np.array_equal(sample.values, np.sort(expected))


@pytest.mark.parametrize(
    "post_sev",
    [
        PosteriorState("lognormal", NIX),
        PosteriorState("pareto-tail", GammaParams(21.0, 0.1), threshold_L=1.0),
        PosteriorState("lognormal", NIX, truncation={"sigma_sq": (0.0, 4.0)}),
    ],
    ids=["lognormal", "pareto", "truncated-lognormal"],
)
def test_predictive_kernel_matches_reference_loop(post_sev):
    n, rng = 3000, RngStream(22)
    post_freq = PosteriorState("poisson-rate", LOW_RATE)
    expected = _predictive_reference(rng.substream("batch", 0), n, post_freq, post_sev)
    assert np.count_nonzero(expected == 0) > n // 2
    sample = simulate_predictive_sample(post_freq, post_sev, n, rng, keep=n)
    assert np.array_equal(sample.values, np.sort(expected))


# ---------------------------------------------------------------------------
# Count tables


def _table_pmf(table):
    k0, pmf = table
    assert np.all(pmf >= 0) and abs(pmf.sum() - 1.0) <= 1e-14
    return np.arange(k0, k0 + pmf.size), pmf


EPS = np.finfo(float).eps


@pytest.mark.parametrize(
    "make_table, log_terms",
    [
        *[(lambda lam=lam: _count_table(0.0, lam), _poisson_log_terms(lam))
          for lam in (1e-3, 0.4, 10.0, 1e3, 1e6)],
        *[(lambda rate=rate: _predictive_count_table(PosteriorState("poisson-rate", rate)),
           _nb_log_terms(rate)) for rate in (GammaParams(3.0, 2.0), GammaParams(201.0, 0.05))],
    ],
    ids=["poisson-1e-3", "poisson-0.4", "poisson-10", "poisson-1e3", "poisson-1e6",
         "nb-gamma-3-2", "nb-gamma-201-0.05"],
)
def test_count_table_matches_closed_form(make_table, log_terms):
    # Each step of the table is the closed-form pmf within 1e-12 relative, plus
    # the reference's own rounding: at lam = 1e6 its lgamma terms reach 1e7, so
    # it is good to only about 4e-9 there.
    k, got = _table_pmf(make_table())
    terms = [log_terms(int(i)) for i in k]
    ref = np.exp([sum(t) for t in terms])
    ref_err = 4 * EPS * np.array([sum(map(abs, t)) for t in terms])
    assert np.all(np.abs(got - ref) <= (1e-12 + ref_err) * ref + 4 * EPS)


def test_count_table_reaches_only_where_the_mass_is():
    k0, pmf = _count_table(0.0, 1e9)
    assert abs(pmf.sum() - 1.0) <= 1e-14
    assert pmf.size <= 100 * math.sqrt(1e9)
    assert k0 > 1e9 - 20 * math.sqrt(1e9)
    assert not pmf.flags.writeable


@pytest.mark.parametrize("box", [(1.0, 4.0), (3.2, 3.5), (8.0, math.inf), (-math.inf, 2.0)])
def test_truncated_rate_count_table_matches_quadrature(box):
    # Counts from Poisson(lam), lam ~ Gamma(3, 2) truncated to the box.
    from scipy import integrate, special

    a, s = 3.0, 2.0
    state = PosteriorState("poisson-rate", GammaParams(a, s), truncation={"lambda": box})
    k, got = _table_pmf(_predictive_count_table(state))
    lo, hi = max(box[0], 0.0), box[1]
    mass = special.gammainc(a, hi / s) - special.gammainc(a, lo / s)
    density = lambda lam, i: math.exp(sum(_poisson_log_terms(lam)(i)) + (a - 1) * math.log(lam)
                                      - lam / s - math.lgamma(a) - a * math.log(s))
    ref = np.array([integrate.quad(density, lo, hi, args=(int(i),), epsabs=0, epsrel=1e-12)[0]
                    for i in k]) / mass
    assert got.sum() == pytest.approx(1.0, abs=1e-15)
    np.testing.assert_allclose(got, ref, rtol=1e-9, atol=1e-15)


CHUNK = 7  # below the losses of many years at a rate near 4


def _recorded_shapes(monkeypatch, simulate):
    """``simulate()`` and the (b, columns) shape of every severity matrix it drew:
    the kernel and ``ak_quantile`` both draw theirs with ``severity_variates``."""
    shapes = []

    def recorded(size, *args):
        shapes.append(size)
        return severity_variates(size, *args)

    monkeypatch.setattr(mc_engine, "severity_variates", recorded)
    return simulate(), shapes


def _chunked(monkeypatch, simulate):
    """``simulate()`` with the kernel's chunks cut to CHUNK losses."""
    monkeypatch.setattr(mc_engine, "CHUNK_LOSSES", CHUNK)
    sample, shapes = _recorded_shapes(monkeypatch, simulate)
    # Many chunks, each within CHUNK losses or a single year, and some of them
    # a single year with more losses than CHUNK.
    assert len(shapes) > 100
    assert all(b * k <= CHUNK or b == 1 for b, k in shapes)
    assert any(b == 1 and k > CHUNK for b, k in shapes)
    return sample


@pytest.mark.parametrize("sev", [LN12, PAR21], ids=["lognormal", "pareto"])
def test_conditional_kernel_exact_across_chunk_edges(sev, monkeypatch):
    rng, batches = RngStream(23), (1000, 1000, 500)
    monkeypatch.setattr(mc_engine, "BATCH_SIZE", 1000)

    def simulate():
        return simulate_conditional_sample(PointParams(4.0, sev), 2500, rng, workers=2, keep=2500)

    expected = np.concatenate(
        [_conditional_reference(rng.substream("batch", b), n, PointParams(4.0, sev))
         for b, n in enumerate(batches)]
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
        PosteriorState("lognormal", NIX, truncation={"sigma_sq": (0.0, 4.0)}),
    ],
    ids=["lognormal", "pareto", "truncated-lognormal"],
)
def test_predictive_kernel_exact_across_chunk_edges(post_sev, monkeypatch):
    n, rng = 2000, RngStream(24)
    post_freq = PosteriorState("poisson-rate", GammaParams(40.0, 0.1))  # lambda around 4
    expected = _predictive_reference(rng.substream("batch", 0), n, post_freq, post_sev)

    def simulate():
        return simulate_predictive_sample(post_freq, post_sev, n, rng, keep=n)

    default = simulate()
    chunked = _chunked(monkeypatch, simulate)
    assert chunked.values.tobytes() == default.values.tobytes()
    assert np.array_equal(chunked.values, np.sort(expected))


@pytest.mark.parametrize("lam, n", [(2.0, 3000), (300.0, 300)], ids=["columns", "cumsum"])
@pytest.mark.parametrize(
    "sev",
    [LN12, PAR21, PosteriorState("lognormal", NIX),
     PosteriorState("pareto-tail", GammaParams(21.0, 0.1), threshold_L=1.0)],
    ids=["conditional-lognormal", "conditional-pareto", "predictive-lognormal",
         "predictive-pareto"],
)
def test_kernel_row_sums_match_reference_loop(sev, lam, n, monkeypatch):
    # At a rate near 2 the counts 2 to 4 fill matrices of at least
    # COLUMN_SUM_ROWS rows, summed column by column; near 300 every matrix is
    # shorter than that and its rows, most longer than it, go to the cumsum.
    rng = RngStream(25)
    if isinstance(sev, PosteriorState):
        post_freq = PosteriorState("poisson-rate", GammaParams(10 * lam, 0.1))
        expected = _predictive_reference(rng.substream("batch", 0), n, post_freq, sev)
        simulate = lambda: simulate_predictive_sample(post_freq, sev, n, rng, keep=n)
    else:
        expected = _conditional_reference(rng.substream("batch", 0), n, PointParams(lam, sev))
        simulate = lambda: simulate_conditional_sample(PointParams(lam, sev), n, rng, keep=n)
    sample, shapes = _recorded_shapes(monkeypatch, simulate)
    by_columns = [k for b, k in shapes if b >= mc_engine.COLUMN_SUM_ROWS]
    if lam < 10:
        assert max(by_columns) >= 3
    else:
        assert not by_columns and max(k for _, k in shapes) > mc_engine.COLUMN_SUM_ROWS
    assert np.array_equal(sample.values, np.sort(expected))


def test_batch_with_only_zero_counts_is_zeros():
    def no_severities(m):
        raise AssertionError("a batch without losses drew severity parameters")

    gen = RngStream(26).generator
    table = (0, np.array([1.0]))
    assert [out.tolist() for out in mc_engine._compound_batch(gen, 5, ((table, no_severities),))] \
        == [[0.0] * 5]
    # Nor does a predictive run draw from a truncated posterior when no year has a loss.
    post_freq = PosteriorState("poisson-rate", GammaParams(1.0, 1e-12))
    post_sev = PosteriorState("lognormal", NIX, truncation={"sigma_sq": (0.0, 4.0)})
    sample = simulate_predictive_sample(post_freq, post_sev, 1000, RngStream(27), keep=1000)
    assert sample.values.tolist() == [0.0] * 1000


@pytest.mark.parametrize(
    "simulate, params",
    [
        (simulate_conditional_sample, (PointParams(1000.0, LN12),)),
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
        sample = simulate(*params, 20_000, RngStream(3), workers=1, keep=20_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sample.values.mean() > 1e4  # about 1000 losses of mean e^3 a year
    assert peak < 16 * 2**20


# ---------------------------------------------------------------------------
# Paired sides


def _paired_reference(stream, n, sides):
    """Each side's n losses, and the counts its years hold, as a plain loop over the
    kernel's layout for several ``(table, sev)`` sides: each side's count histogram
    in side order, then each side's severity parameters, then, for each count k
    that any side holds in ascending order, one row of k standard variates per
    year of the side with the most years at k. Each side with a t-th year at k
    transforms row t and sums it from 0 in draw order."""
    gen = stream.generator
    hists = [(k0, gen.multinomial(n, pmf)) for (k0, pmf), _ in sides]
    counts = [[k0 + c for c, m in enumerate(years) for _ in range(m) if k0 + c > 0]
              for k0, years in hists]
    params = [sev(len(c)) if c else {} for (_, sev), c in zip(sides, counts)]
    lognormal = any("mu" in p for p in params)
    outs = [np.zeros(n) for _ in sides]
    for k in sorted(set().union(*counts)):
        years_at_k = [[i for i, c in enumerate(cs) if c == k] for cs in counts]
        for t in range(max(map(len, years_at_k))):
            z = gen.standard_normal(k) if lognormal else gen.random(k)
            for out, p, years in zip(outs, params, years_at_k):
                if t >= len(years):
                    continue
                p = {name: v[years[t]] if np.ndim(v) else v for name, v in p.items()}
                if lognormal:
                    draws = np.exp(z * np.sqrt(p["sigma_sq"]) + p["mu"])
                else:
                    draws = p["threshold_L"] * np.power(1.0 - z, -1.0 / p["xi"])
                total = 0.0
                for x in draws:
                    total += x
                out[years[t]] = total
    return outs, [set(c) for c in counts]


PAIRS = {
    "lognormal": (LN12, PosteriorState("lognormal", NIX)),
    "pareto": (PAR21, PosteriorState("pareto-tail", GammaParams(21.0, 0.1), threshold_L=1.0)),
}


@pytest.mark.parametrize("chunk", [None, CHUNK], ids=["default", "chunked"])
@pytest.mark.parametrize("family", PAIRS)
def test_pair_kernel_matches_reference_loop(family, chunk, monkeypatch):
    # At a rate near 0.4 most years have no loss, and some count is held by one
    # side only; near 4, with chunks of 7 losses, many years fill a matrix of
    # their own.
    sev, post_sev = PAIRS[family]
    lam = 0.4 if chunk is None else 4.0
    point = PointParams(lam, sev)
    post_freq = PosteriorState("poisson-rate", GammaParams(10 * lam, 0.1))

    def predictive(m):
        if family == "lognormal":
            mu, sigma_sq = sample_posterior(post_sev, stream, size=m)
            return {"mu": mu, "sigma_sq": sigma_sq}
        return {"xi": sample_posterior(post_sev, stream, size=m), "threshold_L": 1.0}

    n, rng = 3000, RngStream(31)
    stream = rng.substream("batch", 0)
    sides = [(_count_table(0.0, lam), lambda m: vars(sev)),
             (_predictive_count_table(post_freq), predictive)]
    expected, held = _paired_reference(stream, n, sides)

    def simulate():
        return simulate_pair(point, post_freq, post_sev, n, rng, keep=n)

    if chunk is None:
        pair = simulate()
        assert np.count_nonzero(expected[0] == 0) > n // 2 and held[0] != held[1]
    else:
        pair = _chunked(monkeypatch, simulate)
    for sample, losses in zip(pair, expected):
        assert np.array_equal(sample.values, np.sort(losses))


@pytest.mark.parametrize("family", PAIRS)
def test_pair_sides_do_not_depend_on_workers(family):
    sev, post_sev = PAIRS[family]
    post_freq = PosteriorState("poisson-rate", GammaParams(20.0, 0.1))
    K, keep = 250_001, 1063
    runs = [simulate_pair(PointParams(2.0, sev), post_freq, post_sev, K, RngStream(32), w,
                          keep=keep) for w in (1, 2, 3)]
    for cond, pred in runs[1:]:
        assert cond.values.tobytes() == runs[0][0].values.tobytes()
        assert pred.values.tobytes() == runs[0][1].values.tobytes()
    assert all(s.K == K and s.values.size == keep for run in runs for s in run)


@pytest.mark.parametrize("workers", [0, -1])
def test_workers_below_1_are_refused(workers):
    from riskcap.capital import CellModel, LossData, conditional_capital

    point, post_freq = PointParams(2.0, LN12), PosteriorState("poisson-rate", LOW_RATE)
    post_sev = PosteriorState("lognormal", NIX)
    data = LossData(annual_counts=[2, 1, 1], severities=[1.0, 2.0, 3.0, 4.0])
    calls = [
        lambda: simulate_conditional_sample(point, 100, RngStream(1), workers, keep=10),
        lambda: simulate_predictive_sample(post_freq, post_sev, 100, RngStream(1), workers,
                                           keep=10),
        lambda: simulate_pair(point, post_freq, post_sev, 100, RngStream(1), workers, keep=10),
        lambda: conditional_capital(CellModel("c", "lognormal"), data, K=100, workers=workers),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=f"workers must be at least 1, got {workers}"):
            call()


def test_pair_refuses_mixed_families():
    post_freq = PosteriorState("poisson-rate", GammaParams(20.0, 0.1))
    with pytest.raises(ValueError, match="must share a severity family"):
        simulate_pair(PointParams(2.0, LN12), post_freq, PAIRS["pareto"][1], 100, RngStream(33),
                      keep=100)


_GAPS = {}


def _m400_quantiles():
    """0.999 quantiles over 40 seeds of a fit to one 400-year history of the
    reference cell: conditional and predictive from independent one-mode runs,
    and both modes from one pair."""
    if not _GAPS:
        from riskcap.capital import CellModel, fit_mle, fit_posteriors
        from riskcap.experiments import generate_synthetic

        data = generate_synthetic(PointParams(10.0, LN12), 400, RngStream(0).substream("data"))
        cell = CellModel("m400", "lognormal")
        mle, posteriors = fit_mle(cell, data), fit_posteriors(cell, data)
        K, q = 20_000, 0.999
        keep = quantile_tail(K, q)
        rows = []
        for seed in range(40):
            rng = RngStream(seed)
            cond = simulate_conditional_sample(mle, K, rng.substream("cond"), keep=keep)
            pred = simulate_predictive_sample(*posteriors, K, rng.substream("pred"), keep=keep)
            pair = simulate_pair(mle, *posteriors, K, rng.substream("pair"), keep=keep)
            rows.append([empirical_quantile(s, q) for s in (cond, pred, *pair)])
        _GAPS.update(zip(("cond", "pred", "pair_cond", "pair_pred"), np.array(rows).T))
    return _GAPS


@pytest.mark.parametrize("mode", ["cond", "pred"])
def test_pair_sides_keep_their_quantiles(mode):
    # Each side's law is its one-mode law: the mean quantile over seeds agrees
    # within 4 standard errors (|z| < 3 on 30 histories checked this way).
    q = _m400_quantiles()
    one, paired = q[mode], q[f"pair_{mode}"]
    se = math.sqrt(one.var(ddof=1) / one.size + paired.var(ddof=1) / paired.size)
    assert abs(paired.mean() - one.mean()) < 4 * se


def test_pair_gap_has_less_noise():
    # Shared variates: the gap's sd over seeds is 3.4 to 4.4 times smaller here
    # (2.5 to 5.9 over 30 histories), against 2 asserted.
    q = _m400_quantiles()
    independent = (q["pred"] - q["cond"]).std(ddof=1)
    paired = (q["pair_pred"] - q["pair_cond"]).std(ddof=1)
    assert paired <= independent / 2


# ---------------------------------------------------------------------------
# Kept tails

TAIL_POSTERIORS = (PosteriorState("poisson-rate", GammaParams(20.0, 0.1)),
                   PosteriorState("lognormal", NIX))


def _simulate(mode, K, keep, workers=1, seed=28):
    if mode == "conditional":
        return simulate_conditional_sample(PointParams(2.0, LN12), K, RngStream(seed), workers,
                                           keep=keep)
    return simulate_predictive_sample(*TAIL_POSTERIORS, K, RngStream(seed), workers, keep=keep)


_FULL = {}


def _full(mode, K):
    if (mode, K) not in _FULL:
        _FULL[mode, K] = _simulate(mode, K, K)
    return _FULL[mode, K]


@pytest.mark.parametrize("keep", [1, 1063, mc_engine.BATCH_SIZE + 1, "K"],
                         ids=["1", "1063", "batch+1", "K"])
@pytest.mark.parametrize("K", [1, 99_999, 250_001])
@pytest.mark.parametrize("workers", [1, 2, 3, 4])
@pytest.mark.parametrize("mode", ["conditional", "predictive"])
def test_kept_tail_is_the_top_of_the_full_sample(mode, workers, K, keep):
    # 99_999 and 250_001 end in a partial batch; a keep above a batch's size
    # keeps the whole batch. At K = 250_001 the 3 batches are not a multiple
    # of 2 threads, and 4 workers start only 3 threads.
    keep = K if keep == "K" else keep
    tail = _simulate(mode, K, keep, workers)
    full = _full(mode, K)
    assert tail.K == K
    assert tail.values.tobytes() == full.values[-min(keep, K):].tobytes()


@pytest.mark.parametrize("mode", ["conditional", "predictive"])
def test_quantiles_of_the_kept_tail_equal_the_full_sample(mode):
    K, q = 250_001, 0.999
    full = _full(mode, K)
    tail = _simulate(mode, K, quantile_tail(K, q, 0.95), workers=2)
    assert estimate_quantile(tail, q, 0.95) == estimate_quantile(full, q, 0.95)
    point = _simulate(mode, K, quantile_tail(K, q), workers=2)
    assert empirical_quantile(point, q) == empirical_quantile(full, q)
    # The point estimate alone does not hold the interval's lower rank.
    with pytest.raises(ValueError, match=r"rank 249\d{3} of K = 250001"):
        estimate_quantile(point, q, 0.95)


def test_quantile_tail_counts_the_ranks_read():
    assert quantile_tail(10**6, 0.999, 0.95) == 10**6 - _ci_indices(10**6, 0.999, 0.95)[0] + 1
    assert quantile_tail(10**6, 0.999, 0.95) == 1063
    assert quantile_tail(10**5, 0.999) == 100
    assert quantile_tail(1, 0.999, 0.95) == 1
    with pytest.raises(ValueError, match="q must be in"):
        quantile_tail(100, 1.0)
    with pytest.raises(ValueError, match="gamma must be in"):
        quantile_tail(100, 0.5, 1.0)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize(
    "simulate, params",
    [
        (simulate_conditional_sample, (PointParams(2.0, ParetoParams(xi=0.005, threshold_L=1.0)),)),
        (simulate_predictive_sample,
         (PosteriorState("poisson-rate", GammaParams(20.0, 0.1)),
          PosteriorState("pareto-tail", GammaParams(3.0, 0.002), threshold_L=1.0))),
    ],
    ids=["conditional", "predictive"],
)
def test_non_finite_losses_are_counted_over_all_K(simulate, params, workers):
    # About 6% of these years overflow, far more than the 10 losses kept; the
    # error still counts them over all K, as a run that keeps every loss does.
    K = 250_001
    with pytest.raises(ValueError, match=f"non-finite values out of {K}") as full:
        simulate(*params, K, RngStream(29), workers, keep=K)
    with pytest.raises(ValueError) as kept:
        simulate(*params, K, RngStream(29), workers, keep=10)
    assert str(kept.value) == str(full.value)
    assert int(str(full.value).split()[3]) > 10_000


def _traced_peak(K):
    """The traced peak of a K-year Pareto capital simulation on 2 workers."""
    tracemalloc.start()
    try:
        sample = simulate_conditional_sample(PointParams(2.0, PAR21), K, RngStream(30), workers=2,
                                             keep=quantile_tail(K, 0.999, 0.95))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sample.values.size == quantile_tail(K, 0.999, 0.95)
    return peak


def test_capital_simulation_memory_does_not_grow_with_K():
    # The K-sized array of a full sample alone is 7.6 MiB at K = 1e6 and
    # 153 MiB at K = 2e7; each thread holds one batch and its top keep.
    peak = _traced_peak(10**6)
    assert peak < 4 * 2**20
    assert _traced_peak(2 * 10**7) < 2 * peak


# ---------------------------------------------------------------------------
# Quantiles


def test_empirical_quantile_index_rule():
    values = np.arange(10.0, 10010.0, 10.0)  # 10, 20, ..., 10000 (K=1000)
    sample = LossSample(values=values, K=values.size)
    assert empirical_quantile(sample, 0.999) == 10000.0

    s10 = LossSample(values=np.arange(1.0, 11.0), K=10)
    assert empirical_quantile(s10, 0.5) == 6.0

    s1 = LossSample(values=np.array([7.0]), K=1)
    assert empirical_quantile(s1, 0.9) == 7.0

    with pytest.raises(ValueError):
        empirical_quantile(s10, 1.5)


def test_quantile_monotone_in_q():
    rng = RngStream(12)
    sample = simulate_conditional_sample(PointParams(10.0, LN12), 10_000, rng, keep=10_000)
    qs = [0.5, 0.9, 0.99, 0.999]
    vals = [empirical_quantile(sample, q) for q in qs]
    assert vals == sorted(vals)


def test_ci_indices_exact():
    assert _ci_indices(10**5, 0.999, 0.95) == (99880, 99920, True)


def test_ci_indices_match_ndtri():
    # _ci_indices takes z from the standard library, which can differ from
    # scipy's ndtri by one ulp; the integer indices must not.
    from scipy.special import ndtri

    Ks = np.union1d(np.round(np.logspace(0, 7, 500)), [10**3, 2000, 10**4, 10**5, 10**6])
    qs = [0.5, 0.75, 0.9, 0.95, 0.99, 0.995, 0.999, 0.9999]
    gammas = [1e-12, *np.linspace(0.02, 0.98, 33), 0.99, 0.999, 1 - 1e-9]
    for q in qs:
        for gamma in gammas:
            spread = ndtri((1.0 + gamma) / 2.0) * np.sqrt(Ks * q * (1.0 - q))
            r = np.clip(np.floor(Ks * q - spread), 1, Ks)
            s = np.clip(np.ceil(Ks * q + spread), 1, Ks)
            got = np.array([_ci_indices(int(K), q, gamma)[:2] for K in Ks])
            np.testing.assert_array_equal(got, np.column_stack([r, s]), err_msg=f"q={q}, gamma={gamma}")


def test_ci_collapses_as_gamma_to_zero():
    r, s, _ = _ci_indices(10**5, 0.999, 1e-12)
    # z -> 0: both endpoints land next to floor(K*q)
    assert abs(r - 99900) <= 1
    assert abs(s - 99900) <= 1


def test_ci_reliability_flag():
    _, _, reliable = _ci_indices(10**3, 0.999, 0.95)
    assert not reliable  # Kq(1-q) = 0.999 < 50


def test_ci_brackets_point_estimate():
    sample = simulate_conditional_sample(PointParams(10.0, LN12), 10**5, RngStream(13), keep=10**5)
    est = estimate_quantile(sample, 0.999, 0.95)
    assert est.ci_lower <= est.value == empirical_quantile(sample, 0.999) <= est.ci_upper


def test_ci_validation():
    sample = LossSample(values=np.arange(1.0, 11.0), K=10)
    with pytest.raises(ValueError):
        estimate_quantile(sample, 0.999, 0.0)


def test_loss_sample_validation():
    with pytest.raises(ValueError):
        LossSample(values=np.array([3.0, 1.0]), K=2)
    with pytest.raises(ValueError):
        LossSample(values=np.array([-1.0, 2.0]), K=2)
    with pytest.raises(ValueError, match="holds 3 values, more than its K = 2"):
        LossSample(values=np.array([1.0, 2.0, 3.0]), K=2)


def test_loss_sample_tail_reads_ranks_from_the_top():
    tail = LossSample(values=np.array([7.0, 8.0, 9.0]), K=10)  # ranks 8, 9 and 10
    assert empirical_quantile(tail, 0.75) == 7.0  # rank floor(7.5) + 1 = 8
    assert empirical_quantile(tail, 0.95) == 9.0
    with pytest.raises(ValueError, match="rank 7 of K = 10"):
        empirical_quantile(tail, 0.65)


@pytest.mark.parametrize(
    "values, bad",
    [([1.0, 2.0, np.inf, np.inf], 2), ([1.0, np.nan, 3.0], 1), ([-np.inf, 1.0], 1)],
)
def test_loss_sample_rejects_non_finite(values, bad):
    # nan < x is False, so the order check alone cannot catch these.
    with pytest.raises(ValueError, match=f"{bad} non-finite values out of {len(values)}"):
        LossSample(values=np.array(values), K=len(values))


def test_coverage_of_conservative_interval():
    # analytic 0.999 quantile of LN(1, 2): exp(1 + 2 * z_0.999)
    from scipy.stats import norm

    true_q = math.exp(1.0 + 2.0 * norm.ppf(0.999))
    hits = 0
    reps = 200
    for i in range(reps):
        draws = sample_severities(10**5, RngStream(1000 + i).generator, mu=1.0, sigma=2.0)
        est = estimate_quantile(LossSample(values=np.sort(draws), K=draws.size), 0.999, 0.95)
        assert est.reliable_ci
        if est.ci_lower <= true_q <= est.ci_upper:
            hits += 1
    assert hits / reps >= 0.90


# ---------------------------------------------------------------------------
# Conditional Monte Carlo quantile

# The 0.999 quantiles of the reference lognormal cell and of a lam=2, xi=2 Pareto
# cell, as the means of ak_quantile over 200 seeds at K=1e4 (sd 0.18% and 0.41%).
AK_CELLS = {"lognormal": (PointParams(10.0, LN12), 4835.0, 0.015),
            "pareto": (PointParams(2.0, PAR21), 49.17, 0.025)}


@pytest.mark.parametrize("cell", AK_CELLS)
def test_ak_quantile_near_known_value(cell):
    point, value, band = AK_CELLS[cell]
    for seed in range(5):
        assert ak_quantile(point, 10**4, RngStream(seed), 0.999) == pytest.approx(value, rel=band)


@pytest.mark.parametrize("cell", AK_CELLS)
def test_ak_quantile_inside_crude_interval(cell):
    # At q = 0.99 the estimator needs 1e5 years to be sharper than 1e6 crude ones on
    # the Pareto cell. Over 100 seeds it left the 0.99 interval 1-3 times per cell and q.
    point = AK_CELLS[cell][0]
    K = 10**6
    crude = simulate_conditional_sample(point, K, RngStream(7), workers=2,
                                        keep=quantile_tail(K, 0.99, 0.99))
    for q in (0.99, 0.999):
        est = estimate_quantile(crude, q, 0.99)
        assert est.ci_lower <= ak_quantile(point, 10**5, RngStream(8), q) <= est.ci_upper


@pytest.mark.parametrize("cell", AK_CELLS)
def test_ak_quantile_same_stream_same_bits(cell):
    point = AK_CELLS[cell][0]
    a = ak_quantile(point, 5000, RngStream(3).substream("ref"), 0.999)
    assert ak_quantile(point, 5000, RngStream(3).substream("ref"), 0.999) == a
    assert ak_quantile(point, 5000, RngStream(4).substream("ref"), 0.999) != a


def test_ak_quantile_zero_when_a_loss_is_rarer_than_1_minus_q():
    # P(Z > 0) = 1 - exp(-0.001) < 0.001, so the 0.999 quantile is 0 at any K.
    for severity in (LN12, PAR21):
        assert ak_quantile(PointParams(1e-3, severity), 10**4, RngStream(1), 0.999) == 0.0
    assert ak_quantile(PointParams(2e-3, LN12), 10**4, RngStream(1), 0.999) > 0.0


@pytest.mark.parametrize("cell", AK_CELLS)
def test_ak_quantile_exact_across_chunk_edges(cell, monkeypatch):
    # Chunks hold whole rows, and numpy fills one draw of a + b as a draw of a then b.
    point = AK_CELLS[cell][0]
    whole = ak_quantile(point, 3000, RngStream(9), 0.999)
    monkeypatch.setattr(mc_engine, "CHUNK_LOSSES", CHUNK)
    chunked, shapes = _recorded_shapes(
        monkeypatch, lambda: ak_quantile(point, 3000, RngStream(9), 0.999))
    assert chunked == whole
    # Each matrix drops its years' last loss, so years with one loss draw none; the
    # counts come in ascending order, each chunk within CHUNK losses or a single year.
    columns = [k for _, k in shapes]
    assert len(shapes) > 10 and min(columns) >= 1 and columns == sorted(columns)
    assert all(b * k <= CHUNK or b == 1 for b, k in shapes)


@pytest.mark.parametrize("cell", AK_CELLS)
def test_ak_quantile_walks_the_kernel_layout(cell, monkeypatch):
    # With one matrix per count, AK draws (m_k, k - 1) wherever the kernel, on the
    # same stream, draws (m_k, k): the same histogram, each year's last column dropped.
    point = AK_CELLS[cell][0]
    monkeypatch.setattr(mc_engine, "CHUNK_LOSSES", 10**9)
    for seed in range(3):
        _, ak = _recorded_shapes(monkeypatch, lambda: ak_quantile(point, 3000, RngStream(seed),
                                                                  0.999))
        side = mc_engine._conditional_side(point)(None)
        _, kernel = _recorded_shapes(monkeypatch, lambda: mc_engine._compound_batch(
            RngStream(seed).generator, 3000, (side,)))
        assert ak and ak == [(m, k - 1) for m, k in kernel if k >= 2]


def test_ak_quantile_stops_at_the_largest_double():
    # With xi = 0.01, P(Z > the largest double) is about 2 * 8.2e-4. At q = 0.99836 the
    # single-loss start lies above ln of the largest double, and the quantile just below
    # it; at q = 0.999 no double is the quantile, which is a ValueError, not the
    # OverflowError of exponentiating past the largest double.
    point = PointParams(2.0, ParetoParams(xi=0.01, threshold_L=1.0))
    assert 1e307 < ak_quantile(point, 10**4, RngStream(1), 0.99836) < sys.float_info.max
    with pytest.raises(ValueError, match="the 0.999 quantile .* above the largest double"):
        ak_quantile(point, 1000, RngStream(1), 0.999)


def test_ak_quantile_validates():
    with pytest.raises(ValueError, match="q must be in"):
        ak_quantile(PointParams(10.0, LN12), 100, RngStream(1), 1.0)
    with pytest.raises(ValueError, match="K must be at least 1"):
        ak_quantile(PointParams(10.0, LN12), 0, RngStream(1), 0.999)
