import math
import threading
import time

import numpy as np
import pytest

from riskcap import experiments
from riskcap.distributions import (
    LognormalParams,
    ParetoParams,
    PointParams,
    RngStream,
    sample_severities,
)
from riskcap.experiments import (
    REFERENCE_YEARS,
    BiasCurve,
    _fit_and_quantiles,
    bias_study,
    generate_synthetic,
    single_realization_track,
)
from riskcap.mc_engine import AK_LOG_TOLERANCE, ak_quantile

LN_MODEL = PointParams(lam=10.0, severity=LognormalParams(mu=1.0, sigma_sq=4.0))
PARETO_MODEL = PointParams(lam=10.0, severity=ParetoParams(xi=2.0, threshold_L=1.0))


def test_generate_synthetic_shape_and_support():
    data = generate_synthetic(LN_MODEL, 5, RngStream(1))
    assert data.years == 5
    assert data.severities.size == data.annual_counts.sum()
    assert np.all(data.severities > 0)

    pdata = generate_synthetic(PARETO_MODEL, 5, RngStream(2))
    assert np.all(pdata.severities >= 1.0)


def test_generate_synthetic_expected_event_count():
    data = generate_synthetic(LN_MODEL, 100, RngStream(3))
    assert data.annual_counts.sum() == pytest.approx(1000, rel=0.15)


def test_generate_synthetic_deterministic():
    a = generate_synthetic(LN_MODEL, 5, RngStream(4))
    b = generate_synthetic(LN_MODEL, 5, RngStream(4))
    assert np.array_equal(a.annual_counts, b.annual_counts)
    assert np.array_equal(a.severities, b.severities)


@pytest.mark.parametrize("model", [LN_MODEL, PARETO_MODEL], ids=["lognormal", "pareto"])
def test_generate_synthetic_is_a_prefix_from_two_streams(model, monkeypatch):
    short = generate_synthetic(model, 7, RngStream(5))
    longer = generate_synthetic(model, 70, RngStream(5))
    assert np.array_equal(short.annual_counts, longer.annual_counts[:7])
    assert np.array_equal(short.severities, longer.severities[: short.severities.size])

    # One counts stream and one severity stream, whatever the number of years.
    calls = []
    substream = RngStream.substream

    def counted(self, *keys):
        calls.append(keys)
        return substream(self, *keys)

    monkeypatch.setattr(RngStream, "substream", counted)
    for M in (5, 400):
        calls.clear()
        generate_synthetic(model, M, RngStream(6))
        assert len(calls) == 2


@pytest.mark.parametrize("model", [LN_MODEL, PARETO_MODEL], ids=["lognormal", "pareto"])
def test_track_datasets_are_nested(model):
    # extending the grid must not change earlier rows: one growing history
    short = single_realization_track(model, [5], q=0.99, K_sims=5000, seed=7)
    longer = single_realization_track(model, [5, 10], q=0.99, K_sims=5000, seed=7)
    assert short[0] == longer[0]


def test_single_realization_track_columns():
    records = single_realization_track(LN_MODEL, [5, 10], q=0.999, K_sims=20_000, seed=11)
    assert [r.M for r in records] == [5, 10]
    for r in records:
        assert r.K_data > 0
        assert list(r.estimates) == ["lambda", "mu", "sigma"]
        lam_hat, lam_lo, lam_hi = r.estimates["lambda"]
        assert lam_lo < lam_hat < lam_hi
        assert r.q_conditional > 0 and r.q_predictive > 0


def test_single_realization_track_pareto_columns():
    records = single_realization_track(PARETO_MODEL, [5], q=0.99, K_sims=10_000, seed=12)
    assert list(records[0].estimates) == ["lambda", "xi"]


def test_single_realization_track_validates_grid():
    with pytest.raises(ValueError):
        single_realization_track(LN_MODEL, [10, 5], K_sims=100, seed=1)
    with pytest.raises(ValueError):
        single_realization_track(LN_MODEL, [], K_sims=100, seed=1)


def test_bias_study_single_realization():
    curve = bias_study(LN_MODEL, [10], R=1, q=0.99, K_sims=10_000, seed=13, K_reference=50_000)
    assert curve.realizations == 1
    assert len(curve.points) == 1
    assert curve.reference_quantile > 0


def test_bias_study_deterministic():
    kw = dict(R=2, q=0.99, K_sims=5000, seed=14, K_reference=20_000)
    a = bias_study(LN_MODEL, [5], **kw)
    b = bias_study(LN_MODEL, [5], **kw)
    assert a == b


@pytest.mark.parametrize("workers", [2, 8])
def test_bias_study_independent_of_workers(workers):
    # The (M, r) tasks run on the pool; the reference is drawn on the calling thread.
    kw = dict(R=3, q=0.99, K_sims=5000, seed=15)
    serial = bias_study(LN_MODEL, [5, 10], workers=1, **kw)
    assert bias_study(LN_MODEL, [5, 10], workers=workers, **kw) == serial


def test_bias_study_matches_serial_loop():
    # Reference: the nested loop over year counts and realizations, one mean per M.
    M_grid, R, q, K_sims, seed = [5, 10], 3, 0.99, 5000, 17
    rng = RngStream(seed)
    q0 = ak_quantile(LN_MODEL, 20_000, rng.substream("reference"), q)
    expected = []
    for M in M_grid:
        gaps = np.empty(R)
        for r in range(R):
            stream = rng.substream("bias", r, M)
            _, q_cond, q_pred, _, _ = _fit_and_quantiles(LN_MODEL, M, stream.substream("data"),
                                                         stream, q, K_sims)
            gaps[r] = q_pred - q_cond
        expected.append((M, float(gaps.mean() / q0)))

    curve = bias_study(LN_MODEL, M_grid, R, q, K_sims, seed, K_reference=20_000, workers=2)
    assert curve.points == tuple(expected)
    assert curve.reference_quantile == q0


def test_bias_study_rejects_zero_workers():
    with pytest.raises(ValueError, match="workers"):
        bias_study(LN_MODEL, [5], R=1, K_sims=1000, K_reference=1000, workers=0)


def test_bias_study_rejects_an_empty_grid(monkeypatch):
    # Refused before the reference quantile is drawn, as the track refuses it.
    monkeypatch.setattr(experiments, "ak_quantile",
                        lambda *args: pytest.fail("drew Q0 for an empty grid"))
    with pytest.raises(ValueError, match="M_grid must be non-empty"):
        bias_study(LN_MODEL, [])


def test_bias_study_rejects_a_repeated_year_count(monkeypatch):
    # Both rows of M = 5 would come from one stream, the second a copy of the first.
    monkeypatch.setattr(experiments, "ak_quantile",
                        lambda *args: pytest.fail("drew Q0 for a grid with a repeat"))
    with pytest.raises(ValueError, match="without a repeated year count, got \\[5, 10, 5\\]"):
        bias_study(LN_MODEL, [5, 10, 5], R=2)


@pytest.mark.parametrize("grid", [[], [5, 5], [10, 5]])
def test_single_realization_track_needs_a_strictly_ascending_grid(grid):
    with pytest.raises(ValueError, match="M_grid must be non-empty and strictly ascending"):
        single_realization_track(LN_MODEL, grid, K_sims=1000)


@pytest.mark.parametrize("workers", [0, -1])
def test_single_realization_track_rejects_workers_below_1(workers):
    with pytest.raises(ValueError, match=f"workers must be at least 1, got {workers}"):
        single_realization_track(LN_MODEL, [5], K_sims=1000, workers=workers)


@pytest.mark.parametrize("workers", [2, 8])
def test_single_realization_track_independent_of_workers(workers):
    # Three rows, so that several run at once; K_sims spans two engine batches.
    kw = dict(q=0.99, K_sims=150_000, seed=16)
    serial = single_realization_track(LN_MODEL, [5, 10, 20], workers=1, **kw)
    assert single_realization_track(LN_MODEL, [5, 10, 20], workers=workers, **kw) == serial


def test_track_rows_run_concurrently(monkeypatch):
    # Each row waits for the other, so rows run one after another break the barrier.
    barrier, realization = threading.Barrier(2, timeout=5), experiments._fit_and_quantiles

    def waiting(*args, **kwargs):
        barrier.wait()
        return realization(*args, **kwargs)

    monkeypatch.setattr(experiments, "_fit_and_quantiles", waiting)
    records = single_realization_track(LN_MODEL, [5, 10], K_sims=1000, workers=2)
    assert [r.M for r in records] == [5, 10]


@pytest.mark.parametrize("grid, share", [([5], 4), ([5, 10], 2), ([5, 10, 20], 1)])
def test_track_rows_share_the_workers(monkeypatch, grid, share):
    # A grid shorter than workers hands each row's batches the threads its rows leave idle.
    seen, pair = [], experiments.simulate_pair

    def recording(*args, **kwargs):
        seen.append(args[5])
        return pair(*args, **kwargs)

    monkeypatch.setattr(experiments, "simulate_pair", recording)
    single_realization_track(LN_MODEL, grid, K_sims=1000, workers=4)
    assert seen == [share] * len(grid)


def test_track_cancels_rows_after_a_failing_row(monkeypatch):
    started = []

    def failing(true_model, M, *args, **kwargs):
        started.append(M)
        if M > 5:
            time.sleep(0.5)  # holds the one thread while the failure cancels the rest
        raise ValueError(f"row {M} failed")

    monkeypatch.setattr(experiments, "_fit_and_quantiles", failing)
    with pytest.raises(ValueError, match="row 5 failed"):
        single_realization_track(LN_MODEL, [5, 10, 20, 40, 80], K_sims=1000, workers=1)
    assert started in ([5], [5, 10])


def test_bias_curve_validation():
    with pytest.raises(ValueError):
        BiasCurve(points=((5, 0.1),), realizations=0, reference_quantile=1.0)
    with pytest.raises(ValueError):
        BiasCurve(points=((5, 0.1),), realizations=1, reference_quantile=0.0)


def test_quantile_estimates_scale_linearly():
    # multiplying all losses by a currency factor scales every quantile
    from riskcap.mc_engine import LossSample, empirical_quantile

    rng = RngStream(15)
    values = np.sort(sample_severities(10_000, rng.generator, mu=1.0, sigma=2.0))
    c = 250.0
    s1 = LossSample(values=values, K=values.size)
    s2 = LossSample(values=values * c, K=values.size)
    for q in (0.5, 0.9, 0.999):
        assert empirical_quantile(s2, q) == pytest.approx(c * empirical_quantile(s1, q))


def test_true_parameter_quantile_reasonable():
    q0 = ak_quantile(LN_MODEL, REFERENCE_YEARS, RngStream(16), 0.999)
    assert q0 == pytest.approx(4900.0, rel=0.03)


def test_bias_study_refuses_a_zero_reference_quantile():
    # A year has a loss with chance 1 - exp(-0.001) < 1 - q, so Q0 is 0.
    rare = PointParams(lam=1e-3, severity=LN_MODEL.severity)
    with pytest.raises(ValueError, match="reference quantile must be positive"):
        bias_study(rare, [20_000], R=1, q=0.999, K_sims=1000, seed=18)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("family", ["pareto", "lognormal"])
def test_relative_bias_does_not_depend_on_the_currency_unit(family, seed):
    # A currency 2^k times smaller scales every loss, each gap and Q0 alike. Only Q0's
    # root search on ln x, which stops within AK_LOG_TOLERANCE, tells the runs apart.
    def study(k):
        severity = (ParetoParams(xi=2.0, threshold_L=2.0**k) if family == "pareto"
                    else LognormalParams(mu=1.0 + k * math.log(2.0), sigma_sq=4.0))
        curve = bias_study(PointParams(lam=10.0, severity=severity), [10, 20], R=3,
                           K_sims=20_000, seed=seed)
        return [bias for _, bias in curve.points]

    base = study(0)
    for k in (-20, -3, 1, 7, 20):
        assert study(k) == pytest.approx(base, rel=AK_LOG_TOLERANCE, abs=0), k
