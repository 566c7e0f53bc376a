import numpy as np
import pytest

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
from riskcap.mc_engine import ak_quantile

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
            data = generate_synthetic(LN_MODEL, M, stream.substream("data"))
            q_cond, q_pred, _, _ = _fit_and_quantiles(LN_MODEL, data, q, K_sims, stream)
            gaps[r] = q_pred - q_cond
        expected.append((M, float(gaps.mean() / q0)))

    curve = bias_study(LN_MODEL, M_grid, R, q, K_sims, seed, K_reference=20_000, workers=2)
    assert curve.points == tuple(expected)
    assert curve.reference_quantile == q0


def test_bias_study_rejects_zero_workers():
    with pytest.raises(ValueError, match="workers"):
        bias_study(LN_MODEL, [5], R=1, K_sims=1000, K_reference=1000, workers=0)


@pytest.mark.parametrize("workers", [2, 8])
def test_single_realization_track_independent_of_workers(workers):
    # K_sims spans two engine batches.
    kw = dict(q=0.99, K_sims=150_000, seed=16)
    serial = single_realization_track(LN_MODEL, [5], workers=1, **kw)
    assert single_realization_track(LN_MODEL, [5], workers=workers, **kw) == serial


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
