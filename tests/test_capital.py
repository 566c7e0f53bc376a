import dataclasses
import re

import numpy as np
import pytest

from riskcap.bayes import InsufficientDataError, credible_interval, posterior_mode
from riskcap.capital import (
    AGGREGATION_NOTE,
    CapitalReport,
    CellModel,
    LossData,
    aggregate_bank_capital,
    conditional_capital,
    fit_posteriors,
    predictive_capital,
)
from riskcap.distributions import LognormalParams, RngStream
from riskcap.experiments import TrueModel, generate_synthetic

TRUE = TrueModel(lambda0=10.0, severity=LognormalParams(mu=1.0, sigma_sq=4.0))


def _data(M, seed=0):
    return generate_synthetic(TRUE, M, RngStream(seed).substream("capital-test"))


def _ln_cell(**kw):
    return CellModel(cell_id=kw.pop("cell_id", "cell-a"), severity_family="lognormal", **kw)


def test_loss_data_validation():
    with pytest.raises(ValueError, match="does not match"):
        LossData(annual_counts=[2, 1], severities=[1.0, 2.0])
    with pytest.raises(ValueError):
        LossData(annual_counts=[], severities=[])
    with pytest.raises(ValueError):
        LossData(annual_counts=[-1], severities=[])


@pytest.mark.parametrize("counts", [[2.7, 0.2], [2.0, 0.5], [np.nan, 2.0], [np.inf, 2.0]])
def test_loss_data_rejects_non_integral_counts(counts):
    # Cast to int, [2.7, 0.2] would read as [2, 0] and match the two severities.
    with pytest.raises(ValueError, match="must be integers"):
        LossData(annual_counts=counts, severities=[1.0, 2.0])


def test_loss_data_accepts_integral_float_counts():
    data = LossData(annual_counts=[2.0, 0.0, 1.0], severities=[1.0, 2.0, 3.0])
    assert data.annual_counts.tolist() == [2, 0, 1]
    assert data.annual_counts.dtype.kind == "i"


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_loss_data_rejects_non_finite_severities(bad):
    # Let through, inf reached the fit as "sigma_sq must be positive, got nan"
    # (lognormal) or "tail index xi must be positive, got 0.0" (Pareto).
    message = f"severities must be finite; 1 of 5 are not, the first is {bad!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        LossData(annual_counts=[5], severities=[1.0, 2.0, 3.0, 4.0, bad])


def test_cell_model_validation():
    with pytest.raises(ValueError):
        CellModel(cell_id="x", severity_family="weibull")
    with pytest.raises(ValueError):
        CellModel(cell_id="x", severity_family="pareto")  # missing threshold


def test_conditional_capital_deterministic():
    data = _data(20)
    a = conditional_capital(_ln_cell(), data, K=20_000, seed=42)
    b = conditional_capital(_ln_cell(), data, K=20_000, seed=42)
    assert a == b
    assert a.mode == "conditional"
    assert a.estimate.value > 0


def test_conditional_capital_unreliable_ci_warning():
    data = _data(20)
    rep = conditional_capital(_ln_cell(), data, q=0.999, K=1000, seed=1)
    assert any("unreliable" in w for w in rep.warnings)


def test_conditional_capital_rejects_zero_rate():
    data = LossData(annual_counts=[0, 0], severities=[])
    with pytest.raises(ValueError):
        conditional_capital(_ln_cell(), data, K=100, seed=1)


def test_predictive_capital_report_contents():
    data = _data(20)
    rep = predictive_capital(_ln_cell(), data, K=20_000, seed=7)
    assert rep.mode == "predictive"
    # The report carries no posterior summaries; `fit` computes them from the
    # same posteriors.
    for state in fit_posteriors(_ln_cell(), data):
        modes = posterior_mode(state)
        intervals = credible_interval(state, 0.95)
        assert modes.keys() == intervals.keys() == set(state.param_names)
        for name, mode in modes.items():
            lo, hi = intervals[name]
            assert lo < mode < hi


def test_predictive_capital_insufficient_severities():
    data = LossData(annual_counts=[2, 1], severities=[1.0, 2.0, 3.0])
    with pytest.raises(InsufficientDataError):
        predictive_capital(_ln_cell(), data, K=100, seed=1)


def test_predictive_pareto_infinite_mean_warning():
    cell = CellModel(cell_id="p", severity_family="pareto", threshold_L=1.0)
    # few, small exceedances: posterior mass near/below xi=1
    data = LossData(annual_counts=[2, 1], severities=[3.0, 8.0, 2.0])
    rep = predictive_capital(cell, data, K=5000, seed=3)
    assert any("infinite mean" in w for w in rep.warnings)

    safe = dataclasses.replace(cell, enforce_finite_mean=True)
    rep2 = predictive_capital(safe, data, K=5000, seed=3)
    assert not any("infinite mean" in w for w in rep2.warnings)


def test_predictive_exceeds_conditional_small_sample():
    wins = 0
    for r in range(10):
        data = _data(5, seed=100 + r)
        cond = conditional_capital(_ln_cell(), data, K=20_000, seed=r)
        pred = predictive_capital(_ln_cell(), data, K=20_000, seed=r)
        if pred.estimate.value > cond.estimate.value:
            wins += 1
    assert wins >= 8


def _report(cell_id, mode, value, q=0.999):
    data = _data(10, seed=5)
    rep = conditional_capital(_ln_cell(cell_id=cell_id), data, q=q, K=2000, seed=1)
    return dataclasses.replace(rep, mode=mode, estimate=dataclasses.replace(rep.estimate, value=value, q=q))


def test_aggregate_bank_capital():
    r1 = _report("a", "conditional", 3.0)
    r2 = _report("b", "conditional", 4.0)
    agg = aggregate_bank_capital([r1, r2])
    assert agg["total"] == pytest.approx(7.0)
    assert agg["breakdown"] == {"a": 3.0, "b": 4.0}
    assert agg["note"] == AGGREGATION_NOTE

    single = aggregate_bank_capital([r1])
    assert single["total"] == pytest.approx(3.0)

    # permutation invariance
    assert aggregate_bank_capital([r2, r1])["total"] == pytest.approx(agg["total"])


def test_aggregate_rejects_mixed():
    r1 = _report("a", "conditional", 3.0)
    r2 = _report("b", "predictive", 4.0)
    with pytest.raises(ValueError, match="mixed"):
        aggregate_bank_capital([r1, r2])
    r3 = _report("c", "conditional", 4.0, q=0.99)
    with pytest.raises(ValueError, match="mixed"):
        aggregate_bank_capital([r1, r3])
    with pytest.raises(ValueError):
        aggregate_bank_capital([])


def test_aggregate_total_at_least_max():
    reports = [_report(c, "conditional", v) for c, v in [("a", 3.0), ("b", 4.0), ("c", 1.0)]]
    agg = aggregate_bank_capital(reports)
    assert agg["total"] >= max(r.estimate.value for r in reports)
