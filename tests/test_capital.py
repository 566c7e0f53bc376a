import csv
import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskcap import bayes, capital
from riskcap.bayes import InsufficientDataError, NIXParams, PosteriorState, credible_interval
from riskcap.capital import (
    AGGREGATION_NOTE,
    INFINITE_MEAN_PROB_THRESHOLD,
    CapitalReport,
    CellModel,
    LossData,
    conditional_capital,
    fit_posteriors,
    predictive_capital,
)
from riskcap.distributions import GammaParams, LognormalParams, ParetoParams, PointParams, RngStream
from riskcap.cli import main
from riskcap.experiments import generate_synthetic

TRUE = PointParams(lam=10.0, severity=LognormalParams(mu=1.0, sigma_sq=4.0))


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


@pytest.mark.parametrize("bad", [0.0, -1.0])
def test_loss_data_rejects_non_positive_severities(bad):
    # Let through, 0 and -1 reached np.log as a RuntimeWarning and a nan NIX parameter.
    message = f"severities must be positive; 1 of 5 are not, the first is {bad!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        LossData(annual_counts=[2, 2, 1], severities=[bad, 1.0, 2.0, 3.0, 4.0])


def test_cell_model_validation():
    with pytest.raises(ValueError):
        CellModel(cell_id="x", severity_family="weibull")
    with pytest.raises(ValueError):
        CellModel(cell_id="x", severity_family="pareto")  # missing threshold
    with pytest.raises(ValueError, match="a lognormal cell takes none"):
        CellModel(cell_id="x", severity_family="lognormal", threshold_L=-5.0)


@pytest.mark.parametrize("build", [
    lambda: GammaParams(True, 1.0),
    lambda: GammaParams(2.0, np.True_),
    lambda: NIXParams(True, 1.0, 0.0, 1.0),
    lambda: NIXParams(2.0, 1.0, np.False_, 1.0),
    lambda: LognormalParams(True, 1.0),
    lambda: LognormalParams(0.0, np.True_),
    lambda: ParetoParams(True, 1.0),
    lambda: ParetoParams(2.0, np.True_),
    lambda: PointParams(True, LognormalParams(0.0, 1.0)),
    lambda: PointParams(np.True_, ParetoParams(2.0, 1.0)),
    lambda: PosteriorState("pareto-tail", GammaParams(2.0, 1.0), threshold_L=True),
    lambda: CellModel("x", "pareto", threshold_L=True),
    lambda: CellModel("x", "pareto", threshold_L=np.True_),
    lambda: CellModel("x", "pareto", threshold_L=1.0, truncation={"xi": (True, 5.0)}),
    lambda: CellModel("x", "lognormal", truncation={"sigma_sq": (0.0, np.True_)}),
], ids=["gamma", "gamma-numpy", "nix", "nix-numpy", "lognormal", "lognormal-numpy", "pareto",
        "pareto-numpy", "point", "point-numpy", "posterior-threshold", "cell-threshold",
        "cell-threshold-numpy", "cell-truncation", "cell-truncation-numpy"])
def test_parameter_types_refuse_a_bool(build):
    # Python takes True as the number 1, so each of these would construct.
    with pytest.raises(TypeError, match="must be (a number|numbers), got"):
        build()


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
        p = state.params
        if state.family == "lognormal":  # the joint NIX mode
            modes = {"mu": p.loc_theta, "sigma_sq": p.scale_beta / (p.dof_nu + 3.0)}
        else:
            modes = {"lambda": (p.shape - 1) * p.scale}
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


def test_predictive_report_puts_the_ci_warning_before_the_infinite_mean_warning():
    cell = CellModel(cell_id="p", severity_family="pareto", threshold_L=1.0)
    data = LossData(annual_counts=[2, 1], severities=[3.0, 8.0, 2.0])
    K, q = 1000, 0.999  # K*q*(1-q) = 1 < 50
    p_heavy = bayes.prob_tail_index_below(fit_posteriors(cell, data)[1], 1.0)
    assert p_heavy > INFINITE_MEAN_PROB_THRESHOLD
    rep = predictive_capital(cell, data, q=q, K=K, seed=3)
    assert len(rep.warnings) == 2
    assert rep.warnings[0].startswith("quantile CI is unreliable")
    assert rep.warnings[1].startswith(f"predictive loss has infinite mean: Pr[xi <= 1] = "
                                      f"{p_heavy:.3g}")


def test_both_modes_look_up_the_simulators_when_called(monkeypatch):
    # perfbench's tracer patches these names on riskcap.capital; a mode that bound them
    # when it was defined would run past the tracer.
    called = []

    def recorder(name):
        real = getattr(capital, name)

        def record(*args, **kwargs):
            called.append(name)
            return real(*args, **kwargs)
        return record

    for name in ("simulate_conditional_sample", "simulate_predictive_sample",
                 "estimate_quantile"):
        monkeypatch.setattr(capital, name, recorder(name))
    data = _data(20)
    conditional_capital(_ln_cell(), data, K=1000, seed=1)
    assert called == ["simulate_conditional_sample", "estimate_quantile"]
    called.clear()
    predictive_capital(_ln_cell(), data, K=1000, seed=1)
    assert called == ["simulate_predictive_sample", "estimate_quantile"]


def test_predictive_exceeds_conditional_small_sample():
    wins = 0
    for r in range(10):
        data = _data(5, seed=100 + r)
        cond = conditional_capital(_ln_cell(), data, K=20_000, seed=r)
        pred = predictive_capital(_ln_cell(), data, K=20_000, seed=r)
        if pred.estimate.value > cond.estimate.value:
            wins += 1
    assert wins >= 8


def _capital_csv(tmp_path, cell_id, value, mode="conditional", q=0.999):
    """One cell's capital CSV, in the layout ``riskcap capital --csv`` writes."""
    path = tmp_path / f"cap-{cell_id}.csv"
    path.write_text(
        "# seed=1\ncell_id,mode,q,K,value,ci_lower,ci_upper,warnings\n"
        f"{cell_id},{mode},{q!r},2000,{value!r},{value * 0.9!r},{value * 1.1!r},\n"
    )
    return str(path)


def _aggregate(tmp_path, caps):
    """Run ``riskcap aggregate``, the bank aggregation, and parse its CSV."""
    out = tmp_path / "total.csv"
    assert main(["aggregate", *caps, "--out", str(out)]) == 0
    *cells, total = list(csv.reader(out.read_text().splitlines()))[1:]
    assert total[0] == "TOTAL"
    return {"total": float(total[4]), "breakdown": {c[0]: float(c[4]) for c in cells},
            "note": total[7]}


def test_aggregate_bank_capital(tmp_path):
    r1 = _capital_csv(tmp_path, "a", 3.0)
    r2 = _capital_csv(tmp_path, "b", 4.0)
    agg = _aggregate(tmp_path, [r1, r2])
    assert agg["total"] == pytest.approx(7.0)
    assert agg["breakdown"] == {"a": 3.0, "b": 4.0}
    assert agg["note"] == AGGREGATION_NOTE

    single = _aggregate(tmp_path, [r1])
    assert single["total"] == pytest.approx(3.0)

    # permutation invariance
    assert _aggregate(tmp_path, [r2, r1])["total"] == pytest.approx(agg["total"])


def test_aggregate_total_at_least_max(tmp_path):
    values = {"a": 3.0, "b": 4.0, "c": 1.0}
    caps = [_capital_csv(tmp_path, c, v) for c, v in values.items()]
    agg = _aggregate(tmp_path, caps)
    assert agg["total"] >= max(values.values())


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32))
def test_capital_does_not_fall_as_q_rises(seed):
    # The stream derives from the cell id and the mode alone, so at one seed and K
    # every q reads the same loss multiset: a higher q reads a higher order statistic.
    truth = PointParams(lam=3.0, severity=ParetoParams(xi=1.5, threshold_L=1.0))
    data = generate_synthetic(truth, 15, RngStream(seed).substream("history"))
    model = CellModel(cell_id="p", severity_family="pareto", threshold_L=1.0)
    for run in (conditional_capital, predictive_capital):
        estimates = [run(model, data, q, 20_000, 0.95, seed).estimate
                     for q in (0.9, 0.95, 0.99, 0.995, 0.999)]
        for column in ("value", "ci_lower", "ci_upper"):
            figures = [getattr(e, column) for e in estimates]
            assert figures == sorted(figures), (run.__name__, column, figures)
