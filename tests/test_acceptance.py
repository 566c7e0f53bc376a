"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or on
failure). Statistical criteria use fixed seeds; tolerances are stated
inline and are not tuned at runtime.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy import stats
from scipy.stats import norm

from riskcap import bayes, estimators
from riskcap.bayes import NIXParams, PosteriorState
from riskcap.capital import CellModel, LossData, conditional_capital, predictive_capital
from riskcap.cli import load_loss_data
from riskcap.cli import main as cli_main
from riskcap.distributions import (
    GammaParams,
    LognormalParams,
    PoissonParams,
    RngStream,
    sample_severities,
)
from riskcap.experiments import TrueModel, bias_study, generate_synthetic
from riskcap.mc_engine import (
    LossSample,
    _ci_indices,
    empirical_quantile,
    estimate_quantile,
    simulate_conditional_sample,
    simulate_predictive_sample,
)

LN_TRUE = TrueModel(lambda0=10.0, severity=LognormalParams(mu=1.0, sigma_sq=4.0))


def _report(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_true_parameter_quantile():
    t0 = time.time()
    sample = simulate_conditional_sample(
        PoissonParams(10.0), LognormalParams(1.0, 4.0), 10**6, RngStream(2024)
    )
    q = empirical_quantile(sample, 0.999)
    elapsed = time.time() - t0
    ok = abs(q - 4900.0) / 4900.0 <= 0.03 and elapsed < 120
    _report(
        "criterion 1 (true-parameter 0.999 quantile)",
        ok,
        f"Q = {q:.0f} vs 4900 +/- 3%, {elapsed:.1f}s",
    )


def test_criterion_2_convergence_at_large_data():
    data = generate_synthetic(LN_TRUE, 400, RngStream(7).substream("c2-data"))
    cell = CellModel(cell_id="c2", severity_family="lognormal")
    cond = conditional_capital(cell, data, q=0.999, K=10**6, seed=31)
    pred = predictive_capital(cell, data, q=0.999, K=10**6, seed=31)
    rel = abs(pred.estimate.value - cond.estimate.value) / cond.estimate.value
    ok = rel < 0.03
    _report(
        "criterion 2 (400-year convergence)",
        ok,
        f"Q = {cond.estimate.value:.0f}, Q_pred = {pred.estimate.value:.0f}, gap = {rel:.1%} < 3%",
    )


def test_criterion_3_small_sample_inflation():
    wins = 0
    ratios = []
    cell = CellModel(cell_id="c3", severity_family="lognormal")
    for r in range(20):
        data = generate_synthetic(LN_TRUE, 5, RngStream(50 + r).substream("c3-data"))
        cond = conditional_capital(cell, data, q=0.999, K=10**5, seed=r)
        pred = predictive_capital(cell, data, q=0.999, K=10**5, seed=r)
        ratios.append(pred.estimate.value / cond.estimate.value)
        wins += pred.estimate.value > cond.estimate.value
    mean_ratio = float(np.mean(ratios))
    ok = wins >= 18 and mean_ratio > 1.3
    _report(
        "criterion 3 (M=5 inflation)",
        ok,
        f"predictive exceeded conditional in {wins}/20, mean ratio = {mean_ratio:.2f} > 1.3",
    )


def test_criterion_4_bias_magnitude_desk_scale():
    curve = bias_study(LN_TRUE, [40], R=20, q=0.999, K_sims=10**5, seed=404, K_reference=10**6)
    bias = curve.points[0][1]
    ok = 0.03 <= bias <= 0.20
    _report(
        "criterion 4 (relative bias at M=40, desk scale)",
        ok,
        f"bias = {bias:.3f} in [0.03, 0.20] (R=20, K=1e5); full scale accepts [0.05, 0.15]",
    )


def test_criterion_5_conjugacy_exactness():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(1000):
        n1, n2 = rng.integers(0, 15, size=2)
        c1 = list(rng.poisson(8, n1))
        c2 = list(rng.poisson(8, n2))
        gp = GammaParams(1 + rng.random() * 3, 0.2 + rng.random())
        a = bayes.poisson_posterior(bayes.poisson_posterior(gp, c1), c2)
        b = bayes.poisson_posterior(gp, c1 + c2)
        worst = max(worst, abs(a.shape - b.shape) / b.shape, abs(a.scale - b.scale) / b.scale)

        y1 = list(rng.normal(1, 2, n1))
        y2 = list(rng.normal(1, 2, n2))
        nix = NIXParams(dof_nu=2.0, scale_beta=1.0, loc_theta=0.0, prec_phi=1.0)
        a = bayes.lognormal_posterior(bayes.lognormal_posterior(nix, y1), y2)
        b = bayes.lognormal_posterior(nix, y1 + y2)
        for f in ("dof_nu", "scale_beta", "loc_theta", "prec_phi"):
            av, bv = getattr(a, f), getattr(b, f)
            worst = max(worst, abs(av - bv) / max(abs(bv), 1e-12))

        x1 = list(np.exp(rng.random(n1) * 3) + 1.0)
        x2 = list(np.exp(rng.random(n2) * 3) + 1.0)
        a = bayes.pareto_posterior(bayes.pareto_posterior(gp, x1, 1.0), x2, 1.0)
        b = bayes.pareto_posterior(gp, x1 + x2, 1.0)
        worst = max(worst, abs(a.shape - b.shape) / b.shape, abs(a.scale - b.scale) / b.scale)
    ok = worst <= 1e-12
    _report(
        "criterion 5 (sequential vs batch updates)",
        ok,
        f"worst relative discrepancy = {worst:.2e} <= 1e-12 over 1000 datasets x 3 families",
    )


def test_criterion_6_mode_equals_mle():
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(300):
        counts = list(rng.poisson(8, rng.integers(1, 20)))
        g = bayes.poisson_posterior(None, counts)
        mode = (g.shape - 1) * g.scale
        mle = estimators.mle_poisson(counts)
        worst = max(worst, abs(mode - mle) / max(mle, 1e-12))

        x = list(np.exp(rng.random(rng.integers(2, 20)) * 2) + 1.0)
        g = bayes.pareto_posterior(None, x, 1.0)
        mode = (g.shape - 1) * g.scale
        mle = estimators.mle_pareto(x, 1.0)
        worst = max(worst, abs(mode - mle) / mle)

        y = rng.normal(1, 2, rng.integers(4, 30))
        nix = bayes.lognormal_posterior(None, y)
        jm_mu, jm_s2 = nix.loc_theta, nix.scale_beta / (nix.dof_nu + 3.0)  # joint NIX mode
        mu, s2 = estimators.mle_lognormal(np.exp(y))
        worst = max(worst, abs(jm_mu - mu) / max(abs(mu), 1e-12), abs(jm_s2 - s2) / s2)
    ok = worst <= 1e-10
    _report(
        "criterion 6 (mode = MLE under flat priors)",
        ok,
        f"worst relative discrepancy = {worst:.2e} <= 1e-10",
    )


def test_criterion_7_ci_arithmetic_and_coverage():
    idx = _ci_indices(10**5, 0.999, 0.95)
    exact = idx[:2] == (99880, 99920)

    true_q = math.exp(1.0 + 2.0 * norm.ppf(0.999))
    hits = 0
    for i in range(200):
        draws = np.sort(
            sample_severities(10**5, RngStream(7000 + i).generator, mu=1.0, sigma=2.0)
        )
        est = estimate_quantile(LossSample(values=draws), 0.999, 0.95)
        hits += est.ci_lower <= true_q <= est.ci_upper
    coverage = hits / 200
    ok = exact and coverage >= 0.90
    _report(
        "criterion 7 (conservative CI)",
        ok,
        f"indices = {idx[:2]} (expected (99880, 99920)), coverage = {coverage:.1%} >= 90%",
    )


def test_criterion_8_laplace_fidelity():
    p = GammaParams(6.0, 0.5)
    logpdf = stats.gamma(p.shape, scale=p.scale).logpdf
    res = bayes.laplace_approximation(lambda x: logpdf(float(x[0])), [2.0])
    gamma_ok = (
        abs(res.mode[0] - 2.5) / 2.5 <= 1e-3 and abs(res.covariance[0, 0] - 1.25) / 1.25 <= 1e-3
    )

    y = RngStream(8).generator.normal(1.0, 2.0, size=1000)
    nix = bayes.lognormal_posterior(None, y)
    state = PosteriorState("lognormal", nix)

    def logpost(x):
        mu, s2 = float(x[0]), float(x[1])
        if s2 <= 0:
            return -math.inf
        return (
            -0.5 * math.log(s2)
            - nix.prec_phi * (mu - nix.loc_theta) ** 2 / (2 * s2)
            - (nix.dof_nu / 2 + 1) * math.log(s2)
            - nix.scale_beta / (2 * s2)
        )

    lap = bayes.laplace_approximation(logpost, [0.5, 3.0])
    mu, s2 = bayes.sample_posterior(state, RngStream(9), size=10**6)
    sd_mu = math.sqrt(lap.covariance[0, 0])
    sd_s2 = math.sqrt(lap.covariance[1, 1])
    ln_ok = abs(sd_mu - mu.std()) / mu.std() <= 0.05 and abs(sd_s2 - s2.std()) / s2.std() <= 0.05
    ok = gamma_ok and ln_ok
    _report(
        "criterion 8 (Laplace fidelity)",
        ok,
        f"Gamma mode/var within 1e-3; lognormal sds ({sd_mu:.4f}, {sd_s2:.4f}) vs "
        f"empirical ({mu.std():.4f}, {s2.std():.4f}) within 5%",
    )


def test_criterion_9_credible_interval_check():
    state = PosteriorState("poisson-rate", GammaParams(4004.0, 1.0 / 400.0))
    lo, hi = bayes.credible_interval(state, 0.95)["lambda"]
    ok = abs(lo - 9.70) <= 0.02 and abs(hi - 10.32) <= 0.02
    _report(
        "criterion 9 (posterior rate interval)",
        ok,
        f"({lo:.3f}, {hi:.3f}) vs (9.70, 10.32) +/- 0.02",
    )


def test_criterion_10_determinism(tmp_path):
    # byte-identical CSV for identical config and seed
    counts_path = tmp_path / "c.csv"
    events_path = tmp_path / "e.csv"
    rc = cli_main(["simulate", "--family", "lognormal", "--lambda0", "10", "--mu0", "1",
                   "--sigma0", "2", "--years", "10", "--seed", "10",
                   "--counts-out", str(counts_path), "--events-out", str(events_path)])
    assert rc == 0
    data = load_loss_data(counts_path, events_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "seed": 77,
                "cells": [
                    {
                        "id": "cell-a",
                        "severity_family": "lognormal",
                        "counts_file": str(counts_path),
                        "events_file": str(events_path),
                    }
                ],
            }
        )
    )
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    for out in (out1, out2):
        rc = cli_main(
            ["capital", "--config", str(cfg), "--K", "20000", "--mode", "both", "--csv", str(out)]
        )
        assert rc == 0
    identical = out1.read_bytes() == out2.read_bytes()

    # loss multiset invariant across worker counts
    pf = PosteriorState("poisson-rate", bayes.poisson_posterior(None, data.annual_counts))
    ps = PosteriorState("lognormal", bayes.lognormal_posterior(None, np.log(data.severities)))
    samples = [
        simulate_predictive_sample(pf, ps, 150_000, RngStream(11), workers=w)
        for w in (1, 2, 8)
    ]
    invariant = np.array_equal(samples[0].values, samples[1].values) and np.array_equal(
        samples[0].values, samples[2].values
    )
    ok = identical and invariant
    _report(
        "criterion 10 (determinism)",
        ok,
        f"byte-identical CSV: {identical}; multiset invariant across 1/2/8 workers: {invariant}",
    )
