"""Monte Carlo core: compound-loss simulation, order-statistic quantiles,
and the conservative binomial/normal confidence interval.

Simulation of K annual losses is partitioned into fixed-size batches; batch
``i`` consumes the substream derived from the caller's stream and ``i``, so
the simulated loss multiset is bit-identical for any worker count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import special

from .bayes import PosteriorState, sample_posterior
from .distributions import (
    LognormalParams,
    ParetoParams,
    PoissonParams,
    RngStream,
)

__all__ = [
    "LossSample",
    "QuantileEstimate",
    "simulate_annual_loss",
    "simulate_conditional_sample",
    "simulate_predictive_sample",
    "empirical_quantile",
    "quantile_ci",
    "ci_indices",
    "run_until_accuracy",
    "usable_cpus",
]

DEFAULT_BATCH_SIZE = 100_000
#: Beyond this many losses we refuse rather than silently subsample; exact
#: order statistics require the full sample in memory.
MAX_SAMPLE_SIZE = 10**7

#: The normal approximation behind the conservative CI is trusted when
#: K * q * (1 - q) is at least this large.
CI_RELIABILITY_THRESHOLD = 50.0


@dataclass(frozen=True)
class LossSample:
    """Ascending-sorted annual-loss realizations with seed provenance."""

    values: np.ndarray
    master_seed: int

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("loss sample must be a non-empty 1-D array")
        # The order check below cannot see nan (nan < x is False), so check first.
        bad = v.size - np.count_nonzero(np.isfinite(v))
        if bad:
            raise ValueError(f"loss sample has {bad} non-finite values out of {v.size}")
        if np.any(np.diff(v) < 0):
            raise ValueError("loss sample must be sorted ascending")
        if v[0] < 0:
            raise ValueError("annual losses must be non-negative")

    @property
    def K(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class QuantileEstimate:
    """A quantile point estimate with its conservative order-statistic CI."""

    q: float
    value: float
    ci_lower: float
    ci_upper: float
    ci_level: float
    K: int
    master_seed: int
    reliable_ci: bool
    converged: bool = True


def usable_cpus() -> int:
    """CPUs this process may run on: the default worker count.

    Every output is independent of the worker count, so the default only
    sets how fast a run finishes.
    """
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# Severity / compound sampling


def _sample_severities(sev, n: int, gen: np.random.Generator) -> np.ndarray:
    if isinstance(sev, LognormalParams):
        return np.exp(gen.normal(sev.mu, math.sqrt(sev.sigma_sq), size=n))
    if isinstance(sev, ParetoParams):
        u = gen.random(size=n)
        return sev.threshold_L * np.power(1.0 - u, -1.0 / sev.xi)
    raise TypeError(f"unsupported severity family: {type(sev).__name__}")


def _compound_losses(counts: np.ndarray, severities: np.ndarray) -> np.ndarray:
    """Sum severities into per-scenario annual losses; zero counts give 0."""
    n = counts.size
    if severities.size == 0:
        return np.zeros(n)
    owner = np.repeat(np.arange(n), counts)
    return np.bincount(owner, weights=severities, minlength=n)


def _conditional_batch(freq: PoissonParams, sev, n: int, stream: RngStream) -> np.ndarray:
    gen = stream.generator
    counts = gen.poisson(freq.lam, size=n)
    x = _sample_severities(sev, int(counts.sum()), gen)
    return _compound_losses(counts, x)


def _predictive_batch(
    post_freq: PosteriorState, post_sev: PosteriorState, n: int, stream: RngStream
) -> np.ndarray:
    lam = sample_posterior(post_freq, stream, size=n)
    gen = stream.generator
    if post_sev.family == "lognormal":
        mu, s2 = sample_posterior(post_sev, stream, size=n)
        counts = gen.poisson(lam)
        total = int(counts.sum())
        mu_rep = np.repeat(mu, counts)
        sd_rep = np.repeat(np.sqrt(s2), counts)
        x = np.exp(gen.normal(size=total) * sd_rep + mu_rep)
    elif post_sev.family == "pareto-tail":
        L = post_sev.threshold_L
        if L is None:
            raise ValueError("pareto-tail posterior needs threshold_L for loss simulation")
        xi = sample_posterior(post_sev, stream, size=n)
        counts = gen.poisson(lam)
        total = int(counts.sum())
        xi_rep = np.repeat(xi, counts)
        u = gen.random(size=total)
        x = L * np.power(1.0 - u, -1.0 / xi_rep)
    else:
        raise ValueError(f"unsupported severity posterior family: {post_sev.family}")
    return _compound_losses(counts, x)


def simulate_annual_loss(freq: PoissonParams, sev, rng: RngStream) -> float:
    """One annual loss: a Poisson number of i.i.d. severities summed."""
    return float(_conditional_batch(freq, sev, 1, rng)[0])


def _run_batches(batch_fn, K: int, rng: RngStream, batch_size: int, workers: int) -> LossSample:
    if K < 1:
        raise ValueError("K must be at least 1")
    if K > MAX_SAMPLE_SIZE:
        raise ValueError(
            f"K = {K} exceeds the in-memory sample cap of {MAX_SAMPLE_SIZE}; "
            "exact order statistics require the full sample"
        )
    n_batches = (K + batch_size - 1) // batch_size
    sizes = [batch_size] * (n_batches - 1) + [K - batch_size * (n_batches - 1)]

    def one(i):
        return batch_fn(sizes[i], rng.substream("batch", i))

    if workers > 1 and n_batches > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(one, range(n_batches)))
    else:
        parts = [one(i) for i in range(n_batches)]
    values = np.sort(np.concatenate(parts))
    return LossSample(values=values, master_seed=rng.master_seed)


def simulate_conditional_sample(
    freq: PoissonParams,
    sev,
    K: int,
    rng: RngStream,
    batch_size: int = DEFAULT_BATCH_SIZE,
    workers: int = 1,
) -> LossSample:
    """K i.i.d. annual losses at fixed point parameters, sorted ascending."""
    return _run_batches(lambda n, st: _conditional_batch(freq, sev, n, st), K, rng, batch_size, workers)


def simulate_predictive_sample(
    post_freq: PosteriorState,
    post_sev: PosteriorState,
    K: int,
    rng: RngStream,
    batch_size: int = DEFAULT_BATCH_SIZE,
    workers: int = 1,
) -> LossSample:
    """K annual losses, each under a fresh parameter draw from the posteriors.

    This realizes the parameter-uncertainty-averaged (predictive) annual
    loss distribution.
    """
    if post_freq.family != "poisson-rate":
        raise ValueError("frequency posterior must be a poisson-rate state")
    return _run_batches(
        lambda n, st: _predictive_batch(post_freq, post_sev, n, st), K, rng, batch_size, workers
    )


# ---------------------------------------------------------------------------
# Quantiles and confidence intervals


def _quantile_index(K: int, q: float) -> int:
    """1-based order-statistic index floor(K*q + 1), clamped to K."""
    return min(int(math.floor(K * q)) + 1, K)


def empirical_quantile(sample: LossSample, q: float) -> float:
    if not 0 < q < 1:
        raise ValueError(f"q must be in (0, 1), got {q}")
    return float(sample.values[_quantile_index(sample.K, q) - 1])


def ci_indices(K: int, q: float, gamma: float) -> tuple[int, int, bool]:
    """Order-statistic indices (1-based) of the conservative quantile CI.

    The count of samples below the true quantile is Binomial(K, q); the
    normal approximation gives r = floor(Kq - z*sqrt(Kq(1-q))) and
    s = ceil(Kq + z*sqrt(Kq(1-q))) with z the (1+gamma)/2 normal quantile.
    Indices are clamped to [1, K]. The approximation is flagged reliable
    when Kq(1-q) >= 50.
    """
    if not 0 < q < 1:
        raise ValueError(f"q must be in (0, 1), got {q}")
    if not 0 < gamma < 1:
        raise ValueError(f"gamma must be in (0, 1), got {gamma}")
    z = special.ndtri((1.0 + gamma) / 2.0)
    spread = z * math.sqrt(K * q * (1.0 - q))
    r = int(math.floor(K * q - spread))
    s = int(math.ceil(K * q + spread))
    r = min(max(r, 1), K)
    s = min(max(s, 1), K)
    reliable = K * q * (1.0 - q) >= CI_RELIABILITY_THRESHOLD
    return r, s, reliable


def quantile_ci(sample: LossSample, q: float, gamma: float) -> tuple[float, float, bool]:
    """Conservative CI (Z_r, Z_s) for the q-quantile, plus reliability flag."""
    r, s, reliable = ci_indices(sample.K, q, gamma)
    return float(sample.values[r - 1]), float(sample.values[s - 1]), reliable


def _estimate(sample: LossSample, q: float, gamma: float, converged: bool = True) -> QuantileEstimate:
    value = empirical_quantile(sample, q)
    lo, hi, reliable = quantile_ci(sample, q, gamma)
    return QuantileEstimate(
        q=q,
        value=value,
        ci_lower=lo,
        ci_upper=hi,
        ci_level=gamma,
        K=sample.K,
        master_seed=sample.master_seed,
        reliable_ci=reliable,
        converged=converged,
    )


def estimate_quantile(sample: LossSample, q: float, gamma: float) -> QuantileEstimate:
    """Point quantile and conservative CI from a simulated loss sample."""
    return _estimate(sample, q, gamma)


def run_until_accuracy(
    sampler,
    q: float,
    gamma: float,
    target_rel_halfwidth: float,
    batch_K: int,
    max_K: int,
    rng: RngStream,
) -> QuantileEstimate:
    """Grow the loss sample in batches until the CI half-width is small enough.

    ``sampler`` is a callable ``(n, stream) -> array of n losses``. Stops when
    (ci_upper - ci_lower) / (2 * value) <= target, or when K would exceed
    ``max_K``; an estimate that never met the target is returned with
    ``converged=False`` rather than raising.
    """
    if target_rel_halfwidth <= 0:
        raise ValueError("target_rel_halfwidth must be positive")
    if batch_K < 1:
        raise ValueError("batch_K must be at least 1")
    values = np.array([], dtype=float)
    batch = 0
    while True:
        n = min(batch_K, max_K - values.size)
        if n <= 0:
            break
        draws = np.asarray(sampler(n, rng.substream("acc", batch)), dtype=float)
        values = np.sort(np.concatenate([values, draws]))
        batch += 1
        sample = LossSample(values=values, master_seed=rng.master_seed)
        est = _estimate(sample, q, gamma)
        if est.value > 0:
            halfwidth = (est.ci_upper - est.ci_lower) / (2.0 * est.value)
            if halfwidth <= target_rel_halfwidth:
                return est
    sample = LossSample(values=values, master_seed=rng.master_seed)
    return _estimate(sample, q, gamma, converged=False)
