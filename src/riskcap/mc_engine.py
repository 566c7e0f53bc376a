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
    sample_severities,
)

__all__ = [
    "LossSample",
    "QuantileEstimate",
    "simulate_conditional_sample",
    "simulate_predictive_sample",
    "empirical_quantile",
    "estimate_quantile",
    "ci_indices",
    "usable_cpus",
]

DEFAULT_BATCH_SIZE = 100_000
#: Beyond this many losses we refuse rather than silently subsample; exact
#: order statistics require the full sample in memory.
MAX_SAMPLE_SIZE = 10**7
#: The kernel draws severities at most this many losses at a time (a year with more
#: is a chunk of its own), so its memory does not grow with the Poisson rate.
CHUNK_LOSSES = 1 << 16

#: The normal approximation behind the conservative CI is trusted when
#: K * q * (1 - q) is at least this large.
CI_RELIABILITY_THRESHOLD = 50.0


@dataclass(frozen=True)
class LossSample:
    """Ascending-sorted annual-loss realizations."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("loss sample must be a non-empty 1-D array")
        # The order check below cannot see nan (nan < x is False), so check first.
        bad = v.size - np.count_nonzero(np.isfinite(v))
        if bad:
            raise ValueError(f"loss sample has {bad} non-finite values out of {v.size}")
        if np.any(v[1:] < v[:-1]):
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
    reliable_ci: bool


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
# Compound-loss simulation


def _compound_batch(gen: np.random.Generator, n: int, lam, sev: dict) -> np.ndarray:
    """n annual losses: the one compound-loss kernel of both paths.

    ``lam`` and each severity parameter in ``sev`` (keyword arguments of
    :func:`sample_severities`) are either scalars shared by all n scenarios,
    the conditional path's point estimate, or arrays of n per-scenario
    posterior draws, the predictive path. The counts are drawn first, then
    every severity in scenario order, whole years at a time; no loss sums to 0.
    """
    counts = gen.poisson(lam, size=n)
    ends = np.cumsum(counts)
    out = np.empty(n)
    i = 0
    while i < n:
        j = max(int(np.searchsorted(ends, ends[i] - counts[i] + CHUNK_LOSSES, "right")), i + 1)
        owner = np.repeat(np.arange(j - i), counts[i:j])
        per_loss = {k: v[i:j][owner] if np.ndim(v) else v for k, v in sev.items()}
        x = sample_severities(owner.size, gen, **per_loss)
        out[i:j] = np.bincount(owner, weights=x, minlength=j - i)
        i = j
    return out


def _run_batches(batch_fn, K: int, rng: RngStream, batch_size: int, workers: int) -> LossSample:
    if K < 1:
        raise ValueError("K must be at least 1")
    if K > MAX_SAMPLE_SIZE:
        raise ValueError(
            f"K = {K} exceeds the in-memory sample cap of {MAX_SAMPLE_SIZE}; "
            "exact order statistics require the full sample"
        )
    n_batches = (K + batch_size - 1) // batch_size
    values = np.empty(K)

    def one(i):
        part = values[i * batch_size:(i + 1) * batch_size]
        part[:] = batch_fn(part.size, rng.substream("batch", i))

    if workers > 1 and n_batches > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(one, range(n_batches)))
    else:
        list(map(one, range(n_batches)))
    values.sort()
    return LossSample(values=values)


def simulate_conditional_sample(
    freq: PoissonParams,
    sev: LognormalParams | ParetoParams,
    K: int,
    rng: RngStream,
    batch_size: int = DEFAULT_BATCH_SIZE,
    workers: int = 1,
) -> LossSample:
    """K i.i.d. annual losses at fixed point parameters, sorted ascending.

    This is the predictive computation with the posterior collapsed to a
    point mass: every scenario shares the same parameters.
    """
    if not isinstance(sev, (LognormalParams, ParetoParams)):
        raise TypeError(f"unsupported severity family: {type(sev).__name__}")
    point = sev.sampler_args()
    return _run_batches(
        lambda n, st: _compound_batch(st.generator, n, freq.lam, point), K, rng, batch_size, workers
    )


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
    loss distribution. Each batch draws its scenarios' parameters first,
    from the same stream the kernel then draws counts and severities from.
    """
    if post_freq.family != "poisson-rate":
        raise ValueError("frequency posterior must be a poisson-rate state")
    if post_sev.family == "pareto-tail" and post_sev.threshold_L is None:
        raise ValueError("pareto-tail posterior needs threshold_L for loss simulation")
    if post_sev.family not in ("lognormal", "pareto-tail"):
        raise ValueError(f"unsupported severity posterior family: {post_sev.family}")

    def batch(n, stream):
        lam = sample_posterior(post_freq, stream, size=n)
        if post_sev.family == "lognormal":
            mu, sigma_sq = sample_posterior(post_sev, stream, size=n)
            sev = {"mu": mu, "sigma": np.sqrt(sigma_sq)}
        else:
            sev = {"xi": sample_posterior(post_sev, stream, size=n),
                   "threshold_L": post_sev.threshold_L}
        return _compound_batch(stream.generator, n, lam, sev)

    return _run_batches(batch, K, rng, batch_size, workers)


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


def estimate_quantile(sample: LossSample, q: float, gamma: float) -> QuantileEstimate:
    """Point quantile and conservative CI (Z_r, Z_s) from a simulated loss sample."""
    value = empirical_quantile(sample, q)
    r, s, reliable = ci_indices(sample.K, q, gamma)
    return QuantileEstimate(
        q=q,
        value=value,
        ci_lower=float(sample.values[r - 1]),
        ci_upper=float(sample.values[s - 1]),
        ci_level=gamma,
        K=sample.K,
        reliable_ci=reliable,
    )
