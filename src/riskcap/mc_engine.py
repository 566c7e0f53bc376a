"""Monte Carlo core: compound-loss simulation, order-statistic quantiles,
the conservative binomial/normal confidence interval, and a conditional Monte
Carlo quantile for a point of the cell model.

Simulation of K annual losses is partitioned into fixed-size batches; batch
``i`` consumes the substream derived from the caller's stream and ``i``, so
the simulated loss multiset is bit-identical for any worker count. Each thread
folds its batches into their largest ``keep``, so memory is O(``keep`` x workers).
"""

from __future__ import annotations

import math
import os
import statistics
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .bayes import MIN_TRUNCATION_ACCEPTANCE, PosteriorState, sample_posterior
from .distributions import (ParetoParams, PointParams, RngStream, severity_tail,
                            severity_variates, to_severities)

__all__ = [
    "LossSample",
    "QuantileEstimate",
    "NonFiniteLossError",
    "simulate_conditional_sample",
    "simulate_predictive_sample",
    "simulate_pair",
    "empirical_quantile",
    "estimate_quantile",
    "quantile_tail",
    "ak_quantile",
    "usable_cpus",
]

BATCH_SIZE = 100_000
#: The kernel draws severities at most this many losses at a time (a year with more
#: is a chunk of its own), so its memory does not grow with the Poisson rate.
CHUNK_LOSSES = 1 << 16

#: The mass a count table may leave out past each end.
COUNT_TAIL = 2.0**-60
#: A severity matrix with at least this many rows is summed column by column, one
#: with fewer (long rows, or a count's last few years) by an in-place cumsum along
#: its rows. Both add each row from 0 in draw order, so the sums are the same.
COLUMN_SUM_ROWS = 256

#: The normal approximation behind the conservative CI is trusted when
#: K * q * (1 - q) is at least this large.
CI_RELIABILITY_THRESHOLD = 50.0

#: :func:`ak_quantile` stops once its bracket on ln x is this narrow.
AK_LOG_TOLERANCE = 1e-7


class NonFiniteLossError(ValueError):
    """A simulation drew annual losses that are inf or nan."""


@dataclass(frozen=True)
class LossSample:
    """The largest ``values.size`` of K annual losses, sorted ascending.

    Order statistic i (1-based, of K) is ``values[i - 1 - (K - values.size)]``.
    """

    values: np.ndarray
    K: int

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("loss sample must be a non-empty 1-D array")
        if v.size > self.K:
            raise ValueError(f"loss sample holds {v.size} values, more than its K = {self.K}")
        # The order check below cannot see nan (nan < x is False), so check first.
        bad = v.size - np.count_nonzero(np.isfinite(v))
        if bad:
            raise ValueError(f"loss sample has {bad} non-finite values out of {self.K}")
        if np.any(v[1:] < v[:-1]):
            raise ValueError("loss sample must be sorted ascending")
        if v[0] < 0:
            raise ValueError("annual losses must be non-negative")


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


def _count_table(alpha: float, beta: float, weight=np.ones_like, mass: float = 1.0):
    """``(k0, pmf)``, read-only and normalised, of the count law with p(k)/p(k-1)
    = alpha + beta/k (Panjer's (a, b, 0) class: Poisson(lam) is (0, lam), NB(a, q) is
    (q, (a-1)q)) times ``weight(k)``, whose sum is at least ``mass``. The log pmf is summed
    outward from the mode until the ratio bounds the rest past each end below that."""
    mode = max(math.floor(beta / (1 - alpha)), 0)
    width = 16 + math.ceil(10 * math.sqrt(alpha + beta) / (1 - alpha))  # 10 sd
    while True:
        lo, hi = max(mode - width, 0), mode + width
        up = np.cumsum(np.log(alpha + beta / np.arange(mode + 1, hi + 1)))
        down = np.cumsum(np.log(alpha + beta / np.arange(mode, lo, -1)))
        rho = alpha + max(beta, 0.0) / (hi + 1)  # the largest ratio past hi
        lower = math.exp(-down[-1]) / (alpha + beta / lo - 1) if lo else 0.0
        if max(math.exp(up[-1]) * rho / (1 - rho), lower) < COUNT_TAIL * mass:
            break
        width *= 2
    pmf = np.exp(np.concatenate([-down[::-1], [0.0], up])) * weight(np.arange(lo, hi + 1))
    pmf /= pmf.sum()
    pmf.flags.writeable = False  # every batch's thread reads it
    return lo, pmf


def _predictive_count_table(post_freq: PosteriorState):
    """Poisson counts over the Gamma(a, s) rate posterior are NB(a, q = s/(1+s)); a box
    on the rate weighs count k by its mass under the rate given k, Gamma(a + k, scale q)."""
    a, q = post_freq.params.shape, post_freq.params.scale / (1 + post_freq.params.scale)
    if not post_freq.truncation:
        return _count_table(q, (a - 1) * q)
    from scipy import special
    lo, hi = (max(b, 0.0) / q for b in post_freq.bounds("lambda"))
    weight = lambda k: np.maximum(special.gammainc(a + k, hi) - special.gammainc(a + k, lo), 0.0)
    return _count_table(q, (a - 1) * q, weight, MIN_TRUNCATION_ACCEPTANCE)  # the box's least mass


def _layout(gen: np.random.Generator, n: int, sides: tuple) -> tuple:
    """``(params, groups)``, the layout of n years per side that every estimator walks.

    A side is a ``(table, sev)`` pair. First, side by side, one multinomial draws how
    many years have each count of the side's ``table`` (a :func:`_count_table`). Then
    each side's ``sev(m)`` gives its ``params`` (None when m is 0), the keyword
    arguments of :func:`to_severities` for its m years with a loss: scalars shared by
    all (conditional: the point estimate) or m per-year posterior draws (predictive).
    Years come in ascending count: ``groups`` maps each count k >= 1 some side holds
    to (years, first year) per side."""
    hists = []
    for (k0, pmf), _ in sides:
        years = gen.multinomial(n, pmf)
        if k0 == 0:
            years[0] = 0  # the years without a loss are the zeros left in each output
        hists.append((k0, years))
    params = [sev(int(years.sum())) if years.any() else None
              for (_, sev), (_, years) in zip(sides, hists)]
    groups = {}
    for s, (k0, years) in enumerate(hists):
        held, i = np.flatnonzero(years), 0
        for k, m in zip((k0 + held).tolist(), years[held].tolist()):
            groups.setdefault(k, [(0, 0)] * len(sides))[s] = (m, i)
            i += m
    return params, groups


def _matrices(gen: np.random.Generator, groups: dict, lognormal: bool, drop: int = 0):
    """``(k, j, z)`` for each count k > ``drop`` of ``groups`` in ascending order: z holds
    the :func:`severity_variates` of years j, j + 1, ... of count k (as many as the side
    with the most), a row of k - ``drop`` per year and at most ``CHUNK_LOSSES`` in all
    (a year with more is a matrix of its own). No z is held here across its ``yield``,
    so a caller that drops each before the next holds one at a time."""
    for k in sorted(k for k in groups if k > drop):
        b, most = max(CHUNK_LOSSES // (k - drop), 1), max(groups[k])[0]
        for j in range(0, most, b):
            yield k, j, severity_variates((min(b, most - j), k - drop), gen, lognormal)


def _compound_batch(gen: np.random.Generator, n: int, sides: tuple) -> list:
    """n annual losses per side, each in no particular order: the one compound-loss
    kernel of every path.

    Each side takes its first rows of each :func:`_matrices` matrix of its
    :func:`_layout`, transforms them to severities (a copy, or in place for the last
    side) and sums each row from 0 in draw order. A zero count gives a zero loss.

    With one side these are :func:`sample_severities`' draws. With several, the
    sides share their variates: each side's losses keep their own law, and the
    sides' differences lose most of their noise (common random numbers). The
    sides must share a severity family.
    """
    params, groups = _layout(gen, n, sides)
    outs, last = [np.zeros(n) for _ in sides], len(sides) - 1
    lognormal = all("xi" not in p for p in params if p is not None)
    with np.errstate(over="ignore"):  # an overflow is inf, which the caller counts
        for k, j, z in _matrices(gen, groups, lognormal):
            height = z.shape[0]
            for s, (m, i) in enumerate(groups[k]):
                rows = min(m - j, height)
                if rows <= 0:
                    continue
                r0, r1 = i + j, i + j + rows
                row_params = {name: v[r0:r1, None] if np.ndim(v) else v
                              for name, v in params[s].items()}
                x = z if rows == height else z[:rows]
                x = to_severities(x, x if s == last else None, **row_params)
                total = outs[s][r0:r1]
                if rows < COLUMN_SUM_ROWS:
                    total[:] = np.cumsum(x, axis=1, out=x)[:, -1]
                else:
                    total[:] = x[:, 0]
                    for col in range(1, k):
                        total += x[:, col]
                del x  # before the next side's copy
            del z  # before the next matrix is drawn
    return outs


def _top(x: np.ndarray, keep: int) -> np.ndarray:
    """The largest ``keep`` of ``x``, unordered: ``x`` itself, or a copy of them cut from
    ``x`` partitioned in place, so ``x`` can be freed."""
    if x.size <= keep:
        return x
    x.partition(x.size - keep)
    return x[x.size - keep:].copy()


def _run_batches(sides: tuple, K: int, rng: RngStream, workers: int, keep: int,
                 modes: tuple = (None,)) -> list:
    """The largest ``keep`` of K losses of each side, drawn in batches on ``workers``
    threads: one :class:`LossSample` per name in ``modes``.

    ``sides[s](stream)`` is side s of the batch drawn from ``stream`` (see
    :func:`_compound_batch`). Thread w draws batches w, w + threads, ... and folds
    each side's top ``keep`` of each batch into its own; the main thread folds the
    threads' tops. The largest ``keep`` of K losses are one multiset, so the sorted
    result does not depend on the threads.
    A side with non-finite losses raises :class:`NonFiniteLossError`, which names
    its mode when there are several.
    """
    if K < 1 or keep < 1:
        raise ValueError(f"K and keep must be at least 1, got {K} and {keep}")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    n_batches = (K + BATCH_SIZE - 1) // BATCH_SIZE
    threads = min(workers, n_batches)

    def batch(i):
        """Batch i's non-finite count, minimum and top ``keep`` per side: only the
        tops outlive it."""
        n, stream = min(BATCH_SIZE, K - i * BATCH_SIZE), rng.substream("batch", i)
        return [(n - np.count_nonzero(np.isfinite(out)), out.min(), _top(out, keep))
                for out in _compound_batch(stream.generator, n, tuple(s(stream) for s in sides))]

    def stride(w):
        folds = [(0, math.inf, np.empty(0)) for _ in modes]
        for i in range(w, n_batches, threads):
            folds = [(bad + b, min(low, m), _top(np.concatenate([top, t]), keep))
                     for (bad, low, top), (b, m, t) in zip(folds, batch(i))]
        return folds

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            strides = list(pool.map(stride, range(threads)))
    else:
        strides = [stride(0)]
    samples = []
    for mode, folds in zip(modes, zip(*strides)):
        bad, low, tops = zip(*folds)
        if sum(bad):
            named = f"{mode} " if len(modes) > 1 else ""
            raise NonFiniteLossError(f"{named}loss sample has {sum(bad)} non-finite values "
                                     f"out of {K}")
        if min(low) < 0:
            raise ValueError("annual losses must be non-negative")
        top = _top(np.concatenate(tops), keep)
        top.sort()
        samples.append(LossSample(values=top, K=K))
    return samples


def _conditional_side(point: PointParams):
    """The kernel side of a point, for a batch from any stream: its Poisson table and severity."""
    table, sev = _count_table(0.0, point.lam), point.sampler_args()
    return lambda stream: (table, lambda m: sev)


def _predictive_side(post_freq: PosteriorState, post_sev: PosteriorState):
    """The kernel side of the posteriors for the batch drawn from a given stream: the
    negative-binomial count table, so no rate is drawn, and severity parameters
    drawn from that stream for each year that has a loss."""
    if post_freq.family != "poisson-rate":
        raise ValueError("frequency posterior must be a poisson-rate state")
    if post_sev.family == "pareto-tail" and post_sev.threshold_L is None:
        raise ValueError("pareto-tail posterior needs threshold_L for loss simulation")
    if post_sev.family not in ("lognormal", "pareto-tail"):
        raise ValueError(f"unsupported severity posterior family: {post_sev.family}")
    table = _predictive_count_table(post_freq)

    def side(stream: RngStream) -> tuple:
        def sev(m):
            if post_sev.family == "lognormal":
                mu, sigma_sq = sample_posterior(post_sev, stream, size=m)
                return {"mu": mu, "sigma": np.sqrt(sigma_sq)}
            return {"xi": sample_posterior(post_sev, stream, size=m),
                    "threshold_L": post_sev.threshold_L}

        return table, sev

    return side


def simulate_conditional_sample(
    point: PointParams, K: int, rng: RngStream, workers: int = 1, *, keep: int
) -> LossSample:
    """The largest ``keep`` of K i.i.d. annual losses at one point of the cell
    model, sorted ascending.

    This is the predictive computation with the posterior collapsed to a
    point mass: every scenario shares the same parameters.
    """
    return _run_batches((_conditional_side(point),), K, rng, workers, keep)[0]


def simulate_predictive_sample(
    post_freq: PosteriorState,
    post_sev: PosteriorState,
    K: int,
    rng: RngStream,
    workers: int = 1,
    *,
    keep: int,
) -> LossSample:
    """The largest ``keep`` of K annual losses, each under a fresh parameter draw
    from the posteriors, sorted ascending.

    This realizes the parameter-uncertainty-averaged (predictive) annual loss
    distribution. Counts come from their negative-binomial marginal, so no rate is
    drawn; each batch draws its counts, then severity parameters for the years that
    have a loss, then its losses, from one stream.
    """
    return _run_batches((_predictive_side(post_freq, post_sev),), K, rng, workers, keep)[0]


def simulate_pair(
    point: PointParams,
    post_freq: PosteriorState,
    post_sev: PosteriorState,
    K: int,
    rng: RngStream,
    workers: int = 1,
    *,
    keep: int,
) -> tuple[LossSample, LossSample]:
    """``(conditional, predictive)``: the largest ``keep`` of K annual losses at
    ``point`` and of K under the posteriors, each sorted ascending, drawn in one pass.

    Each batch draws both count histograms, then the predictive severity
    parameters, then one set of severity variates that both modes transform
    (:func:`_compound_batch`). Each sample has the law of its one-mode function,
    and the predictive-minus-conditional gap of a quantile has far less noise than
    from two independent simulations. ``point`` and ``post_sev`` must share a
    severity family. Non-finite losses raise :class:`NonFiniteLossError`, which
    names the mode.
    """
    cond, pred = _conditional_side(point), _predictive_side(post_freq, post_sev)
    if isinstance(point.severity, ParetoParams) != (post_sev.family == "pareto-tail"):
        raise ValueError("point and post_sev must share a severity family")
    return tuple(_run_batches((cond, pred), K, rng, workers, keep, ("conditional", "predictive")))


# ---------------------------------------------------------------------------
# Quantiles and confidence intervals


def _quantile_index(K: int, q: float) -> int:
    """1-based order-statistic index floor(K*q + 1), clamped to K."""
    return min(int(math.floor(K * q)) + 1, K)


def _order_statistic(sample: LossSample, i: int) -> float:
    """The i-th smallest (1-based) of the sample's K losses."""
    j = i - 1 - (sample.K - sample.values.size)
    if j < 0:
        raise ValueError(f"rank {i} of K = {sample.K} is not among the "
                         f"{sample.values.size} largest losses the sample holds")
    return float(sample.values[j])


def empirical_quantile(sample: LossSample, q: float) -> float:
    if not 0 < q < 1:
        raise ValueError(f"q must be in (0, 1), got {q}")
    return _order_statistic(sample, _quantile_index(sample.K, q))


def _ci_indices(K: int, q: float, gamma: float) -> tuple[int, int, bool]:
    """Order-statistic indices (1-based) of the conservative quantile CI.

    The count of samples below the true quantile is Binomial(K, q); the
    normal approximation gives r = floor(Kq - z*sqrt(Kq(1-q))) and
    s = ceil(Kq + z*sqrt(Kq(1-q))) with z the (1+gamma)/2 normal quantile.
    Indices are clamped to [1, K]. The approximation is flagged reliable
    when Kq(1-q) >= 50. Its one caller has checked q.
    """
    if not 0 < gamma < 1:
        raise ValueError(f"gamma must be in (0, 1), got {gamma}")
    z = statistics.NormalDist().inv_cdf((1.0 + gamma) / 2.0)
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
    r, s, reliable = _ci_indices(sample.K, q, gamma)
    return QuantileEstimate(
        q=q,
        value=value,
        ci_lower=_order_statistic(sample, r),
        ci_upper=_order_statistic(sample, s),
        ci_level=gamma,
        K=sample.K,
        reliable_ci=reliable,
    )


def quantile_tail(K: int, q: float, gamma: float | None = None) -> int:
    """How many of K losses, the largest, ``estimate_quantile(q, gamma)`` reads, or
    ``empirical_quantile(q)`` when ``gamma`` is None: the ``keep`` of a simulation
    that only a quantile reads."""
    if not 0 < q < 1:
        raise ValueError(f"q must be in (0, 1), got {q}")
    lowest = _quantile_index(K, q)
    if gamma is not None:
        lowest = min(lowest, _ci_indices(K, q, gamma)[0])
    return K - lowest + 1


# ---------------------------------------------------------------------------
# Conditional Monte Carlo quantile


def ak_quantile(point: PointParams, K: int, rng: RngStream, q: float) -> float:
    """The q quantile of the annual loss at ``point``, from K years of Asmussen and
    Kroese's (2006) conditional Monte Carlo estimator, drawn on the calling thread.

    The years come in the kernel's layout (:func:`_layout`, :func:`_matrices`), but no
    year's last loss is drawn, so years with k <= 1 losses draw none: with S the sum
    and M the largest of the other k - 1, k * Fbar(max(M, x - S)) is the chance that
    the year exceeds x with its largest loss last, times the k places that loss may
    take. Their mean over the K years, P(x), is an unbiased estimate of P(Z > x) that
    does not increase with x. The quantile is where P(x) falls to 1 - q, found from
    the single-loss approximation by widening a bracket and then by Illinois regula
    falsi on (ln x, ln P(x)). It is 0.0 when no x > 0 has P(x) > 1 - q, as it is
    exactly when a year has a loss with chance 1 - exp(-lam) <= 1 - q, and a ValueError
    when P(x) > 1 - q at the largest double x.
    """
    if not 0 < q < 1:
        raise ValueError(f"q must be in (0, 1), got {q}")
    if K < 1:
        raise ValueError(f"K must be at least 1, got {K}")
    target = 1.0 - q
    if -math.expm1(-point.lam) <= target:
        return 0.0
    gen, sev = rng.generator, point.sampler_args()
    _, groups = _layout(gen, K, (_conditional_side(point)(rng),))
    # One entry per year with a loss: its count, and the sum and largest of all its
    # losses but the last. The one-loss years share the last entry, (m_1, 0, 0).
    counts, sums, peaks = [], [], []
    with np.errstate(over="ignore"):  # a severity past the largest double is inf
        for k, _, x in _matrices(gen, groups, "xi" not in sev, drop=1):
            x = to_severities(x, x, **sev)
            counts.append(np.full(x.shape[0], float(k)))
            sums.append(x.sum(axis=1))
            peaks.append(x.max(axis=1))
    counts = np.concatenate([*counts, [groups[1][0][0] if 1 in groups else 0]])
    sums, peaks = np.concatenate([*sums, [0.0]]), np.concatenate([*peaks, [0.0]])

    single = min(target / point.lam, 0.5)  # the single-loss approximation's severity tail
    u = (math.log(sev["threshold_L"]) - math.log(single) / sev["xi"] if "xi" in sev
         else sev["mu"] - sev["sigma"] * statistics.NormalDist().inv_cdf(single))

    def excess(u):
        """ln P(e^u) - ln(1 - q), which has the sign of P(e^u) - (1 - q)."""
        p = float(counts @ severity_tail(np.maximum(peaks, math.exp(u) - sums), **sev)) / K
        return math.log(p / target) if p > 0 else -math.inf

    if excess(-math.inf) <= 0:
        return 0.0
    # Widen from the single-loss approximation by factors of 2 until P(e^a) > 1 - q >= P(e^b),
    # with b at most ln of the largest double, so that math.exp(b) stays finite.
    top = math.log(np.finfo(float).max)
    a = b = min(u, top)
    fa = fb = excess(a)
    while fa <= 0:
        b, fb, a = a, fa, a - math.log(2.0)
        fa = excess(a)
    while fb > 0:
        if b == top:
            raise ValueError(f"the {q} quantile of the annual loss lies above the largest double")
        a, fa, b = b, fb, min(b + math.log(2.0), top)
        fb = excess(b)
    side = 0  # Illinois: halve the end that stayed put twice in a row
    while fb < 0 and b - a > AK_LOG_TOLERANCE:  # fb == 0 puts the root at b
        c = (a + b) / 2 if fb == -math.inf else (a * fb - b * fa) / (fb - fa)
        fc = excess(c)
        if fc > 0:
            a, fa = c, fc
            fb = fb / 2 if side > 0 else fb
            side = 1
        else:
            b, fb = c, fc
            fa = fa / 2 if side < 0 else fa
            side = -1
    return math.exp(b)
