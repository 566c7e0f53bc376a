"""Distribution families used by the loss model, with seeded sampling.

Every draw comes from the generator of a caller-owned :class:`RngStream`, so
reproducibility is entirely determined by ``(master_seed, stream_id)``
regardless of how the work is scheduled. Parameter objects are immutable and
safe to share across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import singledispatch

import numpy as np

__all__ = [
    "RngStream",
    "PoissonParams",
    "LognormalParams",
    "ParetoParams",
    "GammaParams",
    "InvChiSqParams",
    "sample_severities",
    "log_density",
]


def _derive_id(*keys) -> int:
    """Stable 63-bit id from a tuple of integer/string keys."""
    import hashlib

    h = hashlib.blake2b(repr(keys).encode(), digest_size=8)
    return int.from_bytes(h.digest(), "little") >> 1


class RngStream:
    """A named, reproducible random stream.

    Two streams constructed with the same ``(master_seed, stream_id)``
    produce bit-identical draw sequences; distinct stream ids give
    statistically independent streams (numpy ``SeedSequence`` spawn keys).
    """

    __slots__ = ("master_seed", "stream_id", "_gen")

    def __init__(self, master_seed: int, stream_id: int = 0):
        if master_seed < 0:
            raise ValueError("master_seed must be non-negative")
        if stream_id < 0:
            raise ValueError("stream_id must be non-negative")
        self.master_seed = int(master_seed)
        self.stream_id = int(stream_id)
        self._gen = None

    @property
    def generator(self) -> np.random.Generator:
        if self._gen is None:
            ss = np.random.SeedSequence(self.master_seed, spawn_key=(self.stream_id,))
            self._gen = np.random.default_rng(ss)
        return self._gen

    def substream(self, *keys) -> "RngStream":
        """Derive an independent stream keyed by this stream's id and *keys*."""
        return RngStream(self.master_seed, _derive_id(self.stream_id, *keys))

    def __repr__(self):
        return f"RngStream(master_seed={self.master_seed}, stream_id={self.stream_id})"


@dataclass(frozen=True)
class PoissonParams:
    """Annual event-count distribution, rate ``lam`` > 0."""

    lam: float

    def __post_init__(self):
        if not self.lam > 0:
            raise ValueError(f"Poisson rate must be positive, got {self.lam}")


@dataclass(frozen=True)
class LognormalParams:
    """Severity on log scale: ln(X) ~ Normal(mu, sigma_sq)."""

    mu: float
    sigma_sq: float

    def __post_init__(self):
        if not self.sigma_sq > 0:
            raise ValueError(f"sigma_sq must be positive, got {self.sigma_sq}")


@dataclass(frozen=True)
class ParetoParams:
    """Severity tail above threshold L: P(X > x) = (x/L)^-xi for x >= L."""

    xi: float
    threshold_L: float

    def __post_init__(self):
        if not self.xi > 0:
            raise ValueError(f"tail index xi must be positive, got {self.xi}")
        if not self.threshold_L > 0:
            raise ValueError(f"threshold must be positive, got {self.threshold_L}")


@dataclass(frozen=True)
class GammaParams:
    """Gamma in shape/scale form: mean = shape*scale, var = shape*scale**2."""

    shape: float
    scale: float

    def __post_init__(self):
        if not self.shape > 0:
            raise ValueError(f"shape must be positive, got {self.shape}")
        if not self.scale > 0:
            raise ValueError(f"scale must be positive, got {self.scale}")

    @property
    def mean(self) -> float:
        return self.shape * self.scale

    @property
    def variance(self) -> float:
        return self.shape * self.scale**2


@dataclass(frozen=True)
class InvChiSqParams:
    """Scaled inverse chi-squared: sigma_sq = scale_beta / W, W ~ ChiSq(dof).

    Density is proportional to (s2)^(-dof/2 - 1) * exp(-scale_beta / (2*s2)).
    Mean is scale_beta / (dof - 2) for dof > 2.
    """

    dof: float
    scale_beta: float

    def __post_init__(self):
        if not self.dof > 0:
            raise ValueError(f"dof must be positive, got {self.dof}")
        if not self.scale_beta > 0:
            raise ValueError(f"scale_beta must be positive, got {self.scale_beta}")


def sample_severities(size: int, gen: np.random.Generator, *, mu=None, sigma_sq=None,
                      xi=None, threshold_L=None) -> np.ndarray:
    """``size`` severities drawn from ``gen``: the one severity sampler.

    Pass ``mu`` and ``sigma_sq`` for exp(Z * sqrt(sigma_sq) + mu), Z standard
    normal, or ``xi`` and ``threshold_L`` for threshold_L * (1 - U)^(-1/xi),
    U uniform on [0, 1); each a scalar or one value per draw. A tail index
    near 0 overflows to inf without a numpy warning; LossSample rejects it.
    """
    if xi is None:
        return np.exp(gen.standard_normal(size) * np.sqrt(sigma_sq) + mu)
    u = gen.random(size)
    with np.errstate(over="ignore"):
        return threshold_L * np.power(1.0 - u, -1.0 / xi)


@singledispatch
def log_density(params, x):
    """Natural-log density of *x* under the family given by *params*.

    Returns -inf outside the support (rather than raising), which keeps
    posterior objectives evaluable near boundaries.
    """
    raise TypeError(f"unknown distribution params: {type(params).__name__}")


@log_density.register
def _(params: PoissonParams, x) -> float:
    n = float(x)
    if n < 0 or n != int(n):
        return -math.inf
    return -params.lam + int(n) * math.log(params.lam) - math.lgamma(int(n) + 1)


@log_density.register
def _(params: LognormalParams, x) -> float:
    if x <= 0:
        return -math.inf
    y = math.log(x)
    return (
        -y
        - 0.5 * math.log(2 * math.pi * params.sigma_sq)
        - (y - params.mu) ** 2 / (2 * params.sigma_sq)
    )


@log_density.register
def _(params: ParetoParams, x) -> float:
    if x < params.threshold_L:
        return -math.inf
    return (
        math.log(params.xi / params.threshold_L)
        - (params.xi + 1) * math.log(x / params.threshold_L)
    )


@log_density.register
def _(params: GammaParams, x) -> float:
    if x <= 0:
        return -math.inf
    return (
        (params.shape - 1) * math.log(x)
        - x / params.scale
        - math.lgamma(params.shape)
        - params.shape * math.log(params.scale)
    )


@log_density.register
def _(params: InvChiSqParams, x) -> float:
    if x <= 0:
        return -math.inf
    half_dof = params.dof / 2
    return (
        half_dof * math.log(params.scale_beta / 2)
        - math.lgamma(half_dof)
        - (half_dof + 1) * math.log(x)
        - params.scale_beta / (2 * x)
    )
