"""Distribution families used by the loss model, with seeded sampling.

Every draw comes from the generator of a caller-owned :class:`RngStream`, so
reproducibility is entirely determined by ``(master_seed, stream_id)``
regardless of how the work is scheduled. Parameter objects are immutable and
safe to share across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RngStream",
    "PoissonParams",
    "LognormalParams",
    "ParetoParams",
    "GammaParams",
    "sample_severities",
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

    def sampler_args(self) -> dict:
        """Keyword arguments of :func:`sample_severities` for these parameters."""
        return {"mu": self.mu, "sigma": math.sqrt(self.sigma_sq)}


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

    def sampler_args(self) -> dict:
        """Keyword arguments of :func:`sample_severities` for these parameters."""
        return {"xi": self.xi, "threshold_L": self.threshold_L}


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


def sample_severities(size: int, gen: np.random.Generator, *, mu=None, sigma=None,
                      xi=None, threshold_L=None) -> np.ndarray:
    """``size`` severities drawn from ``gen``: the one severity sampler.

    Pass ``mu`` and ``sigma`` for exp(Z * sigma + mu), Z standard normal, or
    ``xi`` and ``threshold_L`` for threshold_L * (1 - U)^(-1/xi), U uniform
    on [0, 1); each a scalar or one value per draw. ``sigma`` is the log-scale
    standard deviation, so callers take the square root of ``sigma_sq`` once
    per parameter value, not once per loss. A tail index near 0 overflows to
    inf without a numpy warning; LossSample rejects it.
    """
    if xi is None:
        x = gen.standard_normal(size)
        x *= sigma
        x += mu
        return np.exp(x, out=x)
    u = gen.random(size)
    with np.errstate(over="ignore"):
        return threshold_L * np.power(1.0 - u, -1.0 / xi)
