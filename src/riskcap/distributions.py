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
    "PointParams",
    "LognormalParams",
    "ParetoParams",
    "GammaParams",
    "sample_severities",
    "severity_variates",
    "to_severities",
    "severity_tail",
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


def refuse_bools(params):
    """Refuse a bool field of a parameter type, which Python would take as 0 or 1."""
    for name, value in vars(params).items():
        if isinstance(value, (bool, np.bool_)):
            raise TypeError(f"{name} must be a number, got {value!r}")


@dataclass(frozen=True)
class LognormalParams:
    """Severity on log scale: ln(X) ~ Normal(mu, sigma_sq)."""

    mu: float
    sigma_sq: float

    def __post_init__(self):
        refuse_bools(self)
        if not math.isfinite(self.mu):
            raise ValueError(f"mu must be finite, got {self.mu}")
        if not 0 < self.sigma_sq < math.inf:
            raise ValueError(f"sigma_sq must be positive and finite, got {self.sigma_sq}")


@dataclass(frozen=True)
class ParetoParams:
    """Severity tail above threshold L: P(X > x) = (x/L)^-xi for x >= L."""

    xi: float
    threshold_L: float

    def __post_init__(self):
        refuse_bools(self)
        for name, value in vars(self).items():
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")


@dataclass(frozen=True)
class PointParams:
    """One point of the cell model: Poisson rate ``lam`` > 0 and a severity.

    The MLE, the synthetic truth and the conditional simulation's parameters
    are all points.
    """

    lam: float
    severity: LognormalParams | ParetoParams

    def __post_init__(self):
        refuse_bools(self)
        if not 0 < self.lam < math.inf:
            raise ValueError(f"Poisson rate lam must be positive and finite, got {self.lam}")
        if not isinstance(self.severity, (LognormalParams, ParetoParams)):
            raise TypeError(f"unsupported severity family: {type(self.severity).__name__}")

    def sampler_args(self) -> dict:
        """Keyword arguments of :func:`sample_severities` and :func:`severity_tail` here."""
        sev = self.severity
        if isinstance(sev, LognormalParams):
            return {"mu": sev.mu, "sigma": math.sqrt(sev.sigma_sq)}
        return {"xi": sev.xi, "threshold_L": sev.threshold_L}


@dataclass(frozen=True)
class GammaParams:
    """Gamma in shape/scale form: mean = shape*scale, var = shape*scale**2."""

    shape: float
    scale: float

    def __post_init__(self):
        refuse_bools(self)
        for name, value in vars(self).items():
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")


def severity_variates(size, gen: np.random.Generator, lognormal: bool) -> np.ndarray:
    """The base draws of :func:`sample_severities`, an array of shape ``size`` from
    ``gen``: standard normals for a lognormal severity, uniforms on [0, 1) for a
    Pareto one. Variates drawn once can go through :func:`to_severities` under
    several parameters."""
    return gen.standard_normal(size) if lognormal else gen.random(size)


def to_severities(z: np.ndarray, out=None, *, mu=None, sigma=None, xi=None,
                  threshold_L=None) -> np.ndarray:
    """Severities from the base draws ``z`` of :func:`severity_variates`, written
    to ``out`` (``z`` itself transforms in place) or to a new array when it is None.

    Pass ``mu`` and ``sigma`` for exp(Z * sigma + mu), or ``xi`` and
    ``threshold_L`` for threshold_L * (1 - U)^(-1/xi); each a scalar or an
    array that broadcasts against ``z``. ``sigma`` is the log-scale standard
    deviation, so callers take the square root of ``sigma_sq`` once per
    parameter value, not once per loss. A severity above the largest double,
    in either family, overflows to inf, which LossSample rejects; numpy warns
    of it unless the caller runs under ``np.errstate(over="ignore")``, as
    :func:`sample_severities` and the simulation kernel do, once per call.
    """
    if xi is None:
        x = np.multiply(z, sigma, out=out)
        x += mu
        return np.exp(x, out=x)
    x = np.subtract(1.0, z, out=out)
    np.power(x, -1.0 / xi, out=x)
    x *= threshold_L
    return x


def sample_severities(size, gen: np.random.Generator, *, mu=None, sigma=None,
                      xi=None, threshold_L=None) -> np.ndarray:
    """Severities drawn from ``gen``, an array of shape ``size``: the base draws of
    :func:`severity_variates` through :func:`to_severities` in place, which
    fill the array in row-major order. Its keyword arguments are those of
    :func:`to_severities`. A severity above the largest double overflows to
    inf without a numpy warning.
    """
    z = severity_variates(size, gen, lognormal=xi is None)
    with np.errstate(over="ignore"):
        return to_severities(z, z, mu=mu, sigma=sigma, xi=xi, threshold_L=threshold_L)


def severity_tail(x, *, mu=None, sigma=None, xi=None, threshold_L=None) -> np.ndarray:
    """P(X > x) for each x >= 0 of a 1-D array, under :func:`to_severities`' keyword
    arguments: 0.5 * erfc((ln x - mu) / (sigma * sqrt 2)) by ``math.erfc``, 1 at x = 0,
    or (threshold_L / max(x, threshold_L))^xi, positive up to the largest double."""
    if xi is not None:
        return (threshold_L / np.maximum(x, threshold_L)) ** xi
    with np.errstate(divide="ignore"):  # ln 0 = -inf
        t = ((np.log(x) - mu) / (sigma * math.sqrt(2.0))).tolist()
    return 0.5 * np.fromiter(map(math.erfc, t), float, len(t))
