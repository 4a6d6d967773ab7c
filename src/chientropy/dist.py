"""Chi-squared family laws on the positive half line.

Four law types, all immutable value objects with ``log_pdf``:

* :class:`CentralChiSq`: k degrees of freedom, density
  x^(k/2-1) e^(-x/2) / (2^(k/2) Gamma(k/2));
* :class:`NoncentralChiSq`: dof k and noncentrality lam, density
  (1/2) e^(-(x+lam)/2) (x/lam)^(k/4-1/2) I_{k/2-1}(sqrt(lam x));
* :class:`GammaLaw`: shape/scale parametrization,
  x^(s-1) e^(-x/theta) / (Gamma(s) theta^s);
* :class:`ScaledLaw`: the law of C*X for a base law X and C > 0.

Noncentral evaluation goes through the log-Bessel routine, so the
density is usable without overflow for x up to 1e8 and lam down to the
underflow threshold.  :func:`sample` draws exact variates, through the
Poisson mixture of central laws for the noncentral law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .specfun import log_bessel_i, log_gamma

__all__ = [
    "CentralChiSq",
    "NoncentralChiSq",
    "GammaLaw",
    "ScaledLaw",
    "Law",
    "sample",
]

_LOG2 = math.log(2.0)


def _require_positive(name: str, value: float) -> float:
    v = float(value)
    if not math.isfinite(v) or v <= 0.0:
        raise ValueError(f"{name} must be finite and > 0, got {value}")
    return v


def _as_positive_x(x):
    """Validate support membership; returns (array, was_scalar)."""
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if np.any(~np.isfinite(arr)) or np.any(arr <= 0.0):
        raise ValueError("x must be finite and > 0")
    return arr, scalar


def _ret(out: np.ndarray, scalar: bool):
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class CentralChiSq:
    """Chi-squared law with ``k > 0`` degrees of freedom."""

    k: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", _require_positive("k", self.k))

    @property
    def mean(self) -> float:
        return self.k

    @property
    def variance(self) -> float:
        return 2.0 * self.k

    def log_pdf(self, x):
        arr, scalar = _as_positive_x(x)
        h = 0.5 * self.k
        out = (h - 1.0) * np.log(arr) - 0.5 * arr - h * _LOG2 - log_gamma(h)
        return _ret(out, scalar)

    def pdf(self, x):
        return np.exp(self.log_pdf(x))


@dataclass(frozen=True)
class NoncentralChiSq:
    """Noncentral chi-squared law: dof ``k > 0``, noncentrality ``lam >= 0``."""

    k: float
    lam: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", _require_positive("k", self.k))
        lam = float(self.lam)
        if not math.isfinite(lam) or lam < 0.0:
            raise ValueError(f"lam must be finite and >= 0, got {self.lam}")
        object.__setattr__(self, "lam", lam)

    @property
    def mean(self) -> float:
        return self.k + self.lam

    @property
    def variance(self) -> float:
        return 2.0 * self.k + 4.0 * self.lam

    def log_pdf(self, x):
        if self.lam == 0.0:
            return CentralChiSq(self.k).log_pdf(x)
        arr, scalar = _as_positive_x(x)
        nu = 0.5 * self.k - 1.0
        out = (
            -0.5 * (arr + self.lam)
            + (0.25 * self.k - 0.5) * (np.log(arr) - math.log(self.lam))
            + log_bessel_i(nu, math.sqrt(self.lam) * np.sqrt(arr))
            - _LOG2
        )
        return _ret(out, scalar)

    def pdf(self, x):
        return np.exp(self.log_pdf(x))


@dataclass(frozen=True)
class GammaLaw:
    """Gamma law with ``shape > 0`` and ``scale > 0``."""

    shape: float
    scale: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "shape", _require_positive("shape", self.shape))
        object.__setattr__(self, "scale", _require_positive("scale", self.scale))

    @property
    def mean(self) -> float:
        return self.shape * self.scale

    @property
    def variance(self) -> float:
        return self.shape * self.scale * self.scale

    def log_pdf(self, x):
        arr, scalar = _as_positive_x(x)
        out = (
            (self.shape - 1.0) * np.log(arr)
            - arr / self.scale
            - log_gamma(self.shape)
            - self.shape * math.log(self.scale)
        )
        return _ret(out, scalar)

    def pdf(self, x):
        return np.exp(self.log_pdf(x))


@dataclass(frozen=True)
class ScaledLaw:
    """Law of ``factor * X`` where ``X`` follows ``base``."""

    base: "Law"
    factor: float

    def __post_init__(self) -> None:
        if not isinstance(self.base, (CentralChiSq, NoncentralChiSq, GammaLaw, ScaledLaw)):
            raise ValueError(f"unsupported base law {type(self.base).__name__}")
        object.__setattr__(self, "factor", _require_positive("factor", self.factor))

    @property
    def mean(self) -> float:
        return self.factor * self.base.mean

    @property
    def variance(self) -> float:
        return self.factor * self.factor * self.base.variance

    def log_pdf(self, x):
        arr, scalar = _as_positive_x(x)
        out = self.base.log_pdf(arr / self.factor) - math.log(self.factor)
        return _ret(out, scalar)

    def pdf(self, x):
        return np.exp(self.log_pdf(x))


Law = Union[CentralChiSq, NoncentralChiSq, GammaLaw, ScaledLaw]


def _draw(law: Law, rng: np.random.Generator, n: int) -> np.ndarray:
    if isinstance(law, CentralChiSq):
        return rng.gamma(0.5 * law.k, 2.0, size=n)
    if isinstance(law, NoncentralChiSq):
        # mixture representation: Poisson-mixed central chi-squared
        r = rng.poisson(0.5 * law.lam, size=n)
        return rng.gamma(0.5 * law.k + r, 2.0)
    if isinstance(law, GammaLaw):
        return rng.gamma(law.shape, law.scale, size=n)
    if isinstance(law, ScaledLaw):
        return law.factor * _draw(law.base, rng, n)
    raise ValueError(f"cannot sample from {type(law).__name__}")


def sample(law: Law, rng_seed: int, n: int) -> np.ndarray:
    """Draw ``n`` variates; fully determined by ``rng_seed``."""
    if int(n) != n or n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    rng = np.random.default_rng(int(rng_seed))
    return _draw(law, rng, int(n))
