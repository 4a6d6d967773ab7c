"""Chi-squared family laws on the positive half line.

Four law types, all immutable value objects:

* :class:`CentralChiSq`: k degrees of freedom, density
  x^(k/2-1) e^(-x/2) / (2^(k/2) Gamma(k/2));
* :class:`NoncentralChiSq`: dof k and noncentrality lam, density
  (1/2) e^(-(x+lam)/2) (x/lam)^(k/4-1/2) I_{k/2-1}(sqrt(lam x));
* :class:`GammaLaw`: shape/scale parametrization,
  x^(s-1) e^(-x/theta) / (Gamma(s) theta^s);
* :class:`ScaledLaw`: the law of C*X for a base law X and C > 0.

Each is the law of c * NC(k, lam) for a triple (k, lam, c), in the same
order: (k, 0, 1), (k, lam, 1), (2 s, 0, theta/2) and the base law's
triple with c times C.  One implementation of ``mean``, ``variance``,
``log_pdf``, ``pdf`` and :func:`sample` reads that triple.

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

from .specfun import log_bessel_i

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


def _nc_log_pdf(x: np.ndarray, k: float, lam, log_lam, root_lam) -> np.ndarray:
    """log density of NC(k, lam), lam > 0, at x > 0.

    ``lam``, its log and its square root are scalars, or columns with
    one law per row of ``x``: one evaluation for many laws of one k.
    """
    return (-0.5 * (x + lam)
            + (0.25 * k - 0.5) * (np.log(x) - log_lam)
            + log_bessel_i(0.5 * k - 1.0, root_lam * np.sqrt(x))
            - _LOG2)


def _log_origin_coefficient(k: float, lam: float, c: float) -> float:
    """log C, where c NC(k, lam) has the density C x^(k/2-1) (1 + O(x)) at 0:
    C = e^(-lam/2) / ((2c)^(k/2) Gamma(k/2))."""
    return -0.5 * lam - 0.5 * k * (_LOG2 + math.log(c)) - math.lgamma(0.5 * k)


class _Law:
    """The implementation shared by the law types, which give ``_triple``."""

    @property
    def mean(self) -> float:
        k, lam, c = self._triple
        return c * (k + lam)

    @property
    def variance(self) -> float:
        k, lam, c = self._triple
        return c * c * (2.0 * k + 4.0 * lam)

    def log_pdf(self, x):
        arr, scalar = _as_positive_x(x)
        k, lam, c = self._triple
        if c != 1.0:  # no full-size temporaries for the unscaled laws
            arr = arr / c
        h = 0.5 * k
        if lam == 0.0:
            from scipy.special import gammaln  # deferred: scipy.special dominates CLI start-up

            out = (h - 1.0) * np.log(arr) - 0.5 * arr - h * _LOG2 - gammaln(h)
        else:
            out = _nc_log_pdf(arr, k, lam, math.log(lam), math.sqrt(lam))
        if c != 1.0:
            out -= math.log(c)
        return _ret(out, scalar)

    def pdf(self, x):
        return np.exp(self.log_pdf(x))


def _triple_of(law) -> tuple[float, float, float]:
    """(k, lam, c) with ``law`` the law of c * NC(k, lam)."""
    if not isinstance(law, _Law):
        raise ValueError(f"unsupported law {type(law).__name__}")
    return law._triple


@dataclass(frozen=True)
class CentralChiSq(_Law):
    """Chi-squared law with ``k > 0`` degrees of freedom."""

    k: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", _require_positive("k", self.k))

    @property
    def _triple(self) -> tuple[float, float, float]:
        return self.k, 0.0, 1.0


@dataclass(frozen=True)
class NoncentralChiSq(_Law):
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
    def _triple(self) -> tuple[float, float, float]:
        return self.k, self.lam, 1.0


@dataclass(frozen=True)
class GammaLaw(_Law):
    """Gamma law with ``shape > 0`` and ``scale > 0``: (scale/2) * chi^2(2 shape)."""

    shape: float
    scale: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "shape", _require_positive("shape", self.shape))
        object.__setattr__(self, "scale", _require_positive("scale", self.scale))

    @property
    def _triple(self) -> tuple[float, float, float]:
        return 2.0 * self.shape, 0.0, 0.5 * self.scale


@dataclass(frozen=True)
class ScaledLaw(_Law):
    """Law of ``factor * X`` where ``X`` follows ``base``."""

    base: "Law"
    factor: float

    def __post_init__(self) -> None:
        _triple_of(self.base)  # a law, or ValueError
        object.__setattr__(self, "factor", _require_positive("factor", self.factor))

    @property
    def _triple(self) -> tuple[float, float, float]:
        k, lam, c = self.base._triple
        return k, lam, c * self.factor


Law = Union[CentralChiSq, NoncentralChiSq, GammaLaw, ScaledLaw]


def sample(law: Law, rng_seed: int, n: int) -> np.ndarray:
    """Draw ``n`` variates; fully determined by ``rng_seed``."""
    if int(n) != n or n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    k, lam, c = _triple_of(law)
    rng = np.random.default_rng(int(rng_seed))
    shape = 0.5 * k
    if lam > 0.0:
        # mixture representation: Poisson-mixed central chi-squared
        shape = shape + rng.poisson(0.5 * lam, size=int(n))
    draws = rng.gamma(shape, 2.0, size=int(n))
    if c != 1.0:
        draws *= c
    return draws
