"""Log-space special functions used by the density and entropy layers.

Everything here is numerically oriented: densities of the chi-squared
family involve ``Gamma``, ``psi`` and the modified Bessel function
``I_nu``, and the entropy integrands need them evaluated in log space so
that arguments like ``x = 1e8`` or orders like ``nu = 100`` do not
overflow.  The log-Bessel evaluation has one route,
``log(ive(nu, x)) + x`` with the exponentially scaled library Bessel
function, and one fallback where ``ive`` underflows (large order at
small argument): the power series summed term by term in log space.

Also provided: two-sided elementary bounds on ``I_nu`` valid for
``nu > -1/2``, and the closed form of the gamma-weighted logarithmic
integral ``int_0^inf x^(nu-1) exp(-mu x) log(x) dx``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as _sp

__all__ = [
    "BesselOrder",
    "log_gamma",
    "digamma",
    "log_bessel_i",
    "bessel_i_bounds",
    "gamma_log_integral",
]

# Term cap of the log-space series; enough for every order up to about
# 6000 wherever ``ive`` underflows (nu = 8000 reaches it near x = 4.6e4).
_SERIES_MAX_TERMS = 20000

# Smallest positive normal float: below it ``ive`` has lost precision.
_TINY = np.finfo(float).tiny

# Relative tail size at which a series is considered converged.
_TERM_EPS = 1e-17


@dataclass(frozen=True)
class BesselOrder:
    """Validated order ``nu`` of a modified Bessel function ``I_nu``.

    The library Bessel function and the power series are valid for any
    ``nu > -1``.  The elementary two-sided bounds additionally require
    ``nu > -1/2``; that stricter check lives in :func:`bessel_i_bounds`.
    """

    nu: float

    def __post_init__(self) -> None:
        nu = float(self.nu)
        if not math.isfinite(nu) or nu <= -1.0:
            raise ValueError(f"Bessel order must satisfy nu > -1, got {self.nu}")
        object.__setattr__(self, "nu", nu)


def _order_value(nu: float | BesselOrder) -> float:
    if isinstance(nu, BesselOrder):
        return nu.nu
    nu = float(nu)
    if not math.isfinite(nu) or nu <= -1.0:
        raise ValueError(f"Bessel order must satisfy nu > -1, got {nu}")
    return nu


def log_gamma(x):
    """log Gamma(x) for x > 0, scalar or array."""
    arr = np.asarray(x, dtype=float)
    if np.any(~np.isfinite(arr)) or np.any(arr <= 0.0):
        raise ValueError("log_gamma requires finite x > 0")
    out = _sp.gammaln(arr)
    return float(out) if arr.ndim == 0 else out


def digamma(x):
    """psi(x) = d/dx log Gamma(x) for x > 0, scalar or array."""
    arr = np.asarray(x, dtype=float)
    if np.any(~np.isfinite(arr)) or np.any(arr <= 0.0):
        raise ValueError("digamma requires finite x > 0")
    out = _sp.psi(arr)
    return float(out) if arr.ndim == 0 else out


def _log_i_series(nu: float, x: np.ndarray) -> np.ndarray:
    """Power series sum(m) (x/2)^(nu+2m) / (m! Gamma(nu+m+1)), in log space.

    Each term is formed from its logarithm and enters through one
    ``logaddexp``, so nothing overflows or underflows whatever the order
    or argument.  The term ratio r = z / ((m+1)(m+1+nu)) with z = x^2/4
    decreases in m, so once r < 1 the tail after a term is at most
    term * r / (1 - r); the sum stops when that bound falls below
    _TERM_EPS of the total.  Raises ``ValueError`` rather than return a
    truncated sum if the term cap is reached first.
    """
    log_half = np.log(x) - math.log(2.0)  # log(0.5 * x) underflows for subnormal x
    log_z = 2.0 * log_half
    log_eps = math.log(_TERM_EPS)
    total = np.full_like(x, -np.inf)
    for m in range(_SERIES_MAX_TERMS):
        log_term = ((nu + 2.0 * m) * log_half
                    - (math.lgamma(m + 1.0) + math.lgamma(nu + m + 1.0)))
        total = np.logaddexp(total, log_term)
        log_ratio = log_z - math.log((m + 1.0) * (m + 1.0 + nu))
        if np.all(log_ratio < 0.0) and np.all(
                log_term + log_ratio - np.log1p(-np.exp(log_ratio)) < total + log_eps):
            return total
    raise ValueError(
        f"log_bessel_i series for nu = {nu} did not converge in "
        f"{_SERIES_MAX_TERMS} terms at x up to {float(np.max(x))}")


def log_bessel_i(nu: float | BesselOrder, x):
    """log I_nu(x) for nu > -1 and x >= 0, scalar or array.

    Computed as ``log(ive(nu, x)) + x`` from the exponentially scaled
    library Bessel function (Amos, ACM TOMS 12, 1986), which neither
    overflows nor loses accuracy at large ``x``.  Where ``ive`` is not a
    positive normal float (large order at small argument, where I_nu
    is below ``e^x * tiny``) the power series (DLMF 10.25.2) summed in
    log space takes over; it raises ``ValueError`` if it needs more
    than its term cap.

    At ``x = 0`` the value is 0 for ``nu = 0`` and ``-inf`` for
    ``nu > 0``; for ``-1 < nu < 0`` the function diverges at the origin
    and ``x = 0`` is rejected.

    Accuracy: within 1e-12 of mpmath, absolute on ``log I``, over
    ``nu in [-0.95, 100], x in [1e-8, 1e8]``.
    """
    order = _order_value(nu)
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr).astype(float)
    if np.any(~np.isfinite(arr)) or np.any(arr < 0.0):
        raise ValueError("log_bessel_i requires finite x >= 0")
    if order < 0.0 and np.any(arr == 0.0):
        raise ValueError("log_bessel_i at x = 0 requires nu >= 0")

    out = np.where(arr == 0.0, 0.0 if order == 0.0 else -np.inf, 0.0)
    scaled = _sp.ive(order, arr)  # e^{-x} I_nu(x), overflow free
    normal = scaled >= _TINY
    out[normal] = np.log(scaled[normal]) + arr[normal]
    low = ~normal & (arr > 0.0)
    if np.any(low):
        out[low] = _log_i_series(order, arr[low])

    return float(out[0]) if scalar else out


def bessel_i_bounds(nu: float | BesselOrder, x: float) -> tuple[float, float]:
    """Two-sided elementary bounds on I_nu(x) for nu > -1/2, x > 0.

    (x/2)^nu / Gamma(nu+1) < I_nu(x) < (x/2)^nu e^x / Gamma(nu+1)

    Both bounds are strict for ``x > 0``.  They are computed in log
    space and exponentiated, so the lower bound keeps full relative
    accuracy even where the density is tiny; the upper bound may
    overflow to ``inf`` for very large ``x``, which is still a valid
    upper bound.
    """
    order = _order_value(nu)
    if order <= -0.5:
        raise ValueError(f"bessel_i_bounds requires nu > -1/2, got {order}")
    xf = float(x)
    if not math.isfinite(xf) or xf <= 0.0:
        raise ValueError("bessel_i_bounds requires finite x > 0")
    log_lower = order * math.log(0.5 * xf) - _sp.gammaln(order + 1.0)
    return math.exp(log_lower), math.exp(min(log_lower + xf, 709.7))


def gamma_log_integral(nu: float, mu: float) -> float:
    """int_0^inf x^(nu-1) e^(-mu x) log(x) dx for nu > 0, mu > 0.

    Closed form: mu^(-nu) Gamma(nu) (psi(nu) - log mu).  The integral
    exists exactly under the stated parameter constraints; anything else
    is rejected.
    """
    nuf, muf = float(nu), float(mu)
    if not (math.isfinite(nuf) and nuf > 0.0):
        raise ValueError(f"gamma_log_integral requires nu > 0, got {nu}")
    if not (math.isfinite(muf) and muf > 0.0):
        raise ValueError(f"gamma_log_integral requires mu > 0, got {mu}")
    return math.exp(_sp.gammaln(nuf) - nuf * math.log(muf)) * (_sp.psi(nuf) - math.log(muf))
