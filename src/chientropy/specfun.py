"""The log-space modified Bessel function used by the density layer.

Noncentral chi-squared densities involve ``I_nu``, and the entropy
integrands need it in log space so that arguments like ``x = 1e8`` or
orders like ``nu = 100`` do not overflow (``log Gamma`` and ``psi`` are
``scipy.special.gammaln`` and ``psi``, called directly).  The
log-Bessel evaluation has one route,
``log(ive(nu, x)) + x`` with the exponentially scaled library Bessel
function, formed in place over the whole array, and two fallbacks that
overwrite the points where ``ive`` fails: the power series summed term
by term in log space where it underflows (large order at small
argument), and the large-argument Hankel expansion where it returns NaN
(arguments above about 1.07e9).  Only a call with such a point builds
masks, and the checks of ``x`` are reductions.

``scipy.special`` is imported inside the functions that call it, here
and in ``dist`` and ``entropy``, not at module level: its import takes
about half of a CLI process, and the commands that evaluate no special
function (existence-gate failures, the squared Bessel limits, usage
errors) never load it.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "log_bessel_i",
]

# Term cap of the log-space series; enough for every order up to about
# 6000 wherever ``ive`` underflows (nu = 8000 reaches it near x = 4.6e4).
_SERIES_MAX_TERMS = 20000

# Smallest positive normal float: below it ``ive`` has lost precision.
_TINY = np.finfo(float).tiny

# Relative tail size at which a series is considered converged.
_TERM_EPS = 1e-17


def _log_i_series(nu: float, x: np.ndarray) -> np.ndarray:
    """Power series sum(m) (x/2)^(nu+2m) / (m! Gamma(nu+m+1)), in log space.

    Each term is formed from its logarithm and enters through one
    ``logaddexp``, so nothing overflows or underflows whatever the order
    or argument.  The term ratio r = z / ((m+1)(m+1+nu)) with z = x^2/4
    decreases in m, so once r < 1 the tail after a term is at most
    term * r / (1 - r); the sum at each point stops when that bound
    falls below _TERM_EPS of its total, so a point's value does not
    depend on the other points of the array.  Raises ``ValueError``
    rather than return a truncated sum if the term cap is reached first.

    The terms of the largest x grow up to their peak, at the first m
    with (m+1)(m+1+nu) > z, and shrink after it.  A total of at most
    _SERIES_MAX_TERMS terms is at most _SERIES_MAX_TERMS peak terms, so
    where the term at the cap is not below _SERIES_MAX_TERMS *
    _TERM_EPS peak terms (with a factor e to spare for rounding) the
    sum cannot stop, and it raises at once.
    """
    log_half = np.log(x) - math.log(2.0)  # log(0.5 * x) underflows for subnormal x
    log_z = 2.0 * log_half
    log_eps = math.log(_TERM_EPS)
    cap = _SERIES_MAX_TERMS
    failure = ValueError(
        f"log_bessel_i series for nu = {nu} did not converge in "
        f"{cap} terms at x up to {float(np.max(x))}")

    def log_term(m, lh):
        return (nu + 2.0 * m) * lh - (math.lgamma(m + 1.0) + math.lgamma(nu + m + 1.0))

    lh = float(np.max(log_half))
    half = math.exp(lh)
    # the terms peak at about m = z / ((nu + sqrt(nu^2 + 4 z)) / 2); a
    # window of five indices around it absorbs rounding
    m_lo = max(0, math.floor(half * (2.0 * half / (nu + math.hypot(nu, 2.0 * half)))) - 3)
    if m_lo >= cap or log_term(cap, lh) > (max(log_term(m, lh) for m in range(m_lo, m_lo + 5))
                                           + math.log(cap) + log_eps + 1.0):
        raise failure
    out, todo, total = np.empty_like(x), np.arange(x.size), np.full_like(x, -np.inf)
    with np.errstate(all="ignore"):   # a ratio >= 1 gives a bound of inf or NaN: not done
        for m in range(cap):
            term = log_term(m, log_half)
            total = np.logaddexp(total, term)
            log_ratio = log_z - math.log((m + 1.0) * (m + 1.0 + nu))
            done = (log_ratio < 0.0) & (
                term + log_ratio - np.log1p(-np.exp(log_ratio)) < total + log_eps)
            if done.any():   # those points leave; ``todo`` holds the index of the rest
                out[todo[done]] = total[done]
                todo, total, log_half, log_z = (v[~done] for v in (todo, total, log_half, log_z))
                if not todo.size:
                    return out
    raise failure


def _log_i_hankel(nu: float, x: np.ndarray) -> np.ndarray:
    """Large-argument expansion (DLMF 10.40.1) of log I_nu(x).

    I_nu(x) ~ e^x (2 pi x)^(-1/2) sum(k) t_k with t_0 = 1 and
    t_k = -t_(k-1) (4 nu^2 - (2k-1)^2) / (8 k x).  The sum at each point
    stops once a term falls below _TERM_EPS of its total; raises
    ``ValueError`` if the terms of a point stop shrinking first (nu^2
    comparable to x), where the expansion cannot give I_nu to double
    precision.
    """
    mu = 4.0 * nu * nu
    term, total, summing = np.ones_like(x), np.ones_like(x), np.ones(x.shape, dtype=bool)
    for k in range(1, _SERIES_MAX_TERMS):
        nxt = -term * (mu - (2.0 * k - 1.0) ** 2) / (8.0 * k * x)
        if np.any(summing & (np.abs(nxt) >= np.abs(term))):
            break
        term = np.where(summing, nxt, term)
        total += np.where(summing, term, 0.0)
        summing &= np.abs(term) >= _TERM_EPS * np.abs(total)
        if not summing.any():
            return x - 0.5 * np.log(2.0 * math.pi * x) + np.log(total)
    raise ValueError(
        f"log_bessel_i large-argument expansion for nu = {nu} did not "
        f"converge at x down to {float(np.min(x[summing]))}")


def log_bessel_i(nu: float, x):
    """log I_nu(x) for nu > -1 and x >= 0, scalar or array.

    Computed as ``log(ive(nu, x)) + x`` from the exponentially scaled
    library Bessel function (Amos, ACM TOMS 12, 1986), which neither
    overflows nor loses accuracy at large ``x``.  Where ``ive`` is not a
    positive normal float (large order at small argument, where I_nu
    is below ``e^x * tiny``) the power series (DLMF 10.25.2) summed in
    log space takes over; it raises ``ValueError`` if it needs more
    than its term cap.  Where ``ive`` returns NaN (``x`` above about
    1.07e9, the range limit of the library) the Hankel expansion
    (DLMF 10.40.1) takes over; it raises ``ValueError`` where its terms
    stop shrinking, which needs ``nu^2 > 2 x``.

    At ``x = 0`` the same route gives 0 for ``nu = 0`` (log 1) and
    ``-inf`` for ``nu > 0`` (log 0); for ``-1 < nu < 0`` the function
    diverges at the origin and ``x = 0`` is rejected.

    Accuracy: within 1e-12 of mpmath, absolute on ``log I``, over
    ``nu in [-0.95, 100], x in [1e-8, 1e8]``; within 2.2e-16 relative
    over ``nu in [-0.499, 5000], x in [1.1e9, 1e18]``.
    """
    order = float(nu)
    if not math.isfinite(order) or order <= -1.0:
        raise ValueError(f"Bessel order must satisfy nu > -1, got {nu}")
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    # NaN fails both tests: it propagates through min and max
    lowest = arr.min(initial=np.inf)
    if not (lowest >= 0.0 and arr.max(initial=0.0) < np.inf):
        raise ValueError("log_bessel_i requires finite x >= 0")
    if order < 0.0 and lowest == 0.0:
        raise ValueError("log_bessel_i at x = 0 requires nu >= 0")

    from scipy.special import ive  # deferred: scipy.special dominates CLI start-up

    scaled = ive(order, arr)  # e^{-x} I_nu(x), overflow free
    fallbacks = ()
    if not scaled.min(initial=np.inf) >= _TINY:
        # x = 0 keeps log ive + x: log 1 = 0 at nu = 0, log 0 = -inf at nu > 0
        fallbacks = (((scaled < _TINY) & (arr > 0.0), _log_i_series),
                     (np.isnan(scaled), _log_i_hankel))
    with np.errstate(divide="ignore"):
        out = np.log(scaled, out=scaled)
    out += arr
    for part, fallback in fallbacks:
        if part.any():
            out[part] = fallback(order, arr[part])

    return float(out[0]) if scalar else out
