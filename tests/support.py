"""Reference functions that the tests compare the package against.

None of them is used by the package at run time:

* :func:`pdf_mixture`, the noncentral density through its Poisson
  mixture of central laws, independent of the log-Bessel route;
* :func:`pdf_log_bounds`, strict elementary log-space bounds on the
  noncentral density;
* :func:`bessel_i_bounds`, two-sided elementary bounds on ``I_nu``;
* :func:`gamma_log_integral`, the closed form of
  ``int_0^inf x^(nu-1) e^(-mu x) log(x) dx``;
* :func:`nc_log_power_integral`, log int f^n of a noncentral law at
  the integer orders n = 2 and 3, by a series of positive terms.
"""

import math

import numpy as np
from scipy import special as _sp

from chientropy.dist import CentralChiSq, NoncentralChiSq, _as_positive_x, _ret

_LOG2 = math.log(2.0)


def pdf_mixture(law: NoncentralChiSq, x, tol: float = 1e-14):
    """Noncentral density via its Poisson mixture of central laws.

    f_{k,lam}(x) = sum_r e^(-lam/2) (lam/2)^r / r! * f_{k+2r}(x)

    Slower than the Bessel form but independent of it; used as the
    cross-check route.  Truncates once the accumulated Poisson weight
    exceeds ``1 - tol``, the summation index has passed the weight
    mode, and the last term contributed less than ``tol`` of the
    partial sum at every evaluation point.  The weight condition alone
    is not enough: deep in the right tail the late terms carry most of
    the density even when their weights are already negligible.
    """
    if not isinstance(law, NoncentralChiSq):
        raise ValueError("pdf_mixture expects a NoncentralChiSq law")
    if not (math.isfinite(tol) and 0.0 < tol < 1.0):
        raise ValueError(f"tol must be in (0, 1), got {tol}")
    arr, scalar = _as_positive_x(x)
    half = 0.5 * law.lam
    out = np.zeros_like(arr)
    log_w = -half  # Poisson(half) log weight at r = 0
    cum = 0.0
    r = 0
    while True:
        w = math.exp(log_w)
        cum += w
        contrib = w * np.exp(CentralChiSq(law.k + 2.0 * r).log_pdf(arr))
        out += contrib
        if half == 0.0:
            break
        if (cum >= 1.0 - tol and r >= half and r >= 1
                and bool(np.all(contrib <= tol * out))):
            break
        r += 1
        if r > 1_000_000:
            raise RuntimeError("mixture truncation failed to terminate")
        log_w += math.log(half) - math.log(r)
    return _ret(out, scalar)


def pdf_log_bounds(law: NoncentralChiSq, x):
    """Strict log-space bounds on the noncentral density for ``k > 1``.

    log_lower = -(x+lam)/2 + (k/2-1) log x - (k/2) log 2 - log Gamma(k/2)
    log_upper = -x/4 + lam/2 + (k/2-1) log x - (k/2) log 2 - log Gamma(k/2)

    Lower/upper come from the elementary Bessel bounds (order k/2-1,
    which exceeds -1/2 exactly when k > 1) plus sqrt(lam x) <= lam + x/4
    in the exponent.  Strict on the whole support when ``lam > 0``.
    Returns ``(log_lower, log_upper)`` with the shape of ``x``.
    """
    if not isinstance(law, NoncentralChiSq):
        raise ValueError("pdf_log_bounds expects a NoncentralChiSq law")
    if law.k <= 1.0:
        raise ValueError(f"pdf_log_bounds requires k > 1, got k = {law.k}")
    if law.lam <= 0.0:
        raise ValueError(f"pdf_log_bounds requires lam > 0, got lam = {law.lam}")
    arr, scalar = _as_positive_x(x)
    h = 0.5 * law.k
    tail = (h - 1.0) * np.log(arr) - h * _LOG2 - _sp.gammaln(h)
    lower = -0.5 * (arr + law.lam) + tail
    upper = -0.25 * arr + 0.5 * law.lam + tail
    return _ret(lower, scalar), _ret(upper, scalar)


def bessel_i_bounds(nu: float, x: float) -> tuple[float, float]:
    """Two-sided elementary bounds on I_nu(x) for nu > -1/2, x > 0.

    (x/2)^nu / Gamma(nu+1) < I_nu(x) < (x/2)^nu e^x / Gamma(nu+1)

    Both bounds are strict for ``x > 0``.  They are computed in log
    space and exponentiated, so the lower bound keeps full relative
    accuracy even where the density is tiny; the upper bound may
    overflow to ``inf`` for very large ``x``, which is still a valid
    upper bound.
    """
    order = float(nu)
    if not (math.isfinite(order) and order > -0.5):
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


def nc_log_power_integral(k: float, lam: float, n: int) -> float:
    """log int f^n for NoncentralChiSq(k, lam) at an integer order n in {2, 3}.

    f = e^(-lam/2) f_k(x) A(lam x / 4) with A(z) = sum_j a_j z^j and
    a_j = Gamma(k/2) / (Gamma(k/2 + j) j!), so f^n holds A^n, whose
    coefficients B_m are the n-fold self-convolution of a_j, and

        int f^n = e^(-n lam/2) / (2^(n k/2) Gamma(k/2)^n)
                  sum_m B_m (lam/4)^m Gamma(n p + m + 1) (2/n)^(n p + m + 1)

    with p = k/2 - 1.  Every term is positive and the whole sum is taken
    in log space, so nothing cancels; it uses neither quadrature, nor the
    log-Bessel route, nor Miller's recurrence for powers of a series.
    The sum runs past the largest term until the terms fall below 1e-20
    of the sum.  Requires n p + 1 > 0.
    """
    if n not in (2, 3):
        raise ValueError(f"n must be 2 or 3, got {n}")
    s, p = 0.5 * k, 0.5 * k - 1.0
    if not (lam > 0.0 and n * p + 1.0 > 0.0):
        raise ValueError("needs lam > 0 and n (k/2 - 1) + 1 > 0")
    terms = 64
    while True:
        j = np.arange(terms)
        log_a = _sp.gammaln(s) - _sp.gammaln(s + j) - _sp.gammaln(j + 1.0)
        log_b = log_a
        for _ in range(n - 1):
            log_b = np.array([np.logaddexp.reduce(log_a[:m + 1] + log_b[m::-1])
                              for m in range(terms)])
        q = n * p + j + 1.0
        log_t = (log_b + j * math.log(0.25 * lam) + _sp.gammaln(q) + q * math.log(2.0 / n))
        total = np.logaddexp.reduce(log_t)
        if log_t[-1] < total - 46.0 and np.argmax(log_t) < terms - 1:
            break
        terms *= 2
    return float(total - 0.5 * n * lam - n * s * _LOG2 - n * _sp.gammaln(s))
