"""Reference values computed apart from chientropy.

Densities come from ``scipy.stats`` (``ncx2``, ``chi2``, ``gamma``);
integrals come from this module's own vectorised adaptive
Gauss-Legendre rule in the variable t = log x.  Nothing here imports
chientropy, so a fault in its log-Bessel path, its quadrature or its
scaling identities cannot hide in the reference.

Near the origin every density of the family behaves like C x^p with
p = k/2 - 1 (shape - 1 for gamma laws).  The integrals over (0, x0) are
taken in closed form from that power law, with x0 chosen so that the
first neglected term is below 1e-17 relative.  This is where a plain
quadrature goes wrong for laws near the existence gate: f^a decays like
x^(a p + 1) in log space, with a p + 1 as small as 0.02.

A law is a plain tuple ``(family, shape_param, lam, scale)``:

* ``("nc", k, lam, c)``   law of c X with X ~ noncentral chi-squared(k, lam)
* ``("chi2", k, 0, c)``   law of c X with X ~ chi-squared(k)
* ``("gamma", s, 0, theta)`` gamma law with shape s and scale theta
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as sp

_GL_LO = np.polynomial.legendre.leggauss(10)
_GL_HI = np.polynomial.legendre.leggauss(20)
_PANEL_WIDTH = 0.5       # initial panel width in t = log x
_MAX_LEVELS = 40
_MAX_PANELS = 20000
_RTOL = 1e-13
_TAIL_DROP = 80.0        # stop the upper range where the integrand is e^-80 of its peak


def dof(law) -> float:
    """Degrees of freedom that govern the origin singularity."""
    family, p, _, _ = law
    return 2.0 * p if family == "gamma" else p


def gate_ok(k: float, orders) -> bool:
    """Existence condition: k > 1 and k > 2 - 2/a for every order a."""
    return k > 1.0 and all(k > 2.0 - 2.0 / a for a in orders)


class _PoissonMixture:
    """Noncentral density for small lam as sum_r Poisson(lam/2)_r chi2_{k+2r}.

    scipy's ncx2 subtracts two terms that both grow like log(1/lam),
    which fails for the lam ~ 1e-300 of late CIR marginals; twelve
    terms leave out less than 1e-30 relative for lam < 1e-4.
    """

    def __init__(self, k: float, lam: float, scale: float):
        from scipy import stats

        half = 0.5 * lam
        self.parts = [(-half + r * math.log(half) - math.lgamma(r + 1.0),
                       stats.chi2(k + 2.0 * r, scale=scale)) for r in range(12)]

    def logpdf(self, x):
        terms = np.array([w + d.logpdf(x) for w, d in self.parts])
        return sp.logsumexp(terms, axis=0)


def _frozen(law):
    # imported here: the benchmark reads peak memory before oracle work
    from scipy import stats

    family, p, lam, scale = law
    if family == "gamma":
        return stats.gamma(p, scale=scale)
    if family == "chi2" or lam == 0.0:
        return stats.chi2(p, scale=scale)
    if lam < 1e-4:
        return _PoissonMixture(p, lam, scale)
    return stats.ncx2(p, lam, scale=scale)


def _origin_power_law(law):
    """(log C, p, x0): f(x) = C x^p (1 + O(1e-17)) on (0, x0)."""
    family, p, lam, scale = law
    if family == "gamma":
        return (-sp.gammaln(p) - p * math.log(scale), p - 1.0,
                1e-17 * scale)
    h = 0.5 * p
    log_c = -lam / 2.0 - h * math.log(2.0) - sp.gammaln(h) - h * math.log(scale)
    # f / (C x^p) = 1 + x (lam / (2k) - 1/2) / scale + O(x^2)
    return log_c, h - 1.0, 1e-17 * scale / (1.0 + lam / p)


def _mean_sd(law):
    family, p, lam, scale = law
    if family == "gamma":
        return p * scale, math.sqrt(p) * scale
    return (p + lam) * scale, math.sqrt(2.0 * p + 4.0 * lam) * scale


def _adaptive_gl(g, t_lo: float, t_hi: float) -> float:
    """Integral of the vectorised g over [t_lo, t_hi].

    Panels whose 10- and 20-point Gauss-Legendre sums disagree by more
    than their width's share of the tolerance, and by more than the
    rounding floor of the panel, are halved; every panel of one level
    is evaluated in a single vectorised call.
    """
    n = max(4, int(math.ceil((t_hi - t_lo) / _PANEL_WIDTH)))
    edges = np.linspace(t_lo, t_hi, n + 1)
    lo, hi = edges[:-1], edges[1:]
    total, tol = 0.0, None
    width_all = t_hi - t_lo
    for _ in range(_MAX_LEVELS):
        if lo.size > _MAX_PANELS:
            break
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        v_lo = g(mid[:, None] + half[:, None] * _GL_LO[0])
        v_hi = g(mid[:, None] + half[:, None] * _GL_HI[0])
        s_lo = half * (v_lo @ _GL_LO[1])
        s_hi = half * (v_hi @ _GL_HI[1])
        s_abs = half * (np.abs(v_hi) @ _GL_HI[1])
        if tol is None:
            tol = _RTOL * float(np.sum(s_abs))
            if tol == 0.0:
                return 0.0
        err = np.abs(s_hi - s_lo)
        ok = (err <= tol * (2.0 * half) / width_all) | (err <= 1e-14 * s_abs)
        total += float(np.sum(s_hi[ok]))
        if ok.all():
            return total
        lo, hi = lo[~ok], hi[~ok]
        m = 0.5 * (lo + hi)
        lo, hi = np.concatenate([lo, m]), np.concatenate([m, hi])
    raise RuntimeError(
        f"oracle quadrature did not converge on [{t_lo}, {t_hi}]")


def _t_range(law, log_g):
    """Integration range in t past the origin power law."""
    _, _, x0 = _origin_power_law(law)
    mean, sd = _mean_sd(law)
    t_lo = math.log(x0)
    probe = np.log(np.linspace(max(mean - 8 * sd, x0), mean + 8 * sd, 401))
    peak = float(np.max(log_g(probe)))
    x_hi = mean + 8.0 * sd
    while float(log_g(np.array([math.log(x_hi)]))[0]) > peak - _TAIL_DROP:
        x_hi *= 1.5
    return t_lo, math.log(x_hi), peak


def _moment_parts(law, a: float):
    """Shared pieces of the moments of order a, integrals scaled by e^-peak.

    Returns the density, the t range, peak, int f^a, and the origin
    part of int f^a log f.
    """
    dist = _frozen(law)
    log_c, p, x0 = _origin_power_law(law)
    q = a * p + 1.0

    def log_g(t):
        return a * dist.logpdf(np.exp(t)) + t

    t_lo, t_hi, peak = _t_range(law, log_g)
    body = _adaptive_gl(lambda t: np.exp(log_g(t) - peak), t_lo, t_hi)
    tail = math.exp(a * log_c + q * math.log(x0) - math.log(q) - peak)
    # int_0^x0 C^a x^(q-1) (log C + p log x) dx, over the same scale
    tail_log = tail * (log_c + p * (math.log(x0) - 1.0 / q))
    return dist, (t_lo, t_hi), peak, body + tail, tail_log


def log_moment(law, a: float) -> float:
    """log int_0^inf f(x)^a dx."""
    _, _, peak, i, _ = _moment_parts(law, a)
    return peak + math.log(i)


def moment_log(law, a: float) -> tuple[float, float]:
    """(log I, J/I) with I = int f^a and J = int f^a log f."""
    dist, (t_lo, t_hi), peak, i, tail_j = _moment_parts(law, a)

    def g_log(t):
        lp = dist.logpdf(np.exp(t))
        w = np.exp(a * lp + t - peak)
        return np.where(w > 0.0, w * lp, 0.0)

    j = _adaptive_gl(g_log, t_lo, t_hi) + tail_j
    return peak + math.log(i), j / i


def entropy_value(law, kind: str, alpha: float | None = None,
                  beta: float | None = None) -> tuple[str, float | None]:
    """Reference outcome: ("finite", value) or ("undefined", reason)."""
    orders = {"shannon": (1.0,), "gen-renyi": (alpha, beta)}.get(kind, (alpha,))
    if not gate_ok(dof(law), orders):
        return "undefined", "existence-gate"
    if kind == "shannon":
        return "finite", -moment_log(law, 1.0)[1]
    if kind == "gen-renyi-diag":
        return "finite", -moment_log(law, alpha)[1]
    la = log_moment(law, alpha)
    if kind == "renyi":
        return "finite", la / (1.0 - alpha)
    if kind == "gen-renyi":
        return "finite", (la - log_moment(law, beta)) / (beta - alpha)
    if kind == "tsallis":
        return "finite", math.expm1(la) / (1.0 - alpha)
    if kind == "sharma-mittal":
        return "finite", math.expm1(la * (1.0 - beta) / (1.0 - alpha)) / (1.0 - beta)
    raise ValueError(f"unknown kind {kind!r}")


def gamma_shannon(shape: float, scale: float) -> float:
    """Closed-form Shannon entropy of a gamma law."""
    return (math.log(scale) + sp.gammaln(shape) + shape
            + (1.0 - shape) * sp.digamma(shape))


def gamma_log_moment(shape: float, scale: float, a: float) -> float:
    """Closed-form log int f^a of a gamma law (a (shape - 1) + 1 > 0)."""
    g = a * (shape - 1.0) + 1.0
    return (sp.gammaln(g) - a * sp.gammaln(shape)
            + (1.0 - a) * math.log(scale) - g * math.log(a))


def gamma_entropy(shape: float, scale: float, kind: str,
                  alpha: float | None = None,
                  beta: float | None = None) -> tuple[str, float | None]:
    """Closed-form reference for every functional of a gamma law."""
    orders = {"shannon": (1.0,), "gen-renyi": (alpha, beta)}.get(kind, (alpha,))
    if not gate_ok(2.0 * shape, orders):
        return "undefined", "existence-gate"
    if kind == "shannon":
        return "finite", gamma_shannon(shape, scale)
    if kind == "gen-renyi-diag":
        g = alpha * (shape - 1.0) + 1.0
        return "finite", (math.log(scale) + sp.gammaln(shape)
                          + (shape - 1.0) * (math.log(alpha) - sp.digamma(g))
                          + (shape - 1.0) + 1.0 / alpha)
    la = gamma_log_moment(shape, scale, alpha)
    if kind == "renyi":
        return "finite", la / (1.0 - alpha)
    if kind == "gen-renyi":
        lb = gamma_log_moment(shape, scale, beta)
        return "finite", (la - lb) / (beta - alpha)
    if kind == "tsallis":
        return "finite", math.expm1(la) / (1.0 - alpha)
    if kind == "sharma-mittal":
        return "finite", math.expm1(la * (1.0 - beta) / (1.0 - alpha)) / (1.0 - beta)
    raise ValueError(f"unknown kind {kind!r}")


def cir_law(a: float, b: float, sigma: float, r0: float, t: float):
    """Marginal of the CIR process at time t, from its parameters."""
    c = -sigma * sigma * math.expm1(-b * t) / (4.0 * b)
    return ("nc", 4.0 * a / (sigma * sigma), r0 * math.exp(-b * t) / c, c)


def bessel_law(a: float, sigma: float, y0: float, t: float):
    """Marginal of the squared Bessel process at time t."""
    c = sigma * sigma * t / 4.0
    return ("nc", 4.0 * a / (sigma * sigma), y0 / c, c)


def close(value, ref: float, tol: float = 1e-8) -> bool:
    """Agreement to tol relative, or tol absolute below magnitude one.

    A missing value (an undefined or unparsable result) never agrees.
    """
    return value is not None and abs(value - ref) <= tol * (1.0 + abs(ref))
