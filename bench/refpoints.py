"""Regenerate bench/refpoints.json: 30-digit mpmath reference values.

Each point gives, for one law and one order a, log I and J / I with
I = int f^a and J = int f^a log f over (0, inf).  The densities are
written out from their definitions (the noncentral one through
mpmath's own Bessel I) and integrated in t = log x, which turns the
x^(k/2-1) singularity at the origin into an exponential decay that
tanh-sinh handles.  Nothing here imports chientropy or scipy.

    python3 bench/refpoints.py        # rewrites bench/refpoints.json
"""

from __future__ import annotations

import json
import os

import mpmath as mp

mp.mp.dps = 30

# (label, law, order); laws as in oracle.py: (family, k or shape, lam, scale)
POINTS = [
    ("near-gate NC(1.02, 3), order 2", ("nc", 1.02, 3.0, 1.0), 2.0),
    ("NC(4, 4), order 1", ("nc", 4.0, 4.0, 1.0), 1.0),
    ("large-lambda NC(6, 400), order 1", ("nc", 6.0, 400.0, 1.0), 1.0),
    ("large-lambda NC(2.5, 480), order 0.4", ("nc", 2.5, 480.0, 1.0), 0.4),
    ("small-lambda NC(1.05, 1e-3), order 0.3", ("nc", 1.05, 1e-3, 1.0), 0.3),
    # CIR a=0.8, b=0.7, sigma=1, r0=1.5 at t=0.9, written out in full
    ("CIR marginal, order 2.5", ("cir", 0.8, 0.7, 1.0, 1.5, 0.9), 2.5),
    ("scaled chi2(2.5) by 3, order 1", ("chi2", 2.5, 0.0, 3.0), 1.0),
    ("gamma(0.7, 2), order 0.6", ("gamma", 0.7, 0.0, 2.0), 0.6),
]


def _cir_law(a, b, sigma, r0, t):
    a, b, sigma, r0, t = (mp.mpf(v) for v in (a, b, sigma, r0, t))
    c = sigma ** 2 * (1 - mp.exp(-b * t)) / (4 * b)
    return ("nc", 4 * a / sigma ** 2, r0 * mp.exp(-b * t) / c, c)


def _log_pdf(law):
    """(log density, centre, upper cut-off) of a law."""
    family, p, lam, scale = (law[0],) + tuple(mp.mpf(v) for v in law[1:])
    if family == "gamma":
        def lp(x):
            return (p - 1) * mp.log(x) - x / scale - mp.loggamma(p) - p * mp.log(scale)
        return lp, scale * max(p - 1, 1), scale * (p + 40 * mp.sqrt(p) + 300)
    h = p / 2

    def lp(x):
        y = x / scale
        if lam == 0:
            v = (h - 1) * mp.log(y) - y / 2 - h * mp.log(2) - mp.loggamma(h)
        else:
            v = (-(y + lam) / 2 + (p / 4 - mp.mpf(1) / 2) * mp.log(y / lam)
                 + mp.log(mp.besseli(h - 1, mp.sqrt(lam * y))) - mp.log(2))
        return v - mp.log(scale)
    return lp, (p + lam) * scale, scale * (p + lam + 40 * mp.sqrt(2 * p + 4 * lam) + 300)


def reference(law, a):
    """(log I, J / I) to 30 digits."""
    if law[0] == "cir":
        law = _cir_law(*law[1:])
    lp, centre, x_hi = _log_pdf(law)
    a = mp.mpf(a)
    # beyond x_hi, f^a < e^(-a * 150) of its peak: the cut is below 1e-19
    x_hi = x_hi * max(1, 2 / a)
    lc, t_hi = mp.log(centre), mp.log(x_hi)
    breaks = [-mp.inf] + [lc + d for d in (-60, -30, -10, -3, -1, -0.3, -0.1, 0,
                                           0.1, 0.3, 1) if lc + d < t_hi] + [t_hi]

    def g(t):
        return mp.exp(a * lp(mp.exp(t)) + t)

    def g_log(t):
        v = lp(mp.exp(t))
        return mp.exp(a * v + t) * v

    i = mp.quad(g, breaks)
    j = mp.quad(g_log, breaks)
    return mp.log(i), j / i


def main() -> None:
    out = []
    for label, law, a in POINTS:
        log_i, j_over_i = reference(law, a)
        out.append({"label": label, "law": list(law), "order": a,
                    "log_moment": mp.nstr(log_i, 25),
                    "j_over_i": mp.nstr(j_over_i, 25)})
        print(label, mp.nstr(log_i, 20), mp.nstr(j_over_i, 20))
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refpoints.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
