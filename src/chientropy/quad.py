"""Adaptive quadrature on (0, inf) for entropy integrands.

The integrands of interest look like f(x)^alpha or f(x)^alpha log f(x)
for a density f of the chi-squared family: possibly singular like
x^(k/2-1) at the origin and exponentially decaying at infinity.  The
half line is split at a point near the integrand's mode and each piece
goes to QUADPACK (QAGS on the finite piece, whose extrapolation handles
endpoint singularities; QAGI on the tail).

A result is only reported as converged when the combined error estimate
meets ``max(rel_tol * |value|, abs_tol)``.  If the first pass misses
that target because the two pieces cancel, a second pass re-runs with
the absolute tolerance tightened to the scale of the first-pass value.
Anything still failing raises :class:`NonConvergence` carrying the best
estimate, so callers can distinguish "diverges" from "converged".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import quad as _quadpack

__all__ = [
    "QuadConfig",
    "QuadResult",
    "QuadratureError",
    "NonConvergence",
    "IntegrandFailure",
    "integrate_halfline",
]

# Split-point search grid: log spaced, wide enough to bracket the mode
# of any density this package produces (scales up to ~1e5).
_PROBE_GRID = np.logspace(-3.0, 6.0, 28)


class QuadratureError(Exception):
    """Base class for quadrature failures."""


class NonConvergence(QuadratureError):
    """The error estimate did not reach the requested tolerance.

    Carries the best available value and error estimate so callers can
    report diagnostics; raised both for genuinely divergent integrals
    and for tolerance targets the subdivision budget cannot meet.
    """

    def __init__(self, message: str, value: float, error_estimate: float,
                 subdivisions_used: int):
        super().__init__(message)
        self.value = value
        self.error_estimate = error_estimate
        self.subdivisions_used = subdivisions_used


class IntegrandFailure(QuadratureError):
    """The integrand returned NaN or +-inf at some abscissa."""

    def __init__(self, x: float, value: float):
        super().__init__(f"integrand returned {value!r} at x = {x!r}")
        self.x = x
        self.value = value


@dataclass(frozen=True)
class QuadConfig:
    """Tolerances and budget for :func:`integrate_halfline`.

    ``split_point = None`` places the split at the integrand's estimated
    mode (the default strategy); a positive float pins it explicitly.
    """

    rel_tol: float = 1e-11
    abs_tol: float = 1e-14
    max_subdivisions: int = 2000
    split_point: float | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.rel_tol) and self.rel_tol > 0.0):
            raise ValueError(f"rel_tol must be finite and > 0, got {self.rel_tol}")
        if not (math.isfinite(self.abs_tol) and self.abs_tol > 0.0):
            raise ValueError(f"abs_tol must be finite and > 0, got {self.abs_tol}")
        if int(self.max_subdivisions) < 2 or self.max_subdivisions != int(self.max_subdivisions):
            raise ValueError(f"max_subdivisions must be an integer >= 2, got {self.max_subdivisions}")
        if self.split_point is not None:
            if not (math.isfinite(self.split_point) and self.split_point > 0.0):
                raise ValueError(f"split_point must be finite and > 0, got {self.split_point}")


@dataclass(frozen=True)
class QuadResult:
    value: float
    error_estimate: float
    subdivisions_used: int
    converged: bool


def _checked(f: Callable[[float], float]) -> Callable[[float], float]:
    def g(x: float) -> float:
        v = float(f(x))
        if not math.isfinite(v):
            raise IntegrandFailure(x, v)
        return v

    return g


def _estimate_split(g: Callable[[float], float]) -> float:
    # crude but deterministic: largest |g| over a fixed log-spaced grid
    best_x, best_v = 1.0, -1.0
    for x in _PROBE_GRID:
        v = abs(g(float(x)))
        if v > best_v:
            best_x, best_v = float(x), v
    return max(1.0, best_x)


def _run_panels(g, split, epsabs, epsrel, limit):
    value = 0.0
    error = 0.0
    scale = 0.0  # sum of |panel| values; >> |value| when panels cancel
    used = 0
    clean = True
    messages = []
    for bounds in ((0.0, split), (split, np.inf)):
        r = _quadpack(g, bounds[0], bounds[1], epsabs=epsabs, epsrel=epsrel,
                      limit=limit, full_output=True)
        value += r[0]
        error += r[1]
        scale += abs(r[0])
        used += int(r[2].get("last", 0))
        if len(r) > 3:  # QUADPACK flagged this panel
            clean = False
            messages.append(str(r[3]))
    return value, error, scale, used, clean, messages


def integrate_halfline(f: Callable[[float], float],
                       config: QuadConfig | None = None) -> QuadResult:
    """Integrate ``f`` over (0, inf) to the tolerances in ``config``.

    Returns a converged :class:`QuadResult` or raises.  The integrand is
    evaluated strictly inside the open interval; a non-finite return
    value at any abscissa raises :class:`IntegrandFailure` with that
    abscissa attached.
    """
    cfg = config if config is not None else QuadConfig()
    g = _checked(f)
    split = cfg.split_point if cfg.split_point is not None else _estimate_split(g)
    limit = max(10, int(cfg.max_subdivisions) // 2)

    value, error, scale, used, clean, messages = _run_panels(
        g, split, epsabs=0.5 * cfg.abs_tol, epsrel=cfg.rel_tol, limit=limit)
    tol = max(cfg.rel_tol * abs(value), cfg.abs_tol)

    if error > tol or not clean:
        # Second pass for the case where the panels nearly cancel: both
        # tolerances are remeasured against the first-pass net value, so
        # QUADPACK pushes each panel far enough below the net scale.
        epsabs = max(0.5 * tol, 1e-300)
        epsrel = max(min(cfg.rel_tol, 0.5 * tol / max(scale, 1e-300)), 5e-14)
        value2, error2, scale2, used2, clean2, messages2 = _run_panels(
            g, split, epsabs=epsabs, epsrel=epsrel, limit=limit)
        tol2 = max(cfg.rel_tol * abs(value2), cfg.abs_tol)
        if error2 <= tol2:
            value, error, used, clean = value2, error2, used + used2, True
        else:
            detail = "; ".join(dict.fromkeys(messages + messages2)) or \
                "error estimate above tolerance"
            raise NonConvergence(
                f"half-line quadrature did not converge: {detail} "
                f"(value ~ {value2:.6g}, error ~ {error2:.3g})",
                value=value2, error_estimate=error2,
                subdivisions_used=used + used2)

    return QuadResult(value=value, error_estimate=error,
                      subdivisions_used=used, converged=True)
