"""Time-indexed marginals of two positive diffusions.

The mean-reverting square-root process (CIR)

    dr_t = (a - b r_t) dt + sigma sqrt(r_t) dW_t,   r_0 >= 0,

has marginal r_t = c(t) * X where X is noncentral chi-squared with

    dof  = 4 a / sigma^2,
    c(t) = sigma^2 (1 - e^(-b t)) / (4 b),
    lam(t) = r_0 e^(-b t) / c(t),

and converges as t -> inf to a gamma law with shape 2a/sigma^2 and
scale sigma^2/(2b).  The driftless-in-b analogue (squared Bessel type)

    dY_t = a dt + sigma sqrt(Y_t) dW_t,   Y_0 >= 0,

has marginal Y_t = (sigma^2 t / 4) * X_{4a/sigma^2, 4 Y_0/(sigma^2 t)}
and no stationary law: its scale grows linearly, so additive entropies
diverge while Tsallis and Sharma-Mittal saturate at 1/(alpha-1) resp.
1/(beta-1) when the relevant order exceeds 1.

Both parameter sets enforce 2a >= sigma^2 (Feller), which keeps the
process strictly positive and puts the marginal dof at >= 2, safely
inside the entropy existence gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dist import GammaLaw, NoncentralChiSq, ScaledLaw, _require_positive
from .entropy import (
    REASON_PARAMETER,
    EntropyKind,
    EntropyResult,
    EntropySpec,
    _EPS,
    _entropies,
    _excluded,
    _family,
    entropy,
)
from .quad import QuadConfig

__all__ = [
    "CIRParams",
    "BesselParams",
    "TimeGrid",
    "CurveRow",
    "BZeroRow",
    "cir_marginal",
    "bessel_marginal",
    "entropy_curve",
    "cir_limit_entropy",
    "bessel_limit_entropy",
    "b_to_zero_study",
]


def _check_feller(a: float, sigma: float) -> None:
    if 2.0 * a < sigma * sigma:
        raise ValueError(
            f"Feller condition 2a >= sigma^2 violated: a = {a}, sigma = {sigma}")


@dataclass(frozen=True)
class CIRParams:
    """Drift a, reversion b, volatility sigma, start r0; 2a >= sigma^2."""

    a: float
    b: float
    sigma: float
    r0: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", _require_positive("a", self.a))
        object.__setattr__(self, "b", _require_positive("b", self.b))
        object.__setattr__(self, "sigma", _require_positive("sigma", self.sigma))
        object.__setattr__(self, "r0", _require_positive("r0", self.r0))
        _check_feller(self.a, self.sigma)

    @property
    def dof(self) -> float:
        return 4.0 * self.a / (self.sigma * self.sigma)


@dataclass(frozen=True)
class BesselParams:
    """Drift a, volatility sigma, start y0; 2a >= sigma^2."""

    a: float
    sigma: float
    y0: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", _require_positive("a", self.a))
        object.__setattr__(self, "sigma", _require_positive("sigma", self.sigma))
        object.__setattr__(self, "y0", _require_positive("y0", self.y0))
        _check_feller(self.a, self.sigma)

    @property
    def dof(self) -> float:
        return 4.0 * self.a / (self.sigma * self.sigma)


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing grid of positive times."""

    times: tuple[float, ...]

    def __post_init__(self) -> None:
        times = tuple(float(t) for t in self.times)
        if not times:
            raise ValueError("time grid must be nonempty")
        if any(not math.isfinite(t) or t <= 0.0 for t in times):
            raise ValueError("times must be finite and > 0")
        if any(t1 >= t2 for t1, t2 in zip(times, times[1:])):
            raise ValueError("times must be strictly increasing")
        object.__setattr__(self, "times", times)


def cir_marginal(params: CIRParams, t: float) -> ScaledLaw:
    """Law of r_t as a scaled noncentral chi-squared."""
    t = _require_positive("t", t)
    bt = params.b * t
    # c(t) = sigma^2 (1 - e^(-bt)) / (4b); expm1 keeps accuracy for small bt
    c = -params.sigma ** 2 * math.expm1(-bt) / (4.0 * params.b)
    lam = params.r0 * math.exp(-bt) / c
    return ScaledLaw(NoncentralChiSq(params.dof, lam), c)


def bessel_marginal(params: BesselParams, t: float) -> ScaledLaw:
    """Law of Y_t as a scaled noncentral chi-squared."""
    t = _require_positive("t", t)
    c = params.sigma ** 2 * t / 4.0
    lam = params.y0 / c
    return ScaledLaw(NoncentralChiSq(params.dof, lam), c)


@dataclass(frozen=True)
class CurveRow:
    t: float
    result: EntropyResult


def entropy_curve(params: CIRParams | BesselParams, grid: TimeGrid,
                  spec: EntropySpec, config: QuadConfig | None = None
                  ) -> list[CurveRow]:
    """Entropy of the marginal law at each grid time.

    Each row is ``entropy(marginal, spec, config)``, to 1e-14 relative
    in value (bit for bit on every curve of the tests).  The marginals
    share k, so those that need quadrature are integrated together: one
    log-density evaluation per quadrature level covers the nodes of
    every time not yet converged whose nodes start at the same point.
    """
    if isinstance(params, CIRParams):
        marginal = cir_marginal
    elif isinstance(params, BesselParams):
        marginal = bessel_marginal
    else:
        raise ValueError(f"unsupported params {type(params).__name__}")
    results = _entropies([marginal(params, t) for t in grid.times], spec, config)
    return [CurveRow(t, res) for t, res in zip(grid.times, results)]


def cir_limit_entropy(params: CIRParams, spec: EntropySpec) -> EntropyResult:
    """Entropy of the t -> inf stationary gamma law, in closed form."""
    shape = 2.0 * params.a / (params.sigma * params.sigma)
    scale = params.sigma * params.sigma / (2.0 * params.b)
    return entropy(GammaLaw(shape, scale), spec)


def bessel_limit_entropy(spec: EntropySpec) -> EntropyResult:
    """t -> inf behaviour of the squared Bessel marginal entropies.

    Additive functionals inherit the log c(t) = log(sigma^2 t / 4)
    growth and diverge.  Tsallis converges to 1/(alpha - 1) iff
    alpha > 1, Sharma-Mittal to 1/(beta - 1) iff beta > 1; below 1 the
    scaling map sends them to +inf as well.  Independent of the process
    parameters (they only set the speed of divergence).
    """
    family, a, b = _family(spec)
    if _excluded(family, a, b):
        return EntropyResult.undefined(REASON_PARAMETER)
    if family is EntropyKind.SHARMA_MITTAL and b > 1.0:
        limit = 1.0 / (b - 1.0)   # b - 1 and the quotient round once each
        return EntropyResult.finite(limit, 2.0 * _EPS * limit)
    return EntropyResult.infinite()


@dataclass(frozen=True)
class BZeroRow:
    b: float
    result: EntropyResult
    gap_to_bessel: float | None


def b_to_zero_study(a: float, sigma: float, r0: float, t: float,
                    b_grid, spec: EntropySpec,
                    config: QuadConfig | None = None) -> list[BZeroRow]:
    """CIR marginal entropy at fixed t along a reversion grid b -> 0.

    As b -> 0 the CIR scale c(t) -> sigma^2 t / 4 and the noncentrality
    approaches the squared Bessel values, so the entropies converge to
    the entropy of the Bessel marginal at the same t; each row carries
    the remaining gap when both sides are finite.  The Bessel marginal
    and the CIR marginals share k, and those that take quadrature are
    integrated together.
    """
    grid = [float(b) for b in b_grid]
    if not grid:
        raise ValueError("b_grid must be nonempty")
    if any(not math.isfinite(b) or b <= 0.0 for b in grid):
        raise ValueError("b_grid entries must be finite and > 0")
    if any(b1 <= b2 for b1, b2 in zip(grid, grid[1:])):
        raise ValueError("b_grid must be strictly decreasing")
    t = _require_positive("t", t)

    reference, *results = _entropies(
        [bessel_marginal(BesselParams(a, sigma, r0), t)]
        + [cir_marginal(CIRParams(a, b, sigma, r0), t) for b in grid], spec, config)
    rows = []
    for b, res in zip(grid, results):
        gap = None
        if res.is_finite and reference.is_finite:
            gap = abs(res.value - reference.value)
        rows.append(BZeroRow(b=b, result=res, gap_to_bessel=gap))
    return rows
