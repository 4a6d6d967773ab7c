"""Double-exponential quadrature on (0, inf) for entropy integrands.

The integrands of interest look like f(x)^alpha or f(x)^alpha log f(x)
for a density f of the chi-squared family: possibly singular like
x^(k/2-1) at the origin and decaying like e^(-x/2) at infinity.  The
range (lo, inf) is split at a centre m (the law's mean, or
``split_point``):

* (lo, m) goes to the tanh-sinh rule (Takahasi & Mori 1974), whose
  nodes crowd double-exponentially towards both ends; that absorbs an
  algebraic singularity at lo.  The distance of a node to its near end
  is formed as e^(-2|v|) / (1 + e^(-2|v|)), which does not cancel, so
  nodes reach 1e-275 m.
* (m, inf) goes to the exp-sinh rule x = m + s e^((pi/2) sinh u), with s
  the law's standard deviation (Mori & Sugihara, J. Comput. Appl. Math.
  127, 2001).

Both are trapezoid sums in u over fixed ranges.  Each level halves the
step and evaluates only its new nodes, in one vectorised call, so one
log-density evaluation per level can feed every integral of a
functional, one row each, for many laws at once, one law per array row
(:func:`integrate_rows`).  The first call takes levels 0 to 2 at once:
no row stops before level 2, and together their nodes are the step-1/8
grid, each level's sums formed from its own nodes as if it had a call
of its own.  The parts of the nodes that depend on u alone are formed
once per call for all laws, and kept for the coarse levels.  A row has
converged when two successive levels, from step 1/8 on, agree to
``max(rel_tol * |I|, abs_tol * int |g|)``; the floor is relative to the
integrand's own size, so a tiny integral is still resolved and a row
whose positive and negative parts cancel is not chased below rounding.
The terms at the outer ends of the range must then also be below that
tolerance; where they are not, as for x^(-1.6) at the origin, the
integral diverges.  The error estimate is the difference of the last
two levels plus a rounding allowance.  Every failure is a
:class:`NonConvergence` with the best estimate, so callers can tell
"diverges" or "budget exhausted" from "converged".

:func:`integrate_halfline` is the scalar entry point on the same rule,
with lo = 0 and m = 1 unless ``split_point`` is set.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "QuadConfig",
    "QuadResult",
    "QuadratureError",
    "NonConvergence",
    "IntegrandFailure",
    "integrate_halfline",
    "integrate_rows",
]

_HALF_PI = 0.5 * math.pi
# Step of level 0; every end of a u range below is a multiple of it, so
# level 0 holds the end nodes and later levels add interior nodes only.
_FIRST_STEP = 0.5
_TS_CENTRE_END = 4.0       # tanh-sinh near m: weight ~ e^(-86) (m - lo)
_ES_CENTRE_END = -4.0      # exp-sinh near m: x - m ~ 2e-19 s
_ES_FAR_END = 3.0          # exp-sinh far end: x - m ~ 7e6 s
_TS_REACH = 1e-275         # nearest node to lo, relative to m - lo
_LO_REACH = 2.0 ** -56     # nearest node to lo > 0, relative to lo
# Two levels agreeing before this one (step 1/8) may both have missed
# a narrow peak; no row is accepted earlier.
_MIN_LEVEL = 2
# Rounding allowance of a level sum, relative to the integral of |g|.
_ROUNDING = 2.0 ** -48


class QuadratureError(Exception):
    """Base class for quadrature failures."""


class NonConvergence(QuadratureError):
    """The error estimate did not reach the requested tolerance.

    Carries the best available value and error estimate so callers can
    report diagnostics; raised both for genuinely divergent integrals
    and for tolerance targets the refinement budget cannot meet.
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
    """Tolerances and budget for the half-line quadrature.

    ``max_subdivisions`` caps the refinement levels: each level halves
    the step, so level j cuts every step of level 0 into 2^j pieces,
    and 2^j may not exceed ``max_subdivisions`` (11 levels by default;
    two levels, and an error estimate, always).  ``split_point = None``
    splits the half line at the law's mean (at 1 for
    :func:`integrate_halfline`); a positive float pins the split
    explicitly.
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
        m = self.max_subdivisions
        if not (math.isfinite(m) and m == int(m) and m >= 2):
            raise ValueError(f"max_subdivisions must be an integer >= 2, got {self.max_subdivisions}")
        if self.split_point is not None:
            if not (math.isfinite(self.split_point) and self.split_point > 0.0):
                raise ValueError(f"split_point must be finite and > 0, got {self.split_point}")


@dataclass(frozen=True)
class QuadResult:
    """A converged integral; ``subdivisions_used`` counts the nodes.

    ``magnitude`` is the integral of ``|g|`` at the same level, closed-form
    ``offset`` counted by its absolute value: the scale against which the
    absolute tolerance and the rounding allowance are taken.
    """

    value: float
    error_estimate: float
    subdivisions_used: int
    converged: bool
    magnitude: float


def _tables(start: float, level: int, grid: bool) -> tuple:
    """The parts of the nodes of ``level`` that depend on u alone.

    The nodes are those new at ``level``, the odd nodes of the step-h
    grid of each piece (all of it at level 0), or with ``grid`` that
    whole grid: every node of levels 0 to ``level``.  For the tanh-sinh
    piece, on u in (start, _TS_CENTRE_END): the count of u < 0,
    e = e^(-2|v|) with v = (pi/2) sinh u, 1 + e, (pi/2) cosh u * 2 and
    (1 + e)^2; for the exp-sinh piece: e^((pi/2) sinh u) and
    (pi/2) cosh u.
    """
    h = _FIRST_STEP / 2 ** level

    def u(a: float, b: float) -> np.ndarray:
        n = round((b - a) / _FIRST_STEP) * 2 ** level
        return a + h * (np.arange(n + 1) if grid or level == 0 else np.arange(1, n + 1, 2))

    ts, es = u(start, _TS_CENTRE_END), u(_ES_CENTRE_END, _ES_FAR_END)
    e = np.exp(-2.0 * np.abs(_HALF_PI * np.sinh(ts)))
    tables = (e, 1.0 + e, _HALF_PI * np.cosh(ts) * 2.0, (1.0 + e) * (1.0 + e),
              np.exp(_HALF_PI * np.sinh(es)), _HALF_PI * np.cosh(es))
    for t in tables:
        t.flags.writeable = False
    return (int(np.count_nonzero(ts < 0.0)),) + tables


# Forming a table costs about as much as the rest of a level's
# bookkeeping, so the tables of the first _KEPT_LEVELS levels, where most
# laws converge, are kept for the life of the process: the grid of
# levels 0 to _MIN_LEVEL and the new nodes of each later level.  A start
# is a multiple of _FIRST_STEP in [-6, -0.5], so at most 60 tables of up
# to 1,088 nodes are kept, 0.53 MB in all.  At finer levels the
# integrand costs far more per node than its table, which is formed
# afresh, as is the coarser grid of a budget below 2^_MIN_LEVEL.
_KEPT_LEVELS = 7
_kept_tables = functools.lru_cache(maxsize=None)(_tables)


def _level_nodes(start: float, level: int, grid: bool, lo, centre, width, scale):
    """Abscissae and weights dx/du of the nodes of :func:`_tables`.

    The tanh-sinh piece runs on u in (start, _TS_CENTRE_END).  ``lo``,
    ``centre``, ``width = centre - lo`` and ``scale`` are columns, one
    law per row.  Tanh-sinh comes first and exp-sinh last, so that the
    first and the last node of level 0 are the outer ends, at lo and
    far out.  Also returns the number of tanh-sinh nodes.
    """
    n_neg, e, opp, dcosh, opp2, grow, ecosh = (
        _kept_tables if _MIN_LEVEL <= level < _KEPT_LEVELS else _tables)(start, level, grid)
    d = width * e / opp
    t = scale * grow
    return (np.concatenate([lo + d[:, :n_neg], centre - d[:, n_neg:], centre + t], axis=1),
            np.concatenate([dcosh * width * e / opp2, ecosh * t], axis=1), e.size)


def _on_level(v: np.ndarray, level: int, top: int, n_ts: int) -> np.ndarray:
    """The part of ``v``, given on the grid of level ``top``, at the nodes of ``level``.

    ``v`` holds the ``n_ts`` tanh-sinh nodes first.  The part is a
    C-contiguous copy in the order of a pass of ``level`` alone, so that
    its sums add the same terms in the same order.
    """
    s = 2 ** (top - level)  # the step of level, in grid steps
    first, step = (0, s) if level == 0 else (s, 2 * s)
    return np.concatenate([v[..., first:n_ts:step], v[..., n_ts + first::step]], axis=-1)


def _checked(vals: np.ndarray, x: np.ndarray) -> np.ndarray:
    if not np.isfinite(vals).all():
        i, r, j = np.argwhere(~np.isfinite(vals))[0]
        raise IntegrandFailure(float(x[i, j]), float(vals[i, r, j]))
    return vals


def _start(lo: float, centre: float) -> float:
    """The u at which the tanh-sinh piece of a law on (lo, centre) starts."""
    if not 0.0 <= lo < centre:
        raise ValueError(f"need 0 <= lo < centre, got lo = {lo}, centre = {centre}")
    # log of (centre - lo) / (distance of the nearest node to lo)
    depth = -math.log(_TS_REACH)
    if lo > 0.0:
        depth = min(depth, math.log(centre - lo) - math.log(lo) - math.log(_LO_REACH))
    return -math.ceil(math.asinh(depth / math.pi) / _FIRST_STEP) * _FIRST_STEP


def integrate_rows(g: Callable[[np.ndarray, np.ndarray], np.ndarray], lo, centre, scale,
                   config: QuadConfig | None = None, offset=0.0) -> list:
    """Integrate each row of a vectorised integrand over (lo, inf), for many laws at once.

    ``lo``, ``centre`` and ``scale`` hold one value per law (scalars for
    one law): ``centre`` splits the law's range and ``scale`` sets its
    exp-sinh width.  ``g(x, laws)`` maps the abscissae ``x``, of shape
    ``(len(laws), n)`` with one row per law, of the laws with indices
    ``laws`` to an array of shape ``(len(laws), rows, n)``; it is called
    once per level, for the laws still being refined.  ``offset``
    (broadcast to one value per law and row) is added to each integral,
    for a part of the half line integrated in closed form.

    Every law gets the nodes, stopping rule and error estimate it would
    get alone.  The laws whose tanh-sinh pieces start at the same u (as
    most laws of a family do) share one sweep: at each level their new
    nodes are formed together, from one table of the parts that depend
    on u alone, and ``g`` is called once for all of them; a law leaves
    the sweep at the level where its own rows converge.  Returns, per
    law, the list of its converged :class:`QuadResult` (one per row) or
    the :class:`NonConvergence` it met; an exception raised by ``g``,
    and :class:`IntegrandFailure`, propagate.
    """
    cfg = config if config is not None else QuadConfig()
    lo, centre, scale = np.broadcast_arrays(*(np.atleast_1d(np.asarray(v, dtype=float))
                                              for v in (lo, centre, scale)))
    offset = np.atleast_2d(np.asarray(offset, dtype=float))
    offset = np.broadcast_to(offset, (lo.size, offset.shape[1]))
    starts = np.array([_start(a, b) for a, b in zip(lo.tolist(), centre.tolist())])
    outcomes = [None] * lo.size
    for start in sorted(set(starts.tolist())):
        laws = np.flatnonzero(starts == start)
        _sweep(g, start, laws, lo[laws], centre[laws], scale[laws], offset[laws], cfg,
               outcomes)
    return outcomes


def _sweep(g, start: float, laws, lo, centre, scale, offset, cfg: QuadConfig,
           outcomes: list) -> None:
    """Refine the laws ``laws``, of one tanh-sinh start, level by level.

    No law stops before _MIN_LEVEL, so the first pass evaluates levels 0
    to _MIN_LEVEL (to the last level the budget allows, if coarser) in
    one call of ``g``, on the grid of that level, and each later pass
    one level.  Each level takes its own nodes back from the pass, in
    its own order, so its sums are those of a pass of its own.  Writes
    each law's outcome into ``outcomes`` as it leaves the sweep.
    """
    cols = (lo[:, None], centre[:, None], (centre - lo)[:, None], scale[:, None])
    last = int(cfg.max_subdivisions).bit_length() - 1  # 2 ** (last + 1) > max_subdivisions
    level, used, best = 0, 0, math.inf
    while True:
        top = min(_MIN_LEVEL, last) if level == 0 else level
        x, w, n_ts = _level_nodes(start, top, level == 0, *cols)
        vals = np.asarray(g(x, laws), dtype=float)
        parts = [(x, w, vals)] if level == top else [
            [_on_level(v, j, top, n_ts) for v in (x, w, vals)] for j in range(top + 1)]
        # no law leaves the sweep before the last level of a pass
        for x_j, w_j, vals_j in parts:
            h = _FIRST_STEP / 2 ** level
            terms = _checked(vals_j, x_j) * w_j[:, None, :]
            used += x_j.shape[1]
            if level == 0:
                body = h * terms.sum(axis=-1)
                size = h * np.abs(terms).sum(axis=-1)
                end_terms = np.maximum(np.abs(terms[:, :, 0]), np.abs(terms[:, :, -1]))
            else:
                body = 0.5 * body + h * terms.sum(axis=-1)
                size = 0.5 * size + h * np.abs(terms).sum(axis=-1)
            value = offset + body
            size_all = np.abs(offset) + size
            err = np.abs(value - best)
            tol = np.maximum(cfg.rel_tol * np.abs(value), cfg.abs_tol * size_all)
            done = ((level >= _MIN_LEVEL) & (err <= tol).all(axis=1)
                    & (size_all > 0.0).all(axis=1))
            if level == last or done.any():
                for i in np.flatnonzero(done | (level == last)):
                    outcomes[laws[i]] = _outcome(bool(done[i]), value[i], err[i], tol[i],
                                                 size_all[i], end_terms[i], used)
                if level == last or done.all():
                    return
                keep = ~done
                laws, offset, body, size, end_terms, value = (
                    a[keep] for a in (laws, offset, body, size, end_terms, value))
                cols = tuple(c[keep] for c in cols)
            best = value
            level += 1


def _outcome(converged: bool, value, err, tol, size_all, end_terms, used: int):
    """What :func:`integrate_rows` returns for one law that left the sweep."""
    if converged and (end_terms > tol).any():
        # the levels agree on a truncated range; no refinement reaches
        # what lies beyond its ends
        r = int(np.argmax(end_terms - tol))
        return NonConvergence(
            "half-line quadrature did not converge: the integrand is not "
            f"negligible at the end of the range; probably divergent "
            f"(value ~ {value[r]:.6g})",
            value=float(value[r]), error_estimate=float(end_terms[r]),
            subdivisions_used=used)
    if converged:
        return [QuadResult(value=float(v), error_estimate=float(e),
                           subdivisions_used=used, converged=True, magnitude=float(s))
                for v, e, s in zip(value, err + _ROUNDING * size_all, size_all)]
    r = int(np.argmax(err - tol))
    return NonConvergence(
        "half-line quadrature did not converge: error estimate above "
        f"tolerance after {used} nodes (value ~ {value[r]:.6g}, "
        f"error ~ {err[r]:.3g})",
        value=float(value[r]), error_estimate=float(err[r]),
        subdivisions_used=used)


def integrate_halfline(f: Callable[[float], float],
                       config: QuadConfig | None = None) -> QuadResult:
    """Integrate the scalar function ``f`` over (0, inf).

    Returns a converged :class:`QuadResult` or raises.  The integrand is
    evaluated strictly inside the open interval; a non-finite return
    value at any abscissa raises :class:`IntegrandFailure` with that
    abscissa attached, and an ``OverflowError`` raised by ``f`` (near a
    non-integrable singularity) raises :class:`NonConvergence`.
    """
    cfg = config if config is not None else QuadConfig()
    centre = cfg.split_point if cfg.split_point is not None else 1.0

    def g(x: np.ndarray, laws) -> np.ndarray:
        try:
            return np.array([[[float(f(float(xi))) for xi in x[0]]]])
        except OverflowError as exc:
            raise NonConvergence(
                f"half-line quadrature did not converge: the integrand "
                f"overflowed ({exc}); probably divergent",
                value=math.inf, error_estimate=math.inf, subdivisions_used=0) from None

    (res,) = integrate_rows(g, 0.0, centre, centre, cfg)
    if isinstance(res, NonConvergence):
        raise res
    return res[0]
