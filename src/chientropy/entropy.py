"""Entropy functionals of chi-squared family laws.

Six functionals of a density f, parametrized by positive orders:

* Shannon            H  = -int f log f
* Renyi              H_alpha = log(int f^alpha) / (1 - alpha)
* generalized Renyi  H_{alpha,beta} = (log int f^alpha - log int f^beta) / (beta - alpha)
* its diagonal       H_{alpha,alpha} = -(int f^alpha log f) / (int f^alpha)
* Tsallis            T_alpha = (int f^alpha - 1) / (1 - alpha)
* Sharma-Mittal      S_{alpha,beta} = ((int f^alpha)^((1-beta)/(1-alpha)) - 1) / (1 - beta)

Since int f = 1, they are three functionals (Nielsen & Nock, J. Phys. A
45, 2012), and every route evaluates only those three:

* Renyi is generalized Renyi at beta = 1:   H_alpha = H_{alpha,1};
* Shannon is the diagonal at alpha = 1:     H = H_{1,1};
* Tsallis is Sharma-Mittal at beta = alpha: T_alpha = S_{alpha,alpha}.

An order-1 power integral is never computed: it is 1 exactly.

A law c NC(k, lam) takes one of three routes (see :func:`entropy`):
the gamma closed form at lam = 0, the series of NC(k, lam) in lam at
small lam (:func:`_lambda_series`), and quadrature of NC(k, lam)
otherwise.  Each gives its result with an error estimate.

Every evaluation is gated on the existence condition for this family:
the effective degrees of freedom must exceed 1, and each order a used
in an integral int f^a must satisfy k > 2 - 2/a, otherwise the defining
integral diverges at the origin.  Failing the gate yields an
``undefined`` result (never an exception), as do parameter choices on
the removable singularities (alpha = 1, or alpha = beta off-diagonal)
and quadrature that cannot certify its tolerance.

Results are tri-state (finite / infinite / undefined) so that limit
values of stochastic process marginals, which can be genuinely
infinite, flow through the same type.
"""

from __future__ import annotations

import enum
import math
import operator
import threading
from dataclasses import dataclass

import numpy as np

from .dist import (CentralChiSq, Law, NoncentralChiSq, _log_origin_coefficient,
                   _nc_log_pdf, _triple_of)
from .quad import IntegrandFailure, NonConvergence, QuadConfig, QuadResult, integrate_rows
from .quad import integrate_halfline  # noqa: F401  (bench/spans.py wraps this binding)

__all__ = [
    "EntropyKind",
    "EntropySpec",
    "EntropyResult",
    "GateDecision",
    "REASON_GATE",
    "REASON_PARAMETER",
    "REASON_NONCONVERGENCE",
    "existence_gate",
    "entropy",
    "scale_transform",
    "lambda_convergence_study",
    "LambdaRow",
]

# Reason codes carried by undefined results.
REASON_GATE = "existence-gate"
REASON_PARAMETER = "parameter"
REASON_NONCONVERGENCE = "non-convergence"

# Orders this close to a removable singularity (alpha = 1, or
# alpha = beta off-diagonal) are refused at evaluation time: the
# defining quotient amplifies quadrature error beyond usefulness.
_PARAM_EPS = 1e-9

_EPS = float(np.finfo(float).eps)

# Rounding allowances, in units of eps: of the sum of the magnitudes of
# the terms a gamma closed form adds, and of the magnitudes each step of
# Miller's recurrence subtracts.
_CLOSED_FORM_ROUNDING = 4.0
_MILLER_ROUNDING = 16.0

# The lambda series gives up on a law after this many terms.
_SERIES_TERMS = 40

_DEFAULT_QUAD = QuadConfig()
# int f = 1: the power row of order 1, never integrated
_ORDER_ONE = QuadResult(1.0, 0.0, 0, True, 1.0)


class EntropyKind(enum.Enum):
    SHANNON = "shannon"
    RENYI = "renyi"
    GEN_RENYI = "gen-renyi"
    GEN_RENYI_DIAG = "gen-renyi-diag"
    TSALLIS = "tsallis"
    SHARMA_MITTAL = "sharma-mittal"


_NEEDS_ALPHA = {
    EntropyKind.RENYI,
    EntropyKind.GEN_RENYI,
    EntropyKind.GEN_RENYI_DIAG,
    EntropyKind.TSALLIS,
    EntropyKind.SHARMA_MITTAL,
}
_NEEDS_BETA = {EntropyKind.GEN_RENYI, EntropyKind.SHARMA_MITTAL}


@dataclass(frozen=True)
class EntropySpec:
    """Which functional to evaluate, with its order parameters.

    Orders must be positive and finite where required; the removable
    singularities (alpha = 1 for Renyi/Tsallis/Sharma-Mittal, beta = 1
    for Sharma-Mittal, alpha = beta for the off-diagonal generalized
    Renyi) are accepted here and reported as undefined at evaluation.
    """

    kind: EntropyKind
    alpha: float | None = None
    beta: float | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.kind, EntropyKind):
            raise ValueError(f"kind must be an EntropyKind, got {self.kind!r}")
        if self.kind in _NEEDS_ALPHA:
            a = self.alpha
            if a is None or not math.isfinite(a) or a <= 0.0:
                raise ValueError(f"{self.kind.value} requires finite alpha > 0, got {a}")
            object.__setattr__(self, "alpha", float(a))
        elif self.alpha is not None:
            raise ValueError(f"{self.kind.value} takes no alpha")
        if self.kind in _NEEDS_BETA:
            b = self.beta
            if b is None or not math.isfinite(b) or b <= 0.0:
                raise ValueError(f"{self.kind.value} requires finite beta > 0, got {b}")
            object.__setattr__(self, "beta", float(b))
        elif self.beta is not None:
            raise ValueError(f"{self.kind.value} takes no beta")

    @classmethod
    def shannon(cls) -> "EntropySpec":
        return cls(EntropyKind.SHANNON)

    @classmethod
    def renyi(cls, alpha: float) -> "EntropySpec":
        return cls(EntropyKind.RENYI, alpha=alpha)

    @classmethod
    def gen_renyi(cls, alpha: float, beta: float) -> "EntropySpec":
        return cls(EntropyKind.GEN_RENYI, alpha=alpha, beta=beta)

    @classmethod
    def gen_renyi_diag(cls, alpha: float) -> "EntropySpec":
        return cls(EntropyKind.GEN_RENYI_DIAG, alpha=alpha)

    @classmethod
    def tsallis(cls, alpha: float) -> "EntropySpec":
        return cls(EntropyKind.TSALLIS, alpha=alpha)

    @classmethod
    def sharma_mittal(cls, alpha: float, beta: float) -> "EntropySpec":
        return cls(EntropyKind.SHARMA_MITTAL, alpha=alpha, beta=beta)

    def orders(self) -> tuple[float, ...]:
        """Orders a for which int f^a must exist."""
        if self.kind is EntropyKind.SHANNON:
            return (1.0,)
        if self.kind is EntropyKind.GEN_RENYI:
            return (self.alpha, self.beta)
        return (self.alpha,)


STATE_FINITE = "finite"
STATE_INFINITE = "infinite"
STATE_UNDEFINED = "undefined"


@dataclass(frozen=True)
class EntropyResult:
    """Tri-state outcome of an entropy evaluation.

    ``finite`` carries a value and the error estimate of the route that
    gave it; ``infinite`` means the functional diverges to +inf;
    ``undefined`` carries a reason code from the REASON_* constants.
    """

    state: str
    value: float | None = None
    reason: str | None = None
    error_estimate: float | None = None

    def __post_init__(self) -> None:
        if self.state not in (STATE_FINITE, STATE_INFINITE, STATE_UNDEFINED):
            raise ValueError(f"bad state {self.state!r}")
        if self.state == STATE_FINITE:
            if self.value is None or not math.isfinite(self.value):
                raise ValueError(f"finite result needs a finite value, got {self.value}")
        elif self.value is not None:
            raise ValueError(f"{self.state} result must not carry a value")
        if self.state == STATE_UNDEFINED and not self.reason:
            raise ValueError("undefined result needs a reason")

    @classmethod
    def finite(cls, value: float, error_estimate: float | None = None) -> "EntropyResult":
        err = None if error_estimate is None else float(error_estimate)
        return cls(STATE_FINITE, value=float(value), error_estimate=err)

    @classmethod
    def infinite(cls) -> "EntropyResult":
        return cls(STATE_INFINITE)

    @classmethod
    def undefined(cls, reason: str) -> "EntropyResult":
        return cls(STATE_UNDEFINED, reason=reason)

    @property
    def is_finite(self) -> bool:
        return self.state == STATE_FINITE

    @property
    def is_infinite(self) -> bool:
        return self.state == STATE_INFINITE

    @property
    def is_undefined(self) -> bool:
        return self.state == STATE_UNDEFINED

    def as_float(self) -> float:
        """Finite value, +inf for infinite; raises on undefined."""
        if self.is_finite:
            return self.value
        if self.is_infinite:
            return math.inf
        raise ValueError(f"entropy undefined: {self.reason}")


@dataclass(frozen=True)
class GateDecision:
    ok: bool
    detail: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def existence_gate(k: float, spec: EntropySpec) -> GateDecision:
    """Existence condition for ``spec`` on a law with dof ``k``.

    All functionals require ``k > 1``; each integral order a used by
    the functional additionally requires ``k > 2 - 2/a`` (only binding
    for a > 1).  The decision depends on the dof alone, not on the
    noncentrality.
    """
    kf = float(k)
    if math.isnan(kf):
        raise ValueError("k must not be NaN")
    if kf <= 1.0:
        return GateDecision(False, f"requires dof > 1, got {kf}")
    for a in spec.orders():
        threshold = 2.0 - 2.0 / a
        if kf <= threshold:
            return GateDecision(
                False,
                f"order {a} requires dof > {threshold}, got {kf}")
    return GateDecision(True)


class _RowTable:
    """Read-only rows by key, at most _ROW_TABLE_BYTES, oldest out first; a row
    larger than that (level 13 on) is not kept.  Stores hold the lock and make room
    before they add, so threads evict each row once and ``nbytes`` stays in bound."""

    def __init__(self) -> None:
        self.rows, self.nbytes, self.lock = {}, 0, threading.Lock()

    def put(self, key, row: np.ndarray) -> None:
        row.flags.writeable = False
        with self.lock:
            if key in self.rows or row.nbytes > _ROW_TABLE_BYTES:
                return
            while self.nbytes + row.nbytes > _ROW_TABLE_BYTES:
                self.nbytes -= self.rows.pop(next(iter(self.rows))).nbytes
            self.rows[key] = row
            self.nbytes += row.nbytes

    def clear(self) -> None:
        with self.lock:
            self.rows.clear()
            self.nbytes = 0


# 64 rows of 1,088 nodes, the new nodes of level 6 at the widest start: 0.56 MB.
# On the process_curves benchmark a row is read again at most 41 stores later.
_ROW_TABLE_BYTES = 64 * 1088 * 8
_ROWS = _RowTable()


def _integrals(laws: list, rows, config: QuadConfig | None) -> list:
    """int f^a ("power") or int f^a log f ("log") for each ``(a, kind)`` row, per law.

    The laws are NC(k, lam_i) of one k, or any one law.  Returns, per
    law, the list of its results, one per row, or the
    :class:`NonConvergence` it met; a law never changes another's
    outcome.  A power row of order 1 is int f = 1 exactly and is never
    integrated.  One log-density evaluation per pass of a sweep of
    :func:`integrate_rows` feeds every row of the sweep's laws: the
    noncentral formula of ``law.log_pdf`` with one column per law, or,
    for a law of another form, its own ``log_pdf``.  Where log f cannot
    be formed at a node (k/2 - 1 above about 8000) the laws are
    integrated one by one, so that only the laws that fail alone report
    it.  So do the laws whose x0 underflows to 0, or whose integrand
    overflows at a node (both only at extreme scale factors).

    The noncentral log f rows are kept in ``_ROWS`` by (k, lam, split
    point, node count), so a later call on the same law forms log f only
    on the passes no call has made.  (k, lam) and the split point fix
    x0, centre, scale and tanh-sinh start; the count fixes the pass:
    N 2^t + 2 nodes for levels 0 to t (t = 3, less at a budget below 8),
    N 2^(j-1) at a later level j, N >= 23.  Hashing that tuple takes
    0.14 us, the bytes of a row 0.8 to 2.4 us.  :func:`log_bessel_i`
    works point by point, so a kept row is the row the call would form.

    On (0, x0) every density of the family is C x^p with p = k/2 - 1 to
    a relative 1e-17: for a law c NC(k, lam) the first correction term
    is at most x mean / (2 k c^2), and x0 = 1e-17 k var^2 / (8 mean^3)
    keeps it below that.  The piece is taken in closed form, C too, so
    the nodes never come near the origin, where f^a can overflow for
    laws close to the gate.

    Each error estimate also carries the rounding error of log f,
    d = 8 eps (1 + mean^2/var + (k/2) |log mean|): near the mean of a
    noncentral law the terms -(x + lam)/2 and log I(sqrt(lam x)) are
    each about lam, or 4 mean^2/var, and the power x^(k/2-1) and
    log Gamma(k/2) about (k/2) |log mean|.  A relative error d of f
    moves int f^a by d a int f^a, and int f^a log f by at most
    d int |f^a (1 + a log f)| <= d (int f^a + a int |f^a log f|): the
    value of the (a, "power") row, 1 at a = 1, plus a times the
    ``magnitude`` of the log row.
    """
    cfg = config if config is not None else _DEFAULT_QUAD
    triples = [_triple_of(law) for law in laws]
    k = triples[0][0]
    lam = [t[1] for t in triples]
    noncentral = all(v > 0.0 and c == 1.0 for _, v, c in triples)
    if noncentral and len(laws) > 1:
        columns = [np.array(v)[:, None] for v in (
            lam, [math.log(v) for v in lam], [math.sqrt(v) for v in lam])]

    def log_f(x, i):
        try:
            if not noncentral:
                return laws[0].log_pdf(x)
            if len(laws) == 1:
                key = (k, lam[0], cfg.split_point, x.shape[1])
                row = _ROWS.rows.get(key)
                if row is None:
                    row = _nc_log_pdf(x[0], k, lam[0], math.log(lam[0]), math.sqrt(lam[0]))
                    _ROWS.put(key, row)
                return row[None]
            keys = [(k, lam[j], cfg.split_point, x.shape[1]) for j in i.tolist()]
            found = [_ROWS.rows.get(key) for key in keys]
            miss = [r for r, row in enumerate(found) if row is None]
            if miss:
                fresh = _nc_log_pdf(x[miss], k, *[col[i[miss]] for col in columns])
                for r, row in zip(miss, fresh):
                    found[r] = row.copy()
                    _ROWS.put(keys[r], found[r])
            return np.stack(found)
        except ValueError as exc:
            raise NonConvergence(str(exc), math.nan, math.inf, 0) from exc

    p = 0.5 * k - 1.0
    mean = [law.mean for law in laws]
    var = [law.variance for law in laws]
    x0 = [1e-17 * k * (v / m) * (v / m / m) / 8.0 for m, v in zip(mean, var)]
    todo = [row for row in rows if row != (1.0, "power")]

    def origin(triple, x0, a, kind):
        log_c, log_x0, q = _log_origin_coefficient(*triple), math.log(x0), a * p + 1.0
        part = math.exp(a * log_c + q * log_x0 - math.log(q))
        if kind == "power":
            return part
        return part * (log_c + p * (log_x0 - 1.0 / q))

    def g(x, i):
        lp = log_f(x, i)
        out = np.empty((x.shape[0], len(todo), x.shape[1]))
        with np.errstate(over="ignore"):
            for r, (a, kind) in enumerate(todo):
                w = np.exp(a * lp)
                out[:, r] = w if kind == "power" else np.where(w > 0.0, w * lp, 0.0)
        return out

    try:
        if not min(x0) > 0.0:
            raise NonConvergence(f"the origin piece (0, x0) underflows: x0 = {min(x0)}",
                                 math.nan, math.inf, 0)
        results = integrate_rows(
            g, x0, mean if cfg.split_point is None else cfg.split_point,
            [math.sqrt(v) for v in var], cfg,
            offset=[[origin(t, x, a, kind) for a, kind in todo] for t, x in zip(triples, x0)])
    except (NonConvergence, IntegrandFailure) as exc:
        if len(laws) == 1:
            if isinstance(exc, IntegrandFailure):  # f^a overflows at a node
                exc = NonConvergence(str(exc), math.nan, math.inf, 0)
            return [exc]
        return [_integrals([law], rows, config)[0] for law in laws]

    out = []
    for res, m, v in zip(results, mean, var):
        if not isinstance(res, NonConvergence):
            d = 8.0 * _EPS * (1.0 + m * m / v + 0.5 * k * abs(math.log(m)))
            got = {(1.0, "power"): _ORDER_ONE, **dict(zip(todo, res))}
            for a, kind in todo:
                r = got[a, kind]
                slack = got[a, "power"].value + a * r.magnitude if kind == "log" else a * r.value
                got[a, kind] = QuadResult(r.value, r.error_estimate + d * slack,
                                          r.subdivisions_used, True, r.magnitude)
            res = [got[row] for row in rows]
        out.append(res)
    return out


def _family(spec: EntropySpec) -> tuple[EntropyKind, float, float]:
    """The functional ``spec`` evaluates, as (kind, alpha, beta).

    The kind is GEN_RENYI, GEN_RENYI_DIAG (with beta = alpha) or
    SHARMA_MITTAL: Renyi is generalized Renyi at beta = 1, Shannon the
    diagonal at alpha = 1 and Tsallis Sharma-Mittal at beta = alpha.
    """
    kind, a, b = spec.kind, spec.alpha, spec.beta
    if kind is EntropyKind.SHANNON:
        return EntropyKind.GEN_RENYI_DIAG, 1.0, 1.0
    if kind is EntropyKind.RENYI:
        return EntropyKind.GEN_RENYI, a, 1.0
    if kind is EntropyKind.TSALLIS:
        return EntropyKind.SHARMA_MITTAL, a, a
    return kind, a, a if b is None else b


def _excluded(family: EntropyKind, a: float, b: float) -> bool:
    """True on a removable singularity of the family's defining quotient."""
    if family is EntropyKind.GEN_RENYI:
        return abs(a - b) < _PARAM_EPS
    if family is EntropyKind.SHARMA_MITTAL:
        return abs(a - 1.0) < _PARAM_EPS or abs(b - 1.0) < _PARAM_EPS
    return False


def _power_orders(family: EntropyKind, a: float, b: float) -> tuple[float, ...]:
    """The orders o of the log int f^o that ``family`` reads off the diagonal."""
    return (a, b) if family is EntropyKind.GEN_RENYI else (a,)


def _assemble(family: EntropyKind, a: float, b: float, u: tuple,
              v: tuple = (0.0, 0.0)) -> EntropyResult:
    """The entropy of ``family`` at orders (a, b) as a finite result.

    ``u`` is (log int f^a, its error estimate) and ``v`` the same for
    order b, which only generalized Renyi reads; on the diagonal ``u``
    holds the entropy itself.
    """
    (lu, du), (lv, dv) = u, v
    if family is EntropyKind.GEN_RENYI_DIAG:
        return EntropyResult.finite(lu, du)
    if family is EntropyKind.GEN_RENYI:
        value = (lu - lv) / (b - a)
        err = (du + dv) / abs(b - a)
    else:
        expo = (1.0 - b) / (1.0 - a)
        value = math.expm1(expo * lu) / (1.0 - b)
        err = abs(expo) * math.exp(expo * lu) * du / abs(1.0 - b)
    return EntropyResult.finite(value, err)


def entropy(law: Law, spec: EntropySpec,
            config: QuadConfig | None = None, *,
            scaled_direct: bool = False) -> EntropyResult:
    """Evaluate ``spec`` on ``law``; never raises for in-domain laws.

    After the parameter exclusions and the existence gate on k, the law
    c NC(k, lam) takes one of three routes: at lam = 0, the closed form
    of the gamma law with shape k/2 and scale 2c; at small lam, the
    series of NC(k, lam) in lam, when its terms settle below the
    rounding level; otherwise quadrature of NC(k, lam).  The last two
    end in :func:`scale_transform` by c.  ``config`` sets the tolerances
    and budget of the quadrature alone: the closed form and the series
    stop at rounding level whatever it says.  ``scaled_direct=True``
    integrates the law's own density by quadrature instead, for
    cross-checking.  Every finite result carries an error estimate: the
    quadrature's, or the rounding and truncation bound of the closed
    form or the series.
    """
    return _entropies([law], spec, config, scaled_direct=scaled_direct)[0]


def _entropies(laws: list, spec: EntropySpec, config: QuadConfig | None = None, *,
               scaled_direct: bool = False) -> list[EntropyResult]:
    """:func:`entropy` of each law, the quadrature laws of one k together.

    The closed form and the lambda series are taken law by law, so
    their results are those of :func:`entropy` bit for bit.  The
    noncentral laws that refuse the series are integrated in one sweep
    per k.  Each of their results has the state and reason
    :func:`entropy` gives for that law alone, and its value and error
    estimate to 1e-14 relative (bit for bit on every curve of the
    tests).  No result depends on what was evaluated before: a row that
    :func:`_integrals` reads from earlier calls is the one it would form.
    """
    triples = [_triple_of(law) for law in laws]
    family, a, b = _family(spec)
    if _excluded(family, a, b):
        return [EntropyResult.undefined(REASON_PARAMETER)] * len(laws)
    out = [None] * len(laws)
    sweeps = {}   # k -> indices of the laws NC(k, lam) integrates for
    miller = {}   # the series coefficients the laws share
    for i, (law, (k, lam, c)) in enumerate(zip(laws, triples)):
        if not existence_gate(k, spec):
            out[i] = EntropyResult.undefined(REASON_GATE)
        elif scaled_direct:
            (out[i],) = _entropy_quadrature([law], family, a, b, config)
        elif lam == 0.0:
            out[i] = _gamma_closed_form(0.5 * k, 2.0 * c, family, a, b)
        else:
            res = _lambda_series(k, lam, family, a, b, miller)
            if res is None:
                sweeps.setdefault(k, []).append(i)
            else:
                out[i] = scale_transform(res, spec, c)
    for k, idx in sweeps.items():
        base = _entropy_quadrature([NoncentralChiSq(k, triples[i][1]) for i in idx],
                                   family, a, b, config)
        for i, res in zip(idx, base):
            out[i] = scale_transform(res, spec, triples[i][2])
    return out


def _entropy_quadrature(laws: list, family: EntropyKind, a: float, b: float,
                        config: QuadConfig | None) -> list[EntropyResult]:
    diagonal = family is EntropyKind.GEN_RENYI_DIAG
    if diagonal:
        rows = [(a, "log"), (a, "power")]
    else:
        rows = [(o, "power") for o in _power_orders(family, a, b)]
    out = []
    for res in _integrals(laws, rows, config):
        if isinstance(res, NonConvergence):
            out.append(EntropyResult.undefined(REASON_NONCONVERGENCE))
        elif diagonal:
            num, den = res
            err = (num.error_estimate
                   + abs(num.value) * den.error_estimate / den.value) / den.value
            out.append(_assemble(family, a, b, (-num.value / den.value, err)))
        else:
            # a power row sums terms >= 0, so its value is its magnitude,
            # which integrate_rows only accepts when it is positive
            out.append(_assemble(family, a, b, *[(math.log(r.value), r.error_estimate / r.value)
                                                 for r in res]))
    return out


def scale_transform(base_result: EntropyResult, spec: EntropySpec,
                    factor: float) -> EntropyResult:
    """Entropy of ``factor * X`` from the entropy of ``X``.

    Additive kinds (Shannon, Renyi, both generalized Renyi forms) shift
    by ``log factor``.  Tsallis maps through
    ``C^(1-alpha) H + (C^(1-alpha) - 1) / (1 - alpha)`` and
    Sharma-Mittal does the same with ``beta``.  Infinite stays infinite
    (the affine maps have positive slope), undefined passes through.
    """
    c = float(factor)
    if not (math.isfinite(c) and c > 0.0):
        raise ValueError(f"factor must be finite and > 0, got {factor}")
    if not base_result.is_finite:
        return base_result

    log_c = math.log(c)
    family, _, b = _family(spec)
    if family is not EntropyKind.SHARMA_MITTAL:
        return EntropyResult.finite(base_result.value + log_c,
                                    base_result.error_estimate)
    p = 1.0 - b
    if abs(p) < _PARAM_EPS:
        return EntropyResult.undefined(REASON_PARAMETER)
    slope = math.exp(p * log_c)
    value = slope * base_result.value + math.expm1(p * log_c) / p
    err = None if base_result.error_estimate is None else slope * base_result.error_estimate
    return EntropyResult.finite(value, err)


def _gamma_log_integral_moment(shape: float, scale: float, a: float) -> tuple[float, float]:
    """(log int f^a, its rounding bound) for a GammaLaw f, valid when a (shape-1) + 1 > 0.

    int f^a = Gamma(a(s-1)+1) / (Gamma(s)^a a^(a(s-1)+1) theta^(a-1)),
    and 1 exactly at a = 1.  The four terms cancel at large shape (each
    about s log s), so the bound is a few eps times their magnitudes.
    """
    if a == 1.0:
        return 0.0, 0.0
    from scipy.special import gammaln  # deferred: scipy.special dominates CLI start-up

    g = a * (shape - 1.0) + 1.0
    terms = (gammaln(g), a * gammaln(shape), (1.0 - a) * math.log(scale), g * math.log(a))
    return (terms[0] - terms[1] + terms[2] - terms[3],
            _CLOSED_FORM_ROUNDING * _EPS * (1.0 + sum(map(abs, terms))))


def _gamma_diagonal(s: float, theta: float, a: float) -> tuple[float, float]:
    """(H_{a,a}, its rounding bound) for the gamma law with shape s and scale theta.

    At a = 1 this is the Shannon entropy term for term: the gate keeps
    s > 1/2, where s - 1, 1 + (s - 1) and g are exact.  Like
    :func:`_gamma_log_integral_moment`, the terms cancel at large s.
    """
    from scipy.special import gammaln, psi  # deferred: scipy.special dominates CLI start-up

    g = a * (s - 1.0) + 1.0
    terms = (math.log(theta), gammaln(s), 1.0 / a + (s - 1.0), (1.0 - s) * (psi(g) - math.log(a)))
    return (terms[0] + terms[1] + terms[2] + terms[3],
            _CLOSED_FORM_ROUNDING * _EPS * (1.0 + sum(map(abs, terms))))


def _gamma_closed_form(s: float, theta: float, family: EntropyKind,
                       a: float, b: float) -> EntropyResult:
    """The functional of a gamma law with shape s and scale theta, in closed form."""
    if family is EntropyKind.GEN_RENYI_DIAG:
        return _assemble(family, a, b, _gamma_diagonal(s, theta, a))
    return _assemble(family, a, b, *[_gamma_log_integral_moment(s, theta, o)
                                     for o in _power_orders(family, a, b)])


def _lambda_series(k: float, lam: float, family: EntropyKind, a: float, b: float,
                   miller: dict | None = None) -> EntropyResult | None:
    """The functional of NC(k, lam) by its series in lam, or None if the law refuses it.

    With p = k/2 - 1, f_{k,lam}(x) = e^(-lam/2) f_k(x) A(lam x / 4), where
    A(z) = 0F1(; k/2; z) (Johnson, Kotz & Balakrishnan, vol. 2, ch. 29),
    so termwise integration against the central law f_k gives

        log int f^a = log int f_k^a - a lam/2 + log S(a),
        S(a) = sum_n b_n(a) (a p + 1)_n (lam / 2a)^n,

    with b_n(a) the coefficients of A^a, and on the diagonal
    H_{a,a} = H_{a,a}(chi2_k) + lam/2 - S'(a)/S(a).  The central terms
    are the gamma closed forms, with their rounding bounds; an order-1
    row is 0 exactly.  :func:`_series_sums` gives S and S' or refuses;
    so does any overflow or non-finite value on the way.  ``miller``
    holds the :class:`_Miller` coefficients by (k, a, diagonal), so that
    the laws of one call compute them once; the sums are the same.
    """
    s = 0.5 * k
    miller = {} if miller is None else miller

    def series(o, diagonal):
        key = (k, o, diagonal)
        if key not in miller:
            miller[key] = _Miller(k, o, diagonal)
        return _series_sums(lam, miller[key])

    try:
        if family is EntropyKind.GEN_RENYI_DIAG:
            row = series(a, True)
            if row is None:
                return None
            t, dt, err, derr = row
            h, dh = _gamma_diagonal(s, 2.0, a)
            ratio = dt / (1.0 + t)
            value = h + 0.5 * lam - ratio
            rows = [(value, dh + (derr + abs(ratio) * err) / (1.0 + t)
                     + 2.0 * _EPS * (abs(h) + 0.5 * lam + abs(ratio)))]
        else:
            rows = []
            for o in _power_orders(family, a, b):
                if o == 1.0:
                    rows.append((0.0, 0.0))
                    continue
                row = series(o, False)
                if row is None:
                    return None
                t, _, err, _ = row
                g, dg = _gamma_log_integral_moment(s, 2.0, o)
                log_s = math.log1p(t)
                rows.append((g - 0.5 * o * lam + log_s, dg + err / (1.0 + t)
                             + 2.0 * _EPS * (abs(g) + 0.5 * o * lam + abs(log_s))))
        res = _assemble(family, a, b, *rows)
    except (OverflowError, ValueError):
        return None
    err = res.error_estimate + 2.0 * _EPS * abs(res.value)   # the assembly's own rounding
    return EntropyResult.finite(res.value, err) if math.isfinite(err) else None


class _Miller:
    """The coefficients of A^a, computed as far as a sum asks for them.

    The coefficients of A are a_j = 1/((k/2)_j j!), and those of A^a
    follow from Miller's recurrence, b_0 = 1 and
    b_n = (1/n) sum_{j=1..n} ((a + 1) j - n) a_j b_{n-j};
    on the ``diagonal`` their derivatives b_n' in a run beside them.
    Both are scaled by (k/2)^n, which keeps them within a few orders of
    1 at any k.  They do not depend on lam, so the laws NC(k, lam_i) of
    one call share them.

    The recurrence cancels at large n: an error in b_i grows into the
    later b_n like the coefficients of A^(-a-1), whose singularities
    are the zeros of A on the negative axis, so the errors alternate in
    sign.  Beside each b_n runs e_n, the same recurrence driven by a
    rounding of alternating sign, _MILLER_ROUNDING eps of the
    magnitudes it subtracts, and |e_n| stands for the rounding of b_n.
    Driven by 1 eps, |e_n| came within a factor 3.2 of the error of the
    computed b_n and b_n' against 80-digit values, over 150 random
    (k, a) in [1.05, 40] x [0.3, 4]; 16 eps leaves a margin of 5.
    """

    def __init__(self, k: float, a: float, diagonal: bool) -> None:
        self.s, self.a, self.diagonal = 0.5 * k, a, diagonal
        self.w0, self.w1 = [], []        # (k/2)^j a_j and j (k/2)^j a_j, j >= 1
        self.b, self.e = [1.0], [0.0]
        self.db, self.de = [0.0], [0.0]  # derivatives in a, on the diagonal

    def extend(self) -> None:
        """Append b_n, e_n (and b_n', e_n') for the next n."""
        s, a1, n = self.s, self.a + 1.0, len(self.b)
        self.w0.append((self.w0[-1] if n > 1 else 1.0) * (s / ((s + n - 1.0) * n)))
        self.w1.append(n * self.w0[-1])
        rounding = (-1.0) ** n * _MILLER_ROUNDING * _EPS
        x, y = _dot(self.w1, self.b), _dot(self.w0, self.b)
        xe, ye = _dot(self.w1, self.e), _dot(self.w0, self.e)
        if self.diagonal:
            xd, yd = _dot(self.w1, self.db), _dot(self.w0, self.db)
            xde, yde = _dot(self.w1, self.de), _dot(self.w0, self.de)
            self.db.append((a1 * xd - n * yd + x) / n)
            self.de.append((a1 * xde - n * yde + xe
                            - rounding * (abs(a1 * xd) + abs(n * yd) + abs(x))) / n)
        self.b.append((a1 * x - n * y) / n)
        self.e.append((a1 * xe - n * ye + rounding * (abs(a1 * x) + abs(n * y))) / n)


def _series_sums(lam: float, miller: _Miller) -> tuple | None:
    """(S - 1, S', and their error estimates) for the series of :func:`_lambda_series`.

    S' (the derivative in a) and its estimate are 0 unless the
    coefficients are for the diagonal.  (value, d/da) pairs are carried
    through the coefficients, the Pochhammer factor and (lam / 2a)^n.

    The sum is accepted once two successive terms, each taken with its
    rounding, are below eps/4 of S, the value and on the diagonal the
    derivative both: one small term can be a sign change of b_n.  For a
    non-integer a the series is asymptotic, so the law refuses it (None)
    once a term outgrows both terms before it (the last alone can be
    such a sign change) after the terms have started to shrink, when
    the terms still grow at the third, at the term cap, or at the first
    two terms if they cannot reach eps/4 of S by the cap
    (:func:`_falls_short`).  The estimate is the rounding plus the last
    two terms.
    """
    s, a, diagonal = miller.s, miller.a, miller.diagonal
    b, e, db, de = miller.b, miller.e, miller.db, miller.de   # extend() appends to these
    q, r = a * (s - 1.0), lam / (2.0 * a * s)
    tol = 0.25 * _EPS
    c, dc = 1.0, 0.0             # (a p + 1)_n (lam / 2a k/2)^n and its derivative
    terms, dterms = [], []
    err = derr = 0.0
    last = before = 1.0          # the sizes of the last term and the one before it
    dlast, shrinking, was_small, total = 0.0, False, False, 1.0
    for n in range(1, _SERIES_TERMS + 1):
        if len(b) == n:
            miller.extend()
        bn, en = b[n], abs(e[n])
        c_before, c = c, c * (q + n) * r
        term = bn * c
        size = (abs(bn) + en) * abs(c)
        err += en * abs(c) + (4 * n + 2) * _EPS * abs(term)   # and the rounding of c
        dsize = 0.0
        if diagonal:
            dbn, den = db[n], abs(de[n])
            dc = (dc * (q + n) - c_before * n / a) * r
            dterms.append(dbn * c + bn * dc)
            dsize = (abs(dbn) + den) * abs(c) + (abs(bn) + en) * abs(dc)
            derr += (den * abs(c) + en * abs(dc)
                     + (4 * n + 4) * _EPS * (abs(dbn * c) + abs(bn * dc)))
        terms.append(term)
        total += term
        if not (math.isfinite(total) and math.isfinite(size + dsize)):
            return None
        bound = tol * abs(total)
        small = size < bound and dsize < bound
        if small and was_small:
            t, dt = math.fsum(terms), math.fsum(dterms)
            if not 1.0 + t > 0.0:
                return None
            return (t, dt, err + last + size + _EPS * (1.0 + abs(t)),
                    derr + dlast + dsize + _EPS * abs(dt))
        if size > max(last, before) and (shrinking or n >= 3) or n <= 2 and (
                _falls_short(size, last, n, bound) or _falls_short(dsize, dlast, n, bound)):
            return None
        shrinking = shrinking or size < last
        before, last, dlast, was_small = last, size, dsize, small
    return None


def _falls_short(t: float, t_before: float, n: int, bound: float) -> bool:
    """True if terms n - 1 and n, of sizes ``t_before`` and ``t``, cannot reach
    ``bound`` by term _SERIES_TERMS even by falling like the terms of a
    Poisson law, to t mu^m n! / (n + m)! at term n + m with mu = n t / t_before."""
    return n * t > t_before > 0.0 and (   # mu <= 1 gives at most t n!/40! by the cap
        math.log(t) + (_SERIES_TERMS - n) * math.log(n * t / t_before) + math.lgamma(n + 1.0)
        - math.lgamma(_SERIES_TERMS + 1.0)) > math.log(bound)


def _dot(w: list, b: list) -> float:
    """sum_j w[j-1] b[n-j] for j = 1..n, where n = len(w) = len(b)."""
    return sum(map(operator.mul, w, reversed(b)))


@dataclass(frozen=True)
class LambdaRow:
    lam: float
    result: EntropyResult
    gap_to_central: float | None


def lambda_convergence_study(k: float, spec: EntropySpec,
                             lambda_grid, config: QuadConfig | None = None
                             ) -> list[LambdaRow]:
    """Entropies of NoncentralChiSq(k, lam) along a shrinking lam grid.

    ``lambda_grid`` must be strictly decreasing and nonnegative.  Each
    row carries |H(lam) - H(0)| against the central law when both are
    finite, exposing the continuity of every functional in lam at 0.
    """
    grid = [float(v) for v in lambda_grid]
    if not grid:
        raise ValueError("lambda_grid must be nonempty")
    if any(not math.isfinite(v) or v < 0.0 for v in grid):
        raise ValueError("lambda_grid entries must be finite and >= 0")
    if any(g1 <= g2 for g1, g2 in zip(grid, grid[1:])):
        raise ValueError("lambda_grid must be strictly decreasing")

    central, *results = _entropies(
        [CentralChiSq(k)] + [NoncentralChiSq(k, lam) for lam in grid], spec, config)
    rows = []
    for lam, res in zip(grid, results):
        gap = None
        if res.is_finite and central.is_finite:
            gap = abs(res.value - central.value)
        rows.append(LambdaRow(lam=lam, result=res, gap_to_central=gap))
    return rows
