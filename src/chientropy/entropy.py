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
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import gammaln, psi

from .dist import CentralChiSq, Law, NoncentralChiSq, _nc_log_pdf, _triple_of
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

    ``finite`` carries a value (and the quadrature error estimate when
    one exists); ``infinite`` means the functional diverges to +inf;
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
        return cls(STATE_FINITE, value=float(value), error_estimate=error_estimate)

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

    On (0, x0) every density of the family is C x^p with p = k/2 - 1 to
    a relative 1e-17: for a law c NC(k, lam) the first correction term
    is at most x mean / (2 k c^2), and x0 = 1e-17 k var^2 / (8 mean^3)
    keeps it below that.  The piece is taken in closed form, so the
    nodes never come near the origin, where f^a can overflow for laws
    close to the gate.

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
    cfg = config if config is not None else QuadConfig()
    triples = [_triple_of(law) for law in laws]
    k = triples[0][0]
    noncentral = all(lam > 0.0 and c == 1.0 for _, lam, c in triples)
    if noncentral:
        lam = [t[1] for t in triples]
        columns = [np.array(v)[:, None] for v in (
            lam, [math.log(v) for v in lam], [math.sqrt(v) for v in lam])]

    def log_f(x, i):
        try:
            if not noncentral:
                return laws[0].log_pdf(x)
            return _nc_log_pdf(x, k, *[col[i] for col in columns])
        except ValueError as exc:
            raise NonConvergence(str(exc), math.nan, math.inf, 0) from exc

    p = 0.5 * k - 1.0
    mean = [law.mean for law in laws]
    var = [law.variance for law in laws]
    x0 = [1e-17 * k * (v / m) * (v / m / m) / 8.0 for m, v in zip(mean, var)]
    todo = [row for row in rows if row != (1.0, "power")]

    def origin(log_c, log_x0, a, kind):
        q = a * p + 1.0
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
        log_x0 = [math.log(x) for x in x0]
        log_c = [lf - p * lx for lf, lx in zip(
            log_f(np.array(x0)[:, None], np.arange(len(laws)))[:, 0].tolist(), log_x0)]
        results = integrate_rows(
            g, x0, mean if cfg.split_point is None else cfg.split_point,
            [math.sqrt(v) for v in var], cfg,
            offset=[[origin(lc, lx, a, kind) for a, kind in todo]
                    for lc, lx in zip(log_c, log_x0)])
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
            got = {(1.0, "power"): QuadResult(1.0, 0.0, 0, True, 1.0), **dict(zip(todo, res))}
            for a, kind in todo:
                r = got[a, kind]
                slack = got[a, "power"].value + a * r.magnitude if kind == "log" else a * r.value
                got[a, kind] = replace(r, error_estimate=r.error_estimate + d * slack)
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


def _assemble(family: EntropyKind, a: float, b: float, u: tuple,
              v: tuple = (0.0, 0.0)) -> EntropyResult:
    """The entropy of ``family`` at orders (a, b) as a finite result.

    ``u`` is (log int f^a, its error estimate) and ``v`` the same for
    order b, which only generalized Renyi reads; on the diagonal ``u``
    holds the entropy itself.  An error estimate of None marks an exact
    input.
    """
    (lu, du), (lv, dv) = u, v
    if family is EntropyKind.GEN_RENYI_DIAG:
        return EntropyResult.finite(lu, du)
    if family is EntropyKind.GEN_RENYI:
        value = (lu - lv) / (b - a)
        err = None if du is None else (du + dv) / abs(b - a)
    else:
        expo = (1.0 - b) / (1.0 - a)
        value = math.expm1(expo * lu) / (1.0 - b)
        err = None if du is None else abs(expo) * math.exp(expo * lu) * du / abs(1.0 - b)
    return EntropyResult.finite(value, err)


def entropy(law: Law, spec: EntropySpec,
            config: QuadConfig | None = None, *,
            scaled_direct: bool = False) -> EntropyResult:
    """Evaluate ``spec`` on ``law``; never raises for in-domain laws.

    After the parameter exclusions and the existence gate on k, the law
    c NC(k, lam) takes one of two routes: at lam = 0, the closed form of
    the gamma law with shape k/2 and scale 2c (error estimate None);
    otherwise quadrature of NC(k, lam) and :func:`scale_transform` by c.
    ``scaled_direct=True`` integrates the law's own density instead,
    for cross-checking.
    """
    return _entropies([law], spec, config, scaled_direct=scaled_direct)[0]


def _entropies(laws: list, spec: EntropySpec, config: QuadConfig | None = None, *,
               scaled_direct: bool = False) -> list[EntropyResult]:
    """:func:`entropy` of each law, the noncentral laws of one k together.

    Each result has the state and reason :func:`entropy` gives for that
    law alone, and its value and error estimate to 1e-14 relative: they
    are bit-identical where ``ive`` gives log I, while the log-Bessel
    fallbacks sum until every point of the array has converged, which
    can move a value by a few ulps.
    """
    triples = [_triple_of(law) for law in laws]
    family, a, b = _family(spec)
    if _excluded(family, a, b):
        return [EntropyResult.undefined(REASON_PARAMETER)] * len(laws)
    out = [None] * len(laws)
    sweeps = {}   # k -> indices of the laws NC(k, lam) integrates for
    for i, (law, (k, lam, c)) in enumerate(zip(laws, triples)):
        if not existence_gate(k, spec):
            out[i] = EntropyResult.undefined(REASON_GATE)
        elif scaled_direct:
            (out[i],) = _entropy_quadrature([law], family, a, b, config)
        elif lam == 0.0:
            out[i] = _gamma_closed_form(0.5 * k, 2.0 * c, family, a, b)
        else:
            sweeps.setdefault(k, []).append(i)
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
        rows = [(o, "power") for o in ((a, b) if family is EntropyKind.GEN_RENYI else (a,))]
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


def _gamma_log_integral_moment(shape: float, scale: float, a: float) -> float:
    """log int f^a for a GammaLaw f, valid when a (shape-1) + 1 > 0.

    int f^a = Gamma(a(s-1)+1) / (Gamma(s)^a a^(a(s-1)+1) theta^(a-1)),
    and 0 exactly at a = 1 for shape > 1/2, where a(s-1)+1 is s.
    """
    g = a * (shape - 1.0) + 1.0
    return (gammaln(g) - a * gammaln(shape)
            + (1.0 - a) * math.log(scale) - g * math.log(a))


def _gamma_closed_form(s: float, theta: float, family: EntropyKind,
                       a: float, b: float) -> EntropyResult:
    """The functional of a gamma law with shape s and scale theta, exactly."""
    if family is EntropyKind.GEN_RENYI_DIAG:
        # at a = 1 this is the Shannon entropy term for term: the gate
        # keeps s > 1/2, where s - 1, 1 + (s - 1) and g are exact
        g = a * (s - 1.0) + 1.0
        value = (math.log(theta) + gammaln(s) + (1.0 / a + (s - 1.0))
                 + (1.0 - s) * (psi(g) - math.log(a)))
        return _assemble(family, a, b, (value, None))
    orders = (a, b) if family is EntropyKind.GEN_RENYI else (a,)
    return _assemble(family, a, b, *[(_gamma_log_integral_moment(s, theta, o), None)
                                     for o in orders])


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
