"""Seeded inputs, ops and output checks of the three workloads.

A run repeats whole rounds.  Round r of a run with seed s draws its
inputs from ``numpy.random.default_rng([s, r])``, so round 0 is the same
in every run with seed s and later rounds draw new laws.
Every round of one workload has the same op types and grid sizes, and
the parameters that set an op's cost are stratified, which keeps the
work per round nearly independent of the seed.

Input envelope.  Three faults of the program make some inputs fail, so
no workload generates them: noncentral laws keep lam <= 500 and every
order <= 4 (``quad._estimate_split`` misses narrow peaks near lam ~ 700
for order 4 and beyond); CIR grids skip 670 <= b t < 750
(``NoncentralChiSq.log_pdf`` overflows log(x / lam) when
0 < lam < ~1e-303; from b t ~ 745.2 on, lam is exactly 0); and the
diagonal generalized Renyi order keeps a (k/2 - 1) + 1 >= 0.5 (below
~0.4 its int f^a log f sometimes ends in non-convergence).
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field

import numpy as np

import chientropy as ce
from chientropy import cli as ce_cli

import oracle

_ONE_INTEGRAL = ("renyi", "tsallis", "sharma-mittal")
_TWO_INTEGRALS = ("gen-renyi", "gen-renyi-diag")
LAM_MAX = 500.0
ORDER_MIN, ORDER_MAX = 0.3, 4.0
_SINGULAR_GAP = 0.1     # orders keep this far from 1 and from each other
_GATE_MARGIN = 0.05     # dof keeps this far from each gate threshold
# f^a ~ x^(q-1) at the origin with q = a (k/2 - 1) + 1; the diagonal
# functional's int f^a log f fails to converge for some laws with q < 0.4
_DIAG_MIN_EXPONENT = 0.5


def round_rng(seed: int, r: int) -> np.random.Generator:
    return np.random.default_rng([seed, r])


def _log_quantile(u: float, lo: float, hi: float) -> float:
    """Point at quantile u of the log-uniform law on [lo, hi]."""
    return float(math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo))))


def _log_uniform(rng, lo: float, hi: float) -> float:
    return _log_quantile(rng.uniform(), lo, hi)


def _strata(rng, n: int) -> np.ndarray:
    """n uniforms on [0, 1), one in each of n equal strata, in random order.

    Stratified draws make the cost of a round nearly the same for every
    seed, so run-to-run spread reflects the program and the host rather
    than which laws a seed happened to draw.
    """
    return (rng.permutation(n) + rng.uniform(size=n)) / n


def _round_stratum(r: int, slot: int, rng, m: int = 3) -> float:
    """Uniform for parameter ``slot`` of round r, cycled over rounds.

    Rounds r, r+1, ..., r+m-1 draw from the middle halves of different
    1/m-wide strata, in the same order for every seed: which seed runs
    changes only where in its stratum each parameter falls.
    """
    return float(((r + slot) % m + 0.25 + 0.5 * rng.uniform()) / m)


def _gate_threshold(orders) -> float:
    return max([1.0] + [2.0 - 2.0 / a for a in orders])


def _order_at(u: float) -> float:
    """Order at quantile u of the uniform law on [0.3, 0.9] and [1.1, 4]."""
    x = ORDER_MIN + u * (ORDER_MAX - ORDER_MIN - 2.0 * _SINGULAR_GAP)
    return float(x if x < 1.0 - _SINGULAR_GAP else x + 2.0 * _SINGULAR_GAP)


def _orders_for(rng, kind: str, k: float, gate_fails: bool, first=None):
    """Orders in [0.3, 4], at least 0.1 from 1 and from each other.

    With ``gate_fails`` one order sits well past the gate for dof k;
    otherwise every order keeps k at least _GATE_MARGIN above its
    threshold.  ``first`` gives the quantiles of the first candidate
    pair; rejected pairs are redrawn from ``rng``.
    """
    if kind == "shannon":
        return None, None
    u = first if first is not None else (rng.uniform(), rng.uniform())
    while True:
        a, b = _order_at(u[0]), _order_at(u[1])
        u = (rng.uniform(), rng.uniform())
        if kind == "gen-renyi" and abs(a - b) < _SINGULAR_GAP:
            continue
        gated = (a, b) if kind == "gen-renyi" else (a,)
        margin = k - _gate_threshold(gated)
        if gate_fails and margin < -_GATE_MARGIN:
            break
        if (not gate_fails and margin > _GATE_MARGIN
                and (kind != "gen-renyi-diag" or a * (0.5 * k - 1.0) + 1.0 >= _DIAG_MIN_EXPONENT)):
            break
    return a, b if kind in ("gen-renyi", "sharma-mittal") else None


def spec_of(kind: str, a, b) -> ce.EntropySpec:
    return ce.EntropySpec(ce.EntropyKind(kind), alpha=a, beta=b)


def _result(res) -> tuple:
    return (res.state, res.value, res.reason)


def _check_result(where: str, got: tuple, ref: tuple, errors: list) -> None:
    """Compare a (state, value, reason) output with an oracle outcome."""
    state, value, reason = got
    ref_state, ref_value = ref
    if state != ref_state:
        errors.append(f"{where}: state {state} ({reason}), oracle {ref}")
    elif state == "finite" and not oracle.close(value, ref_value):
        errors.append(f"{where}: value {value!r}, oracle {ref_value!r}")
    elif state == "undefined" and reason != ref_value:
        errors.append(f"{where}: reason {reason}, oracle {ref_value}")


def reference(law, kind: str, a=None, b=None) -> tuple:
    """Oracle outcome for one law; gamma laws in closed form."""
    if law[0] == "gamma":
        return oracle.gamma_entropy(law[1], law[3], kind, a, b)
    return oracle.entropy_value(law, kind, a, b)


def _law_object(law):
    family, p, lam, scale = law
    if family == "nc":
        base = ce.NoncentralChiSq(p, lam)
    elif family == "chi2":
        base = ce.CentralChiSq(p)
    else:
        return ce.GammaLaw(p, scale)
    return base if scale == 1.0 else ce.ScaledLaw(base, scale)


# --------------------------------------------------------------- law_sweep

@dataclass
class LawOp:
    law: tuple
    kind: str
    alpha: float | None
    beta: float | None
    obj: object = field(repr=False, default=None)
    spec: object = field(repr=False, default=None)


class LawSweep:
    """One op is ``entropy(law, spec)``; no law repeats within a run.

    A round is 20 ops: 15 noncentral, 3 central and 2 gamma laws, with a
    fixed multiset of functional kinds; exactly 2 ops (one noncentral,
    one central) fail the existence gate.  Dof, noncentrality and orders
    are stratified over the round.
    """

    name = "law_sweep"
    kernel_reps = 1           # calib.kernel runs after each op
    _FAMILIES = ("nc",) * 15 + ("chi2",) * 3 + ("gamma",) * 2
    _KINDS = (("shannon",) * 4 + ("renyi",) * 3 + ("gen-renyi",) * 3
              + ("gen-renyi-diag",) * 3 + ("tsallis",) * 4
              + ("sharma-mittal",) * 3)
    _GATE_FAILS = (0, 15)   # positions in _FAMILIES of the gate-failing ops

    def make_round(self, seed: int, r: int) -> list:
        rng = round_rng(seed, r)
        kinds = list(self._KINDS)
        rng.shuffle(kinds)
        # a gate failure needs an order > 2 - 2/k, so never Shannon
        for pos in self._GATE_FAILS:
            if kinds[pos] == "shannon":
                swap = next(i for i, kd in enumerate(kinds)
                            if kd != "shannon" and i not in self._GATE_FAILS)
                kinds[pos], kinds[swap] = kinds[swap], kinds[pos]
        n = len(kinds)
        u_k, u_a, u_b = _strata(rng, n), _strata(rng, n), _strata(rng, n)
        u_lam = iter(_strata(rng, self._FAMILIES.count("nc")))
        ops = []
        for i, (family, kind) in enumerate(zip(self._FAMILIES, kinds)):
            fails = i in self._GATE_FAILS
            k = _log_quantile(u_k[i], 1.05, 1.3 if fails else 12.0)
            a, b = _orders_for(rng, kind, k, fails, (u_a[i], u_b[i]))
            if family == "nc":
                law = ("nc", k, _log_quantile(next(u_lam), 1e-3, LAM_MAX), 1.0)
            elif family == "chi2":
                law = ("chi2", k, 0.0, 1.0)
            else:
                law = ("gamma", 0.5 * k, 0.0, _log_uniform(rng, 0.2, 5.0))
            ops.append(LawOp(law, kind, a, b, _law_object(law), spec_of(kind, a, b)))
        order = rng.permutation(len(ops))
        return [ops[i] for i in order]

    def run(self, op: LawOp):
        return _result(ce.entropy(op.obj, op.spec))

    def check(self, ops, outputs, errors: list) -> None:
        for op, got in zip(ops, outputs):
            _check_result(f"{op}", got, reference(op.law, op.kind, op.alpha, op.beta),
                          errors)


# ---------------------------------------------------------- process_curves

def _feller_params(rng, u_k: float):
    """(a, sigma) with dof 4a/sigma^2 in [2.2, 10], so 2a >= sigma^2."""
    sigma = _log_uniform(rng, 0.4, 1.5)
    k = 2.2 + u_k * (10.0 - 2.2)
    return k * sigma * sigma / 4.0, sigma


def _log_grid(lo: float, hi: float, n: int) -> list:
    return [float(v) for v in np.exp(np.linspace(math.log(lo), math.log(hi), n))]


@dataclass
class ProcOp:
    what: str            # "cir", "bessel", "bzero" or "lambda"
    params: tuple
    grid: tuple
    kind: str
    alpha: float | None
    beta: float | None


class ProcessCurves:
    """One op is one curve (with its limit row) or one study table.

    A round is a CIR curve pair (Shannon and a one-integral kind), a
    squared Bessel curve pair (Shannon and a two-integral kind), both
    on 14-point log time grids, then a 6-row b -> 0 study and a 6-row
    Shannon lam -> 0 study.  The parameters that set an op's cost (dof,
    orders, functional kind) follow a fixed three-round cycle, each
    seed drawing them within the cycle's strata.
    """

    name = "process_curves"
    kernel_reps = 10
    GRID_POINTS = 14
    STUDY_ROWS = 6

    # Noncentralities along each grid follow a fixed profile, so the
    # share of marginals in each log-Bessel regime (and with it the cost
    # of a curve) is the same for every seed; the process parameters
    # still come from the seed.
    CIR_LAM_SCALE = 0.3       # lam(t) = 0.3 e^-bt / (1 - e^-bt), from 300 down to 0
    CIR_BT = (1e-3, 2500.0)   # b t span of a CIR grid
    BESSEL_LAM = (400.0, 2e-3)

    def _cir_grid(self, b: float) -> tuple:
        # b t steps by a factor 3.1: the last two points (805, 2500) are
        # past 745.2, where lam is exactly 0, and none is in [670, 750)
        grid = _log_grid(self.CIR_BT[0] / b, self.CIR_BT[1] / b, self.GRID_POINTS)
        if any(670.0 <= b * t < 750.0 for t in grid):
            raise RuntimeError("CIR grid enters the skipped window 670 <= b t < 750")
        return tuple(grid)

    def make_round(self, seed: int, r: int) -> list:
        rng = round_rng(seed, r)

        def u(slot: int) -> float:
            return _round_stratum(r, slot, rng)

        def pick(slot: int, kinds: tuple) -> str:
            return kinds[(r + slot) % len(kinds)]

        ops = []
        a, sigma = _feller_params(rng, u(0))
        b = _log_uniform(rng, 0.1, 3.0)
        r0 = self.CIR_LAM_SCALE * sigma * sigma / (4.0 * b)
        grid = self._cir_grid(b)
        k = 4.0 * a / (sigma * sigma)
        for kind in ("shannon", pick(0, _ONE_INTEGRAL)):
            al, be = _orders_for(rng, kind, k, False, (u(1), u(2)))
            ops.append(ProcOp("cir", (a, b, sigma, r0), grid, kind, al, be))

        a, sigma = _feller_params(rng, u(3))
        y0 = _log_uniform(rng, 0.2, 5.0)
        # lam = 4 y0 / (sigma^2 t) runs from 400 to 2e-3: t >= 100 at the end
        grid = tuple(4.0 * y0 / (sigma * sigma * lam)
                     for lam in _log_grid(*self.BESSEL_LAM, self.GRID_POINTS))
        k = 4.0 * a / (sigma * sigma)
        for kind in ("shannon", pick(1, _TWO_INTEGRALS)):
            al, be = _orders_for(rng, kind, k, False, (u(4), u(5)))
            ops.append(ProcOp("bessel", (a, sigma, y0), grid, kind, al, be))

        a, sigma = _feller_params(rng, u(6))
        t = _log_uniform(rng, 0.5, 5.0)
        # lam at b -> 0 is 4 r0 / (sigma^2 t), here in [2, 20]
        r0 = _log_quantile(u(7), 2.0, 20.0) * sigma * sigma * t / 4.0
        b0 = _log_uniform(rng, 0.5, 2.0)
        b_grid = tuple(b0 * 0.3 ** i for i in range(self.STUDY_ROWS))
        kind = pick(2, _ONE_INTEGRAL)
        al, be = _orders_for(rng, kind, 4.0 * a / (sigma * sigma), False, (u(8), u(9)))
        ops.append(ProcOp("bzero", (a, sigma, r0, t), b_grid, kind, al, be))

        k = _log_quantile(u(10), 1.5, 10.0)
        lam0 = _log_uniform(rng, 0.05, 0.2)
        lam_grid = tuple(lam0 * 0.3 ** i for i in range(self.STUDY_ROWS))
        ops.append(ProcOp("lambda", (k,), lam_grid, "shannon", None, None))
        order = rng.permutation(len(ops))
        return [ops[i] for i in order]

    def run(self, op: ProcOp):
        spec = spec_of(op.kind, op.alpha, op.beta)
        if op.what == "cir":
            params = ce.CIRParams(*op.params)
            rows = ce.entropy_curve(params, ce.TimeGrid(op.grid), spec)
            return ([(row.t, _result(row.result)) for row in rows],
                    _result(ce.cir_limit_entropy(params, spec)))
        if op.what == "bessel":
            params = ce.BesselParams(*op.params)
            rows = ce.entropy_curve(params, ce.TimeGrid(op.grid), spec)
            return ([(row.t, _result(row.result)) for row in rows],
                    _result(ce.bessel_limit_entropy(spec)))
        if op.what == "bzero":
            a, sigma, r0, t = op.params
            rows = ce.b_to_zero_study(a, sigma, r0, t, op.grid, spec)
            return [(row.b, _result(row.result), row.gap_to_bessel) for row in rows]
        rows = ce.lambda_convergence_study(op.params[0], spec, op.grid)
        return [(row.lam, _result(row.result), row.gap_to_central) for row in rows]

    def check(self, ops, outputs, errors: list) -> None:
        for op, out in zip(ops, outputs):
            getattr(self, "_check_" + op.what)(op, out, errors)

    def _check_cir(self, op, out, errors):
        a, b, sigma, r0 = op.params
        rows, limit = out
        ref_limit = oracle.gamma_entropy(2.0 * a / sigma ** 2, sigma ** 2 / (2.0 * b),
                                         op.kind, op.alpha, op.beta)
        _check_result(f"{op} limit", limit, ref_limit, errors)
        for t, got in rows:
            _check_result(f"{op} t={t}", got,
                          oracle.entropy_value(oracle.cir_law(a, b, sigma, r0, t),
                                               op.kind, op.alpha, op.beta), errors)
            # by b t = 40, lam < 5 r0 e^-40 / c and c is within e^-40 of its limit
            if b * t >= 40.0 and not oracle.close(got[1], ref_limit[1]):
                errors.append(f"{op} t={t}: {got[1]!r} not at the gamma limit "
                              f"{ref_limit[1]!r}")

    def _check_bessel(self, op, out, errors):
        a, sigma, y0 = op.params
        rows, limit = out
        if op.kind == "tsallis" and op.alpha > 1.0:
            ref_limit = ("finite", 1.0 / (op.alpha - 1.0))
        elif op.kind == "sharma-mittal" and op.beta > 1.0:
            ref_limit = ("finite", 1.0 / (op.beta - 1.0))
        else:
            ref_limit = ("infinite", None)
        _check_result(f"{op} limit", limit, ref_limit, errors)
        k = 4.0 * a / sigma ** 2
        h_central = oracle.gamma_shannon(0.5 * k, 2.0)
        for t, got in rows:
            _check_result(f"{op} t={t}", got,
                          oracle.entropy_value(oracle.bessel_law(a, sigma, y0, t),
                                               op.kind, op.alpha, op.beta), errors)
            if op.kind == "shannon" and t >= 100.0 and got[0] == "finite":
                # gap = lam/k - lam^2/(k (k+2)) + ..., with lam/k = y0/(a t)
                lam = 4.0 * y0 / (sigma * sigma * t)
                t_gap = t * (got[1] - math.log(sigma * sigma * t / 4.0) - h_central)
                if abs(t_gap - y0 / a) > (y0 / a) * lam / 2.0 + 1e-8 * t:
                    errors.append(f"{op} t={t}: t*gap {t_gap!r}, rate y0/a {y0 / a!r}")

    def _check_bzero(self, op, out, errors):
        a, sigma, r0, t = op.params
        ref_bessel = oracle.entropy_value(oracle.bessel_law(a, sigma, r0, t),
                                          op.kind, op.alpha, op.beta)
        last_gap = math.inf
        for b, got, gap in out:
            ref = oracle.entropy_value(oracle.cir_law(a, b, sigma, r0, t),
                                       op.kind, op.alpha, op.beta)
            _check_result(f"{op} b={b}", got, ref, errors)
            ref_gap = abs(ref[1] - ref_bessel[1])
            if gap is None or abs(gap - ref_gap) > 1e-8 * (1.0 + abs(ref[1])):
                errors.append(f"{op} b={b}: gap {gap!r}, oracle {ref_gap!r}")
            elif gap > last_gap:
                errors.append(f"{op} b={b}: gap {gap!r} grew from {last_gap!r}")
            else:
                last_gap = gap

    def _check_lambda(self, op, out, errors):
        k = op.params[0]
        h_central = oracle.gamma_shannon(0.5 * k, 2.0)
        for lam, got, gap in out:
            ref = oracle.entropy_value(("nc", k, lam, 1.0), "shannon")
            _check_result(f"{op} lam={lam}", got, ref, errors)
            if gap is None or abs(gap - abs(ref[1] - h_central)) > 1e-8 * (1.0 + abs(ref[1])):
                errors.append(f"{op} lam={lam}: gap {gap!r}, oracle "
                              f"{abs(ref[1] - h_central)!r}")
            # dH/dlam at 0 is 1/k; the next term is -lam/(k (k+2))
            elif abs(gap / lam - 1.0 / k) > lam / k:
                errors.append(f"{op} lam={lam}: gap/lam {gap / lam!r}, 1/k {1.0 / k!r}")


# ------------------------------------------------------------- cli_session

EXIT_CODES = {"finite": 0, "undefined": 3, "infinite": 4}   # README table


@dataclass
class CliOp:
    argv: tuple
    expect: str          # kind of check, see CliSession.check
    detail: tuple        # what the check needs
    code: int            # expected exit code


def _fmt(v: float) -> str:
    return repr(float(v))


def _kind_args(kind, a, b) -> list:
    out = ["--kind", kind]
    if a is not None:
        out += ["--alpha", _fmt(a)]
    if b is not None:
        out += ["--beta", _fmt(b)]
    return out


def _parse(stdout: str, fmt: str) -> list:
    """CLI output as a list of dicts with float cells where numeric."""
    if fmt == "json":
        data = json.loads(stdout)
        return data if isinstance(data, list) else [data]
    rows = list(csv.DictReader(io.StringIO(stdout)))
    for row in rows:
        for key, val in row.items():
            try:
                row[key] = float(val)
            except ValueError:
                row[key] = None if val == "" else val
    return rows


class CliSession:
    """One op is one ``python -m chientropy`` process; 15 per session.

    The session covers all five subcommands, both output formats and
    exit codes 0, 3 and 4.  Only ``validate --n 1000000`` computes for
    long; it is also the one op on the vectorised ``log_pdf`` path.
    """

    name = "cli_session"
    kernel_reps = 0
    process_kernel_every = 3  # one calib.process_kernel run after every third op
    in_process = False

    def make_round(self, seed: int, r: int) -> list:
        rng = round_rng(seed, r)
        ops = []

        def law_op(fmt, family, kind, gate_fails=False, factor=None):
            k = _log_uniform(rng, 1.05, 1.3) if gate_fails else float(rng.uniform(2.0, 10.0))
            a, b = _orders_for(rng, kind, k, gate_fails)
            if family == "ncchisq":
                lam = _log_uniform(rng, 0.01, 100.0)
                law = ("nc", k, lam, factor or 1.0)
                args = ["--dist", "ncchisq", "--k", _fmt(k), "--lambda", _fmt(lam)]
            elif family == "chisq":
                law = ("chi2", k, 0.0, factor or 1.0)
                args = ["--dist", "chisq", "--k", _fmt(k)]
            else:
                scale = _log_uniform(rng, 0.2, 5.0)
                law = ("gamma", 0.5 * k, 0.0, scale)
                args = ["--dist", "gamma", "--shape", _fmt(0.5 * k), "--scale", _fmt(scale)]
            if factor is not None:
                args += ["--scale-factor", _fmt(factor)]
            argv = ["entropy", *args, *_kind_args(kind, a, b), "--format", fmt]
            state = "undefined" if gate_fails else "finite"
            ops.append(CliOp(tuple(argv), "entropy", (law, kind, a, b), EXIT_CODES[state]))

        law_op("csv", "ncchisq", "shannon")
        law_op("json", "ncchisq", "renyi")
        law_op("csv", "chisq", "renyi", gate_fails=True)
        law_op("json", "gamma", "tsallis")
        law_op("csv", "ncchisq", "gen-renyi-diag", factor=_log_uniform(rng, 0.1, 10.0))
        law_op("json", "ncchisq", "sharma-mittal")
        law_op("json", "gamma", "gen-renyi", gate_fails=True)

        a, sigma = _feller_params(rng, rng.uniform())
        b, r0 = _log_uniform(rng, 0.1, 3.0), _log_uniform(rng, 0.2, 5.0)
        times = tuple(_log_grid(4.0 * r0 / (100.0 * sigma * sigma), 20.0 / b, 4))
        cir = ["--process", "cir", "--a", _fmt(a), "--b", _fmt(b),
               "--sigma", _fmt(sigma), "--r0", _fmt(r0)]
        ops.append(CliOp(("curve", *cir, "--times", ",".join(map(_fmt, times)),
                          "--kind", "shannon", "--format", "csv"),
                         "cir-curve", ((a, b, sigma, r0), times, "shannon"), 0))
        ops.append(CliOp(("limits", *cir, "--kind", "shannon", "--format", "csv"),
                         "cir-limit", ((a, b, sigma, r0), "shannon"), 0))

        a, sigma = _feller_params(rng, rng.uniform())
        y0 = _log_uniform(rng, 0.2, 5.0)
        times = tuple(_log_grid(4.0 * y0 / (100.0 * sigma * sigma), 1e3, 3))
        alpha = float(rng.uniform(1.2, 3.0))
        ops.append(CliOp(("curve", "--process", "bessel", "--a", _fmt(a),
                          "--sigma", _fmt(sigma), "--y0", _fmt(y0),
                          "--times", ",".join(map(_fmt, times)),
                          "--kind", "tsallis", "--alpha", _fmt(alpha), "--format", "json"),
                         "bessel-curve", ((a, sigma, y0), times, "tsallis", alpha), 0))
        ops.append(CliOp(("limits", "--process", "bessel", "--kind", "shannon",
                          "--format", "json"), "bessel-limit", ("shannon", None), 4))
        ops.append(CliOp(("limits", "--process", "bessel", "--kind", "tsallis",
                          "--alpha", _fmt(alpha), "--format", "csv"),
                         "bessel-limit", ("tsallis", alpha), 0))

        k = _log_uniform(rng, 1.5, 10.0)
        grid = (0.1, 0.01)
        ops.append(CliOp(("study", "lambda-to-zero", "--k", _fmt(k), "--kind", "shannon",
                          "--grid", ",".join(map(_fmt, grid)), "--format", "csv"),
                         "lambda-study", (k, grid), 0))
        a, sigma = _feller_params(rng, rng.uniform())
        r0, t = _log_uniform(rng, 0.2, 5.0), _log_uniform(rng, 0.5, 5.0)
        grid = (1.0, 0.1, 0.01)
        ops.append(CliOp(("study", "b-to-zero", "--a", _fmt(a), "--sigma", _fmt(sigma),
                          "--r0", _fmt(r0), "--t", _fmt(t), "--kind", "shannon",
                          "--grid", ",".join(map(_fmt, grid)), "--format", "json"),
                         "bzero-study", ((a, sigma, r0, t), grid), 0))
        # sqrt(lam x) stays below 30 for every draw, so all points take one
        # log-Bessel regime and peak memory does not depend on the seed
        k, lam = float(rng.uniform(3.0, 6.0)), float(rng.uniform(2.0, 8.0))
        mc_seed = int(rng.integers(1, 2 ** 31))
        ops.append(CliOp(("--seed", str(mc_seed), "validate", "--k", _fmt(k),
                          "--lambda", _fmt(lam), "--n", "1000000", "--format", "csv"),
                         "validate", (k, lam), 0))
        order = rng.permutation(len(ops))
        return [ops[i] for i in order]

    def run(self, op: CliOp):
        if self.in_process:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = ce_cli.main(list(op.argv))
            return code, buf.getvalue()
        env = dict(os.environ, PYTHONPATH="src")
        proc = subprocess.run([sys.executable, "-m", "chientropy", *op.argv],
                              capture_output=True, text=True, env=env, check=False)
        return proc.returncode, proc.stdout

    def check(self, ops, outputs, errors: list) -> None:
        for op, (code, stdout) in zip(ops, outputs):
            where = " ".join(op.argv)
            if code != op.code:
                errors.append(f"{where}: exit code {code}, expected {op.code}")
                continue
            fmt = op.argv[op.argv.index("--format") + 1]
            try:
                rows = _parse(stdout, fmt)
            except (ValueError, json.JSONDecodeError) as exc:
                errors.append(f"{where}: unparsable output ({exc})")
                continue
            try:
                getattr(self, "_check_" + op.expect.replace("-", "_"))(where, op, rows, errors)
            except (KeyError, IndexError, TypeError) as exc:
                errors.append(f"{where}: malformed output ({type(exc).__name__}: {exc})")

    @staticmethod
    def _cells(row) -> tuple:
        return (row["state"], row["value"], row.get("reason"))

    def _check_entropy(self, where, op, rows, errors):
        law, kind, a, b = op.detail
        got = self._cells(rows[0])
        if got[0] == "undefined":
            got = (got[0], None, got[2])
        _check_result(where, got, reference(law, kind, a, b), errors)
        if EXIT_CODES[got[0]] != op.code:
            errors.append(f"{where}: state {got[0]} does not match exit code {op.code}")

    def _check_cir_curve(self, where, op, rows, errors):
        (a, b, sigma, r0), times, kind = op.detail
        for t, row in zip(times, rows):
            ref = oracle.entropy_value(oracle.cir_law(a, b, sigma, r0, t), kind)
            _check_result(f"{where} t={t}", self._cells(row), ref, errors)
        limit = oracle.gamma_entropy(2.0 * a / sigma ** 2, sigma ** 2 / (2.0 * b), kind)
        if rows[-1]["t"] != "limit" or len(rows) != len(times) + 1:
            errors.append(f"{where}: no limit row")
        else:
            _check_result(f"{where} limit", self._cells(rows[-1]), limit, errors)

    def _check_cir_limit(self, where, op, rows, errors):
        (a, b, sigma, r0), kind = op.detail
        limit = oracle.gamma_entropy(2.0 * a / sigma ** 2, sigma ** 2 / (2.0 * b), kind)
        _check_result(where, self._cells(rows[0]), limit, errors)

    def _check_bessel_curve(self, where, op, rows, errors):
        (a, sigma, y0), times, kind, alpha = op.detail
        if len(rows) != len(times):
            errors.append(f"{where}: {len(rows)} rows for {len(times)} times")
        for t, row in zip(times, rows):
            ref = oracle.entropy_value(oracle.bessel_law(a, sigma, y0, t), kind, alpha)
            _check_result(f"{where} t={t}", self._cells(row), ref, errors)

    def _check_bessel_limit(self, where, op, rows, errors):
        kind, alpha = op.detail
        ref = (("finite", 1.0 / (alpha - 1.0)) if kind == "tsallis" and alpha > 1.0
               else ("infinite", None))
        state, value, reason = self._cells(rows[0])
        if state == "infinite":
            value = None   # printed as null in JSON and inf in CSV
        _check_result(where, (state, value, reason), ref, errors)

    def _check_lambda_study(self, where, op, rows, errors):
        k, grid = op.detail
        h_central = oracle.gamma_shannon(0.5 * k, 2.0)
        for lam, row in zip(grid, rows):
            ref = oracle.entropy_value(("nc", k, lam, 1.0), "shannon")
            _check_result(f"{where} lam={lam}", self._cells(row), ref, errors)
            if not oracle.close(row["gap"], abs(ref[1] - h_central)):
                errors.append(f"{where} lam={lam}: gap {row['gap']!r}")

    def _check_bzero_study(self, where, op, rows, errors):
        (a, sigma, r0, t), grid = op.detail
        ref_bessel = oracle.entropy_value(oracle.bessel_law(a, sigma, r0, t), "shannon")
        last = math.inf
        for b, row in zip(grid, rows):
            ref = oracle.entropy_value(oracle.cir_law(a, b, sigma, r0, t), "shannon")
            _check_result(f"{where} b={b}", self._cells(row), ref, errors)
            gap = row["gap"]
            if not oracle.close(gap, abs(ref[1] - ref_bessel[1])) or gap > last:
                errors.append(f"{where} b={b}: gap {gap!r}")
            else:
                last = gap

    def _check_validate(self, where, op, rows, errors):
        k, lam = op.detail
        row = rows[0]
        ref = oracle.entropy_value(("nc", k, lam, 1.0), "shannon")
        if not oracle.close(row["quadrature"], ref[1]):
            errors.append(f"{where}: quadrature {row['quadrature']!r}, oracle {ref[1]!r}")
        if row["verdict"] != "pass" or abs(row["quadrature"] - row["mc_estimate"]) > 4.0 * row["std_error"]:
            errors.append(f"{where}: Monte Carlo estimate {row['mc_estimate']!r} "
                          f"+- {row['std_error']!r} against {row['quadrature']!r}")


WORKLOADS = {w.name: w for w in (LawSweep(), ProcessCurves(), CliSession())}
