"""Acceptance gate: the eleven top-level criteria, one test and one
printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see every line;
without ``-s`` pytest still shows the line for any failing criterion.
"""

import math
import subprocess
import sys
import time

import numpy as np

from chientropy.dist import CentralChiSq, GammaLaw, NoncentralChiSq, ScaledLaw
from chientropy.entropy import (
    REASON_GATE,
    EntropySpec,
    entropy,
    existence_gate,
)
from chientropy.proc import BesselParams, CIRParams, b_to_zero_study, bessel_marginal, cir_marginal, cir_limit_entropy
from chientropy.quad import NonConvergence, QuadConfig, integrate_halfline
from chientropy.specfun import log_bessel_i
from support import bessel_i_bounds, gamma_log_integral, pdf_log_bounds


def _report(num: int, name: str, ok: bool) -> bool:
    print(f"criterion {num:02d} ({name}): {'PASS' if ok else 'FAIL'}")
    return ok


REPRESENTATIVE_SPECS = [
    EntropySpec.shannon(),
    EntropySpec.renyi(2.0),
    EntropySpec.gen_renyi(0.5, 2.0),
    EntropySpec.gen_renyi_diag(2.0),
    EntropySpec.tsallis(2.0),
    EntropySpec.sharma_mittal(2.0, 3.0),
]


def _all_specs(order_grid):
    """Every admissible spec with parameters drawn from order_grid."""
    specs = [EntropySpec.shannon()]
    for a in order_grid:
        if a != 1.0:
            specs.append(EntropySpec.renyi(a))
            specs.append(EntropySpec.tsallis(a))
        specs.append(EntropySpec.gen_renyi_diag(a))
        for b in order_grid:
            if b != a:
                specs.append(EntropySpec.gen_renyi(a, b))
            if a != 1.0 and b != 1.0:
                specs.append(EntropySpec.sharma_mittal(a, b))
    return specs


def test_criterion_01_closed_form_oracle_suite():
    start = time.monotonic()
    grid = [0.5, 0.75, 1.5, 2.0, 3.0]
    worst = 0.0
    checked = 0
    for k in (1.5, 2.0, 3.0, 4.5, 8.0):
        law = CentralChiSq(k)
        for spec in _all_specs(grid):
            if not existence_gate(k, spec):
                continue
            got = entropy(law, spec, scaled_direct=True).value
            want = entropy(GammaLaw(0.5 * k, 2.0), spec).value
            worst = max(worst, abs(got - want) / abs(want))
            checked += 1
    elapsed = time.monotonic() - start
    ok = worst <= 1e-8 and elapsed < 60.0 and checked >= 300
    assert _report(1, "closed-form oracle suite", ok), \
        f"worst rel err {worst:.3g}, {checked} cases, {elapsed:.1f}s"


def test_criterion_02_lambda_to_zero_convergence():
    ok = True
    detail = []
    for k in (2.0, 4.0):
        for spec in REPRESENTATIVE_SPECS:
            central = entropy(CentralChiSq(k), spec).value
            gaps = [abs(entropy(NoncentralChiSq(k, 10.0 ** -j), spec).value - central)
                    for j in range(0, 7)]
            decreasing = all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:]))
            small = gaps[6] < 1e-5
            if not (decreasing and small):
                ok = False
                detail.append(f"k={k} {spec.kind.value}: gaps={gaps}")
    assert _report(2, "lambda-to-zero convergence", ok), "; ".join(detail)


def test_criterion_03_existence_gate():
    res = entropy(CentralChiSq(1.2), EntropySpec.renyi(4.0))
    undefined = res.is_undefined and res.reason == REASON_GATE

    # direct quadrature of the divergent integral f^4 under tightening
    # tolerances must either refuse to converge or keep growing
    law = CentralChiSq(1.2)

    def integrand(x):
        return math.exp(4.0 * law.log_pdf(x))

    outcomes = []
    for rel in (1e-6, 1e-8, 1e-10, 1e-12):
        try:
            r = integrate_halfline(integrand, QuadConfig(rel_tol=rel, abs_tol=1e-16))
            outcomes.append(("value", r.value))
        except NonConvergence as exc:
            outcomes.append(("non-convergence", exc.value))
    values = [v for tag, v in outcomes if tag == "value"]
    refused = any(tag == "non-convergence" for tag, _ in outcomes)
    growing = len(values) == len(outcomes) and all(
        v2 > v1 for v1, v2 in zip(values, values[1:]))
    ok = undefined and (refused or growing)
    assert _report(3, "existence gate", ok), f"outcomes: {outcomes}"


def test_criterion_04_cir_long_time_limit():
    ok = True
    detail = []
    for b in (0.5, 1.0):
        params = CIRParams(1.0, b, 1.0, 1.0)
        law = cir_marginal(params, 60.0 / b)
        for spec in REPRESENTATIVE_SPECS:
            gap = abs(entropy(law, spec).value
                      - cir_limit_entropy(params, spec).value)
            if not gap < 1e-6:
                ok = False
                detail.append(f"b={b} {spec.kind.value}: gap={gap:.3g}")
    assert _report(4, "CIR long-time limit", ok), "; ".join(detail)


def test_criterion_05_bessel_shannon_divergence():
    params = BesselParams(1.0, 1.0, 1.0)
    target = entropy(GammaLaw(2.0, 2.0), EntropySpec.shannon()).value
    raw = {}
    signed_gap = {}
    gap = {}
    for t in (1e2, 1e3, 1e4):
        h = entropy(bessel_marginal(params, t), EntropySpec.shannon()).value
        raw[t] = h
        signed_gap[t] = h - math.log(t / 4.0) - target
        gap[t] = abs(signed_gap[t])
    increasing = raw[1e2] < raw[1e3] < raw[1e4]
    # The gap decays like 1/t with a known coefficient.  The Poisson
    # mixture gives d f / d lam at lam = 0 equal to (f_{k+2} - f_k) / 2,
    # and E_{k+2}[log X] - E_k[log X] = 2/k, E_{k+2}[X] - E_k[X] = 2, so
    # dH/dlam at 0 is 1/k.  With k = 4a/sigma^2 and lam = 4 y0/(sigma^2 t)
    # this is gap = y0/(a t) + O(1/t^2).  The O(1/t^2) term is about
    # -2/(3 t^2) here, so t*gap misses y0/a by ~6.7e-4 at t = 1e3.
    predicted = params.y0 / params.a
    rate = {t: t * signed_gap[t] for t in (1e3, 1e4)}
    rate_ok = all(abs(r - predicted) < 1e-3 for r in rate.values())
    ok = increasing and rate_ok and gap[1e4] < 1e-4
    assert _report(5, "Bessel Shannon divergence", ok), \
        (f"t*gap: t=1e3 {rate[1e3]:.6g}, t=1e4 {rate[1e4]:.6g} "
         f"(predicted y0/a = {predicted:.6g}); gap t=1e4 {gap[1e4]:.3g}; "
         f"increasing={increasing}")


def test_criterion_06_bessel_dichotomy():
    params = BesselParams(1.0, 1.0, 1.0)
    t2 = entropy(bessel_marginal(params, 1e4), EntropySpec.tsallis(2.0)).value
    sm = entropy(bessel_marginal(params, 1e4), EntropySpec.sharma_mittal(2.0, 3.0)).value
    th_small = entropy(bessel_marginal(params, 1e2), EntropySpec.tsallis(0.5)).value
    th_large = entropy(bessel_marginal(params, 1e4), EntropySpec.tsallis(0.5)).value
    ok = (abs(t2 - 1.0) < 1e-3 and abs(sm - 0.5) < 1e-3
          and th_large > 5.0 * th_small)
    assert _report(6, "Bessel dichotomy", ok), \
        f"tsallis2={t2}, sm23={sm}, ratio={th_large / th_small:.2f}"


def test_criterion_07_b_to_zero():
    grid = [10.0 ** -j for j in range(0, 6)]
    ok = True
    detail = []
    for spec in (EntropySpec.shannon(), EntropySpec.tsallis(2.0)):
        rows = b_to_zero_study(1.0, 1.0, 1.0, 1.0, grid, spec)
        gaps = [r.gap_to_bessel for r in rows]
        decreasing = all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:]))
        if not (decreasing and gaps[-1] < 1e-4):
            ok = False
            detail.append(f"{spec.kind.value}: gaps={gaps}")
    assert _report(7, "b-to-zero convergence", ok), "; ".join(detail)


def test_criterion_08_scaling_identities():
    ok = True
    detail = []
    for c in (0.1, 1.0, 7.0):
        for lam in (0.0, 4.0):
            law = ScaledLaw(NoncentralChiSq(4.0, lam), c)
            for spec in REPRESENTATIVE_SPECS:
                direct = entropy(law, spec, scaled_direct=True).value
                via_transform = entropy(law, spec).value
                rel = abs(direct - via_transform) / max(abs(direct), 1e-300)
                if not rel <= 1e-8:
                    ok = False
                    detail.append(f"C={c} lam={lam} {spec.kind.value}: rel={rel:.3g}")
    assert _report(8, "scaling identities", ok), "; ".join(detail)


def test_criterion_09_bracket_sweeps():
    rng = np.random.default_rng(20260814)
    bessel_violations = 0
    for _ in range(10_000):
        nu = rng.uniform(-0.49, 50.0)
        x = rng.uniform(0.0, 100.0) or 1e-3  # x must stay in (0, 100]
        lo, hi = bessel_i_bounds(nu, x)
        val = math.exp(log_bessel_i(nu, x))
        if not (lo < val < hi):
            bessel_violations += 1
    pdf_violations = 0
    for _ in range(10_000):
        k = rng.uniform(1.0, 20.0)
        lam = rng.uniform(0.0, 30.0)
        x = rng.uniform(0.0, 100.0)
        # open lower endpoints
        k = k if k > 1.0 else 1.5
        lam = lam if lam > 0.0 else 1e-3
        x = x if x > 0.0 else 1e-3
        law = NoncentralChiSq(k, lam)
        lo, hi = pdf_log_bounds(law, x)
        val = law.log_pdf(x)
        if not (lo < val < hi):
            pdf_violations += 1
    ok = bessel_violations == 0 and pdf_violations == 0
    assert _report(9, "bracket sweeps", ok), \
        f"bessel={bessel_violations}, pdf={pdf_violations}"


def test_criterion_10_monte_carlo_cli():
    args = [sys.executable, "-m", "chientropy", "--seed", "123",
            "validate", "--k", "4", "--lambda", "4", "--n", "1000000"]
    first = subprocess.run(args, capture_output=True, text=True, timeout=300)
    second = subprocess.run(args, capture_output=True, text=True, timeout=300)
    z = float(first.stdout.splitlines()[1].split(",")[7])
    ok = (first.returncode == 0 and abs(z) <= 4.0
          and first.stdout == second.stdout)
    assert _report(10, "Monte Carlo cross-check", ok), \
        f"exit={first.returncode}, z={z}, deterministic={first.stdout == second.stdout}"


def test_criterion_11_quadrature_oracles():
    worst_plain = 0.0
    worst_log = 0.0
    for nu in (0.3, 1.0, 2.5, 7.0):
        for mu in (0.25, 1.0, 3.0):
            plain = integrate_halfline(
                lambda x: x ** (nu - 1.0) * math.exp(-mu * x)).value
            want = math.exp(math.lgamma(nu) - nu * math.log(mu))
            worst_plain = max(worst_plain, abs(plain - want) / abs(want))
            logged = integrate_halfline(
                lambda x: x ** (nu - 1.0) * math.exp(-mu * x) * math.log(x)).value
            want_log = gamma_log_integral(nu, mu)
            worst_log = max(worst_log, abs(logged - want_log) / abs(want_log))
    ok = worst_plain <= 1e-9 and worst_log <= 1e-8
    assert _report(11, "quadrature oracles", ok), \
        f"gamma rel {worst_plain:.3g}, gamma-log rel {worst_log:.3g}"
