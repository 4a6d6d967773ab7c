"""Process marginal tests: parameter maps, density fidelity against
directly coded transition densities, long-time limits, and the small-b
regime."""

import math
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.integrate as si
import scipy.special as sp
import scipy.stats as st

from chientropy.dist import CentralChiSq, GammaLaw, NoncentralChiSq, ScaledLaw, _triple_of
from chientropy.entropy import (
    REASON_NONCONVERGENCE,
    REASON_PARAMETER,
    _ROW_TABLE_BYTES,
    _ROWS,
    EntropyKind,
    EntropySpec,
    _family,
    _integrals,
    _lambda_series,
    entropy,
    lambda_convergence_study,
)
from chientropy.proc import (
    BesselParams,
    CIRParams,
    TimeGrid,
    b_to_zero_study,
    bessel_limit_entropy,
    bessel_marginal,
    cir_limit_entropy,
    cir_marginal,
    entropy_curve,
)
from chientropy.quad import NonConvergence, QuadConfig


def test_cir_marginal_parameters():
    # at t = log 2 with a=b=sigma=r0=1: c = 1/8, lambda = 4, k = 4
    law = cir_marginal(CIRParams(1.0, 1.0, 1.0, 1.0), math.log(2.0))
    assert isinstance(law, ScaledLaw)
    assert law.factor == pytest.approx(0.125, rel=1e-14)
    assert isinstance(law.base, NoncentralChiSq)
    assert law.base.k == pytest.approx(4.0, rel=1e-14)
    assert law.base.lam == pytest.approx(4.0, rel=1e-14)


def test_bessel_marginal_parameters():
    # a=4, sigma=2, y0=1, t=1: c0 = 1, lambda0 = 1, k = 4
    law = bessel_marginal(BesselParams(4.0, 2.0, 1.0), 1.0)
    assert law.factor == pytest.approx(1.0, rel=1e-14)
    assert law.base.k == pytest.approx(4.0, rel=1e-14)
    assert law.base.lam == pytest.approx(1.0, rel=1e-14)


def test_cir_marginal_small_b_stable():
    # c(t) and lambda(t) must approach the Bessel values smoothly
    t, sigma, r0 = 1.0, 1.0, 1.0
    law = cir_marginal(CIRParams(1.0, 1e-6, sigma, r0), t)
    c_bessel = sigma * sigma * t / 4.0
    lam_bessel = r0 / c_bessel
    assert abs(law.factor - c_bessel) / c_bessel < 1e-6
    assert abs(law.base.lam - lam_bessel) / lam_bessel < 1e-6


def _cir_density_direct(p, t, x):
    # transition density written from scratch: u/v form with scipy's
    # scaled Bessel function
    ct = 2.0 * p.b / (p.sigma ** 2 * (1.0 - math.exp(-p.b * t)))
    u = ct * p.r0 * math.exp(-p.b * t)
    v = ct * x
    q = 2.0 * p.a / p.sigma ** 2 - 1.0
    z = 2.0 * math.sqrt(u * v)
    return ct * math.exp(-u - v + z) * (v / u) ** (q / 2.0) * sp.ive(q, z)


def _bessel_density_direct(p, t, x):
    c0 = p.sigma ** 2 * t / 4.0
    u = p.y0 / (2.0 * c0)
    v = x / (2.0 * c0)
    q = 2.0 * p.a / p.sigma ** 2 - 1.0
    z = 2.0 * math.sqrt(u * v)
    return math.exp(-u - v + z) * (v / u) ** (q / 2.0) * sp.ive(q, z) / (2.0 * c0)


@pytest.mark.parametrize("t", [0.5, 2.0])
@pytest.mark.parametrize("x", [0.1, 1.0, 5.0])
def test_marginal_density_fidelity(t, x):
    cir = CIRParams(1.0, 1.0, 1.0, 1.0)
    got = float(cir_marginal(cir, t).pdf(x))
    assert got == pytest.approx(_cir_density_direct(cir, t, x), rel=1e-11)
    bes = BesselParams(1.0, 1.0, 1.0)
    got = float(bessel_marginal(bes, t).pdf(x))
    assert got == pytest.approx(_bessel_density_direct(bes, t, x), rel=1e-11)


def test_cir_limit_entropy_values():
    # shape 2a/sigma^2 = 1, scale sigma^2/(2b) = 1: the Gamma(1, 1)
    # stationary law with H_S = 1 (Feller holds with equality)
    res = cir_limit_entropy(CIRParams(2.0, 2.0, 2.0, 1.0), EntropySpec.shannon())
    assert res.value == pytest.approx(1.0, rel=1e-13)
    # a=b=sigma=1, mpmath reference
    res = cir_limit_entropy(CIRParams(1.0, 1.0, 1.0, 1.0), EntropySpec.shannon())
    assert res.value == pytest.approx(0.884068484341587551189279968624, rel=1e-13)


FIVE_SPECS = [
    EntropySpec.shannon(),
    EntropySpec.renyi(2.0),
    EntropySpec.tsallis(2.0),
    EntropySpec.gen_renyi(0.5, 2.0),
    EntropySpec.sharma_mittal(2.0, 3.0),
]


def test_cir_curve_row_at_zero_noncentrality_is_the_limit():
    # at b t = 800, e^(-b t) underflows and the marginal is exactly
    # 0.25 NC(4, 0), the gamma law of shape 2 and scale 0.5: the curve
    # row takes the closed form, bit for bit the stationary entropy
    params = CIRParams(1.0, 1.0, 1.0, 1.0)
    assert cir_marginal(params, 800.0).base.lam == 0.0
    for spec in FIVE_SPECS:
        (row,) = entropy_curve(params, TimeGrid((800.0,)), spec)
        assert row.result == cir_limit_entropy(params, spec), spec.kind


@pytest.mark.parametrize("b", [0.5, 1.0])
def test_cir_long_time_limit(b):
    params = CIRParams(1.0, b, 1.0, 1.0)
    t = 60.0 / b
    for spec in FIVE_SPECS:
        at_t = entropy(cir_marginal(params, t), spec).value
        lim = cir_limit_entropy(params, spec).value
        assert abs(at_t - lim) < 1e-6, spec.kind


def test_cir_curve_noncentrality_near_underflow():
    # For b*t between about 698 and 745 the noncentrality of the CIR
    # marginal's base law is subnormal (4e-304 down to 4e-323), where
    # log(x / lam) and lam * x used to overflow or underflow.  The law is
    # then the stationary gamma law to far below double precision.
    # Shannon reference: scipy.stats.gamma(2, scale=0.5).entropy(),
    # the stationary law of (a, b, sigma, r0) = (1, 1, 1, 1).
    shannon_ref = st.gamma(2.0, scale=0.5).entropy()
    assert shannon_ref == pytest.approx(0.8840684843415875, abs=1e-15)
    rows = entropy_curve(CIRParams(1.0, 1.0, 1.0, 1.0),
                         TimeGrid((700.0, 720.0, 740.0, 744.0)),
                         EntropySpec.shannon())
    for row in rows:
        assert row.result.is_finite, (row.t, row.result)
        assert abs(row.result.value - shannon_ref) < 1e-9, row.t

    # Renyi-2 reference: -log int g^2 for the stationary gamma density g
    # of (1.5, 1, 1.2, 3), shape 2a/sigma^2 = 25/12 and scale
    # sigma^2/(2b) = 0.72, integrated by scipy.integrate.quad.
    g = st.gamma(25.0 / 12.0, scale=0.72)
    int_g2 = si.quad(lambda x: g.pdf(x) ** 2, 0.0, math.inf,
                     epsabs=0.0, epsrel=1e-13, limit=200)[0]
    renyi_ref = -math.log(int_g2)
    assert renyi_ref == pytest.approx(1.089014209027051, abs=1e-12)
    params = CIRParams(1.5, 1.0, 1.2, 3.0)
    for t in (698.0, 720.0, 745.0):
        res = entropy(cir_marginal(params, t), EntropySpec.renyi(2.0))
        assert res.is_finite, (t, res)
        assert abs(res.value - renyi_ref) < 1e-9, t

    proc = subprocess.run(
        [sys.executable, "-m", "chientropy", "curve", "--process", "cir",
         "--a", "1", "--b", "1", "--sigma", "1", "--r0", "1", "--times", "1,720"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_bessel_curve_large_noncentrality():
    # At t = 1e-6 the marginal of (a, sigma, y0) = (1, 1, 1) has base law
    # NC(4, 4e6), whose narrow peak the former split-point probe missed
    # (the curve gave -15.2018).  Reference: the scipy.stats.ncx2 density
    # of the marginal, -f log f integrated by scipy.integrate.quad over
    # mean +- 40 standard deviations in eight panels.
    marginal = st.ncx2(4.0, 4e6, scale=1e-6 / 4.0)
    mean, sd = marginal.mean(), marginal.std()
    edges = np.linspace(mean - 40.0 * sd, mean + 40.0 * sd, 9)
    ref = sum(si.quad(lambda x: -marginal.pdf(x) * marginal.logpdf(x), lo, hi,
                      epsabs=0.0, epsrel=1e-13, limit=200)[0]
              for lo, hi in zip(edges[:-1], edges[1:]))
    assert ref == pytest.approx(-5.4888166833, abs=1e-9)
    (row,) = entropy_curve(BesselParams(1.0, 1.0, 1.0), TimeGrid((1e-6,)),
                           EntropySpec.shannon())
    assert row.result.is_finite, row.result
    assert abs(row.result.value - ref) < 1e-8


def test_cir_curve_rows():
    params = CIRParams(1.0, 1.0, 1.0, 1.0)
    rows = entropy_curve(params, TimeGrid((1.0, 5.0, 50.0)), EntropySpec.shannon())
    assert [r.t for r in rows] == [1.0, 5.0, 50.0]
    assert all(r.result.is_finite for r in rows)
    lim = cir_limit_entropy(params, EntropySpec.shannon()).value
    assert abs(rows[-1].result.value - lim) < 1e-6


def test_bessel_shannon_affine_growth():
    # H_S(Y_t) - log(sigma^2 t / 4) decreases toward H_S(X_4)
    params = BesselParams(1.0, 1.0, 1.0)
    target = entropy(GammaLaw(2.0, 2.0), EntropySpec.shannon()).value
    gaps = []
    for t in (1e2, 1e3, 1e4):
        h = entropy(bessel_marginal(params, t), EntropySpec.shannon()).value
        gaps.append(h - math.log(t / 4.0) - target)
    assert all(g > 0 for g in gaps)
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-4


def test_bessel_tsallis_dichotomy_curves():
    params = BesselParams(1.0, 1.0, 1.0)
    # alpha = 2: finite plateau at 1
    h2 = entropy(bessel_marginal(params, 1e4), EntropySpec.tsallis(2.0)).value
    assert abs(h2 - 1.0) < 1e-3
    # alpha = 0.5: grows without bound
    vals = [entropy(bessel_marginal(params, t), EntropySpec.tsallis(0.5)).value
            for t in (1e2, 1e3, 1e4)]
    assert vals[0] < vals[1] < vals[2]
    assert vals[2] > 5.0 * vals[0]


def test_bessel_limit_dichotomy():
    assert bessel_limit_entropy(EntropySpec.shannon()).is_infinite
    assert bessel_limit_entropy(EntropySpec.renyi(2.0)).is_infinite
    assert bessel_limit_entropy(EntropySpec.renyi(0.5)).is_infinite
    assert bessel_limit_entropy(EntropySpec.gen_renyi(0.5, 2.0)).is_infinite
    assert bessel_limit_entropy(EntropySpec.gen_renyi_diag(2.0)).is_infinite
    assert bessel_limit_entropy(EntropySpec.tsallis(2.0)).value == pytest.approx(1.0)
    assert bessel_limit_entropy(EntropySpec.tsallis(3.0)).value == pytest.approx(0.5)
    assert bessel_limit_entropy(EntropySpec.tsallis(0.5)).is_infinite
    assert bessel_limit_entropy(EntropySpec.sharma_mittal(2.0, 3.0)).value == \
        pytest.approx(0.5)
    assert bessel_limit_entropy(EntropySpec.sharma_mittal(0.5, 2.0)).value == \
        pytest.approx(1.0)
    assert bessel_limit_entropy(EntropySpec.sharma_mittal(2.0, 0.5)).is_infinite
    assert bessel_limit_entropy(EntropySpec.tsallis(1.0)).reason == REASON_PARAMETER


def test_b_to_zero_study():
    rows = b_to_zero_study(1.0, 1.0, 1.0, 1.0, [1.0, 0.1, 0.01],
                           EntropySpec.shannon())
    assert [r.b for r in rows] == [1.0, 0.1, 0.01]
    gaps = [r.gap_to_bessel for r in rows]
    assert gaps[0] > gaps[1] > gaps[2]


def test_b_to_zero_grid_validation():
    with pytest.raises(ValueError):
        b_to_zero_study(1.0, 1.0, 1.0, 1.0, [0.1, 1.0], EntropySpec.shannon())
    with pytest.raises(ValueError):
        b_to_zero_study(1.0, 1.0, 1.0, 1.0, [1.0, 0.0], EntropySpec.shannon())
    with pytest.raises(ValueError):
        b_to_zero_study(1.0, 1.0, 1.0, 1.0, [], EntropySpec.shannon())


def test_parameter_validation():
    with pytest.raises(ValueError, match="Feller"):
        CIRParams(0.4, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="Feller"):
        BesselParams(0.4, 1.0, 1.0)
    with pytest.raises(ValueError):
        CIRParams(1.0, 1.0, 1.0, 0.0)  # r0 must be positive
    with pytest.raises(ValueError):
        BesselParams(1.0, 1.0, -1.0)
    with pytest.raises(ValueError):
        CIRParams(1.0, 0.0, 1.0, 1.0)
    assert CIRParams(1.0, 1.0, 1.0, 1.0).dof == pytest.approx(4.0)
    assert BesselParams(2.0, 1.0, 1.0).dof == pytest.approx(8.0)


def test_degenerate_time_rejected():
    with pytest.raises(ValueError):
        cir_marginal(CIRParams(1.0, 1.0, 1.0, 1.0), 0.0)
    with pytest.raises(ValueError):
        bessel_marginal(BesselParams(1.0, 1.0, 1.0), -1.0)
    with pytest.raises(ValueError):
        TimeGrid(())
    with pytest.raises(ValueError):
        TimeGrid((1.0, 1.0))
    with pytest.raises(ValueError):
        TimeGrid((0.0, 1.0))


PUBLIC_NAMES = [
    "CentralChiSq", "NoncentralChiSq", "GammaLaw", "ScaledLaw", "Law",
    "EntropyKind", "EntropySpec", "EntropyResult", "GateDecision",
    "existence_gate", "entropy", "scale_transform",
    "lambda_convergence_study", "LambdaRow",
    "CIRParams", "BesselParams", "CurveRow", "BZeroRow", "TimeGrid",
    "cir_marginal", "bessel_marginal", "entropy_curve",
    "cir_limit_entropy", "bessel_limit_entropy", "b_to_zero_study",
    "QuadConfig", "QuadResult", "NonConvergence", "IntegrandFailure",
    "integrate_halfline", "log_bessel_i", "__version__",
]


def test_row_types_reachable_from_package_root():
    # the public surface, name for name: adding or dropping a name is a
    # deliberate change of this list
    import chientropy

    assert sorted(chientropy.__all__) == sorted(PUBLIC_NAMES)
    for name in PUBLIC_NAMES:
        assert getattr(chientropy, name) is not None, name


def test_benchmark_bindings_resolve():
    # bench/spans.py wraps each (module, attribute) binding it lists; a
    # removed or renamed one would only fail a traced benchmark run
    import importlib
    import importlib.util
    import pathlib

    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    bindings = [b for group in spans._BINDINGS.values() for b in group]
    assert bindings
    for module, attr in bindings:
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)


# One spec per functional, plus excluded orders (undefined/parameter) and
# an order the gate refuses for k < 1.75 (undefined/existence-gate).
SIX_SPECS = [
    EntropySpec.shannon(),
    EntropySpec.renyi(2.0),
    EntropySpec.renyi(0.6),
    EntropySpec.gen_renyi(0.5, 2.0),
    EntropySpec.gen_renyi_diag(1.7),
    EntropySpec.tsallis(0.5),
    EntropySpec.sharma_mittal(2.0, 3.0),
    EntropySpec.sharma_mittal(0.7, 1.5),
    EntropySpec.tsallis(1.0),
    EntropySpec.renyi(8.0),
]


def _assert_same(batched, solo, where):
    # a batched row is the law's solo entropy(): same state and reason,
    # value within 1e-14 relative
    assert (batched.state, batched.reason) == (solo.state, solo.reason), where
    if solo.is_finite:
        assert abs(batched.value - solo.value) <= 1e-14 * abs(solo.value), where


# CIR rows: b t from 1e-3 to 2000, with subnormal noncentralities at
# t = 720 and 744 and lam = 0 (the closed form) from b t = 745.2 on;
# r0 = a/b and r0 != a/b.  Bessel rows from t = 1e-6 (lam = 4e6).
CURVES = [
    (CIRParams(1.0, 1.0, 1.0, 1.0),
     (1e-3, 0.1, 1.0, 5.0, 50.0, 700.0, 720.0, 744.0, 800.0, 2000.0)),
    (CIRParams(1.5, 0.7, 1.2, 3.0), (0.01, 0.5, 3.0, 30.0, 1000.0, 1100.0)),
    (BesselParams(1.0, 1.0, 1.0), (1e-6, 1e-3, 1.0, 100.0, 1e4)),
    (BesselParams(2.5, 1.3, 0.4), (0.05, 2.0, 60.0)),
]
B_STUDY = (1.5, 1.2, 0.8, 2.0, [1.0, 0.3, 0.1, 1e-3, 1e-6])   # a, sigma, r0, t, b grid
LAMBDA_GRID = [50.0, 1.0, 0.01, 1e-8, 0.0]


@pytest.mark.parametrize("config", [None, QuadConfig(split_point=2.0)],
                         ids=["split-at-mean", "split-at-2"])
@pytest.mark.parametrize("spec", SIX_SPECS, ids=lambda s: f"{s.kind.value}-{s.alpha}-{s.beta}")
def test_curves_and_studies_match_per_law_entropy(spec, config):
    # A pinned split point gives every law of a sweep the same centre.
    for params, times in CURVES:
        marginal = cir_marginal if isinstance(params, CIRParams) else bessel_marginal
        for row in entropy_curve(params, TimeGrid(times), spec, config):
            _assert_same(row.result, entropy(marginal(params, row.t), spec, config),
                         (params, row.t))

    a, sigma, r0, t, b_grid = B_STUDY
    reference = entropy(bessel_marginal(BesselParams(a, sigma, r0), t), spec, config)
    for row in b_to_zero_study(a, sigma, r0, t, b_grid, spec, config):
        solo = entropy(cir_marginal(CIRParams(a, row.b, sigma, r0), t), spec, config)
        _assert_same(row.result, solo, row.b)
        if solo.is_finite and reference.is_finite:
            assert abs(row.gap_to_bessel - abs(solo.value - reference.value)) <= 1e-14

    for k in (3.0, 1.5):
        central = entropy(CentralChiSq(k), spec, config)
        for row in lambda_convergence_study(k, spec, LAMBDA_GRID, config):
            solo = entropy(NoncentralChiSq(k, row.lam), spec, config)
            _assert_same(row.result, solo, (k, row.lam))
            if solo.is_finite and central.is_finite:
                assert abs(row.gap_to_central - abs(solo.value - central.value)) <= 1e-14


def test_failing_law_leaves_the_rest_of_a_study_alone():
    # NC(2e4, 100) is undefined/non-convergence on its own (its
    # log-Bessel series cannot converge within the term cap), while
    # NC(2e4, 1) is finite; in one quadrature sweep the first law must
    # not take the second down with it.
    rows = [(1.0, "log"), (1.0, "power")]
    first, second = _integrals([NoncentralChiSq(2e4, 100.0), NoncentralChiSq(2e4, 1.0)],
                               rows, None)
    assert isinstance(first, NonConvergence)
    num, den = second
    series = _lambda_series(2e4, 1.0, EntropyKind.GEN_RENYI_DIAG, 1.0, 1.0)
    assert abs(-num.value / den.value - series.value) <= (
        num.error_estimate + series.error_estimate)
    # a public study takes NC(2e4, 1) by the lambda series
    spec = EntropySpec.shannon()
    first, second = lambda_convergence_study(2e4, spec, [100.0, 1.0])
    assert first.result.is_undefined
    assert first.result.reason == REASON_NONCONVERGENCE
    assert second.result == series
    assert second.result == entropy(NoncentralChiSq(2e4, 1.0), spec)


def test_a_curve_makes_one_log_bessel_call_per_pass(monkeypatch):
    # On a cleared row table, a curve evaluates log f once per pass of
    # each quadrature sweep and nowhere else: the origin piece takes its
    # coefficient in closed form.  A sweep's first pass holds levels 0
    # to 3, so it makes the passes its slowest law makes alone.  The
    # laws that take the lambda series (here the late times, where
    # lambda is small) make no call at all.  On the table the first
    # curve leaves, a second spec on the same curve makes a call only on
    # the passes of a law that the first did not make.
    import chientropy.dist as dist
    import chientropy.quad as quad

    calls, sweeps, levels = [0], [], []
    log_bessel_i, level_nodes, sweep = dist.log_bessel_i, quad._level_nodes, quad._sweep

    def counted_log_bessel_i(nu, x):
        calls[0] += 1
        return log_bessel_i(nu, x)

    def counted_level_nodes(start, level, grid, *cols):
        levels.append((level, grid))
        return level_nodes(start, level, grid, *cols)

    def recorded_sweep(g, start, laws, *args):
        sweeps.append(laws.tolist())
        return sweep(g, start, laws, *args)

    monkeypatch.setattr(dist, "log_bessel_i", counted_log_bessel_i)
    monkeypatch.setattr(quad, "_level_nodes", counted_level_nodes)
    monkeypatch.setattr(quad, "_sweep", recorded_sweep)

    def run(evaluate, cold=True):
        if cold:
            _ROWS.clear()
        levels.clear()
        sweeps.clear()
        before = calls[0]
        evaluate()
        return len(levels), calls[0] - before

    params = BesselParams(1.3, 0.9, 0.4)
    grid = TimeGrid(tuple(10.0 ** e for e in range(-6, 8)))

    def alone(spec):
        # the passes of each quadrature law alone, by time
        out = {}
        for t in grid.times:
            passes, bessel = run(lambda: entropy(bessel_marginal(params, t), spec))
            k, lam, _ = _triple_of(bessel_marginal(params, t))
            if _lambda_series(k, lam, *_family(spec)) is None:
                assert bessel == passes
                out[t] = passes
            else:
                assert (bessel, passes) == (0, 0)
        return out

    first, second = EntropySpec.shannon(), EntropySpec.renyi(2.0)
    made, needed = alone(first), alone(second)
    assert 0 < len(made) < len(grid.times)
    passes, bessel = run(lambda: entropy_curve(params, grid, first))
    # each sweep starts with the grid of levels 0 to 3, then one level a pass
    assert levels[0] == (3, True) and levels.count((3, True)) == len(sweeps)
    for (level, _), now in zip(levels, levels[1:]):
        assert now in ((3, True), (level + 1, False))
    times = sorted(made)   # the quadrature laws of the curve, in order
    assert sorted(i for laws in sweeps for i in laws) == list(range(len(times)))
    assert bessel == passes
    assert passes == sum(max(made[times[i]] for i in laws) for laws in sweeps)

    passes, bessel = run(lambda: entropy_curve(params, grid, second), cold=False)
    times = sorted(needed)
    assert passes == sum(max(needed[times[i]] for i in laws) for laws in sweeps)
    # pass j of a sweep forms log f iff one of its laws is there (needed > j)
    # while the first curve did not take that law so far (made <= j)
    assert bessel == sum(
        any(made.get(times[i], 0) <= j < needed[times[i]] for i in laws)
        for laws in sweeps for j in range(max(needed[times[i]] for i in laws)))
    assert bessel < passes


def _battery(spec, config):
    """Every row of the curves and studies of the test above, for one spec and config."""
    rows = [row for params, times in CURVES
            for row in entropy_curve(params, TimeGrid(times), spec, config)]
    rows += b_to_zero_study(*B_STUDY, spec, config)
    for k in (3.0, 1.5):
        rows += lambda_convergence_study(k, spec, LAMBDA_GRID, config)
    return [row.result for row in rows]


def test_results_do_not_depend_on_the_rows_kept_from_earlier_calls():
    # Every value and error estimate is the same, bit for bit, on a
    # cleared row table and on one warmed by the other specs and
    # configs: a key that left out the split point, or the budget (which
    # sets the first pass), would read rows of other nodes.
    runs = [(spec, config) for spec in SIX_SPECS
            for config in (None, QuadConfig(split_point=2.0), QuadConfig(max_subdivisions=4))]
    cold = {}
    for run in runs:
        _ROWS.clear()
        cold[run] = _battery(*run)
    _ROWS.clear()
    for run in reversed(runs):
        assert _battery(*run) == cold[run], run
    # Large orders, where log I comes from the series fallback: the rows
    # of NC(2e4, 1.5) and NC(2e4, 1) formed in one batch by a study are
    # those each law forms alone; NC(1.6e4, 100), whose fallback cannot
    # converge from its third pass on, stays undefined on its own rows.
    spec = EntropySpec.renyi(8.0)
    laws = [NoncentralChiSq(2e4, 1.5), NoncentralChiSq(2e4, 1.0), NoncentralChiSq(1.6e4, 100.0)]
    cold = []
    for law in laws:
        _ROWS.clear()
        cold.append(entropy(law, spec))
    assert [res.state for res in cold] == ["finite", "finite", "undefined"]
    _ROWS.clear()
    study = [row.result for row in lambda_convergence_study(2e4, spec, [1.5, 1.0])]
    assert study == cold[:2]
    assert [entropy(law, spec) for law in laws] == cold


def test_the_row_table_stays_within_its_bound():
    # 1,000 laws that never repeat, drawn like those of the law_sweep
    # benchmark, alone and in pairs of one k, from three threads at once
    # that switch often: the table keeps at most _ROW_TABLE_BYTES (64
    # rows of 1,088 nodes), counts each row once, and holds each as a
    # read-only array of its own, not a view of the batch it came from.
    rng = np.random.default_rng(2026)
    k = np.exp(rng.uniform(math.log(1.05), math.log(12.0), 750))
    lam = np.exp(rng.uniform(math.log(1e-3), math.log(500.0), 1000))
    batches = [[NoncentralChiSq(k[i], lam[i])] for i in range(500)]
    batches += [[NoncentralChiSq(k[i], lam[2 * i - 500]), NoncentralChiSq(k[i], lam[2 * i - 499])]
                for i in range(500, 750)]
    rows = [(1.0, "log"), (1.0, "power")]

    def evaluate(part):
        for laws in part:
            _integrals(laws, rows, None)
            assert _ROWS.nbytes <= _ROW_TABLE_BYTES

    _ROWS.clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=3) as pool:
            for done in [pool.submit(evaluate, batches[i::3]) for i in range(3)]:
                done.result(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    kept = list(_ROWS.rows.values())
    assert _ROW_TABLE_BYTES == 64 * 1088 * 8
    assert sum(row.nbytes for row in kept) == _ROWS.nbytes <= _ROW_TABLE_BYTES
    assert _ROWS.nbytes > _ROW_TABLE_BYTES - 17408 * 8   # full, within one row
    assert all(row.base is None and not row.flags.writeable for row in kept)
    # a row larger than the whole table (a level past 12) is not kept, nor evicts
    _ROWS.put("too large", np.zeros(_ROW_TABLE_BYTES // 8 + 1))
    assert "too large" not in _ROWS.rows and list(_ROWS.rows.values()) == kept
