"""Entropy functional tests: closed-form oracles, scaling identities,
symmetry and continuity properties, the existence gate, and the Monte
Carlo cross-check."""

import math

import numpy as np
import pytest

from chientropy.dist import CentralChiSq, GammaLaw, NoncentralChiSq, ScaledLaw, sample
from chientropy.entropy import (
    REASON_GATE,
    REASON_NONCONVERGENCE,
    REASON_PARAMETER,
    EntropyKind,
    EntropyResult,
    EntropySpec,
    _family,
    _lambda_series,
    entropy,
    existence_gate,
    lambda_convergence_study,
    scale_transform,
)
from chientropy.quad import QuadConfig

SIX_SPECS = [
    EntropySpec.shannon(),
    EntropySpec.renyi(2.0),
    EntropySpec.gen_renyi(0.5, 2.0),
    EntropySpec.gen_renyi_diag(2.0),
    EntropySpec.tsallis(2.0),
    EntropySpec.sharma_mittal(2.0, 3.0),
]


def test_central_k2_closed_values():
    # X_2 is Exp(2): H_S = 1 + log 2, H_R(2) = log 4, H_T(2) = 3/4
    law = CentralChiSq(2.0)
    assert entropy(law, EntropySpec.shannon()).value == pytest.approx(
        1.0 + math.log(2.0), rel=1e-10)
    assert entropy(law, EntropySpec.renyi(2.0)).value == pytest.approx(
        math.log(4.0), rel=1e-10)
    assert entropy(law, EntropySpec.tsallis(2.0)).value == pytest.approx(
        0.75, rel=1e-10)


def test_noncentral_shannon_reference():
    # mpmath reference for H_S(X_{4,4}) at 40 significant digits
    res = entropy(NoncentralChiSq(4.0, 4.0), EntropySpec.shannon())
    assert res.value == pytest.approx(2.889205307662322614784, rel=1e-10)
    assert res.error_estimate is not None and res.error_estimate < 1e-8


def test_gamma_closed_form_examples():
    assert entropy(GammaLaw(1.0, 2.0), EntropySpec.shannon()).value == \
        pytest.approx(1.0 + math.log(2.0), rel=1e-13)
    assert entropy(GammaLaw(1.0, 2.0), EntropySpec.renyi(2.0)).value == \
        pytest.approx(2.0 * math.log(2.0), rel=1e-13)
    # gate and parameter exclusion apply to the closed form too
    assert entropy(GammaLaw(0.6, 2.0), EntropySpec.renyi(4.0)).reason == REASON_GATE
    assert entropy(GammaLaw(1.0, 2.0), EntropySpec.renyi(1.0)).reason == REASON_PARAMETER


@pytest.mark.parametrize("spec", SIX_SPECS, ids=lambda s: s.kind.value)
@pytest.mark.parametrize("k", [2.0, 4.0])
def test_quadrature_matches_gamma_closed_form(spec, k):
    # central chi-squared with k dof is Gamma(k/2, 2); scaled_direct
    # integrates the central density instead of taking the closed form
    got = entropy(CentralChiSq(k), spec, scaled_direct=True).value
    want = entropy(GammaLaw(0.5 * k, 2.0), spec).value
    assert got == pytest.approx(want, rel=1e-8)


@pytest.mark.parametrize("spec", SIX_SPECS, ids=lambda s: s.kind.value)
def test_zero_noncentrality_takes_the_gamma_closed_form(spec):
    # c NC(k, 0) is the gamma law of shape k/2 and scale 2c: entropy()
    # returns its closed form as a whole, with a rounding bound of a few
    # eps as its error estimate
    s, theta, c = 1.7, 0.6, 3.5
    for law, scale in [(CentralChiSq(2.0 * s), 2.0), (NoncentralChiSq(2.0 * s, 0.0), 2.0),
                       (GammaLaw(s, theta), theta), (ScaledLaw(GammaLaw(s, theta), c), theta * c)]:
        got = entropy(law, spec)
        assert got == entropy(GammaLaw(s, scale), spec), law
        assert 0.0 < got.error_estimate < 1e-14


@pytest.mark.parametrize("c", [0.1, 1.0, 7.0])
@pytest.mark.parametrize("k,lam", [(2.0, 0.0), (2.0, 1.0), (2.0, 4.0),
                                   (4.0, 0.0), (4.0, 1.0), (4.0, 4.0)])
def test_scaling_consistency(c, k, lam):
    base = NoncentralChiSq(k, lam)
    law = ScaledLaw(base, c)
    for spec in SIX_SPECS:
        direct = entropy(law, spec, scaled_direct=True)
        transformed = entropy(law, spec)
        assert transformed.value == pytest.approx(direct.value, rel=1e-8), spec.kind


def test_scale_transform_examples():
    # Shannon gains log C; C = e adds exactly 1
    base = EntropyResult.finite(1.0 + math.log(2.0))
    shifted = scale_transform(base, EntropySpec.shannon(), math.e)
    assert shifted.value == pytest.approx(2.0 + math.log(2.0), rel=1e-13)
    # Tsallis(2) maps 3/4 to 7/8 under C = 2
    shifted = scale_transform(EntropyResult.finite(0.75), EntropySpec.tsallis(2.0), 2.0)
    assert shifted.value == pytest.approx(0.875, rel=1e-13)
    # scaling with C = 1 is the identity for every kind
    for spec in SIX_SPECS:
        r = scale_transform(EntropyResult.finite(0.4), spec, 1.0)
        assert r.value == pytest.approx(0.4, rel=1e-14)


def test_gen_renyi_symmetry():
    law = NoncentralChiSq(4.0, 1.0)
    for a, b in [(0.5, 2.0), (0.75, 1.5), (2.0, 3.0), (0.5, 3.0)]:
        h_ab = entropy(law, EntropySpec.gen_renyi(a, b)).value
        h_ba = entropy(law, EntropySpec.gen_renyi(b, a)).value
        assert abs(h_ab - h_ba) <= 1e-12


@pytest.mark.parametrize("alpha", [0.5, 2.0])
def test_gen_renyi_diagonal_consistency(alpha):
    law = NoncentralChiSq(4.0, 1.0)
    diag = entropy(law, EntropySpec.gen_renyi_diag(alpha)).value
    for beta in (alpha - 1e-4, alpha + 1e-4):
        off = entropy(law, EntropySpec.gen_renyi(alpha, beta)).value
        assert abs(off - diag) < 1e-3


@pytest.mark.parametrize("k", [2.0, 4.0])
def test_renyi_shannon_continuity(k):
    law = CentralChiSq(k)
    h_s = entropy(law, EntropySpec.shannon()).value
    for alpha in (1.0 - 1e-4, 1.0 + 1e-4):
        h_r = entropy(law, EntropySpec.renyi(alpha)).value
        assert abs(h_r - h_s) < 1e-3


def test_monte_carlo_agreement():
    law = NoncentralChiSq(4.0, 4.0)
    h = entropy(law, EntropySpec.shannon()).value
    n = 1_000_000
    neg_log = -law.log_pdf(sample(law, 123, n))
    se = float(np.std(neg_log, ddof=1)) / math.sqrt(n)
    assert abs(float(np.mean(neg_log)) - h) <= 4.0 * se


def test_existence_gate_decisions():
    assert existence_gate(1.2, EntropySpec.renyi(2.0))
    assert not existence_gate(1.2, EntropySpec.renyi(4.0))
    assert not existence_gate(1.0, EntropySpec.shannon())  # needs k > 1
    assert existence_gate(1.01, EntropySpec.shannon())
    # off-diagonal gate binds on max(alpha, beta)
    assert existence_gate(1.2, EntropySpec.gen_renyi(0.5, 2.0)) == \
        existence_gate(1.2, EntropySpec.renyi(2.0))
    assert not existence_gate(1.5, EntropySpec.gen_renyi(0.5, 4.0))
    decision = existence_gate(1.2, EntropySpec.renyi(4.0))
    assert not decision.ok and "1.5" in decision.detail
    with pytest.raises(ValueError):
        existence_gate(math.nan, EntropySpec.shannon())


def test_gate_undefined_result():
    res = entropy(CentralChiSq(1.2), EntropySpec.renyi(4.0))
    assert res.is_undefined and res.reason == REASON_GATE
    res = entropy(NoncentralChiSq(1.2, 1.0), EntropySpec.renyi(4.0))
    assert res.is_undefined and res.reason == REASON_GATE
    # Shannon survives at the same dof
    assert entropy(CentralChiSq(1.2), EntropySpec.shannon()).is_finite


def test_parameter_exclusions():
    law = CentralChiSq(4.0)
    assert entropy(law, EntropySpec.renyi(1.0)).reason == REASON_PARAMETER
    assert entropy(law, EntropySpec.tsallis(1.0)).reason == REASON_PARAMETER
    assert entropy(law, EntropySpec.sharma_mittal(2.0, 1.0)).reason == REASON_PARAMETER
    assert entropy(law, EntropySpec.sharma_mittal(1.0, 2.0)).reason == REASON_PARAMETER
    assert entropy(law, EntropySpec.gen_renyi(2.0, 2.0)).reason == REASON_PARAMETER
    # just outside the exclusion everything evaluates
    assert entropy(law, EntropySpec.renyi(1.0 + 1e-6)).is_finite


def test_entropy_spec_validation():
    with pytest.raises(ValueError):
        EntropySpec.renyi(-1.0)
    with pytest.raises(ValueError):
        EntropySpec(EntropyKind.RENYI)  # alpha missing
    with pytest.raises(ValueError):
        EntropySpec(EntropyKind.GEN_RENYI, alpha=2.0)  # beta missing
    with pytest.raises(ValueError):
        EntropySpec(EntropyKind.SHANNON, alpha=2.0)  # takes no alpha
    with pytest.raises(ValueError):
        EntropySpec(EntropyKind.TSALLIS, alpha=2.0, beta=3.0)  # takes no beta
    assert EntropySpec.shannon().orders() == (1.0,)
    assert EntropySpec.gen_renyi(0.5, 2.0).orders() == (0.5, 2.0)
    assert EntropySpec.sharma_mittal(2.0, 3.0).orders() == (2.0,)


def test_entropy_result_states():
    fin = EntropyResult.finite(1.5, error_estimate=1e-12)
    assert fin.is_finite and fin.as_float() == 1.5
    inf = EntropyResult.infinite()
    assert inf.is_infinite and inf.as_float() == math.inf
    und = EntropyResult.undefined("existence-gate")
    assert und.is_undefined
    with pytest.raises(ValueError):
        und.as_float()
    with pytest.raises(ValueError):
        EntropyResult.finite(math.nan)


def test_entropy_refuses_a_non_law():
    # anything that is not a law is refused, whatever the spec
    for bad in (2.0, "chisq", None):
        for spec in (EntropySpec.shannon(), EntropySpec.renyi(1.0)):
            with pytest.raises(ValueError):
                entropy(bad, spec)


def test_lambda_convergence_study():
    rows = lambda_convergence_study(2.0, EntropySpec.shannon(), [1.0, 0.1, 0.01])
    assert [r.lam for r in rows] == [1.0, 0.1, 0.01]
    gaps = [r.gap_to_central for r in rows]
    assert all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:]))
    # gate failure reported per row, not raised
    rows = lambda_convergence_study(1.2, EntropySpec.renyi(4.0), [1.0, 0.1])
    assert all(r.result.is_undefined and r.result.reason == REASON_GATE for r in rows)
    assert all(r.gap_to_central is None for r in rows)


@pytest.mark.parametrize("k", [2.0, 3.0, 4.0, 6.0])
def test_shannon_lambda_derivative_at_zero(k):
    # d/dlam H(NC(k, lam)) at lam = 0 is 1/k: the Poisson mixture gives
    # d f / d lam = (f_{k+2} - f_k) / 2 there, with
    # E_{k+2}[log X] - E_k[log X] = 2/k and E_{k+2}[X] - E_k[X] = 2.
    # The next term is O(lam); measured, it is about -lam / (k (k + 2)).
    h0 = entropy(GammaLaw(0.5 * k, 2.0), EntropySpec.shannon()).value
    for lam in (1e-2, 1e-3):
        h = entropy(NoncentralChiSq(k, lam), EntropySpec.shannon()).value
        slope = (h - h0) / lam
        assert abs(slope - 1.0 / k) < lam / k, (lam, slope)


def test_lambda_study_grid_validation():
    with pytest.raises(ValueError):
        lambda_convergence_study(2.0, EntropySpec.shannon(), [0.1, 1.0])
    with pytest.raises(ValueError):
        lambda_convergence_study(2.0, EntropySpec.shannon(), [1.0, -0.1])
    with pytest.raises(ValueError):
        lambda_convergence_study(2.0, EntropySpec.shannon(), [])


# Laws on which the former split-point probe and absolute tolerance gave
# silently wrong finite values (or, for the diagonal row, non-convergence
# on an in-domain law).  Every reference is computed apart from
# chientropy: the scipy.stats.ncx2 log-density integrated by the
# benchmark oracle's own quadrature (bench/oracle.py: adaptive
# Gauss-Legendre in log x, with the origin power law in closed form).
# The Shannon row at lam = 6902.13, the Renyi-2 row and the Renyi-6 row
# also agree to 2e-14 with a 30-digit mpmath integration of the Bessel
# form of the density.
FAULT_ROWS = [
    # (k, lam, spec, reference); the probe-based quadrature gave the
    # value in the comment
    (4.0, 6902.128664695653, EntropySpec.shannon(), 6.531914510980539),  # 1.187e-27
    (4.0, 6902.13, EntropySpec.renyi(2.0), 6.378488196672192),  # 139.725
    (2.0, 695.0, EntropySpec.renyi(4.0), 5.114730530522977),  # 11.256
    (10.0, 690.0, EntropySpec.renyi(4.0), 5.114012673800808),  # 11.531
    (1.0706902129623854, 3.633256812200885,
     EntropySpec.gen_renyi_diag(1.927381433734568), 0.8080047342182424),  # undefined
    # f^2.8 ~ x^(0.02 - 1) at the origin; mpmath in log x, with the same
    # closed-form origin piece, gives 2.99324108396991692
    (1.3, 12.0, EntropySpec.gen_renyi_diag(2.8), 2.9932410839699224),  # undefined
    # abs_tol = 1e-14 used to stop on a tiny int f^alpha whose relative
    # error was still large
    (1.854714700947459, 643.8487313043172,
     EntropySpec.renyi(7.509661286084835), 5.0002337129590275),  # 7.3696
    (4.0, 1e4, EntropySpec.renyi(6.0), 6.396456847508906),  # 6.39695
    # pins the rounding allowance of a log row at large lam (true error
    # 2.3e-13); 30-digit mpmath, int f^2 and int f^2 log f over 80 panels
    # of one s.d. across mean +- 40 s.d., gives 6.467280900690271922747574
    (4.0, 1e4, EntropySpec.gen_renyi_diag(2.0), 6.467280900690272),
]


@pytest.mark.parametrize("k,lam,spec,ref", FAULT_ROWS,
                         ids=[f"{r[2].kind.value}-k{r[0]:.3g}-lam{r[1]:.6g}"
                              for r in FAULT_ROWS])
def test_fault_rows_against_independent_references(k, lam, spec, ref):
    res = entropy(NoncentralChiSq(k, lam), spec)
    assert res.is_finite, res
    # the reported error estimate bounds the true error, and is not vacuous
    assert abs(res.value - ref) <= max(res.error_estimate, 1e-12), (res, ref)
    assert res.error_estimate < 1e-9


def test_error_estimates_bound_gamma_closed_forms():
    # 40 random gamma laws through quadrature, all six functionals:
    # the error estimate must cover the distance to the closed form
    rng = np.random.default_rng(20261018)
    checked = 0
    for _ in range(40):
        shape = float(rng.uniform(0.55, 8.0))
        scale = float(np.exp(rng.uniform(np.log(0.2), np.log(5.0))))
        a = float(rng.uniform(0.3, 0.9) if rng.random() < 0.5 else rng.uniform(1.1, 4.0))
        b = float(rng.uniform(1.1, 4.0) if a < 1.0 else rng.uniform(0.3, 0.9))
        for spec in (EntropySpec.shannon(), EntropySpec.renyi(a),
                     EntropySpec.gen_renyi(a, b), EntropySpec.gen_renyi_diag(a),
                     EntropySpec.tsallis(a), EntropySpec.sharma_mittal(a, b)):
            want = entropy(GammaLaw(shape, scale), spec)
            got = entropy(GammaLaw(shape, scale), spec, scaled_direct=True)
            if want.is_undefined:
                assert got.is_undefined and got.reason == want.reason
                continue
            assert abs(got.value - want.value) <= got.error_estimate + 1e-15, \
                (shape, scale, spec, got, want.value)
            checked += 1
    assert checked > 200


@pytest.mark.parametrize("alpha", [0.4, 0.75, 2.0, 3.3])
def test_family_identities_bit_for_bit(alpha):
    # with int f = 1, Renyi is generalized Renyi at beta = 1 (or, with
    # the orders swapped, at alpha = 1), Shannon the diagonal at alpha = 1
    # and Tsallis Sharma-Mittal at beta = alpha; every route (quadrature,
    # closed form, lambda series, scaling) evaluates both sides of each
    # pair identically, the order-1 power row included
    pairs = [(EntropySpec.renyi(alpha), EntropySpec.gen_renyi(alpha, 1.0)),
             (EntropySpec.renyi(alpha), EntropySpec.gen_renyi(1.0, alpha)),
             (EntropySpec.shannon(), EntropySpec.gen_renyi_diag(1.0)),
             (EntropySpec.tsallis(alpha), EntropySpec.sharma_mittal(alpha, alpha))]
    laws = [NoncentralChiSq(3.0, 5.0), CentralChiSq(2.5), GammaLaw(1.7, 0.6),
            ScaledLaw(NoncentralChiSq(4.0, 2.0), 3.5), NoncentralChiSq(3.0, 0.05)]
    for named, general in pairs:
        for spec in (named, general):
            assert _lambda_series(3.0, 0.05, *_family(spec)) is not None, spec
        for law in laws:
            assert entropy(law, named) == entropy(law, general), (law, named)
        assert entropy(laws[3], named, scaled_direct=True) == \
            entropy(laws[3], general, scaled_direct=True), named
        assert entropy(GammaLaw(1.7, 0.6), named) == \
            entropy(GammaLaw(1.7, 0.6), general), named


def test_large_order_is_undefined_not_raised():
    # for k/2 - 1 above about 8000 at moderate lam, ive underflows and
    # the log-Bessel series reaches its term cap; the quadrature cannot
    # certify anything there, which is an explicit non-convergence
    for k, lam in [(1.6e4, 100.0), (4e4, 1e8)]:
        res = entropy(NoncentralChiSq(k, lam), EntropySpec.shannon())
        assert res.is_undefined and res.reason == REASON_NONCONVERGENCE, (k, lam, res)
    assert entropy(NoncentralChiSq(1.2e4, 100.0), EntropySpec.shannon()).is_finite
    # a usage error still raises
    with pytest.raises(ValueError, match="need 0 <= lo < centre"):
        entropy(NoncentralChiSq(4.0, 3.0), EntropySpec.shannon(),
                QuadConfig(split_point=1e-30))


def test_noncentral_beyond_library_bessel_range():
    # the far nodes of NC(4, 2e7) need I_1 at arguments above 1.07e9,
    # where scipy's ive returns NaN; a 40-digit mpmath integration of
    # -f log f for the Bessel form of the density over mean +- 40 s.d.
    # gives 10.517707142023751069
    res = entropy(NoncentralChiSq(4.0, 2e7), EntropySpec.shannon())
    assert res.is_finite, res
    assert abs(res.value - 10.517707142023751069) <= res.error_estimate < 1e-6
    # further out the log-density rounding defeats the tolerance: an
    # explicit undefined, not an exception
    res = entropy(NoncentralChiSq(4.0, 1e8), EntropySpec.shannon())
    assert res.is_undefined and res.reason == "non-convergence"


@pytest.mark.parametrize("factor, alpha, mapped", [(1e-200, 2.0, -458.4375770571293),
                                                   (1e-120, 3.0, -274.31571913600334)])
def test_scaled_direct_at_extreme_factors_is_undefined_not_raised(factor, alpha, mapped):
    # The density of c X itself cannot be integrated there: at 1e-200 the
    # origin cut x0 underflows to 0, at 1e-120 f^3 overflows at a node.
    # The default route maps the entropy of X through log c.
    law, spec = ScaledLaw(CentralChiSq(4.0), factor), EntropySpec.renyi(alpha)
    direct = entropy(law, spec, scaled_direct=True)
    assert direct.is_undefined and direct.reason == REASON_NONCONVERGENCE
    assert entropy(law, spec).value == mapped
