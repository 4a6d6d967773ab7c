"""Entropy functional tests: closed-form oracles, scaling identities,
symmetry and continuity properties, the existence gate, and the Monte
Carlo cross-check."""

import math

import numpy as np
import pytest

from chientropy.dist import CentralChiSq, GammaLaw, NoncentralChiSq, ScaledLaw, sample
from chientropy.entropy import (
    REASON_GATE,
    REASON_PARAMETER,
    EntropyKind,
    EntropyResult,
    EntropySpec,
    effective_dof,
    entropy,
    existence_gate,
    gamma_entropy_closed_form,
    lambda_convergence_study,
    scale_transform,
)

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
    assert gamma_entropy_closed_form(1.0, 2.0, EntropySpec.shannon()).value == \
        pytest.approx(1.0 + math.log(2.0), rel=1e-13)
    assert gamma_entropy_closed_form(1.0, 2.0, EntropySpec.renyi(2.0)).value == \
        pytest.approx(2.0 * math.log(2.0), rel=1e-13)
    # gate and parameter exclusion apply to the closed form too
    assert gamma_entropy_closed_form(0.6, 2.0, EntropySpec.renyi(4.0)).reason == REASON_GATE
    assert gamma_entropy_closed_form(1.0, 2.0, EntropySpec.renyi(1.0)).reason == REASON_PARAMETER


@pytest.mark.parametrize("spec", SIX_SPECS, ids=lambda s: s.kind.value)
@pytest.mark.parametrize("k", [2.0, 4.0])
def test_quadrature_matches_gamma_closed_form(spec, k):
    # central chi-squared with k dof is Gamma(k/2, 2)
    got = entropy(CentralChiSq(k), spec).value
    want = gamma_entropy_closed_form(0.5 * k, 2.0, spec).value
    assert got == pytest.approx(want, rel=1e-8)


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


def test_effective_dof():
    assert effective_dof(CentralChiSq(3.0)) == 3.0
    assert effective_dof(NoncentralChiSq(4.0, 2.0)) == 4.0
    assert effective_dof(GammaLaw(2.5, 1.0)) == 5.0
    assert effective_dof(ScaledLaw(GammaLaw(2.5, 1.0), 0.1)) == 5.0


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
    h0 = gamma_entropy_closed_form(0.5 * k, 2.0, EntropySpec.shannon()).value
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
