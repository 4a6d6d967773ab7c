"""Distribution layer tests: frozen density references, an independent
scipy.stats route, normalization, bounds, the mixture representation,
and the exact sampler."""

import math

import numpy as np
import pytest
import scipy.stats as st

from chientropy.dist import (
    CentralChiSq,
    GammaLaw,
    NoncentralChiSq,
    ScaledLaw,
    _log_origin_coefficient,
    _triple_of,
    sample,
)
from chientropy.quad import integrate_halfline
from support import pdf_log_bounds, pdf_mixture

# mpmath references at 40 significant digits: (k, lambda, x, log_pdf)
NCX2_REFERENCE = [
    (4.0, 4.0, 1.0, -3.422159887573730874579),
    (3.0, 2.0, 5.0, -2.298175013837161302466),
    (2.0, 2.0, 2.0, -1.869153639076989026486),
    (5.5, 12.0, 3.25, -5.295646810887011186993),
]


@pytest.mark.parametrize("k,lam,x,want", NCX2_REFERENCE)
def test_noncentral_log_pdf_reference(k, lam, x, want):
    assert NoncentralChiSq(k, lam).log_pdf(x) == pytest.approx(want, rel=1e-13)


def test_central_log_pdf_examples():
    # k=2 is Exp(2): log f(2) = -(1 + log 2); k=4 gives the same value at x=2
    want = -(1.0 + math.log(2.0))
    assert CentralChiSq(2.0).log_pdf(2.0) == pytest.approx(want, rel=1e-13)
    assert CentralChiSq(4.0).log_pdf(2.0) == pytest.approx(want, rel=1e-13)


def test_scaled_log_pdf_example():
    law = ScaledLaw(CentralChiSq(2.0), 2.0)
    want = -(1.0 + 2.0 * math.log(2.0))
    assert law.log_pdf(4.0) == pytest.approx(want, rel=1e-13)


def test_against_scipy_stats():
    # independent implementation route
    rng = np.random.default_rng(5)
    xs = rng.uniform(0.05, 60.0, size=40)
    for k in (1.5, 2.0, 4.0, 9.5):
        got = CentralChiSq(k).log_pdf(xs)
        assert np.allclose(got, st.chi2.logpdf(xs, k), rtol=1e-12, atol=1e-12)
    for k, lam in [(2.0, 1.0), (4.0, 4.0), (7.5, 20.0)]:
        got = NoncentralChiSq(k, lam).log_pdf(xs)
        assert np.allclose(got, st.ncx2.logpdf(xs, k, lam), rtol=1e-10, atol=1e-10)
    for shape, scale in [(0.5, 1.0), (2.0, 3.0)]:
        got = GammaLaw(shape, scale).log_pdf(xs)
        assert np.allclose(got, st.gamma.logpdf(xs, shape, scale=scale),
                           rtol=1e-12, atol=1e-12)
    scaled = ScaledLaw(NoncentralChiSq(4.0, 4.0), 0.25)
    got = scaled.log_pdf(xs)
    want = st.ncx2.logpdf(xs / 0.25, 4.0, 4.0) - math.log(0.25)
    assert np.allclose(got, want, rtol=1e-10, atol=1e-10)


def test_lambda_zero_delegates_to_central():
    xs = np.array([0.2, 1.0, 7.0])
    assert np.array_equal(NoncentralChiSq(3.0, 0.0).log_pdf(xs),
                          CentralChiSq(3.0).log_pdf(xs))


@pytest.mark.parametrize("k", [1.5, 2.0, 3.0, 4.0, 8.0])
@pytest.mark.parametrize("lam", [0.0, 0.01, 1.0, 4.0, 25.0])
@pytest.mark.parametrize("c", [0.1, 1.0, 7.0])
def test_normalization(k, lam, c):
    law = ScaledLaw(NoncentralChiSq(k, lam), c) if c != 1.0 else NoncentralChiSq(k, lam)
    res = integrate_halfline(law.pdf)
    assert res.value == pytest.approx(1.0, abs=1e-9)


def test_bound_sandwich_strict():
    rng = np.random.default_rng(13)
    for _ in range(400):
        k = rng.uniform(1.0 + 1e-6, 20.0)
        lam = rng.uniform(1e-6, 30.0)
        x = rng.uniform(1e-3, 100.0)
        law = NoncentralChiSq(k, lam)
        lo, hi = pdf_log_bounds(law, x)
        val = law.log_pdf(x)
        assert lo < val < hi


def test_bound_width():
    # log upper - log lower = x/4 + lambda
    law = NoncentralChiSq(3.0, 1.0)
    lo, hi = pdf_log_bounds(law, 1.0)
    assert hi - lo == pytest.approx(0.25 + 1.0, rel=1e-12)


def test_bound_domain():
    with pytest.raises(ValueError):
        pdf_log_bounds(NoncentralChiSq(1.0, 1.0), 1.0)  # needs k > 1
    with pytest.raises(ValueError):
        pdf_log_bounds(NoncentralChiSq(2.0, 0.0), 1.0)  # needs lambda > 0


def test_mixture_equivalence():
    xs = np.geomspace(0.05, 60.0, 25)
    for k, lam in [(1.5, 0.01), (2.0, 1.0), (4.0, 4.0), (6.5, 25.0)]:
        law = NoncentralChiSq(k, lam)
        direct = law.pdf(xs)
        mixed = pdf_mixture(law, xs)
        assert np.allclose(mixed, direct, rtol=1e-11, atol=0.0)


def test_pointwise_lambda_limit():
    # |f_{k,lambda} - f_k| decreasing in j and < 1e-8 at lambda = 1e-8
    for k in (2.0, 4.0):
        central = CentralChiSq(k)
        for x in (0.5, 1.0, 5.0):
            gaps = [abs(NoncentralChiSq(k, 10.0 ** -j).pdf(x) - central.pdf(x))
                    for j in range(0, 9)]
            assert all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:]))
            assert gaps[-1] < 1e-8


def test_moment_properties():
    assert NoncentralChiSq(4.0, 4.0).mean == pytest.approx(8.0)
    assert NoncentralChiSq(4.0, 4.0).variance == pytest.approx(24.0)
    assert CentralChiSq(3.0).mean == pytest.approx(3.0)
    assert CentralChiSq(3.0).variance == pytest.approx(6.0)
    assert GammaLaw(2.0, 3.0).mean == pytest.approx(6.0)
    assert GammaLaw(2.0, 3.0).variance == pytest.approx(18.0)
    law = ScaledLaw(NoncentralChiSq(4.0, 4.0), 0.5)
    assert law.mean == pytest.approx(4.0)
    assert law.variance == pytest.approx(6.0)


def test_sampler_moments():
    k, lam, n = 4.0, 4.0, 1_000_000
    draws = sample(NoncentralChiSq(k, lam), 17, n)
    mean, var = k + lam, 2.0 * k + 4.0 * lam
    se_mean = math.sqrt(var / n)
    assert abs(float(draws.mean()) - mean) <= 4.0 * se_mean
    centered = draws - draws.mean()
    s2 = float(np.mean(centered ** 2))
    se_var = math.sqrt((float(np.mean(centered ** 4)) - s2 * s2) / n)
    assert abs(s2 - var) <= 4.0 * se_var


def test_sampler_ecdf():
    # P(X_{4,4} <= 5), mpmath reference
    p = 0.3095423223273094591658
    n = 200_000
    draws = sample(NoncentralChiSq(4.0, 4.0), 29, n)
    ecdf = float(np.mean(draws <= 5.0))
    assert abs(ecdf - p) <= 4.0 * math.sqrt(p * (1.0 - p) / n)


def test_sampler_deterministic_and_law_dispatch():
    law = ScaledLaw(GammaLaw(2.0, 1.5), 2.0)
    a = sample(law, 11, 1000)
    b = sample(law, 11, 1000)
    assert np.array_equal(a, b)
    assert a.shape == (1000,)
    assert float(a.mean()) == pytest.approx(law.mean, rel=0.1)
    central = sample(CentralChiSq(5.0), 11, 50_000)
    assert float(central.mean()) == pytest.approx(5.0, rel=0.05)


# Frozen draws and log-densities, to the last bit: the CLI validate
# command's z-score depends on the sample streams.
FROZEN_DRAWS = [
    (CentralChiSq(3.7), 100,
     [0.9822083327619261, 5.391750024650569, 1.2281154919692499, 5.1098474426798415]),
    (NoncentralChiSq(2.5, 6.25), 101,
     [11.395875773384521, 12.798417017157247, 1.1055740457842993, 14.357116987427007]),
    (GammaLaw(1.8, 0.7), 102,
     [1.6537273105649877, 2.0684428156830093, 0.6011422865750031, 0.9898701787260344]),
    (ScaledLaw(NoncentralChiSq(4.5, 3.0), 2.5), 103,
     [2.9811684330506445, 2.356228626932085, 14.510122056002356, 8.682272144030527]),
]
FROZEN_LOG_PDF = [
    (CentralChiSq(3.7), [-7.098490458151058, -2.0655735744921953, -1.7925780256483481,
                         -18.090850935019397, -196.13365360597444]),
    (NoncentralChiSq(2.5, 6.25), [-5.6193513060679186, -3.7610631567393273,
                                  -2.706418326244208, -10.067895012527911,
                                  -156.17134268187067]),
]


def test_frozen_samples_and_log_pdf_bit_for_bit():
    for law, seed, want in FROZEN_DRAWS:
        assert sample(law, seed, 4).tolist() == want, law
    xs = np.array([1e-3, 0.5, 3.0, 40.0, 400.0])
    for law, want in FROZEN_LOG_PDF:
        assert law.log_pdf(xs).tolist() == want, law
        assert [law.log_pdf(float(x)) for x in xs] == want, law


def test_triple_of_every_law_type():
    # (k, lam, c) with the law that of c NC(k, lam); k rules the origin
    # singularity and the existence gate
    assert _triple_of(CentralChiSq(3.0)) == (3.0, 0.0, 1.0)
    assert _triple_of(NoncentralChiSq(4.0, 2.0)) == (4.0, 2.0, 1.0)
    assert _triple_of(GammaLaw(2.5, 1.0)) == (5.0, 0.0, 0.5)
    assert _triple_of(ScaledLaw(GammaLaw(2.5, 1.0), 0.1)) == (5.0, 0.0, 0.05)
    for bad in (2.0, "chisq", None):
        with pytest.raises(ValueError, match="unsupported law"):
            _triple_of(bad)


def test_parameter_validation():
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError):
            CentralChiSq(bad)
        with pytest.raises(ValueError):
            GammaLaw(bad, 1.0)
        with pytest.raises(ValueError):
            GammaLaw(1.0, bad)
    with pytest.raises(ValueError):
        NoncentralChiSq(2.0, -0.1)
    with pytest.raises(ValueError):
        ScaledLaw(CentralChiSq(2.0), 0.0)
    with pytest.raises(ValueError):
        ScaledLaw("chisq", 2.0)
    with pytest.raises(ValueError):
        sample(2.0, 1, 10)


def test_support_validation():
    law = CentralChiSq(2.0)
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError):
            law.log_pdf(bad)
    with pytest.raises(ValueError):
        NoncentralChiSq(2.0, 1.0).log_pdf(np.array([1.0, -2.0]))


def test_origin_coefficient_in_closed_form_matches_the_density_at_x0():
    # The quadrature route of entropy() takes f = C x^(k/2 - 1) on
    # (0, x0), with log C from the law's triple.  It must agree with
    # log f(x0) - p log x0 at the x0 of that route, to the rounding of
    # the terms on both sides.
    eps = np.finfo(float).eps
    laws = [NoncentralChiSq(k, lam) for k in (1.02, 2.0, 7.5, 300.0, 2e4)
            for lam in (1e-3, 2.0, 400.0)]
    laws += [CentralChiSq(1.02), CentralChiSq(3.0), CentralChiSq(2e4),
             GammaLaw(0.51, 3.0), GammaLaw(1e4, 0.2), ScaledLaw(NoncentralChiSq(2.5, 0.7), 1e-3),
             ScaledLaw(CentralChiSq(9.0), 40.0), ScaledLaw(NoncentralChiSq(2e4, 1.0), 7.0),
             ScaledLaw(GammaLaw(3.0, 2.0), 1e-6)]
    for law in laws:
        k, lam, c = _triple_of(law)
        m, v = law.mean, law.variance
        x0 = 1e-17 * k * (v / m) * (v / m / m) / 8.0
        lf, p_log_x0 = law.log_pdf(x0), (0.5 * k - 1.0) * math.log(x0)
        terms = (lf, p_log_x0, 0.5 * lam, 0.5 * k * math.log(2.0 * c), math.lgamma(0.5 * k))
        assert abs(_log_origin_coefficient(k, lam, c) - (lf - p_log_x0)) \
            <= eps * sum(map(abs, terms)), law
