"""Special function tests: frozen high-precision references plus the
bracket, recurrence, and series-versus-library-Bessel properties."""

import math

import numpy as np
import pytest

from scipy import special as sp

from chientropy.dist import NoncentralChiSq
from chientropy.specfun import _log_i_hankel, _log_i_series, log_bessel_i
from support import bessel_i_bounds, gamma_log_integral

# Reference values computed with mpmath at 40 significant digits and
# frozen here.  Columns: nu, x, log(I_nu(x)).  The rows from nu = 100,
# x = 0.001 on lie where the scaled library Bessel function underflows
# and log_bessel_i falls back on its log-space series; they were
# computed with mpmath.besseli at 30 significant digits, at the exact
# double value of x, and frozen here.  The rows from x = 1.1e9 on lie
# beyond the range of the library Bessel function, where log_bessel_i
# uses the Hankel expansion (mpmath, 40 digits).
LOG_I_REFERENCE = [
    (0.0, 0.001, 2.499999843750017465192e-07),
    (-0.9, 0.5, -0.5085648379870769325939),
    (0.5, 1.0, -0.06435199107353179875298),
    (2.5, 10.0, 7.61505817170335168002),
    (6.0, 29.5, 26.27457271316850969613),
    (0.0, 35.0, 32.30701147548523847976),
    (3.0, 45.0, 42.07944035426941549348),
    (-0.49, 80.0, 76.89011041611238361694),
    (10.0, 150.0, 146.242253195982021571),
    (10.0, 199.9, 196.0820785401179869819),
    (22.0, 967.0, 962.3937143018915736409),
    (22.0, 968.5, 963.8933270558045351987),
    (50.0, 3000.0, 2994.66119287429254193),
    (50.0, 5001.0, 4995.57241695644126337),
    (100.0, 15000.0, 14993.93982384991567834),
    (100.0, 20001.0, 19994.87930571148689691),
    (0.0, 10000.0, 9994.475903781432301005),
    (0.5, 1000000.0, 999992.1733061878131902),
    (7.0, 100000000.0, 99999989.87072085106914),
    (100.0, 0.001, -1123.829621507296476685),
    (100.0, 0.06, -714.3951563766709616351),
    (20.0, 1e-155, -7194.212348353494011388),
    (400.0, 50.0, -711.3947705246809654302),
    (800.0, 300.0, -515.8229802972735071835),
    (1600.0, 1720.0, 1014.455068292712318815),
    (3200.0, 7000.0, 6275.184427878106001737),
    (0.0, 1100000000.0, 1099999988.671773458534),
    (-0.499, 2000000000.0, 1999999988.372854958042),
    (1.0, 15000000000.0, 14999999987.36540344775),
    (2.5, 1000000000000.0, 999999999985.2655509088),
    (100.0, 300000000000.0, 299999999985.8675372943),
    (5000.0, 1200000000.0, 1199999988.617851103358),
    (0.5, 1e18, 999999999999999978.3578),
]


@pytest.mark.parametrize("nu,x,expected", LOG_I_REFERENCE)
def test_log_bessel_i_reference(nu, x, expected):
    got = log_bessel_i(nu, x)
    if x <= 1e4:
        # accuracy contract is relative on exp(result), i.e. absolute
        # on the log value
        assert abs(math.expm1(got - expected)) <= 1e-10
    else:
        # beyond the accuracy window the log value itself is
        # representation-limited; require agreement at float64 level
        assert got == pytest.approx(expected, rel=1e-14)


def test_log_bessel_i_half_integer_closed_form():
    # I_{1/2}(x) = sqrt(2/(pi x)) sinh x, an independent route
    for x in [0.05, 0.3, 1.0, 4.0, 12.0, 28.0, 60.0, 300.0]:
        want = 0.5 * math.log(2.0 / (math.pi * x)) + x + math.log1p(-math.exp(-2.0 * x)) - math.log(2.0)
        assert log_bessel_i(0.5, x) == pytest.approx(want, rel=1e-13, abs=1e-13)


def test_log_bessel_i_matches_truncated_series_below_30():
    # 200-term power series written out independently of the module
    def series(nu, x):
        z = 0.25 * x * x
        term = 1.0
        total = 1.0
        for m in range(1, 200):
            term *= z / (m * (m + nu))
            total += term
        return nu * math.log(x / 2.0) - math.lgamma(nu + 1.0) + math.log(total)

    rng = np.random.default_rng(7)
    for _ in range(150):
        nu = rng.uniform(-0.9, 20.0)
        x = rng.uniform(1e-3, 30.0)
        got = log_bessel_i(nu, x)
        assert abs(math.expm1(got - series(nu, x))) <= 1e-10


def test_log_bessel_i_series_cap_raises():
    # Near nu = 1e5, x = 5e6 the scaled Bessel function underflows and
    # the series would need millions of terms (its largest term sits
    # near m = 2.5e6); a truncated sum would be wrong by millions (the
    # Debye uniform expansion, DLMF 10.41.3, gives log I ~ 4998991.40),
    # so the series must refuse instead.
    with pytest.raises(ValueError):
        log_bessel_i(1e5, 5e6)


def test_log_bessel_i_series_refuses_before_summing(monkeypatch):
    # Where the terms of the largest x peak past the 20,000-term cap
    # (nu = 9999, x = 64358: near m = 27,556), or peak before it but
    # cannot fall by the required 1e-17 within it (nu = 7999,
    # x = 45921.2: near m = 19,329), the series raises before it sums a
    # single term.  At nu = 7999, x = 35076 it converges within the
    # cap and must still be summed.
    from chientropy import specfun

    summed = []
    logaddexp = np.logaddexp
    monkeypatch.setattr(specfun.np, "logaddexp",
                        lambda *args: summed.append(1) or logaddexp(*args))
    for nu, x in ((9999.0, 64358.0), (7999.0, 45921.2)):
        with pytest.raises(ValueError, match="did not converge in 20000 terms"):
            _log_i_series(nu, np.array([1.0, x]))
        assert not summed
    assert np.isfinite(_log_i_series(7999.0, np.array([35076.0]))[0])
    assert summed


def test_log_bessel_i_vectorized_and_scalar():
    xs = np.array([0.5, 3.0, 40.0, 500.0])
    vec = log_bessel_i(1.5, xs)
    assert vec.shape == xs.shape
    for xi, vi in zip(xs, vec):
        assert vi == log_bessel_i(1.5, float(xi))


def test_log_bessel_i_at_zero():
    assert log_bessel_i(0.0, 0.0) == 0.0
    assert log_bessel_i(2.0, 0.0) == -math.inf
    with pytest.raises(ValueError):
        log_bessel_i(-0.3, 0.0)


@pytest.mark.parametrize("nu", [0.0, 0.6, 30.0])
def test_log_bessel_i_routes_each_point(nu):
    # log ive + x where ive is a positive normal float, the series where
    # it underflows at x > 0, the Hankel expansion where it is NaN, and
    # at x = 0 (either sign) log I_0(0) = 0 and log I_nu(0) = -inf
    x = np.array([0.0, -0.0, 5e-324, 1e-300, 1e-8, 0.5, 40.0, 1e5, 1e9, 2e9, 1e12])
    scaled = sp.ive(nu, x)
    series = (scaled < np.finfo(float).tiny) & (x > 0.0)
    hankel = np.isnan(scaled)
    normal = ~series & ~hankel & (x > 0.0)
    got = log_bessel_i(nu, x)
    assert (hankel.sum(), series.sum()) == (2, {0.0: 0, 0.6: 1, 30.0: 2}[nu])
    assert got[:2].tolist() == [0.0 if nu == 0.0 else -math.inf] * 2
    assert (got[normal] == np.log(scaled[normal]) + x[normal]).all()
    assert (got[hankel] == _log_i_hankel(nu, x[hankel])).all()
    if series.any():
        assert (got[series] == _log_i_series(nu, x[series])).all()
    assert log_bessel_i(nu, x.reshape(1, -1)).tolist() == [got.tolist()]
    assert log_bessel_i(nu, np.array(x[3])) == log_bessel_i(nu, float(x[3])) == got[3]
    assert isinstance(log_bessel_i(nu, np.array(x[3])), float)
    empty = log_bessel_i(nu, np.array([]))
    assert empty.shape == (0,) and empty.dtype == float


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, -1e-300, -2.0,
                               [1.0, math.nan], [3.0, -0.5], [math.inf, 1.0]])
@pytest.mark.parametrize("nu", [-0.5, 0.0, 2.0])
def test_log_bessel_i_refuses_x_outside_the_domain(nu, x):
    with pytest.raises(ValueError, match="requires finite x >= 0"):
        log_bessel_i(nu, x)


def test_log_bessel_i_below_order_zero():
    # I_nu diverges at the origin for -1 < nu < 0; positive x is fine
    for x in (0.0, -0.0, [2.0, 0.0]):
        with pytest.raises(ValueError, match="requires nu >= 0"):
            log_bessel_i(-0.4, x)
    assert log_bessel_i(-0.4, 2.0) == math.log(sp.ive(-0.4, 2.0)) + 2.0
    assert log_bessel_i(-0.4, np.array([])).shape == (0,)


def test_log_bessel_i_and_the_density_need_few_full_size_arrays():
    # peak memory on 10^6 points, counted in arrays of that size: the
    # result and the scaled Bessel values share one
    import tracemalloc

    x = np.linspace(0.01, 50.0, 10**6)
    law = NoncentralChiSq(3.2, 7.1)
    for evaluate, arrays in ((lambda: log_bessel_i(0.6, x), 2.5), (lambda: law.log_pdf(x), 4.5)):
        tracemalloc.start()
        try:
            evaluate()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= arrays * x.nbytes


def test_log_bessel_i_rejects_bad_order():
    with pytest.raises(ValueError):
        log_bessel_i(-1.0, 1.0)
    with pytest.raises(ValueError):
        log_bessel_i(-2.5, 1.0)


@pytest.mark.parametrize("nu", [0.0, 0.7, 1.3, 3.0, 3.872, 7.0, 22.0])
def test_regime_crossover_continuity(nu):
    # where the scaled library Bessel function is in range, the value
    # log_bessel_i takes from it must agree with the log-space series
    # (the fallback route) evaluated at the same point
    for x in (30.0, max(30.0, 2.0 * nu * nu)):
        dispatched = log_bessel_i(nu, x)
        from_series = float(_log_i_series(nu, np.array([x]))[0])
        assert abs(math.expm1(dispatched - from_series)) <= 1e-9


def test_bessel_bounds_examples():
    lo, hi = bessel_i_bounds(0.0, 1.0)
    assert lo == pytest.approx(1.0, rel=1e-14)
    assert hi == pytest.approx(math.e, rel=1e-14)
    lo, hi = bessel_i_bounds(0.5, 1.0)
    assert lo == pytest.approx(0.797884560802865355879892119869, rel=1e-13)
    assert hi == pytest.approx(2.16887510283845509322315462685, rel=1e-13)


def test_bessel_bounds_strict_bracket():
    rng = np.random.default_rng(11)
    for _ in range(500):
        nu = rng.uniform(-0.499, 30.0)
        x = rng.uniform(1e-3, 100.0)
        lo, hi = bessel_i_bounds(nu, x)
        val = math.exp(log_bessel_i(nu, x))
        assert lo < val < hi


def test_bessel_bounds_domain_and_overflow():
    with pytest.raises(ValueError):
        bessel_i_bounds(-0.5, 1.0)
    with pytest.raises(ValueError):
        bessel_i_bounds(-0.6, 1.0)
    # far beyond exp overflow the bounds stay finite
    lo, hi = bessel_i_bounds(0.3, 800.0)
    assert math.isfinite(lo) and math.isfinite(hi) and lo < hi


def test_gamma_log_integral_reference():
    # int_0^inf x^{nu-1} e^{-mu x} log x dx, mpmath references
    cases = [
        (1.0, 1.0, -0.5772156649015328606065),
        (2.0, 1.0, 0.4227843350984671393935),
        (1.0, 2.0, -0.6351814227307390850119),
        (0.5, 1.0, -3.480230906913262026939),
        (2.0, 2.0, -0.06759071136536954250594),
        (7.0, 0.25, 38445656.65836593292778),
    ]
    for nu, mu, want in cases:
        assert gamma_log_integral(nu, mu) == pytest.approx(want, rel=1e-13)


def test_gamma_log_integral_domain():
    for nu, mu in [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0)]:
        with pytest.raises(ValueError):
            gamma_log_integral(nu, mu)
