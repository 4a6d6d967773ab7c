"""Quadrature engine tests: gamma-kernel oracles, linearity, failure
modes, and configuration handling."""

import math

import numpy as np
import pytest
from scipy.special import gammaincc, gammaln

from chientropy.quad import (
    IntegrandFailure,
    NonConvergence,
    QuadConfig,
    integrate_halfline,
    integrate_rows,
)
from support import gamma_log_integral

NU_GRID = [0.3, 1.0, 2.5, 7.0]
MU_GRID = [0.25, 1.0, 3.0]


@pytest.mark.parametrize("nu", NU_GRID)
@pytest.mark.parametrize("mu", MU_GRID)
def test_gamma_integral_oracle(nu, mu):
    # int_0^inf x^{nu-1} e^{-mu x} dx = Gamma(nu) mu^{-nu}
    res = integrate_halfline(lambda x: x ** (nu - 1.0) * math.exp(-mu * x))
    want = math.exp(gammaln(nu) - nu * math.log(mu))
    assert res.converged
    assert res.value == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("nu", NU_GRID)
@pytest.mark.parametrize("mu", MU_GRID)
def test_gamma_log_integral_oracle(nu, mu):
    res = integrate_halfline(
        lambda x: x ** (nu - 1.0) * math.exp(-mu * x) * math.log(x))
    assert res.converged
    assert res.value == pytest.approx(gamma_log_integral(nu, mu), rel=1e-8)


def test_linearity():
    rng = np.random.default_rng(3)
    for _ in range(10):
        p1, p2 = rng.uniform(0.5, 4.0, size=2)
        q1, q2 = rng.uniform(0.5, 3.0, size=2)
        a, b = rng.uniform(-2.0, 2.0, size=2)

        def f(x, p=p1, q=q1):
            return x ** (p - 1.0) * math.exp(-q * x)

        def g(x, p=p2, q=q2):
            return x ** (p - 1.0) * math.exp(-q * x)

        combined = integrate_halfline(lambda x: a * f(x) + b * g(x)).value
        separate = a * integrate_halfline(f).value + b * integrate_halfline(g).value
        assert combined == pytest.approx(separate, rel=1e-9, abs=1e-12)


def test_endpoint_singularity():
    # integrable singularity x^{-1/2} at the origin
    res = integrate_halfline(lambda x: math.exp(-x) / math.sqrt(x))
    assert res.value == pytest.approx(math.sqrt(math.pi), rel=1e-11)


def test_result_invariant_and_diagnostics():
    cfg = QuadConfig()
    res = integrate_halfline(lambda x: math.exp(-x), cfg)
    assert res.converged
    assert res.error_estimate <= max(cfg.rel_tol * abs(res.value), cfg.abs_tol)
    assert res.subdivisions_used >= 1
    assert res.value == pytest.approx(1.0, rel=1e-12)


def test_magnitude_is_the_integral_of_the_absolute_value():
    # e^(-x) (1 - x) integrates to 0; its absolute value to 2/e
    res = integrate_halfline(lambda x: math.exp(-x) * (1.0 - x))
    assert abs(res.value) < 1e-14
    assert res.magnitude == pytest.approx(2.0 / math.e, rel=1e-10)
    # a closed-form offset counts by its absolute value: 1 - 1/4 and 1 + 1/4
    (res,) = integrate_rows(lambda x, laws: np.exp(-x)[:, None, :], 0.0, 1.0, 1.0,
                            offset=[[-0.25]])
    assert res[0].value == pytest.approx(0.75, rel=1e-12)
    assert res[0].magnitude == pytest.approx(1.25, rel=1e-12)


def test_split_point_override():
    auto = integrate_halfline(lambda x: x * math.exp(-x))
    fixed = integrate_halfline(lambda x: x * math.exp(-x),
                               QuadConfig(split_point=10.0))
    assert auto.value == pytest.approx(1.0, rel=1e-10)
    assert fixed.value == pytest.approx(1.0, rel=1e-10)


def test_non_convergence_carries_best_estimate():
    # a tiny subdivision budget cannot resolve a wide noncentral
    # Shannon integrand at the default tolerance
    from chientropy.dist import NoncentralChiSq

    law = NoncentralChiSq(4.0, 40.0)

    def shannon_integrand(x):
        lp = law.log_pdf(x)
        return -math.exp(lp) * lp

    with pytest.raises(NonConvergence) as exc:
        integrate_halfline(shannon_integrand, QuadConfig(max_subdivisions=2))
    err = exc.value
    assert math.isfinite(err.value)
    assert err.error_estimate > 0.0


def test_integrand_failure_reports_point():
    def bad(x):
        return math.nan if x > 1.0 else math.exp(-x)

    with pytest.raises(IntegrandFailure) as exc:
        integrate_halfline(bad)
    assert exc.value.x > 1.0


def test_config_validation():
    with pytest.raises(ValueError):
        QuadConfig(rel_tol=0.0)
    with pytest.raises(ValueError):
        QuadConfig(abs_tol=-1e-3)
    with pytest.raises(ValueError):
        QuadConfig(max_subdivisions=0)
    with pytest.raises(ValueError):
        QuadConfig(max_subdivisions=float("inf"))
    with pytest.raises(ValueError):
        QuadConfig(split_point=-2.0)


def test_many_laws_in_one_sweep_match_each_law_alone():
    # Gamma kernels x^(nu-1) e^(-mu x) and their log rows on (lo, inf),
    # with three different tanh-sinh starts, so three sweeps.  Three
    # laws converge at step 1/32; the two of the latest start reach the
    # budget, and one of them, x^(-1/2), diverges.  Each law must get
    # what it gets alone: the same values, error estimates and node
    # counts, or the same NonConvergence.
    nu = np.array([2.5, 30.0, 4.0, 1.0, 0.5])
    mu = np.array([1.0, 0.05, 0.5, 1.0, 0.0])
    lo = [1e-20, 1e-3, 1e-30, 0.0, 0.2]
    centre = [2.5, 0.3, 8.0, 1.5, 1.0]
    scale = [1.6, 0.3, 2.9, 1.0, 1.0]
    offset = [[0.0, 0.0], [0.1, 0.0], [0.0, -0.2], [0.0, 0.0], [0.0, 0.0]]
    cfg = QuadConfig(max_subdivisions=64)

    def g(x, laws):
        p, m = nu[laws, None], mu[laws, None]
        f = x ** (p - 1.0) * np.exp(-m * x)
        return np.stack([f, f * np.log(x)], axis=1)

    together = integrate_rows(g, lo, centre, scale, cfg, offset=offset)
    assert isinstance(together[-1], NonConvergence)
    for i, got in enumerate(together):
        (alone,) = integrate_rows(lambda x, laws: g(x, laws + i), lo[i], centre[i],
                                  scale[i], cfg, offset=[offset[i]])
        _assert_same_outcome(got, alone)
        if not isinstance(alone, NonConvergence):
            assert [r.magnitude for r in got] == [r.magnitude for r in alone]
    want = math.exp(gammaln(30.0) - 30.0 * math.log(0.05)) + 0.1
    assert together[1][0].value == pytest.approx(want, rel=1e-10)


def test_a_scalar_centre_and_scale_serve_every_law():
    # One centre and one scale for five laws: four share a tanh-sinh
    # start, each with its own lo and offset, and two of them leave
    # their sweep a level before the other two; the fifth starts
    # elsewhere and is swept apart.  Each law still gets what it gets
    # alone, Gamma(nu, mu lo) / mu^nu plus its offset.
    nu = np.array([2.5, 0.6, 0.5, 8.0, 4.0])
    mu = np.array([1.0, 1.0, 1.0, 3.0, 1.0])
    lo = [1e-20, 2e-20, 3e-6, 1e-9, 1e-3]
    offset = [[0.25], [0.5], [0.0], [-1.0], [0.0]]

    def g(x, laws):
        return (x ** (nu[laws, None] - 1.0) * np.exp(-mu[laws, None] * x))[:, None, :]

    together = integrate_rows(g, lo, 2.0, 1.5, offset=offset)
    assert len({res[0].subdivisions_used for res in together[:4]}) == 2
    for i, got in enumerate(together):
        (alone,) = integrate_rows(lambda x, laws: g(x, laws + i), lo[i], 2.0, 1.5,
                                  offset=[offset[i]])
        _assert_same_outcome(got, alone)
        want = math.gamma(nu[i]) * gammaincc(nu[i], mu[i] * lo[i]) / mu[i] ** nu[i]
        assert got[0].value == pytest.approx(want + offset[i][0], rel=1e-12)


def _assert_same_outcome(got, alone):
    if isinstance(alone, NonConvergence):
        assert isinstance(got, NonConvergence)
        assert (str(got), got.value, got.error_estimate, got.subdivisions_used) == \
            (str(alone), alone.value, alone.error_estimate, alone.subdivisions_used)
    else:
        assert got == alone


# On (1e-7, inf) split at 1 the tanh-sinh piece starts at u = -4, so
# levels 0 to 4 add 32, 30, 60, 120 and 240 nodes.
_LEVEL_NODES = [32, 30, 60, 120, 240]


def _counting_exp(calls):
    def g(x, laws):
        calls.append(x.shape[1])
        return np.exp(-x)[:, None, :]
    return g


@pytest.mark.parametrize("rel_tol, levels", [(1e-6, 4), (1e-11, 5)])
def test_levels_zero_to_two_take_one_integrand_call(rel_tol, levels):
    # no law stops before level 2, so one call evaluates levels 0 to 2
    # and each later call one level: levels - 2 calls in all
    calls = []
    (res,) = integrate_rows(_counting_exp(calls), 1e-7, 1.0, 1.0, QuadConfig(rel_tol=rel_tol))
    assert calls == [sum(_LEVEL_NODES[:3])] + _LEVEL_NODES[3:levels]
    assert res[0].subdivisions_used == sum(_LEVEL_NODES[:levels]) == {4: 242, 5: 482}[levels]
    assert res[0].value == pytest.approx(math.exp(-1e-7), rel=rel_tol)


@pytest.mark.parametrize("budget, levels", [(2, 2), (3, 2), (4, 3)])
def test_a_budget_below_eight_takes_one_integrand_call(budget, levels):
    # the budget stops the first call at level 1 (budgets 2 and 3) or 2
    calls = []
    (res,) = integrate_rows(_counting_exp(calls), 1e-7, 1.0, 1.0,
                            QuadConfig(max_subdivisions=budget))
    assert isinstance(res, NonConvergence)
    assert calls == [res.subdivisions_used] == [sum(_LEVEL_NODES[:levels])]
