"""The lambda-series route of entropy(): small-noncentrality laws by
their series in lambda, against mpmath, an integer-order oracle and the
quadrature route, and the laws that refuse it."""

import math
import sys

import numpy as np
import pytest
from support import nc_log_power_integral

from chientropy.dist import CentralChiSq, NoncentralChiSq, _triple_of
from chientropy.entropy import (_ROWS, EntropySpec, _family, _lambda_series, entropy,
                                existence_gate)
from chientropy.proc import BesselParams, TimeGrid, bessel_marginal, entropy_curve

SPECS = {
    "shannon": EntropySpec.shannon(),
    "renyi-0.5": EntropySpec.renyi(0.5),
    "renyi-2": EntropySpec.renyi(2.0),
    "renyi-3.5": EntropySpec.renyi(3.5),
    "diag-1.8": EntropySpec.gen_renyi_diag(1.8),
    "gen-renyi": EntropySpec.gen_renyi(0.7, 1.6),
}


def series_of(law, spec):
    k, lam, _ = _triple_of(law)
    return _lambda_series(k, lam, *_family(spec))


# (k, lambda, kind, value): 40-digit mpmath quadrature of the density
# e^(-lam/2) f_k(x) 0F1(; k/2; lam x / 4), rounded to 20 digits
MPMATH = [
    (3.0, 0.03, "shannon", 2.0640604080230461142),
    (3.0, 0.3, "renyi-2", 1.9339553764141258039),
    (1.5, 1e-3, "renyi-0.5", 1.8752574323906193384),
    (1.5, 0.03, "renyi-2", 0.89386044999121511887),
    (10.0, 1.0, "renyi-2", 2.7760135881651479995),
    (10.0, 0.3, "renyi-3.5", 2.6118812329765886151),
    (3.0, 0.03, "diag-1.8", 1.7536893687585741661),
    (10.0, 0.03, "gen-renyi", 2.8067591117053053983),
    (1.5, 1e-3, "shannon", 1.3756293883120004924),
    (3.0, 0.03, "renyi-0.5", 2.3601555461245808110),
    (2e4, 1.0, "shannon", 6.7172725630864482298),
    (2e4, 1.5, "shannon", 6.7172975599621563822),
]


@pytest.mark.parametrize("k,lam,kind,ref", MPMATH)
def test_series_values_lie_within_their_estimates_of_mpmath(k, lam, kind, ref):
    law = NoncentralChiSq(k, lam)
    got = entropy(law, SPECS[kind])
    assert got == series_of(law, SPECS[kind])
    assert abs(got.value - ref) <= got.error_estimate
    if k < 100.0:
        assert got.value == pytest.approx(ref, rel=1e-14, abs=0.0)
    else:
        # the central closed form H(chi2_k) cancels to about 2e-12
        # relative there, and its rounding bound says so
        assert got.value == pytest.approx(ref, rel=1e-11, abs=0.0)


def test_series_is_right_where_the_quadrature_estimate_is_not():
    # close to the gate (f^a ~ x^(-0.47) at the origin) quadrature is
    # 2.5e-11 off with an estimate of 8e-13; mpmath at 30 digits
    law, spec = NoncentralChiSq(1.7157932003248744, 0.001600618435964226), EntropySpec.renyi(
        3.32580730762773)
    got = entropy(law, spec)
    assert got == series_of(law, spec)
    assert abs(got.value - 0.88569734949884799529) <= got.error_estimate < 1e-14


@pytest.mark.parametrize("k", [2e4, 2e6])
def test_the_gamma_closed_form_bounds_its_cancellation(k):
    # gammaln(k/2) and (1 - k/2) psi(k/2) cancel: the values are about
    # 1e-11 to 2e-9 off 40-digit mpmath, and their estimates cover it
    refs = {2e4: (6.717222565586031642289, 6.56379198878263519738),
            2e6: (9.019840659413338436574, 8.866414208026602757913)}[k]
    for spec, ref in zip((EntropySpec.shannon(), EntropySpec.renyi(2.0)), refs):
        got = entropy(CentralChiSq(k), spec)
        assert abs(got.value - ref) <= got.error_estimate < 1e-6


def test_large_order_laws_in_the_window_make_no_log_bessel_call(monkeypatch):
    # NC(2e4, 1) took 0.85 s by quadrature, whose log-Bessel series runs
    # close to its term cap at that order.  The row table is cleared, so
    # that rows kept from earlier tests cannot hide a quadrature route.
    dist = sys.modules["chientropy.dist"]
    _ROWS.clear()
    log_bessel_i, calls = dist.log_bessel_i, []

    def counted(nu, x):
        calls.append(nu)
        return log_bessel_i(nu, x)

    monkeypatch.setattr(dist, "log_bessel_i", counted)
    for lam, ref in [(1.0, 6.7172725630864482298), (1.5, 6.7172975599621563822)]:
        got = entropy(NoncentralChiSq(2e4, lam), EntropySpec.shannon())
        assert abs(got.value - ref) <= got.error_estimate
    assert calls == []


@pytest.mark.parametrize("k", [1.5, 3.0, 10.0])
@pytest.mark.parametrize("n", [2, 3])
def test_integer_orders_against_the_positive_series_oracle(k, n):
    # the series up to the edge of its window, quadrature beyond it
    spec = EntropySpec.renyi(float(n))
    if not existence_gate(k, spec):
        pytest.skip("order outside the gate")
    routes = []
    for lam in [1e-3, 0.01, 0.1, 0.3, 1.0, 3.0, 30.0]:
        law = NoncentralChiSq(k, lam)
        ref = nc_log_power_integral(k, lam, n) / (1.0 - n)
        got = entropy(law, spec)
        series = series_of(law, spec)
        routes.append(series is not None)
        if series is None:
            assert got.value == pytest.approx(ref, rel=1e-12, abs=0.0), lam
        else:
            assert got == series
            assert got.value == pytest.approx(ref, rel=1e-14, abs=0.0), lam
            assert abs(got.value - ref) <= got.error_estimate + 2e-15 * abs(ref), lam
    # the window is one interval at the small end
    assert routes[0] and not routes[-1]
    assert routes == sorted(routes, reverse=True)


def test_seeded_battery_agrees_with_quadrature():
    rng = np.random.default_rng(2026)
    kinds = ["shannon", "renyi", "gen-renyi", "gen-renyi-diag", "tsallis", "sharma-mittal"]
    accepted = refused = 0
    for i in range(200):
        k = math.exp(rng.uniform(math.log(1.05), math.log(40.0)))
        lam = math.exp(rng.uniform(math.log(1e-6), math.log(2.0)))
        a, b = rng.uniform(0.3, 4.0, 2)
        kind = kinds[i % 6]
        spec = {"shannon": EntropySpec.shannon,
                "renyi": lambda: EntropySpec.renyi(a),
                "gen-renyi": lambda: EntropySpec.gen_renyi(a, b),
                "gen-renyi-diag": lambda: EntropySpec.gen_renyi_diag(a),
                "tsallis": lambda: EntropySpec.tsallis(a),
                "sharma-mittal": lambda: EntropySpec.sharma_mittal(a, b)}[kind]()
        law = NoncentralChiSq(k, lam)
        got = entropy(law, spec)
        direct = entropy(law, spec, scaled_direct=True)
        assert got.state == direct.state, (k, lam, spec)
        if not existence_gate(k, spec):
            continue
        if series_of(law, spec) is None:
            refused += 1
            assert got == direct
        else:
            accepted += 1
            assert abs(got.value - direct.value) <= (
                got.error_estimate + direct.error_estimate), (k, lam, spec)
    assert accepted > 50 and refused > 10


@pytest.mark.parametrize("k,lam,kind", [(3.0, 2.0, "renyi-2"), (10.0, 1.0, "shannon"),
                                        (3.0, 400.0, "shannon"), (1.5, 0.3, "renyi-0.5")])
def test_a_refused_law_takes_quadrature_unchanged(k, lam, kind):
    law = NoncentralChiSq(k, lam)
    assert series_of(law, SPECS[kind]) is None
    assert entropy(law, SPECS[kind]) == entropy(law, SPECS[kind], scaled_direct=True)


def test_large_noncentrality_refuses_within_three_terms(monkeypatch):
    entropy_module = sys.modules["chientropy.entropy"]
    dot, calls = entropy_module._dot, []

    def counted(w, b):
        calls.append(len(w))
        return dot(w, b)

    monkeypatch.setattr(entropy_module, "_dot", counted)
    for lam in (400.0, 1e6, 1e300):
        calls.clear()
        assert series_of(NoncentralChiSq(3.0, lam), SPECS["shannon"]) is None
        assert max(calls) <= 3
    assert entropy(NoncentralChiSq(3.0, 1e300), SPECS["shannon"]).state in (
        "finite", "undefined")


def test_a_curve_mixes_series_and_quadrature_rows_that_equal_solo_calls():
    params, spec = BesselParams(1.3, 0.9, 0.4), SPECS["renyi-0.5"]
    grid = TimeGrid(tuple(10.0 ** e for e in range(-6, 8)))
    laws = [bessel_marginal(params, t) for t in grid.times]
    routes = {series_of(law, spec) is not None for law in laws}
    assert routes == {True, False}
    for row, law in zip(entropy_curve(params, grid, spec), laws):
        assert row.result == entropy(law, spec), row.t
