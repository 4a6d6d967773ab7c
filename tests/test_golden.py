"""Golden values: the exact (value, error estimate) of 61 evaluations.

A change to the quadrature or the log-Bessel route that is meant to be
bit-identical must leave every pair as it is; a change that moves one on
purpose updates the table, with the reason in CHANGES.md.  The table is
generated with::

    PYTHONPATH=src:tests python -c "import test_golden as t; t.print_table()"

The NC(2.2, 1e-5) rows and the Bessel rows from t = 10 on take the
lambda series, and the chi2(3.0) and 2.5 Gamma(1.7, 0.4) rows not
marked "direct" (one per spec) the gamma closed form.  The rows that
pin a quadrature setting (budget 4, split point 2) are on laws that
refuse the series.  Budgets 2 and 3 never converge (no law stops
before level 2), so their rows pin the best value and estimate the
NonConvergence carries.
"""

import math

import pytest

from chientropy import (BesselParams, CentralChiSq, CIRParams, EntropySpec, GammaLaw,
                        NoncentralChiSq, NonConvergence, QuadConfig, ScaledLaw, TimeGrid,
                        cir_marginal, entropy, entropy_curve, integrate_halfline)
from chientropy.dist import _triple_of
from chientropy.entropy import _family, _lambda_series

SPECS = {
    "shannon": EntropySpec.shannon(),
    "renyi-0.5": EntropySpec.renyi(0.5),
    "renyi-2": EntropySpec.renyi(2.0),
    "gen-renyi": EntropySpec.gen_renyi(0.7, 1.6),
    "diag-1.8": EntropySpec.gen_renyi_diag(1.8),
    "tsallis-1.4": EntropySpec.tsallis(1.4),
    "sharma-mittal": EntropySpec.sharma_mittal(0.6, 1.9),
}
LOOSE = QuadConfig(rel_tol=1e-6, max_subdivisions=4)
KERNELS = {
    "exp": lambda x: math.exp(-x),
    "rsqrt-exp": lambda x: math.exp(-x) / math.sqrt(x),
}


def cases():
    """(label, value, error estimate) of every evaluation of the table."""
    nc = [(3.0, 2.0), (1.3, 0.05), (7.5, 40.0), (25.0, 900.0), (2.2, 1e-5), (4.0, 6902.0)]
    for (k, lam), kind in zip(nc + nc, list(SPECS) * 2):
        yield f"NC({k}, {lam}) {kind}", entropy(NoncentralChiSq(k, lam), SPECS[kind])
    for k, lam, c, kind in [(3.0, 2.0, 0.03, "tsallis-1.4"), (5.5, 12.0, 40.0, "sharma-mittal"),
                            (2.5, 0.7, 1e-3, "shannon"), (9.0, 150.0, 7.0, "renyi-2")]:
        law = ScaledLaw(NoncentralChiSq(k, lam), c)
        yield f"{c} NC({k}, {lam}) {kind}", entropy(law, SPECS[kind])
        yield (f"{c} NC({k}, {lam}) {kind} direct",
               entropy(law, SPECS[kind], scaled_direct=True))
    for name, law, kind in [("chi2(3.0)", CentralChiSq(3.0), "diag-1.8"),
                            ("Gamma(1.7, 0.4)", GammaLaw(1.7, 0.4), "gen-renyi")]:
        yield f"{name} {kind} direct", entropy(law, SPECS[kind], scaled_direct=True)
    for name, law in [("chi2(3.0)", CentralChiSq(3.0)),
                      ("2.5 Gamma(1.7, 0.4)", ScaledLaw(GammaLaw(1.7, 0.4), 2.5))]:
        for kind, spec in SPECS.items():
            yield f"{name} {kind}", entropy(law, spec)
    grid = TimeGrid(tuple(10.0 ** e for e in range(-6, 8)))
    for row in entropy_curve(BesselParams(1.3, 0.9, 0.4), grid, SPECS["shannon"]):
        yield f"Bessel t = {row.t} shannon", row.result
    for y0, kind in [(0.5, "renyi-0.5"), (3.0, "shannon"), (40.0, "diag-1.8")]:
        law = ScaledLaw(NoncentralChiSq(2.6, y0), 0.8)
        yield (f"0.8 NC(2.6, {y0}) {kind} split 2",
               entropy(law, SPECS[kind], QuadConfig(split_point=2.0)))
    (row,) = entropy_curve(CIRParams(1.1, 0.7, 0.8, 0.5), TimeGrid((1.0,)), SPECS["renyi-2"],
                           LOOSE)
    yield "CIR t = 1 renyi-2 budget 4", row.result
    yield "NC(3.0, 2.0) renyi-2 budget 4", entropy(NoncentralChiSq(3.0, 2.0),
                                                   SPECS["renyi-2"], LOOSE)
    for budget in (2, 3, 4):
        for name, f in KERNELS.items():
            try:
                res = integrate_halfline(f, QuadConfig(max_subdivisions=budget))
            except NonConvergence as exc:
                res = exc
            yield f"{name} budget {budget}", res


def print_table():
    for label, res in cases():
        print(f"    ({label!r}, {res.value.hex()!r}, {res.error_estimate.hex()!r}),")


GOLDEN = [
    ('NC(3.0, 2.0) shannon', '0x1.44d0069805d08p+1', '0x1.7f8627fd3c141p-45'),
    ('NC(1.3, 0.05) renyi-0.5', '0x1.ce3fabe17ff68p+0', '0x1.295860e0674d4p-46'),
    ('NC(7.5, 40.0) renyi-2', '0x1.ea5ca84b981a0p+1', '0x1.e0bc5675f99c7p-44'),
    ('NC(25.0, 900.0) gen-renyi', '0x1.5ea1dcd965dbdp+2', '0x1.9d78423104533p-40'),
    ('NC(2.2, 1e-05) diag-1.8', '0x1.639ae4f8407cdp+0', '0x1.f060ad937ac64p-49'),
    ('NC(4.0, 6902.0) tsallis-1.4', '0x1.27c6c964fbde7p+1', '0x1.d3a703bdf0e56p-41'),
    ('NC(3.0, 2.0) sharma-mittal', '0x1.03c9b1bb91497p+0', '0x1.2a12879280053p-49'),
    ('NC(1.3, 0.05) shannon', '0x1.3a1a97d90d2e7p+0', '0x1.4d9e4e21b1ceep-48'),
    ('NC(7.5, 40.0) renyi-0.5', '0x1.0b6571f3f5d2fp+2', '0x1.02f6f9c18904ap-44'),
    ('NC(25.0, 900.0) renyi-2', '0x1.576b7db45c096p+2', '0x1.a017338d6750dp-40'),
    ('NC(2.2, 1e-05) gen-renyi', '0x1.b6a265f7ddca5p+0', '0x1.a2e81fe19fd40p-48'),
    ('NC(4.0, 6902.0) diag-1.8', '0x1.93d1d881b7aa7p+2', '0x1.466b61cb4d00ep-34'),
    ('0.03 NC(3.0, 2.0) tsallis-1.4', '-0x1.54a3eb6d42e20p+0', '0x1.4583ef7979cd5p-36'),
    ('0.03 NC(3.0, 2.0) tsallis-1.4 direct', '-0x1.54a3eb6d42e22p+0', '0x1.4598e4d0594dfp-36'),
    ('40.0 NC(5.5, 12.0) sharma-mittal', '0x1.1c05d5e256a6ep+0', '0x1.4086b0d2f61d0p-54'),
    ('40.0 NC(5.5, 12.0) sharma-mittal direct', '0x1.1c05d5e256a6ep+0', '0x1.f8fef6bf16e86p-54'),
    ('0.001 NC(2.5, 0.7) shannon', '-0x1.30d06a6c0508ep+2', '0x1.022fbedbccd3ap-45'),
    ('0.001 NC(2.5, 0.7) shannon direct', '-0x1.30d06a6c05092p+2', '0x1.012891db4836ap-43'),
    ('7.0 NC(9.0, 150.0) renyi-2', '0x1.9ade9bf9b1861p+2', '0x1.0bd6b862353a6p-42'),
    ('7.0 NC(9.0, 150.0) renyi-2 direct', '0x1.9ade9bf9b1861p+2', '0x1.2e64e2d8b5c83p-42'),
    ('chi2(3.0) diag-1.8 direct', '0x1.be648c7312f54p+0', '0x1.2a41e913b9021p-44'),
    ('Gamma(1.7, 0.4) gen-renyi direct', '0x1.f54dcec520cddp-2', '0x1.a4447b7ff40c2p-46'),
    ('chi2(3.0) shannon', '0x1.06ed671866daep+1', '0x1.aa84b0df6af49p-49'),
    ('chi2(3.0) renyi-0.5', '0x1.2cd51cf66cdcap+1', '0x1.2f92e64ec31d9p-48'),
    ('chi2(3.0) renyi-2', '0x1.d67f1c864beb4p+0', '0x1.a916b9a44f78cp-49'),
    ('chi2(3.0) gen-renyi', '0x1.ff91fb5d04ce5p+0', '0x1.39fd40b0eebcbp-48'),
    ('chi2(3.0) diag-1.8', '0x1.be648c7312f56p+0', '0x1.7e1ddbea1e3c4p-49'),
    ('chi2(3.0) tsallis-1.4', '0x1.596fcb4045be4p+0', '0x1.3760ad2188382p-49'),
    ('chi2(3.0) sharma-mittal', '0x1.eebe63dec2d50p-1', '0x1.6200904fa941cp-51'),
    ('2.5 Gamma(1.7, 0.4) shannon', '0x1.754d2bd891b85p+0', '0x1.788c9d46ea570p-49'),
    ('2.5 Gamma(1.7, 0.4) renyi-0.5', '0x1.bca0737e667e7p+0', '0x1.0ca88a4ce3fa4p-48'),
    ('2.5 Gamma(1.7, 0.4) renyi-2', '0x1.414cd35c7acacp+0', '0x1.8938363e208c9p-49'),
    ('2.5 Gamma(1.7, 0.4) gen-renyi', '0x1.67e57b384f374p+0', '0x1.1714bcf1ba403p-48'),
    ('2.5 Gamma(1.7, 0.4) diag-1.8', '0x1.2aa166b184c40p+0', '0x1.2dd78dc7d3e57p-49'),
    ('2.5 Gamma(1.7, 0.4) tsallis-1.4', '0x1.0b31b404538d1p+0', '0x1.5124492a2f67bp-49'),
    ('2.5 Gamma(1.7, 0.4) sharma-mittal', '0x1.b8ad21b2867cep-1', '0x1.128ef130cfd63p-50'),
    ('Bessel t = 1e-06 shannon', '-0x1.83593f30b8fc6p+2', '0x1.3b5c84631056ap-27'),
    ('Bessel t = 1e-05 shannon', '-0x1.39aa67eb38bf8p+2', '0x1.c4d11e68a52b2p-31'),
    ('Bessel t = 0.0001 shannon', '-0x1.dff5fb34ea820p+1', '0x1.3b74a66bb6d15p-34'),
    ('Bessel t = 0.001 shannon', '-0x1.4c8ba973bc0bep+1', '0x1.2c6e8b039711fp-37'),
    ('Bessel t = 0.01 shannon', '-0x1.715cba518c488p+0', '0x1.a2f0e4f1c6066p-41'),
    ('Bessel t = 0.1 shannon', '-0x1.025967977f4a0p-2', '0x1.8a34dacbf09a1p-43'),
    ('Bessel t = 1.0 shannon', '0x1.3cbd154c823adp+0', '0x1.85be04e1e103ep-44'),
    ('Bessel t = 10.0 shannon', '0x1.a8c9c2a49f842p+1', '0x1.872bacc8c0b84p-47'),
    ('Bessel t = 100.0 shannon', '0x1.6608195e3a149p+2', '0x1.579fc5b4342cep-47'),
    ('Bessel t = 1000.0 shannon', '0x1.f938661fd93dap+2', '0x1.5376b5c7cfcd7p-47'),
    ('Bessel t = 10000.0 shannon', '0x1.4648b5652b1c6p+3', '0x1.542ccf4ded5eap-47'),
    ('Bessel t = 100000.0 shannon', '0x1.8ff7424130de6p+3', '0x1.53188251fe49bp-47'),
    ('Bessel t = 1000000.0 shannon', '0x1.d9a603614f005p+3', '0x1.531f2ff23ad7ap-47'),
    ('Bessel t = 10000000.0 shannon', '0x1.11aa64ddbc295p+4', '0x1.53178d5bbab0cp-47'),
    ('0.8 NC(2.6, 0.5) renyi-0.5 split 2', '0x1.195e4ed9b42b8p+1', '0x1.29750a490889fp-46'),
    ('0.8 NC(2.6, 3.0) shannon split 2', '0x1.36fc8f6c15d6ap+1', '0x1.84c755127dc69p-45'),
    ('0.8 NC(2.6, 40.0) diag-1.8 split 2', '0x1.c11a27e62aa49p+1', '0x1.04907e7ea45bdp-41'),
    ('CIR t = 1 renyi-2 budget 4', '0x1.1abf7e843a648p-1', '0x1.78273e14bf3c4p-21'),
    ('NC(3.0, 2.0) renyi-2 budget 4', '0x1.2d07cf0f949a7p+1', '0x1.4ae2464fd35f2p-23'),
    ('exp budget 2', '0x1.ffffa67eeacaep-1', '0x1.39fe9ecdc5800p-11'),
    ('rsqrt-exp budget 2', '0x1.c5bf750ad696ep+0', '0x1.501393c28c000p-14'),
    ('exp budget 3', '0x1.ffffa67eeacaep-1', '0x1.39fe9ecdc5800p-11'),
    ('rsqrt-exp budget 3', '0x1.c5bf750ad696ep+0', '0x1.501393c28c000p-14'),
    ('exp budget 4', '0x1.00000000a2ca4p+0', '0x1.66096b2680000p-19'),
    ('rsqrt-exp budget 4', '0x1.c5bf891b5a89cp+0', '0x1.41083f2e00000p-20'),
]


def test_every_value_and_estimate_is_bit_identical():
    got = [(label, res.value.hex(), res.error_estimate.hex()) for label, res in cases()]
    assert len(got) == len(GOLDEN) == 61
    assert got == GOLDEN


def test_the_quadrature_setting_rows_stay_on_quadrature():
    # config sets the quadrature alone, so these rows pin it only while
    # their laws refuse the lambda series
    laws = [(cir_marginal(CIRParams(1.1, 0.7, 0.8, 0.5), 1.0), "renyi-2"),
            (NoncentralChiSq(3.0, 2.0), "renyi-2")]
    laws += [(NoncentralChiSq(2.6, y0), kind)
             for y0, kind in [(0.5, "renyi-0.5"), (3.0, "shannon"), (40.0, "diag-1.8")]]
    for law, kind in laws:
        k, lam, _ = _triple_of(law)
        assert _lambda_series(k, lam, *_family(SPECS[kind])) is None, (law, kind)
