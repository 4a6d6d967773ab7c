"""Tests of the benchmark's oracle against 30-digit mpmath values.

    python3 -m pytest bench/test_oracle.py

The reference points in refpoints.json come from bench/refpoints.py,
which integrates the densities written out in mpmath; rerun it to
regenerate them.
"""

import json
import math
import os

import pytest

import oracle

with open(os.path.join(os.path.dirname(__file__), "refpoints.json"), encoding="utf-8") as fh:
    POINTS = json.load(fh)


def _law(entry):
    law = entry["law"]
    if law[0] == "cir":
        return oracle.cir_law(*law[1:])
    return tuple(law)


@pytest.mark.parametrize("entry", POINTS, ids=[p["label"] for p in POINTS])
def test_moments_match_mpmath(entry):
    law, a = _law(entry), entry["order"]
    log_i, j_over_i = oracle.moment_log(law, a)
    ref_log_i, ref_j = float(entry["log_moment"]), float(entry["j_over_i"])
    assert abs(log_i - ref_log_i) <= 1e-12 * (1.0 + abs(ref_log_i))
    assert abs(j_over_i - ref_j) <= 1e-12 * (1.0 + abs(ref_j))
    assert abs(oracle.log_moment(law, a) - ref_log_i) <= 1e-12 * (1.0 + abs(ref_log_i))


def test_near_gate_renyi_2():
    state, value = oracle.entropy_value(("nc", 1.02, 3.0, 1.0), "renyi", 2.0)
    assert state == "finite"
    assert abs(value - 0.71046285516526) < 1e-13


@pytest.mark.parametrize("kind,alpha,beta", [
    ("shannon", None, None), ("renyi", 0.4, None), ("gen-renyi", 0.5, 2.5),
    ("gen-renyi-diag", 3.0, None), ("tsallis", 1.7, None),
    ("sharma-mittal", 2.0, 0.6)])
@pytest.mark.parametrize("shape,scale", [(0.6, 1.3), (2.5, 0.4), (5.0, 3.0)])
def test_gamma_quadrature_matches_closed_form(kind, alpha, beta, shape, scale):
    closed = oracle.gamma_entropy(shape, scale, kind, alpha, beta)
    quad = oracle.entropy_value(("gamma", shape, 0.0, scale), kind, alpha, beta)
    assert closed[0] == quad[0]
    if closed[0] == "finite":
        assert oracle.close(quad[1], closed[1], 1e-12)


def test_small_lambda_mixture_matches_ncx2():
    # both density routes are valid at lam = 1e-4; the oracle switches there
    from scipy import stats

    mixture = oracle._PoissonMixture(3.5, 1e-4, 2.0)
    for x in (1e-6, 0.3, 2.0, 15.0, 80.0):
        assert math.isclose(mixture.logpdf(x), stats.ncx2.logpdf(x, 3.5, 1e-4, scale=2.0),
                            rel_tol=1e-12, abs_tol=1e-12)


def test_gate_recomputed():
    assert oracle.entropy_value(("chi2", 1.2, 0.0, 1.0), "renyi", 3.0) == \
        ("undefined", "existence-gate")
    assert oracle.gamma_entropy(0.6, 1.0, "gen-renyi", 0.5, 3.0) == \
        ("undefined", "existence-gate")
