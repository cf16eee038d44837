"""Numeric oracle: quadrature anchors, Gamma-form agreement, and the
generating-function comparisons."""
import math
from fractions import Fraction

import mpmath as mp
import pytest

from critpoly import construct
from critpoly.construct import mellin_T_closed, mellin_closed
from critpoly.errors import (ConvergenceMarginViolated, InvalidParameters)
from critpoly.quadrature import (closed_form_value, compare_mellin,
                                 compare_mellin_T, genfun_check,
                                 lemma3a_check, log_gamma,
                                 quad_mellin_T, quad_mellin_gegenbauer,
                                 transform_level_lemma1_check)


def test_anchor_u1_at_s1():
    # integrand 2x(1-x^2)^(-1/4) has antiderivative -(4/3)(1-x^2)^(3/4)
    q = quad_mellin_gegenbauer(1, 1.0, 1.0, 1e-12)
    assert q.value == pytest.approx(4 / 3, rel=1e-12)
    assert q.evaluations > 0


def test_anchor_n0_s2():
    q = quad_mellin_gegenbauer(0, 1.0, 2.0, 1e-12)
    assert q.value == pytest.approx(2 / 3, rel=1e-12)


def test_anchor_T_seed():
    q = quad_mellin_T(0, 2.0, 1e-12)
    want = math.sqrt(math.pi) / 4 * math.gamma(1.0) / math.gamma(2.5)
    assert q.value == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("n,s", [(2, 3.0), (3, 8.0)])
def test_T_transform_vanishes_at_claimed_zero(n, s):
    assert abs(quad_mellin_T(n, s, 1e-12).value) <= 1e-11


def test_invalid_parameters():
    with pytest.raises(InvalidParameters):
        quad_mellin_gegenbauer(2, 1.0, -0.5)
    with pytest.raises(InvalidParameters):
        quad_mellin_gegenbauer(2, -0.7, 1.0)
    with pytest.raises(InvalidParameters):
        quad_mellin_gegenbauer(2, 0.0, 1.0)
    with pytest.raises(InvalidParameters):
        quad_mellin_T(3, -1.0)
    # odd n admits -1 < s <= 0
    quad_mellin_T(3, -0.5)


def test_quadrature_matches_closed_form_grid():
    for n in range(7):
        for lam in (0.5, 1.5):
            for s in (0.5, 2.0, 3.7):
                row = compare_mellin(n, lam, s)
                assert row["rel_err"] <= 1e-10, row


def test_T_comparison_rows():
    row = compare_mellin_T(4, 2.5)
    assert row["rel_err"] <= 1e-10


def test_log_gamma_accuracy():
    with mp.workdps(50):
        for i in range(1, 500):
            x = 0.1 + i * 0.1
            ref = float(mp.loggamma(x))
            assert abs(log_gamma(x) - ref) <= 1e-13 * max(1.0, abs(ref))
    with pytest.raises(InvalidParameters):
        log_gamma(0.0)


def test_closed_form_seed_values():
    # M_0(s) = Gamma(3/4) Gamma(s/2) / (2 Gamma(s/2 + 3/4)) at lambda = 1
    got = closed_form_value(mellin_closed(0, 1), 2.0)
    want = math.gamma(0.75) * math.gamma(1.0) / (2 * math.gamma(1.75))
    assert got == pytest.approx(want, rel=1e-13)
    got = closed_form_value(mellin_T_closed(0), 2.0)
    assert got == pytest.approx(math.sqrt(math.pi) / 4 / math.gamma(2.5),
                                rel=1e-13)


def test_genfun_agreement():
    r = genfun_check(1.0, 2.0, 0.1, K=40, tol=1e-9)
    assert r["pass"], r["errors"]
    assert set(r["closed"]) == {"general", "lambda1", "reexpanded",
                                "chebyshev_T"}
    r = genfun_check(2.5, 3.0, 0.05, K=40, tol=1e-9)
    assert r["pass"]
    assert "lambda1" not in r["closed"]


def test_genfun_at_t_zero_is_seed():
    r = genfun_check(1.0, 2.0, 0.0, K=10, tol=1e-12)
    assert r["pass"]
    m0 = closed_form_value(mellin_closed(0, 1), 2.0)
    assert r["series"] == pytest.approx(m0, rel=1e-12)


def test_genfun_divergent_tail_fails():
    # p_3 vanishes at s = 1/2, so M_3(0.501) is tiny and the last term
    # ratio is far above 1: the tail bound is infinite, nothing is proven
    r = genfun_check(1.0, 0.501, 0.1, K=4, tol=1e-9)
    assert r["tail_bound"] == math.inf
    assert not r["pass"]


def test_genfun_margin_enforced():
    with pytest.raises(ConvergenceMarginViolated):
        genfun_check(1.0, 2.0, 0.3, K=10, tol=1e-9)
    with pytest.raises(InvalidParameters):
        genfun_check(1.0, -1.0, 0.1, K=10, tol=1e-9)


def test_composition_transform_numeric():
    for m, n, s in ((2, 2, 2.0), (1, 5, 1.0), (3, 2, 1.5)):
        r = transform_level_lemma1_check(m, n, s)
        assert r["pass"], r


def test_argument_shift_identity():
    for m in range(6):
        for n in range(6):
            assert lemma3a_check(m, n, 1.3)["pass"]


def test_float_lambda_is_read_as_its_shortest_repr(monkeypatch):
    seen = []
    build = construct.p_hyp

    def spy(n, lam):
        seen.append(lam)
        return build(n, lam)

    monkeypatch.setattr(construct, "p_hyp", spy)
    row = compare_mellin(6, 0.1, 2.0)
    assert seen == [Fraction(1, 10)]
    assert row["rel_err"] <= 1e-10
