"""Numeric oracle: quadrature anchors, Gamma-form agreement, and the
generating-function comparisons."""
import math
import sys
import threading
from dataclasses import replace
from fractions import Fraction

import mpmath as mp
import pytest

from critpoly import construct, quadrature
from critpoly.construct import mellin_T_closed, mellin_closed
from critpoly.errors import (ConvergenceMarginViolated, InvalidParameters,
                             ToleranceNotMet)
from critpoly.quadrature import (closed_form_value, compare_mellin,
                                 compare_mellin_T, genfun_check,
                                 lemma3a_check, mellin_values,
                                 quad_mellin_T, quad_mellin_gegenbauer,
                                 transform_level_lemma1_check)
from critpoly.verify import check_corollary2


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


def test_genfun_check_takes_the_values_it_would_compute():
    # the genfun suite's route: the series coefficients computed once for
    # every t at one (lambda, s)
    m, t = mellin_values(2.5, 3.0, 40), mellin_values(None, 3.0, 40)
    assert genfun_check(2.5, 3.0, 0.05, m_values=m, t_values=t) \
        == genfun_check(2.5, 3.0, 0.05)
    with pytest.raises(InvalidParameters):
        genfun_check(2.5, 3.0, 0.05, K=10, m_values=m, t_values=t)


def test_genfun_divergent_tail_fails():
    # p_3 vanishes at s = 1/2, so M_3(0.501) is tiny and the last term
    # ratio is far above 1: the tail bound is infinite, nothing is proven
    r = genfun_check(1.0, 0.501, 0.1, K=4, tol=1e-9)
    assert r["tail_bound"] == math.inf
    assert not r["pass"]


def test_hyp_partial_raises_on_a_series_that_neither_ends_nor_converges():
    m = quadrature.mp
    half, one, three_halves = m.mpf(1) / 2, m.mpf(1), m.mpf(3) / 2
    assert quadrature._hyp_partial([half, one], [three_halves], m.mpf(1) / 4) \
        == pytest.approx(m.hyp2f1(half, one, three_halves, m.mpf(1) / 4),
                         rel=1e-25)
    assert quadrature._hyp_partial([-2 * one, one], [three_halves], 2 * one) \
        == pytest.approx(m.mpf(7) / 15, rel=1e-25)
    # 2F1(1/2, 1; 3/2; z) = atanh(sqrt z)/sqrt z: its series diverges at z > 1
    with pytest.raises(ToleranceNotMet, match=r"at z = 2\.0 neither"):
        quadrature._hyp_partial([half, one], [three_halves], 2 * one)


def test_genfun_margin_enforced():
    with pytest.raises(ConvergenceMarginViolated):
        genfun_check(1.0, 2.0, 0.3, K=10, tol=1e-9)
    with pytest.raises(InvalidParameters):
        genfun_check(1.0, -1.0, 0.1, K=10, tol=1e-9)


def test_composition_transform_numeric():
    for m in range(1, 5):
        for n in range(1, 6):
            for s in (0.5, 1.0, 1.5, 2.0, 3.7):
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


def test_compare_mellin_reads_lambda_as_a_rational():
    # a "p/q" string, as every other entry point takes it; the row's lambda
    # stays a float
    row = compare_mellin(12, "7/3", 2.0)
    assert row == compare_mellin(12, Fraction(7, 3), 2.0)
    assert row["lambda"] == 7 / 3 and row["rel_err"] <= 1e-12


# ---------------------------------------------------------------------------
# Gauss-Jacobi against the tanh-sinh quadrature it replaced
# ---------------------------------------------------------------------------

def tanh_sinh_gegenbauer(n, lam, s, tol=1e-12):
    """Test-local copy of the former oracle: the theta form
    cos^(s-1) C_n^lam(cos) sin^(lam - 1/2) over [0, pi/2] by adaptive
    tanh-sinh at 30 digits. Returns the value, or None where its own error
    estimate misses the tolerance."""
    ctx = mp.MPContext()
    ctx.dps = 30
    lam_m, s_m = ctx.mpf(lam), ctx.mpf(s)

    def gegenbauer(x):
        a, b = ctx.mpf(1), 2 * lam_m * x
        if n == 0:
            return a
        for m in range(2, n + 1):
            a, b = b, (2 * (lam_m + m - 1) * x * b
                       - (2 * lam_m + m - 2) * a) / m
        return b

    def f(theta):
        c, si = ctx.cos(theta), ctx.sin(theta)
        return c ** (s_m - 1) * gegenbauer(c) * si ** (lam_m - ctx.mpf("0.5"))

    value, err = ctx.quad(f, [0, ctx.pi / 2], error=True)
    value, err = float(value), float(err)
    return value if err <= tol * max(1.0, abs(value)) else None


def test_gauss_jacobi_agrees_with_tanh_sinh_on_c06_grid():
    grid = [(n, lam, s) for n in range(11) for lam in (0.5, 1.0, 1.5, 2.5)
            for s in (0.5, 1.0, 2.0, 3.7)]
    compared = 0
    for n, lam, s in grid:
        ref = tanh_sinh_gegenbauer(n, lam, s)
        if ref is None:
            continue
        got = quad_mellin_gegenbauer(n, lam, s).value
        assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref)), (n, lam, s)
        compared += 1
    # the old rule converges on this whole grid, so nothing is skipped
    assert compared == len(grid)


@pytest.mark.parametrize("n", range(13))
def test_points_tanh_sinh_missed(n):
    for s in (0.125, 0.5, 2.0, 3.7):
        row = compare_mellin(n, Fraction(-1, 4), s)
        assert row["rel_err"] <= 1e-12, row
    if n % 2 == 0:
        for lam in (0.5, 1.0, 1.5, 2.5):
            row = compare_mellin(n, lam, 0.125)
            assert row["rel_err"] <= 1e-12, row


def test_comparison_rows_report_the_quadrature_work():
    row = compare_mellin(12, 2.5, 3.7)
    # rules of 4 and 5 nodes for a degree-6 polynomial in y = x^2
    assert row["evaluations"] == 9
    assert 0 < row["error_estimate"] < 1e-20
    row = compare_mellin_T(5, 2.5)
    assert row["evaluations"] == 5
    assert row["error_estimate"] < 1e-20
    assert {"n", "lambda", "s", "quadrature", "closed_form", "abs_err",
            "rel_err"} <= set(row)


def test_rel_err_at_a_zero_of_the_closed_form():
    # s = n^2 - 1 is a zero of the T factor, so the closed form is 0 there;
    # n = 24 and 40 put beta = (s - 2)/2 near 287 and 799
    for n in list(range(2, 13)) + [24, 40]:
        row = compare_mellin_T(n, float(n * n - 1))
        assert row["closed_form"] == 0 and row["rel_err"] <= 1e-28, row
    # the rule's terms at n = 12, s = 143 have |w_i P(y_i)| summing to about
    # 3.5e-4, so an error of 1e-11 there is a relative error near 3e-8
    q = quad_mellin_T(12, 143.0)
    row = quadrature._comparison_row(12, None, 143.0,
                                     replace(q, value=q.value + 1e-11),
                                     mellin_T_closed(12))
    assert row["abs_err"] <= 1e-10 < row["rel_err"]


def test_underflowing_terms_raise_tolerance_not_met():
    # every term |w_i P(y_i)| of this rule underflows to 0.0 as a float, so
    # the row has no scale to measure a relative error against
    with pytest.raises(ToleranceNotMet, match="underflow"):
        compare_mellin(40, 2000, 1e4)


def test_gauss_jacobi_exact_for_stated_degree():
    # Int_0^1 y^5 dy and Int_0^1 y^(1/2) (1-y) y^2 dy = B(7/2, 2); the
    # integrands map fixed-point y to fixed-point f(y)
    w = quadrature._FIXED_BITS
    q = quadrature._gauss_jacobi(lambda y: y ** 5 >> 4 * w, 5, 0, 0, 1e-25)
    assert q.value == pytest.approx(1 / 6, rel=1e-15)
    assert q.evaluations == 3 + 4
    q = quadrature._gauss_jacobi(lambda y: y * y >> w, 2, 1, 0.5, 1e-25)
    assert q.value == pytest.approx(float(mp.beta(3.5, 2)), rel=1e-15)


def test_error_estimate_rejects_wrong_integrands():
    gj, w = quadrature._gauss_jacobi, quadrature._FIXED_BITS
    with pytest.raises(ToleranceNotMet):  # not a polynomial: sqrt(y)
        gj(lambda y: math.isqrt(y << w), 1, 0, 0, 1e-12)
    with pytest.raises(ToleranceNotMet):  # stated degree too low
        gj(lambda y: y ** 5 >> 4 * w, 1, 0, 0, 1e-12)
    # parity differs from the degree's; g maps fixed-point x to x^3 + x^2
    with pytest.raises(ToleranceNotMet):
        quadrature._mellin_even_weight(
            lambda x: (x ** 3 >> 2 * w) + (x ** 2 >> w), 3, -0.25, 2.0, 1e-12)


def test_oracles_ignore_the_global_precision(monkeypatch):
    # a non-dyadic s is rounded if anything reads it at 5 digits
    monkeypatch.setattr(mp.mp, "dps", 5)
    for n in range(9):
        assert compare_mellin(n, 1.5, 3.7)["rel_err"] <= 1e-12
        assert compare_mellin_T(n, 3.7)["rel_err"] <= 1e-12
    assert genfun_check(1.0, 3.7, 0.1)["pass"]
    assert genfun_check(2.5, 3.7, 0.05)["pass"]
    for n in range(1, 9):
        assert check_corollary2(n, [Fraction(37, 10), Fraction(1, 3)])["pass"]
    assert mp.mp.dps == 5


def test_oracle_under_concurrent_precision_changes():
    # other threads enter and leave `workdps` blocks, which is what can
    # leave the global precision at another thread's value
    stop = threading.Event()
    rel_errs = []

    def churn():
        while not stop.is_set():
            with mp.workdps(5):
                pass

    def work():
        for n in range(9):
            rel_errs.append(compare_mellin(n, 1.5, 3.7)["rel_err"])

    churners = [threading.Thread(target=churn) for _ in range(2)]
    workers = [threading.Thread(target=work) for _ in range(2)]
    prec, interval = mp.mp.prec, sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in churners + workers:
            t.start()
        for t in workers:
            t.join(timeout=60)
    finally:
        stop.set()
        for t in churners:
            t.join(timeout=10)
        sys.setswitchinterval(interval)
        mp.mp.prec = prec
    assert not any(t.is_alive() for t in churners + workers)
    assert len(rel_errs) == 18 and max(rel_errs) <= 1e-12
