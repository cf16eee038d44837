"""Numeric oracle: quadrature anchors and Gamma-form agreement; and the exact
generating-function proof, its negative controls, and its coefficients
summed against the float closed forms of genfun_oracle.py."""
import json
import math
import os
import subprocess
import sys
import threading
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest

import genfun_oracle
from corollary2_oracle import corollary2_rel_err
from critpoly import construct, quadrature
from critpoly.construct import mellin_T_closed, mellin_closed
from critpoly.errors import InvalidParameters, ToleranceNotMet
from critpoly.poly import Poly, pochhammer
from critpoly.quadrature import (closed_form_value, compare_mellin,
                                 compare_mellin_T, genfun_check,
                                 lemma3a_check, quad_mellin_T,
                                 quad_mellin_gegenbauer,
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


def test_an_infinite_or_nan_s_is_invalid():
    for s in (float("inf"), float("nan"), 1e400):
        with pytest.raises(InvalidParameters, match="finite s"):
            compare_mellin(4, 1, s)
        with pytest.raises(InvalidParameters, match="finite s"):
            compare_mellin_T(3, s)


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
    for n in (-1, -2):
        with pytest.raises(InvalidParameters):
            quad_mellin_gegenbauer(n, 1.0, 1.0)
        with pytest.raises(InvalidParameters):
            quad_mellin_T(n, 1.0)


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
    # coefficients 0..40 of the general form on the suite's lambdas and at
    # lambda = -1/4, and of the T form, proved as polynomials in s
    for lam in (1, Fraction(1, 2), Fraction(5, 2), Fraction(7, 3),
                Fraction(-1, 4), None):
        r = genfun_check(lam)
        assert r["pass"] and r["failed_n"] is None, r
        assert r["method"] == "exact" and r["coefficients"] == 41
        assert r["coeff_bits"] > 0
    assert genfun_check(None)["family"] == "T"
    assert genfun_check(Fraction(7, 3), K=5)["family"] == "lambda=7/3"
    with pytest.raises(InvalidParameters):
        genfun_check(1, K=-1)


def test_genfun_at_t_zero_is_seed():
    # the t^0 coefficient is M_0: hat_0 = 1 = C_0, and the chain is [1]
    for lam in (1, Fraction(5, 2)):
        assert construct.p_hyp(0, lam).poly == Poly.constant("s", 1)
        assert quadrature._proves(0, Fraction(lam)) == (True, 1)
        assert genfun_check(lam, K=0)["coefficients"] == 1
    assert quadrature._proves(0, None)[0]


def test_genfun_at_large_n():
    for n in (400, 401):
        assert quadrature._proves(n, Fraction(7, 3))[0]


def test_genfun_fails_a_perturbed_hat_coefficient(monkeypatch):
    def perturbed(n, lam):
        built = construct.p_hyp(n, lam)
        if n != 7:
            return built
        coeffs = list(built.poly.coeffs)
        coeffs[2] += Fraction(1, 10 ** 30)
        return replace(built, poly=Poly("s", coeffs))

    monkeypatch.setattr(quadrature, "p_hyp", perturbed)
    r = genfun_check(Fraction(5, 2))
    assert not r["pass"] and r["failed_n"] == 7 and r["coefficients"] == 40


def test_genfun_fails_weights_without_their_4_to_the_j(monkeypatch):
    good = quadrature._general_weights
    monkeypatch.setattr(
        quadrature, "_general_weights",
        lambda k, eps, lam: [c / 4 ** j
                             for j, c in enumerate(good(k, eps, lam))])
    for lam in (1, Fraction(7, 3)):
        r = genfun_check(lam)
        assert not r["pass"] and r["failed_n"] == 2, r


def test_genfun_fails_the_printed_prefactors(monkeypatch):
    # the printed form has Gamma(lam) and Gamma(lam + 1) where the proved
    # one has 1 and lam: the same at lam = 1 and 2, 2 and 6 against 1 and 3
    # at lam = 3; Gamma(lam + eps) = (lam + eps - 1)! at these integers
    good = quadrature._general_weights

    def printed(k, eps, lam):
        return [c * math.factorial(int(lam) + eps - 1) / lam ** eps
                for c in good(k, eps, lam)]

    monkeypatch.setattr(quadrature, "_general_weights", printed)
    assert genfun_check(1)["pass"] and genfun_check(2)["pass"]
    r = genfun_check(3)
    assert not r["pass"] and r["failed_n"] == 0


def test_genfun_fails_the_T_form_without_its_factor_2(monkeypatch):
    # (1 + [n > 0]) T_n is the t^n coefficient; T_n alone is not
    def unfolded(n):
        form = mellin_T_closed(n)
        return replace(form, const_rat=form.const_rat / (1 + (n > 0)))

    monkeypatch.setattr(quadrature, "mellin_T_closed", unfolded)
    r = genfun_check(None)
    assert not r["pass"] and r["failed_n"] == 1 and r["coefficients"] == 1


# the acceptance c12 points
@pytest.mark.parametrize("s", [1, 2, 3])
@pytest.mark.parametrize("t", ["0.05", "0.1"])
def test_exact_coefficients_sum_to_the_float_forms(s, t):
    m = genfun_oracle.mp
    s_r, t_r = Fraction(s), Fraction(t)
    s_m, t_m = m.mpf(s), m.mpf(t)
    close = {}
    for lam in (Fraction(1), Fraction(1, 2), Fraction(5, 2), Fraction(7, 3)):
        lam_m = m.mpf(lam.numerator) / lam.denominator
        close[f"general at {lam}"] = (
            genfun_oracle.genfun_rhs_general(lam_m, s_m, t_m),
            genfun_oracle.exact_series(lam, s_r, t_r))
    lambda1 = genfun_oracle.exact_series(Fraction(1), s_r, t_r)
    close["lambda1"] = genfun_oracle.genfun_rhs_lambda1(s_m, t_m), lambda1
    close["reexpanded"] = (
        genfun_oracle.genfun_rhs_reexpanded(s_m, t_m, 40)[0], lambda1)
    close["T"] = (genfun_oracle.genfun_rhs_T(s_m, t_m),
                  genfun_oracle.exact_series(None, s_r, t_r))
    for name, (closed, series) in close.items():
        assert abs(closed - series) <= 1e-25, (name, closed, series)


def reexpanded_scalar(n: int, i: int) -> Fraction:
    """The rational factor of the i-th term of the re-expanded lambda = 1
    form at t^n, apart from its Gamma prefactor and (u)_i / (c)_i: that term
    comes from the series of index k = m + i + eps, n = 2m + eps, whose
    term i carries t^(2k - eps - 2i) (4/t^2)^i."""
    m, eps = divmod(n, 2)
    k = m + i + eps
    half = Fraction(1, 2)
    if eps == 0:
        return ((-1) ** k * pochhammer((1 - k) * half, i)
                * pochhammer(-k * half, i) * 4 ** i
                / (pochhammer(half, i) * math.factorial(i)))
    return (-(-1) ** k * 2 * k * pochhammer((1 - k) * half, i)
            * pochhammer(1 - k * half, i) * 4 ** i
            / (pochhammer(3 * half, i) * math.factorial(i)))


def test_reexpansion_collects_the_lambda1_terms():
    # ((1-k)/2)_i (-k/2)_i 4^i = (-k)_(2i) and (1/2)_i i! 4^i = (2i)!, so
    # under k = m + i (+ 1 when odd) each re-expanded term is a term of the
    # lambda = 1 general coefficient; the series of index k <= 40 supply
    # every term of t^n, n <= 40, and their terms past i = m vanish
    for n in range(41):
        m, eps = divmod(n, 2)
        terms = [reexpanded_scalar(n, i) for i in range(41 - m - eps)]
        assert terms[:m + 1] == quadrature._general_weights(m, eps,
                                                            Fraction(1)), n
        assert not any(terms[m + 1:]), n


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
    # with the rules of 3 and 4 nodes; the weights (alpha, beta) = (0, 0)
    # and (1, 1/2) have the keys (0, 0, 1) and (2, 1, 2)
    q = quadrature._gauss_jacobi(lambda y: y ** 5 >> 4 * w, 3, (0, 0, 1),
                                 1e-25)
    assert q.value == pytest.approx(1 / 6, rel=1e-15)
    assert q.evaluations == 3 + 4
    q = quadrature._gauss_jacobi(lambda y: y * y >> w, 2, (2, 1, 2), 1e-25)
    assert q.value == pytest.approx(float(mp.beta(3.5, 2)), rel=1e-15)


def test_error_estimate_rejects_wrong_integrands():
    gj, w = quadrature._gauss_jacobi, quadrature._FIXED_BITS
    with pytest.raises(ToleranceNotMet):  # not a polynomial: sqrt(y)
        gj(lambda y: math.isqrt(y << w), 1, (0, 0, 1), 1e-12)
    with pytest.raises(ToleranceNotMet):  # stated degree too low
        gj(lambda y: y ** 5 >> 4 * w, 1, (0, 0, 1), 1e-12)
    # parity differs from the degree's; g maps fixed-point x to x^3 + x^2
    with pytest.raises(ToleranceNotMet):
        quadrature._mellin_even_weight(
            lambda x: (x ** 3 >> 2 * w) + (x ** 2 >> w), 3, Fraction(-1, 4),
            2.0, 1e-12)


def test_oracles_ignore_the_global_precision(monkeypatch):
    # a non-dyadic s is rounded if anything reads it at 5 digits
    monkeypatch.setattr(mp.mp, "dps", 5)
    for n in range(9):
        assert compare_mellin(n, 1.5, 3.7)["rel_err"] <= 1e-12
        assert compare_mellin_T(n, 3.7)["rel_err"] <= 1e-12
    for n in range(1, 9):
        for s in (Fraction(37, 10), Fraction(1, 3)):
            assert corollary2_rel_err(n, s) <= 1e-30, (n, s)
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


# ---------------------------------------------------------------------------
# the Beta form of the comparison row: negative controls and its Gamma work
# ---------------------------------------------------------------------------

# at lambda = 3/2, const_gamma_arg - 1 is 0, a pole of Gamma
CONTROL_ROWS = [(n, lam, s) for n in (0, 1, 5, 12)
                for lam in (Fraction(1, 2), Fraction(3, 2), Fraction(7, 3),
                            None)
                for s in (0.75, 3.7)]


def broken_forms(form) -> dict:
    """form with one field broken: a den_offset off by 1/2 (no integer
    Pochhammer offset) and by 2, a const_gamma_arg off by 1, the constant
    coefficient of the factor off by one part in 10^3."""
    coeffs = list(form.factor.coeffs)
    coeffs[0] *= 1 + Fraction(1, 10 ** 3)
    return {"den_offset + 1/2": replace(form, den_offset=form.den_offset
                                        + Fraction(1, 2)),
            "den_offset + 2": replace(form, den_offset=form.den_offset + 2),
            "const_gamma_arg - 1": replace(
                form, const_gamma_arg=form.const_gamma_arg - 1),
            "factor": replace(form, factor=Poly("s", coeffs))}


def control_outcomes() -> list:
    """(row, control, how the row came out): the name of the error it
    raised, or its rel_err."""
    out = []
    for n, lam, s in CONTROL_ROWS:
        if lam is None:
            q, form = quad_mellin_T(n, s), mellin_T_closed(n)
        else:
            q, form = quad_mellin_gegenbauer(n, lam, s), mellin_closed(n, lam)
        for name, broken in broken_forms(form).items():
            try:
                got = quadrature._comparison_row(n, lam, s, q, broken)
            except InvalidParameters as exc:
                got = {"rel_err": type(exc).__name__}
            out.append(((n, str(lam), s), name, got["rel_err"]))
    return out


def test_broken_closed_forms_fail_the_row():
    # each broken form raises, or reads far from the quadrature; the sound
    # form agrees with it
    outcomes = control_outcomes()
    assert len(outcomes) == 4 * len(CONTROL_ROWS)
    for row, name, got in outcomes:
        if name == "den_offset + 1/2" or (row[1], name) == (
                "3/2", "const_gamma_arg - 1"):
            assert got == "InvalidParameters", (row, name, got)
        else:
            assert got == "InvalidParameters" or got > 1e-8, (row, name, got)
    for n, lam, s in CONTROL_ROWS:
        row = (compare_mellin_T(n, s) if lam is None
               else compare_mellin(n, lam, s))
        assert row["rel_err"] <= 1e-12, row


def test_broken_closed_forms_fail_the_row_under_optimize():
    # python -O strips assert statements; the row must not rely on them
    script = ("import json, sys\n"
              f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
              "import test_quadrature\n"
              "print(json.dumps(test_quadrature.control_outcomes()))\n")
    src = Path(quadrature.__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    outcomes = [(tuple(row), name, got)
                for row, name, got in json.loads(proc.stdout)]
    assert outcomes == [((n, lam, s), name, got) for (n, lam, s), name, got
                        in control_outcomes()]


def test_a_row_makes_three_gamma_calls_and_no_beta_call(monkeypatch):
    # one set of three mp.gamma calls per weight: a cold row makes it, and a
    # second row on the same weight (n = 14 and 12 are both even, so both
    # integrate against y^(s/2 - 1) (1-y)^(lambda/2 - 3/4)) makes none
    calls = []
    for name in ("gamma", "beta"):
        fn = getattr(quadrature.mp, name)
        monkeypatch.setattr(quadrature.mp, name,
                            lambda *a, name=name, fn=fn: calls.append(name)
                            or fn(*a))
    compare_mellin(12, Fraction(7, 3), 3.7)
    assert calls == ["gamma"] * 3
    calls.clear()
    compare_mellin(14, Fraction(7, 3), 3.7)
    # the Gegenbauer closed form is B(x, const_gamma_arg) times a rational,
    # and x = beta + 1, const_gamma_arg = alpha + 1: the row's own mu0
    closed_form_value(mellin_closed(12, Fraction(7, 3)), 3.7)
    assert calls == []
    compare_mellin_T(9, 80.0)
    assert calls == ["gamma"] * 3
    calls.clear()
    compare_mellin_T(11, 80.0)
    assert calls == []
    # closed_form_value's B(x, const_gamma_arg) comes from the same memo
    for k in (5, 5, 7):
        closed_form_value(mellin_closed(k, 1), 1.3)
    assert calls == ["gamma"] * 3


def test_lemma3a_asks_for_one_beta_value_per_argument():
    # M_2(s + 3) and M_5, M_3, M_1 at s: x = (s + 3)/2 and (s + 1)/2 at
    # the one const_gamma_arg 3/4 of lambda = 1
    start = quadrature.memo_counts()
    assert lemma3a_check(3, 2, 1.3)["pass"]
    counts = [b - a for a, b in zip(start, quadrature.memo_counts())]
    assert counts == [0, 0, 2, 2, 0, 0]


def test_a_float_lambda_is_read_once_by_both_entry_points():
    # both read 0.1 as 1/10, so they integrate against one weight
    for n, s in ((6, 2.0), (12, 3.7)):
        construct.clear_caches()
        value = quad_mellin_gegenbauer(n, 0.1, s).value
        construct.clear_caches()
        assert value.hex() == compare_mellin(n, 0.1, s)["quadrature"].hex()
        assert value == quad_mellin_gegenbauer(n, Fraction(1, 10), s).value


def test_a_memoized_rule_is_one_immutable_object():
    # alpha = 1/4 and beta = 3/4 over their lcm 4
    rule = quadrature._gauss_jacobi_rule(1, 3, 4, 5)
    assert type(rule) is tuple and len(rule) == 5
    assert all(type(node) is tuple for node in rule)
    assert quadrature._gauss_jacobi_rule(1, 3, 4, 5) is rule


def test_a_rule_that_raises_is_not_memoized(monkeypatch):
    monkeypatch.setattr(quadrature, "_NEWTON_CAP", 0)
    construct.clear_caches()
    for _ in range(2):
        with pytest.raises(ToleranceNotMet, match="did not converge"):
            compare_mellin(6, Fraction(3, 2), 2.0)
    assert quadrature._gauss_jacobi_rule.cache_info().currsize == 0


def test_clear_caches_empties_the_quadrature_memos():
    compare_mellin(6, Fraction(3, 2), 2.0)
    memos = (quadrature._gauss_jacobi_rule, quadrature._beta)
    assert [memo.cache_info().currsize for memo in memos] == [2, 1]
    construct.clear_caches()
    assert [memo.cache_info().currsize for memo in memos] == [0, 0]
    # 64 mellin-batch rounds (seed 1) ask for 320 rules and 74 weights
    assert quadrature.RULE_MEMO_SIZE >= 320
    assert quadrature.BETA_MEMO_SIZE >= 74


# ---------------------------------------------------------------------------
# row plans and one rounding per output float
# ---------------------------------------------------------------------------

def mpmath_calls(fn) -> list:
    """The names of the mpmath Python functions that fn() calls: every mpf
    construction, operator and conversion is one."""
    root = str(Path(mp.__file__).parent)
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(root):
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def test_a_warm_row_makes_no_mpf():
    # a cold row computes mu0 in mpf; the second reads it, its rules and
    # its plan from the memos, and rounds integers straight to floats
    for row in (lambda: compare_mellin(12, Fraction(7, 3), 3.7),
                lambda: compare_mellin_T(9, 80.0)):
        assert mpmath_calls(row)
        assert mpmath_calls(row) == []


def test_clear_caches_empties_the_row_plans(monkeypatch):
    # a row keeps the shape of its closed form: a patched mellin_closed
    # reaches a warm row only once clear_caches() has emptied the memo
    row = compare_mellin(12, Fraction(7, 3), 3.7)
    assert row["rel_err"] <= 1e-12
    build = quadrature.mellin_closed
    monkeypatch.setattr(quadrature, "mellin_closed",
                        lambda n, lam: broken_forms(build(n, lam))["factor"])
    assert compare_mellin(12, Fraction(7, 3), 3.7) == row
    construct.clear_caches()
    assert quadrature._gegenbauer_shape.cache_info().currsize == 0
    assert compare_mellin(12, Fraction(7, 3), 3.7)["rel_err"] > 1e-8
