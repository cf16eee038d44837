"""Certificates and exact cross-checks of the transform identities."""
import dataclasses
import logging
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critpoly import cli, construct, quadrature, verify
from critpoly import poly as poly_module
from critpoly.construct import (CriticalPolynomial, mellin_T_closed, p_beta,
                                p_hyp, p_s21_chebyshev, p_s32, p_s41,
                                q_rational)
from critpoly.errors import MixedCoefficients, ZeroPolynomial
from critpoly.poly import (LineIsolation, Poly, RatFun, isolate_real_roots,
                           real_root_data, refine_root, substitute_critical)
from critpoly.verify import (certify_critical_line, check_central_difference,
                             check_corollary2, check_difference_equation,
                             check_fq1, check_functional_equation,
                             check_gould_closures, check_gould_sum_forms,
                             check_hat_ratio, check_integer_s_sums,
                             check_M_recurrences, check_q_forms,
                             check_q_range, check_T_zero_set,
                             lambda1_series)
from corollary2_oracle import corollary2_rel_err
from sturm_oracle import poly_gcd, sturm_root_data, sturm_roots

LAMBDAS = [Fraction(1), Fraction(1, 2), Fraction(7, 3)]


def test_certificate_structure():
    # the built polynomial is proved by Favard, the bare Poly by Descartes
    p = p_s21_chebyshev(4)
    for subject, method in ((p, "favard"), (p.poly, "descartes")):
        cert = certify_critical_line(subject)
        assert cert.passed
        assert cert.degree == 2
        assert cert.distinct_real_roots == 2
        assert list(cert.to_json()) == [
            "subject", "degree", "v_degree", "distinct_real_roots",
            "squarefree", "pass", "method", "work", "coeff_bits"]
        assert cert.to_json()["pass"] is True
        assert cert.to_json()["method"] == method
        # 15 (1/2 + it)^2 - 15 (1/2 + it) + 63/4 = 12 - 15 t^2, so
        # w = 4 - 5x; Favard makes m - 1 = 1 sign test
        assert cert.to_json()["work"] >= 1
        assert cert.to_json()["coeff_bits"] == 3
    assert certify_critical_line(p).work == 1


@pytest.mark.parametrize("lam", LAMBDAS)
def test_certificates_small_range(lam):
    for n in range(16):
        cert = certify_critical_line(p_s32(n, lam))
        assert cert.passed and cert.distinct_real_roots == n // 2


def test_certificates_beta_family():
    for n in range(16):
        for beta in (Fraction(0), Fraction(-2)):
            cert = certify_critical_line(p_beta(n, beta))
            assert cert.passed and cert.distinct_real_roots == n // 2


def test_functional_equation_and_fq1():
    for n in range(13):
        for lam in LAMBDAS:
            assert check_functional_equation(p_s32(n, lam).poly, n)
            if n >= 1:
                assert check_fq1(n, lam)


def test_difference_equations():
    for n in range(13):
        for lam in LAMBDAS:
            assert check_difference_equation(p_s32(n, lam).poly, n, lam)
            assert check_central_difference(p_hyp(n, lam).poly, n, lam)


def test_functional_equation_detects_breakage():
    # an added constant breaks the sign-flipped (odd floor(n/2)) reflection
    broken = p_s32(2, 1).poly + 1
    assert not check_functional_equation(broken, 2)


def test_M_recurrences():
    # the central s-recurrence is check_central_difference's, above
    series = {"quarter_shift_series", "beta_kernel_series",
              "duplication_series"}
    for n in range(9):
        for lam in LAMBDAS:
            rep = check_M_recurrences(n, lam)
            assert set(rep) == ({"mixed_recurrence"} if n >= 2 else set()) | (
                series if lam == 1 else set()), (n, lam)
            assert all(rep.values()), (n, lam, rep)


def test_lambda1_series_are_proved_in_s():
    # verify has no sampled 3F2 evaluator to call
    assert not hasattr(verify, "eval_3f2")
    names = ["quarter_shift_series", "beta_kernel_series",
             "duplication_series"]
    for n in range(41):
        rep = check_M_recurrences(n, 1)
        for name in names:
            assert rep[name] is True, (n, name)
        # the series hold at lambda = 1 only: at lambda = 3/2 the built
        # polynomial differs from each of them once n >= 1
        hat = p_hyp(n, Fraction(3, 2)).poly
        assert [lambda1_series(n)[name] == hat for name in names] == [
            n == 0] * 3, n


def test_gould_sum_forms():
    for n in range(5):
        for lam in LAMBDAS:
            assert check_gould_sum_forms(n, lam) == {
                "method": "identity", "even": True, "odd": True, "pass": True}


def test_integer_s_sums():
    for lam in LAMBDAS:
        assert check_integer_s_sums(lam, 6) == {"pass": True, "checks": 7}


def test_gould_closures():
    r = check_gould_closures(8, LAMBDAS + [Fraction(-1, 4)])
    assert r["pass"], r["failures"][:3]


def _q_grid(n):
    # check_q_range tests the limit q -> 1 at s >= 10^6 n only
    return [Fraction(3, 2), Fraction(2), Fraction(10), Fraction(10 ** 6 * n)]


def test_q_range_and_limit():
    for n in range(1, 7):
        for lam in LAMBDAS:
            r = check_q_range(q_rational(n, lam), _q_grid(n))
            assert r["pass"] and r["near_one_points"] == 1, (n, lam, r)


def test_q_limit_rejects_a_scaled_numerator():
    for n in range(1, 7):
        for lam in LAMBDAS:
            q = q_rational(n, lam)
            scaled = construct.NormalizedRational(
                n, q.lam, RatFun(q.fun.num * Fraction(99, 100), q.fun.den))
            assert not check_q_range(scaled, _q_grid(n))["pass"], (n, lam)
            # 99/100 q stays in (0, 1) for n >= 2: only the limit catches it
            without_limit = check_q_range(scaled, _q_grid(n)[:-1])
            assert without_limit["pass"] is (n >= 2), (n, lam)


def test_q_pair_is_reduced():
    for lam in cli.LAMBDA_SET + [Fraction(-1, 4), Fraction(5, 2)]:
        for n in range(1, 21):
            q = q_rational(n, lam).fun
            assert poly_gcd(q.num, q.den).degree == 0, (n, lam)
            assert q.den.leading == 1, (n, lam)
    # a pair that shares the factor s + 3 breaks the degree invariant
    s = Poly.var("s")
    q = q_rational(6, Fraction(3, 2))
    num, den = q.fun.num * (s + 3), q.fun.den * (s + 3)
    assert poly_gcd(num, den) == s + 3
    with pytest.raises(AssertionError):
        construct.NormalizedRational(6, q.lam, RatFun(num, den))


def test_corollary2_numeric():
    # the identity in Q[s], and the Gamma form in 40-digit floats at the
    # samples the suite used to take
    for n in range(41):
        assert check_corollary2(n), n
    for n in range(9):
        for s in (Fraction(3, 10), Fraction(5, 2), Fraction(17, 6)):
            assert corollary2_rel_err(n, s) <= 1e-30, (n, s)


def test_corollary2_rejects_a_perturbed_side(monkeypatch):
    build = verify.p_beta

    def perturbed(n, beta):
        p = build(n, beta)
        return dataclasses.replace(p, poly=p.poly + Fraction(1, 10 ** 9))

    monkeypatch.setattr(verify, "p_beta", perturbed)
    assert not any(check_corollary2(n) for n in range(9))
    monkeypatch.undo()
    # N with its last factor shifted by one: (a)_(m+1) -> (a)_m (a + m + 1)
    rising = verify.pochhammer
    s = construct.S

    def shifted(a, k):
        if a in ((1 - s) / 2, 1 - s / 2):
            return rising(a, k - 1) * (a + k)
        return rising(a, k)

    monkeypatch.setattr(verify, "pochhammer", shifted)
    assert not any(check_corollary2(n) for n in range(9))


# The grids below are those on which the constructors used to run these
# identities on themselves: the generating-function series sum the hat
# polynomials to n = 40 (lambda = 1 and 5/2), the acceptance criteria build
# every lambda and beta sample to n = 30 and q to n = 20 (q at lambda = 9/4
# too). tests/test_construct.py covers the other lambda samples to n = 30.

def test_hat_ratio_and_reflection():
    for lam, top in ((Fraction(1), 40), (Fraction(5, 2), 40),
                     (Fraction(7, 3), 30), (Fraction(5, 3), 30),
                     (Fraction(9, 4), 20)):
        for n in range(top + 1):
            hat = p_hyp(n, lam).poly
            assert check_hat_ratio(hat, n, lam), (n, lam)
            assert check_functional_equation(hat, n), (n, lam)


# p_s32 and p_hyp are scalings of the beta kernel; p_s41 is the S32
# binomial sum with its s-binomial cancelled, built on its own
KERNEL_LAMBDAS = [Fraction(-49, 100), Fraction(-1, 4), Fraction(1, 2),
                  Fraction(1), Fraction(3, 2), Fraction(2), Fraction(7, 3),
                  Fraction(5, 2), Fraction(10)]


@pytest.mark.parametrize("lam", KERNEL_LAMBDAS, ids=str)
def test_beta_kernel_matches_s41(lam):
    for n in [*range(61), 400]:
        want = p_s41(n, lam).poly
        assert p_s32(n, lam).poly == want, (n, lam)
        assert p_hyp(n, lam).poly == 2 * want, (n, lam)


def _perturbed(poly):
    return Poly("s", [poly.coeffs[0] + Fraction(1, 7), *poly.coeffs[1:]])


@pytest.mark.parametrize("route", ["beta kernel", "p_s41"])
def test_perturbed_route_fails_the_form_checks(monkeypatch, route):
    if route == "beta kernel":
        kernel = construct.poly_from_3f2
        monkeypatch.setattr(construct, "poly_from_3f2",
                            lambda *args: _perturbed(kernel(*args)))
    else:
        def perturbed(n, lam):
            p = p_s41(n, lam)
            return dataclasses.replace(p, poly=_perturbed(p.poly))
        monkeypatch.setattr(verify, "p_s41", perturbed)
    lam = Fraction(7, 3)
    assert not check_hat_ratio(p_hyp(6, lam).poly, 6, lam)
    assert not cli.SUITES["forms"](10, 0)["pass"]


def test_a_kernel_fault_fails_every_kernel_row(monkeypatch):
    # one coefficient of every two-Pochhammer sum off by 1/7: each suite
    # that builds through the kernel fails at its first such case
    kernel = construct.pochhammer_sum
    for module in (construct, verify, quadrature):
        monkeypatch.setattr(module, "pochhammer_sum",
                            lambda *args: _perturbed(kernel(*args)))
    for suite, checks, case in (
            ("forms", 6, "HYP = 2 S32 at n=0, lambda=1"),
            ("recur", 1, "quarter_shift_series at n=0, lambda=1"),
            ("genfun", 1, "HYP = 2 S32 at n=0, lambda=1")):
        row = cli.SUITES[suite](10, 0)
        assert row["pass"] is False and row["checks"] == checks, row
        assert row["detail"] == f"{case} fails", row
    assert not quadrature.genfun_check(Fraction(7, 3), 3)["pass"]


def test_beta_reflection():
    for beta in (Fraction(0), Fraction(1, 2), Fraction(-1), Fraction(-2),
                 Fraction(-3)):
        for n in range(31):
            assert check_functional_equation(p_beta(n, beta).poly, n), \
                (n, beta)


def test_T_zero_sets():
    for n in range(2, 41):
        assert check_T_zero_set(mellin_T_closed(n).factor, n), n


def test_q_forms():
    for lam in (Fraction(-1, 4), Fraction(1, 2), Fraction(1), Fraction(3, 2),
                Fraction(2), Fraction(7, 3), Fraction(9, 4)):
        for n in range(1, 21):
            assert check_q_forms(q_rational(n, lam).fun, n, lam), (n, lam)


def test_form_checks_reject_broken_input():
    lam = Fraction(7, 3)
    hat = p_hyp(6, lam).poly
    coeffs = list(hat.coeffs)
    coeffs[1] += Fraction(1, 7)
    assert check_hat_ratio(hat, 6, lam)
    assert not check_hat_ratio(Poly("s", coeffs), 6, lam)

    s = Poly.var("s")
    assert check_T_zero_set((s - 1) * (s - 3) * (s - 35), 6)
    assert not check_T_zero_set((s - 1) * (s - 5) * (s - 35), 6)

    q = q_rational(5, Fraction(3, 2)).fun
    assert check_q_forms(q, 5, Fraction(3, 2))
    broken = RatFun(q.num, q.den + Fraction(1, 3))
    assert not check_q_forms(broken, 5, Fraction(3, 2))


def test_certificate_rejects_symmetric_off_line_zeros():
    # s^2 - s is reflection-symmetric, but its zeros 0 and 1 are off the line
    poly = Poly("s", [Fraction(0), Fraction(-1), Fraction(1)])
    p = CriticalPolynomial(4, "gegenbauer", Fraction(1), "S32", poly,
                           "paper_S")
    assert check_functional_equation(poly, 4)
    cert = certify_critical_line(p)
    assert not cert.passed
    assert cert.distinct_real_roots == 0
    assert cert.method == "squarefree"
    assert not certify_critical_line(poly).passed
    # (s^2 - s)^2: the same zeros, each repeated
    cert = certify_critical_line(poly * poly)
    assert cert.method == "squarefree" and not cert.passed
    assert not cert.squarefree and cert.distinct_real_roots == 0
    assert cert.v_degree == 4


def test_flipped_gamma_falls_back_to_descartes(monkeypatch, caplog):
    gamma = verify.favard_gamma

    def flipped(j, n, beta):
        num, den = gamma(j, n, beta)
        return (-num if j == 2 else num), den

    monkeypatch.setattr(verify, "favard_gamma", flipped)
    caplog.set_level(logging.DEBUG, logger="critpoly")
    for p in (p_beta(20, -3), p_s32(21, Fraction(7, 3))):
        cert = certify_critical_line(p)
        assert cert.method == "descartes" and cert.passed
        assert cert.distinct_real_roots == 10
    assert caplog.text.count("Favard certificate of") == 2
    assert "gamma_2 = -" in caplog.text and "is not positive" in caplog.text


@pytest.mark.parametrize("n", [8, 16, 17])
@pytest.mark.parametrize("scale, on_line", [(Fraction(1, 1000), True),
                                            (Fraction(10), False)])
def test_perturbed_kernel_fails_the_chain(monkeypatch, caplog, n, scale,
                                          on_line):
    # the kernel's constant coefficient moved by scale p(1/2): for even
    # m = floor(n/2) the reflection still holds, so the substitution goes
    # through and only the chain comparison can reject the proof; Descartes
    # then decides, and the larger move pushes zeros off the line
    build = construct.poly_from_3f2

    def perturbed(n, eps, coeffs):
        out = build(n, eps, coeffs)
        return out + scale * out(Fraction(1, 2))

    monkeypatch.setattr(construct, "poly_from_3f2", perturbed)
    construct.clear_caches()
    caplog.set_level(logging.DEBUG, logger="critpoly")
    p = p_beta(n, -3)
    assert check_functional_equation(p.poly, n)
    cert = certify_critical_line(p)
    assert cert.method == ("descartes" if on_line else "squarefree")
    assert cert.passed is on_line
    assert "the recurrence chain differs from the coefficients" in caplog.text


def test_perturbed_kernel_term_breaks_the_reflection(monkeypatch):
    # a perturbed term c_1 of the sum breaks the reflection, and the
    # substitution raises before either proof is tried
    build = construct.poly_from_3f2

    def perturbed(n, eps, coeffs):
        return build(n, eps, [coeffs[0], coeffs[1] * Fraction(1001, 1000),
                              *coeffs[2:]])

    monkeypatch.setattr(construct, "poly_from_3f2", perturbed)
    construct.clear_caches()
    with pytest.raises(MixedCoefficients):
        certify_critical_line(p_beta(16, -3))


def test_certificate_rejects_asymmetric_polynomial():
    poly = Poly("s", [Fraction(1), Fraction(1)])
    p = CriticalPolynomial(2, "gegenbauer", Fraction(1), "S32", poly,
                           "paper_S")
    with pytest.raises(MixedCoefficients):
        certify_critical_line(p)
    with pytest.raises(MixedCoefficients):
        certify_critical_line(poly)


U = Poly("s", [Fraction(-1, 2), Fraction(1)])   # s - 1/2


def test_certificate_of_bare_poly():
    cert = certify_critical_line(p_s32(9, Fraction(7, 3)).poly)
    assert cert.subject == {"n": None, "family": None, "param": None,
                            "form": "poly"}
    assert cert.passed and cert.method == "descartes"
    assert cert.distinct_real_roots == 4


def test_double_zero_on_the_line_falls_back_to_squarefree(caplog):
    p4 = p_s32(4, 1).poly
    caplog.set_level(logging.DEBUG, logger="critpoly")
    for poly, reason in ((U * U * p4, "w(0)=0"), (p4 * p4, "depth guard")):
        cert = certify_critical_line(poly)
        assert cert.method == "squarefree" and cert.work > 0
        assert isinstance(cert.isolation, LineIsolation)
        assert cert.passed and not cert.squarefree
        assert cert.distinct_real_roots == (3 if reason == "w(0)=0" else 2)
        assert cert.v_degree == poly.degree
        assert reason in caplog.text
    assert certify_critical_line(p4).method == "descartes"


def test_fallback_takes_one_squarefree_part(monkeypatch):
    # the depth guard's squarefree part of w is the fallback's too, and
    # with w(0) = 0 the fallback computes it once
    calls = []
    squarefree = poly_module.squarefree_ints

    def counted(a):
        calls.append(len(a) - 1)
        return squarefree(a)

    monkeypatch.setattr(poly_module, "squarefree_ints", counted)
    p4 = p_s32(4, 1).poly
    for poly, reason in ((p4 * p4, "depth guard"), (U * U * p4, "w(0)=0")):
        calls.clear()
        iso = certify_critical_line(poly).isolation
        assert iso.fallback == reason and iso.method == "squarefree"
        assert calls == [len(iso.w) - 1], reason


def test_squared_polynomial_at_n_120():
    # the squarefree fallback on a degree-60 w with thirty double roots;
    # the Fraction Euclid on the degree-120 v took about 24 s for this
    # certificate on a 2-CPU Xeon, the integer one about 0.25 s
    p = p_beta(120, -3).poly
    start = time.perf_counter()
    cert = certify_critical_line(p ** 2)
    roots = cert.isolation.roots()
    assert time.perf_counter() - start < 5
    assert cert.passed and cert.method == "squarefree"
    assert (cert.distinct_real_roots, cert.squarefree, cert.v_degree) == (
        60, False, 120)
    assert roots == pytest.approx(LineIsolation(p).roots(), rel=1e-12,
                                  abs=1e-12)


def test_certificate_of_zero_polynomial_raises():
    with pytest.raises(ZeroPolynomial):
        certify_critical_line(Poly.zero("s"))


def _line_factor(kind, x, y):
    """A factor of p(s) in u = s - 1/2, symmetric under s -> 1 - s:
    zeros 1/2 +- ix on the line, 1/2 +- x off it, or the quartet
    1/2 +- x +- iy off it."""
    if kind == "on":
        return U * U + x * x
    if kind == "off":
        return U * U - x * x
    return (U * U - x * x + y * y) ** 2 + 4 * x * x * y * y


positive = st.fractions(min_value=Fraction(1, 7), max_value=6,
                        max_denominator=7)


@given(st.booleans(), st.integers(min_value=-3, max_value=3).filter(bool),
       st.lists(st.tuples(st.sampled_from(["on", "on", "off", "quartet"]),
                          positive, positive), max_size=4))
@settings(max_examples=80, deadline=None)
def test_certificate_agrees_with_sturm(odd, scale, factors):
    p = Poly.constant("s", Fraction(scale)) * (U if odd else 1)
    for kind, x, y in factors:
        p = p * _line_factor(kind, x, y)
    cert = certify_critical_line(p)
    v, _ = substitute_critical(p)
    data = sturm_root_data(v)
    assert cert.passed == data.all_roots_real()
    assert cert.distinct_real_roots == data.distinct_real_roots
    assert cert.squarefree == data.is_squarefree
    assert cert.v_degree == data.degree
    if cert.method == "descartes":
        assert cert.passed and cert.squarefree
    # the roots that `critpoly roots` lists, and those of refine_root
    want = sturm_roots(v)
    assert cert.isolation.roots() == pytest.approx(want, rel=1e-12,
                                                   abs=1e-12)
    assert real_root_data(v).roots() == pytest.approx(want, rel=1e-12,
                                                      abs=1e-12)
    got = [refine_root(v, lo, hi) for lo, hi in isolate_real_roots(v)]
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
