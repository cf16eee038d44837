"""Acceptance gate: one test per criterion, each printing a single
PASS/FAIL line with its elapsed time against the pinned budget."""
import time
from fractions import Fraction

from critpoly.arithprops import (divisibility_characterization,
                                 odd_factor_check, triangle)
from critpoly.construct import (mellin_T_closed, p_beta,
                                p_chebyshev_recursive, p_hyp,
                                p_s21_chebyshev, p_s32, p_s41,
                                s32_bare_closed_form, s32_bare_sum)
from critpoly.hyp3f2 import appendix_transform_suite
from critpoly.poly import Poly
from critpoly.quadrature import (compare_mellin, genfun_check,
                                 quad_mellin_T, quad_mellin_gegenbauer)
from critpoly.verify import (certify_critical_line, check_central_difference,
                             check_difference_equation, check_fq1,
                             check_functional_equation, check_hat_ratio,
                             check_M_recurrences)

LAMBDAS = [Fraction(-1, 4), Fraction(1, 2), Fraction(1), Fraction(3, 2),
           Fraction(2), Fraction(7, 3)]
BETAS = [Fraction(0), Fraction(1, 2), Fraction(-1), Fraction(-2),
         Fraction(-3)]
# The certificates need one sample per distinct beta: p_s32(n, lam) is a
# constant times p_beta(n, 3/4 - lam/2), and lam = 1/2 and 3/2 are the
# betas 1/2 and 0 already in BETAS. lam = 5/2 and 10 take their places
# (beta = -1/2 and -17/4; 7/2, 11/2 and 15/2 would repeat -1, -2 and -3).
CERT_LAMBDAS = [Fraction(-1, 4), Fraction(1), Fraction(2), Fraction(7, 3),
                Fraction(5, 2), Fraction(10)]

GOLDEN = {
    0: Poly("s", [Fraction(1, 2)]),
    1: Poly("s", [Fraction(1)]),
    2: Poly("s", [Fraction(-3, 4), Fraction(3, 2)]),
    3: Poly("s", [Fraction(-3), Fraction(6)]),
    4: Poly("s", [Fraction(63, 4), Fraction(-15), Fraction(15)]),
}


def _report(num, name, budget, started, ok):
    elapsed = time.perf_counter() - started
    verdict = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[{verdict}] criterion {num:2d} ({name}): "
          f"{elapsed:.2f}s of {budget:.0f}s budget")
    assert ok, f"criterion {num} failed"
    assert elapsed < budget, f"criterion {num} exceeded {budget}s"


def test_c01_golden_values():
    t0 = time.perf_counter()
    ok = True
    for n, want in GOLDEN.items():
        ok &= p_s41(n, 1).poly == want
        ok &= p_s32(n, 1).poly == want
        ok &= p_s21_chebyshev(n).poly == want
        ok &= p_chebyshev_recursive(n).poly == want
        ok &= p_hyp(n, 1).poly / 2 == want
    _report(1, "golden values", 1.0, t0, ok)


def test_c02_critical_line_certificates():
    t0 = time.perf_counter()
    ok = True
    for n in range(31):
        for lam in CERT_LAMBDAS:
            cert = certify_critical_line(p_s32(n, lam))
            ok &= cert.passed and cert.distinct_real_roots == n // 2
        for beta in BETAS:
            cert = certify_critical_line(p_beta(n, beta))
            ok &= cert.passed and cert.distinct_real_roots == n // 2
    _report(2, "critical-line certification", 30.0, t0, ok)


def test_c03_functional_equations():
    t0 = time.perf_counter()
    ok = True
    for n in range(21):
        for lam in LAMBDAS:
            ok &= check_functional_equation(p_s32(n, lam).poly, n)
            if n >= 1:
                ok &= check_fq1(n, lam)
        for beta in BETAS:
            ok &= check_functional_equation(p_beta(n, beta).poly, n)
    _report(3, "functional equations", 10.0, t0, ok)


def test_c04_difference_equations_and_recursion():
    t0 = time.perf_counter()
    ok = True
    for n in range(21):
        for lam in LAMBDAS:
            ok &= check_difference_equation(p_s32(n, lam).poly, n, lam)
            ok &= check_central_difference(p_hyp(n, lam).poly, n, lam)
        ok &= p_chebyshev_recursive(n).poly == p_s21_chebyshev(n).poly
    _report(4, "difference equations and recursion", 10.0, t0, ok)


def test_c05_M_relations():
    t0 = time.perf_counter()
    ok = True
    for n in range(11):
        for lam in LAMBDAS:
            ok &= all(check_M_recurrences(n, lam).values())
    _report(5, "transform relations", 10.0, t0, ok)


def test_c06_quadrature_oracle():
    t0 = time.perf_counter()
    ok = abs(quad_mellin_gegenbauer(1, 1.0, 1.0).value - 4 / 3) <= 1e-12
    ok &= abs(quad_mellin_gegenbauer(0, 1.0, 2.0).value - 2 / 3) <= 1e-12
    for n in range(11):
        for lam in (0.5, 1.0, 1.5, 2.5):
            for s in (0.5, 1.0, 2.0, 3.7):
                ok &= compare_mellin(n, lam, s)["rel_err"] <= 1e-10
    _report(6, "quadrature vs closed form", 60.0, t0, ok)


def test_c07_chebyshev_T_zero_sets():
    t0 = time.perf_counter()
    ok = True
    for n in range(2, 13):
        f = mellin_T_closed(n).factor
        start = 1 if n % 2 == 0 else 2
        zeros = set(range(start, n - 2, 2)) | {n * n - 1}
        ok &= f.degree == len(zeros)
        ok &= all(f(Fraction(z)) == 0 for z in zeros)
    for n in range(2, 9):
        ok &= abs(quad_mellin_T(n, float(n * n - 1)).value) <= 1e-11
    _report(7, "T-transform zero sets", 20.0, t0, ok)


def test_c08_catalan_odd_integers():
    t0 = time.perf_counter()
    ok = odd_factor_check(2, 3)["even"]["value"] == 423
    ok &= odd_factor_check(2, 3)["even"]["factorization"] == {3: 2, 47: 1}
    for n in range(1, 13):
        for s in range(1, 41):
            ok &= odd_factor_check(n, s)["pass"]
    _report(8, "Catalan odd integrality", 10.0, t0, ok)


def test_c09_triangles():
    t0 = time.perf_counter()
    ok = triangle("b", 2).entries == (5, 5, 1)
    ok &= triangle("a", 2).entries == (10, 3)
    ok &= divisibility_characterization("b", 199)["pass"]
    ok &= divisibility_characterization("a", 200)["pass"]
    _report(9, "triangle characterizations", 5.0, t0, ok)


def test_c10_transform_catalog():
    t0 = time.perf_counter()
    r = appendix_transform_suite(trials=200, nmax=8, seed=20260823)
    ok = r["all_pass"] and r["trials"] >= 200
    _report(10, "series transformation catalog", 20.0, t0, ok)


def test_c11_bare_sums():
    t0 = time.perf_counter()
    ok = s32_bare_sum(1, 1, 1, "even") == Fraction(3, 10)
    for n in range(16):
        for lam in LAMBDAS:
            ok &= (s32_bare_sum(n, lam, 1, "even")
                   == s32_bare_closed_form(n, lam, "even"))
            ok &= (s32_bare_sum(n, lam, 2, "odd")
                   == s32_bare_closed_form(n, lam, "odd"))
    _report(11, "bare sum closed forms", 5.0, t0, ok)


def test_c12_generating_functions():
    t0 = time.perf_counter()
    ok = True
    for lam in (1, Fraction(1, 2), Fraction(5, 2), Fraction(7, 3), None):
        ok &= genfun_check(lam, K=40)["pass"]
    _report(12, "generating functions", 30.0, t0, ok)


def test_c13_builds_at_scale():
    # about 0.4 s on a 2-CPU Xeon (cold builds: conftest empties the caches)
    t0 = time.perf_counter()
    lam = Fraction(7, 3)
    beta = p_beta(400, -3)
    s32 = p_s32(400, lam)
    hat = p_hyp(400, lam)
    ok = beta.poly.degree == s32.poly.degree == hat.poly.degree == 200
    ok &= check_hat_ratio(hat.poly, 400, lam)
    ok &= check_functional_equation(beta.poly, 400)
    _report(13, "n = 400 builds", 3.0, t0, ok)


def test_c14_certificates_at_scale():
    # about 0.3 s on a 2-CPU Xeon with cold builds (Favard; Descartes took
    # about 1.7 s)
    t0 = time.perf_counter()
    ok = True
    for p in ([p_s32(400, lam) for lam in CERT_LAMBDAS]
              + [p_beta(400, beta) for beta in BETAS]):
        cert = certify_critical_line(p)
        ok &= cert.passed and cert.method == "favard"
        ok &= cert.distinct_real_roots == 200
    _report(14, "n = 400 certificates", 30.0, t0, ok)


def test_c15_certificates_at_n_1000():
    # every sample by Favard, about 4 s with cold builds on a 2-CPU Xeon;
    # then Descartes and the root listing for two of them on the bare Poly,
    # about 10 s more
    t0 = time.perf_counter()
    ok = True
    built = ([p_s32(1000, lam) for lam in CERT_LAMBDAS]
             + [p_beta(1000, beta) for beta in BETAS])
    for p in built:
        cert = certify_critical_line(p)
        ok &= cert.passed and cert.method == "favard"
        ok &= cert.distinct_real_roots == 500
    for p in (p_s32(1000, Fraction(7, 3)), p_beta(1000, -3)):
        cert = certify_critical_line(p.poly)
        ok &= cert.passed and cert.method == "descartes"
        ok &= cert.distinct_real_roots == 500
        roots = cert.isolation.roots()
        ok &= len(roots) == 500 and all(a < b for a, b in zip(roots,
                                                              roots[1:]))
    _report(15, "n = 1000 certificates", 60.0, t0, ok)
