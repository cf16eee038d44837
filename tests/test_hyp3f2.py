"""Terminating 3F2 evaluation and the transformation catalog."""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critpoly.construct import mellin_T_closed, mellin_closed
from critpoly.errors import DenominatorPole, NonTerminating
from critpoly.hyp3f2 import (appendix_transform_suite, eval_3f2,
                             pochhammer_sum, termination_index,
                             thomae_terminating)
from critpoly.orthopoly import chebyshev, gegenbauer
from critpoly.poly import pochhammer


def naive_3f2(a1, a2, a3, b1, b2, n):
    total = Fraction(0)
    for k in range(n + 1):
        total += (pochhammer(Fraction(a1), k) * pochhammer(Fraction(a2), k)
                  * pochhammer(Fraction(a3), k)
                  / (pochhammer(Fraction(b1), k) * pochhammer(Fraction(b2), k)
                     * _fact(k)))
    return total


def _fact(k):
    out = 1
    for j in range(2, k + 1):
        out *= j
    return out


small = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@given(st.integers(min_value=0, max_value=6), small, small, small, small)
@settings(max_examples=150, deadline=None)
def test_matches_naive_summation(n, a, b, c, d):
    try:
        got = eval_3f2(-n, a, b, c, d)
    except (DenominatorPole, NonTerminating, ZeroDivisionError):
        return
    m = termination_index(Fraction(-n), Fraction(a), Fraction(b))
    assert got == naive_3f2(-n, a, b, c, d, m)


def test_termination_index():
    assert termination_index(Fraction(-3), Fraction(1, 2), Fraction(-5)) == 3
    assert termination_index(Fraction(0), Fraction(2), Fraction(7)) == 0
    with pytest.raises(NonTerminating):
        termination_index(Fraction(1, 2), Fraction(2), Fraction(5, 3))


def test_denominator_pole_before_termination():
    with pytest.raises(DenominatorPole):
        eval_3f2(-4, Fraction(1, 2), Fraction(1, 3), -2, Fraction(5))


def test_pole_at_or_after_termination_is_fine():
    # the series stops at k = 2; the denominator value -2 is never reached
    eval_3f2(-2, Fraction(1, 2), Fraction(1, 3), -2, Fraction(5))


def test_known_value_chu_vandermonde():
    # 2F1(-n, b; c; 1) with a spectator pair: C-V gives (c-b)_n / (c)_n
    n, b, c = 4, Fraction(1, 2), Fraction(7, 3)
    spectator = Fraction(5)
    got = eval_3f2(-n, b, spectator, c, spectator)
    assert got == pochhammer(c - b, n) / pochhammer(c, n)


def test_thomae_anchor():
    lhs, rhs = thomae_terminating(Fraction(1, 2), Fraction(3, 2),
                                  Fraction(7, 4), 3, 2)
    assert lhs == rhs


def test_transform_suite_deterministic():
    a = appendix_transform_suite(trials=40, nmax=6, seed=11)
    b = appendix_transform_suite(trials=40, nmax=6, seed=11)
    assert a == b
    assert a["all_pass"]
    assert a["passes"] == [40] * 8


def test_transform_suite_large():
    r = appendix_transform_suite(trials=200, nmax=8, seed=3)
    assert r["all_pass"], r["failures"][:3]
    assert r["trials"] == 200


# The Mellin moment identity: with u = (s+eps)/2, alpha the exponent of
# (1-x^2) and c_k the x^k coefficient of the integrand's polynomial, the
# Beta integrals give 1/2 Sum_j c_(eps+2j) (u)_j (u+alpha+1+j)_(m-j) =
# const_rat factor(s) once the Gamma ratio cancels; gamma = alpha + 1 +
# eps/2. Its left side is the kernel on the orthopoly coefficients, its
# right side the beta kernel (p_hyp) or the T-factor recurrence.
def moments(x_poly, n, gamma):
    m, eps = n // 2, n % 2
    return pochhammer_sum(eps, gamma, [x_poly.coeff(eps + 2 * j) / 2
                                       for j in range(m + 1)])


@pytest.mark.parametrize("lam", [Fraction(1), Fraction(1, 2), Fraction(3, 2),
                                 Fraction(7, 3), Fraction(-1, 4)], ids=str)
def test_kernel_proves_the_gegenbauer_moments(lam):
    for n in range(31):
        form = mellin_closed(n, lam)
        gamma = lam / 2 + Fraction(1, 4) + Fraction(n % 2, 2)
        c = gegenbauer(n, lam)
        assert moments(c, n, gamma) == form.const_rat * form.factor, n
        # negative control: alpha off by 1/2
        if n >= 2:
            assert (moments(c, n, gamma + Fraction(1, 2))
                    != form.const_rat * form.factor), n


def test_kernel_proves_the_chebyshev_moments():
    for n in range(41):
        form = mellin_T_closed(n)
        got = moments(chebyshev("T", n), n, Fraction(3 + n % 2, 2))
        # Gamma(1/2) = 2 Gamma(3/2) puts the 2 on the right; without it the
        # identity fails
        assert got == 2 * form.const_rat * form.factor, n
        assert got != form.const_rat * form.factor, n

