"""The O(m^2) integer builders against the O(m^3) Fraction routes they
replaced, coefficient for coefficient on a shared grid.

The slow routes below are test-local copies of the earlier constructions:
the S32 binomial sum with one Poly term per r, the 3F2 kernel summing a
fresh Pochhammer polynomial per k with c_k from four Pochhammer symbols,
and the T-factor recurrence rerun from 0 for every n.
"""
from fractions import Fraction
from math import comb, factorial

import pytest

from critpoly.construct import S, mellin_T_closed, p_beta, p_hyp, p_s32
from critpoly.poly import Poly, gen_binom, pochhammer

LAMBDAS = [Fraction(-1, 4), Fraction(1, 2), Fraction(1), Fraction(3, 2),
           Fraction(2), Fraction(7, 3)]
BETAS = [Fraction(0), Fraction(1, 2), Fraction(-1), Fraction(-2),
         Fraction(-3)]
NMAX = 60
T_NMAX = 45


def slow_s32(n, lam):
    m, eps = n // 2, n % 2
    out = Poly.zero("s")
    if eps == 0:
        a = (S + lam) / 2 - Fraction(3, 4)
        for r in range(m + 1):
            out = out + (Fraction((-1) ** (m - r)) * Fraction(2) ** (2 * r - 1)
                         * gen_binom(m + r + lam - 1, r) * comb(m + r, 2 * r)
                         * gen_binom((S - 2) / 2 + r, r) * factorial(r)
                         * pochhammer(a + r + 1, m - r) / comb(m + r, r))
        return factorial(2 * m) * gen_binom(m + lam - 1, m) * out
    a = (S + lam) / 2 - Fraction(1, 4)
    for r in range(m + 1):
        out = out + (Fraction((-1) ** (m - r)) * Fraction(4) ** r
                     * gen_binom(m + r + lam, r) * comb(m + r + 1, 2 * r + 1)
                     * gen_binom((S - 1) / 2 + r, r) * factorial(r)
                     * pochhammer(a + r + 1, m - r) / comb(m + r + 1, r))
    return factorial(2 * m + 1) * gen_binom(m + lam, m + 1) * out


def slow_3f2(n, coeff_rule):
    half = Poly("s", [Fraction(n % 2, 2), Fraction(1, 2)])
    out = Poly.zero("s")
    for k in range(n // 2 + 1):
        out = out + coeff_rule(k) * pochhammer(half, n // 2 - k)
    return out


def slow_hyp(n, lam):
    front = factorial(n) * pochhammer(2 * lam, n)
    return slow_3f2(n, lambda k: (
        front * Fraction((-1) ** k) * pochhammer(lam / 2 + Fraction(1, 4), k)
        / (Fraction(4) ** k * factorial(k)
           * pochhammer(lam + Fraction(1, 2), k) * factorial(n - 2 * k))))


def slow_beta(n, beta):
    return slow_3f2(n, lambda k: (
        Fraction((-1) ** k) * pochhammer(1 - beta, k)
        * pochhammer(Fraction(1 - n, 2), k) * pochhammer(Fraction(-n, 2), k)
        / (pochhammer(2 * (1 - beta), k) * factorial(k))))


def slow_T_factor(n):
    facs = [Poly.constant("s", Fraction(1)), Poly.constant("s", Fraction(1))]
    for k in range(2, n + 1):
        ratio1 = Fraction(2) ** (k // 2 - (k - 1) // 2)
        e = S / 2 if k % 2 == 0 else Poly.constant("s", Fraction(1))
        facs.append(2 * ratio1 * e * facs[k - 1].shift(1)
                    - 2 * ((S + k + 1) / 2) * facs[k - 2])
    return facs[n]


@pytest.mark.parametrize("lam", LAMBDAS, ids=str)
def test_s32_matches_slow_sum(lam):
    for n in range(NMAX + 1):
        assert p_s32(n, lam).poly.coeffs == slow_s32(n, lam).coeffs, n


@pytest.mark.parametrize("lam", LAMBDAS, ids=str)
def test_hyp_matches_slow_kernel(lam):
    for n in range(NMAX + 1):
        assert p_hyp(n, lam).poly.coeffs == slow_hyp(n, lam).coeffs, n


@pytest.mark.parametrize("beta", BETAS, ids=str)
def test_beta_matches_slow_kernel(beta):
    for n in range(NMAX + 1):
        assert p_beta(n, beta).poly.coeffs == slow_beta(n, beta).coeffs, n


def test_T_factor_matches_recurrence_from_zero():
    for n in range(T_NMAX + 1):
        assert mellin_T_closed(n).factor.coeffs == slow_T_factor(n).coeffs, n
