"""Every construction path for the critical polynomials, their
normalizations, and the closed-form transform descriptors."""
from fractions import Fraction

import pytest

from critpoly import construct
from critpoly.construct import (mellin_T_closed, mellin_closed, p_beta,
                                p_chebyshev_recursive, p_hyp,
                                p_s21_chebyshev, p_s32, p_s41, q_rational,
                                s32_bare_closed_form, s32_bare_sum)
from critpoly.errors import (InvalidBeta, InvalidLambda, PoleInDenominator,
                             UndefinedIndex)
from critpoly.poly import Poly
from critpoly.verify import check_functional_equation

GOLDEN = {
    0: Poly("s", [Fraction(1, 2)]),
    1: Poly("s", [Fraction(1)]),
    2: Poly("s", [Fraction(-3, 4), Fraction(3, 2)]),
    3: Poly("s", [Fraction(-3), Fraction(6)]),
    4: Poly("s", [Fraction(63, 4), Fraction(-15), Fraction(15)]),
}

LAMBDAS = [Fraction(-1, 4), Fraction(1, 2), Fraction(1), Fraction(3, 2),
           Fraction(2), Fraction(5, 2)]


@pytest.mark.parametrize("n", sorted(GOLDEN))
def test_golden_chebyshev_values(n):
    want = GOLDEN[n]
    assert p_s41(n, 1).poly == want
    assert p_s32(n, 1).poly == want
    assert p_s21_chebyshev(n).poly == want
    assert p_chebyshev_recursive(n).poly == want
    assert p_hyp(n, 1).poly == 2 * want


@pytest.mark.parametrize("lam", LAMBDAS)
def test_forms_agree(lam):
    for n in range(31):
        a = p_s41(n, lam).poly
        assert a == p_s32(n, lam).poly
        assert p_hyp(n, lam).poly == 2 * a
        assert check_functional_equation(a, n)


def test_chebyshev_paths_agree():
    for n in range(31):
        base = p_s32(n, 1).poly
        assert p_s21_chebyshev(n).poly == base
        assert p_chebyshev_recursive(n).poly == base


def test_degree_and_normalization_tags():
    p = p_s32(9, Fraction(7, 3))
    assert p.poly.degree == 4
    assert p.normalization == "paper_S"
    assert p_hyp(9, Fraction(7, 3)).normalization == "thm4_hat"


def test_single_term_collapses():
    lam = Fraction(5, 3)
    assert p_s32(1, lam).poly == Poly("s", [lam])
    assert p_hyp(1, lam).poly == Poly("s", [2 * lam])
    assert p_s32(0, lam).poly == Poly("s", [Fraction(1, 2)])


def test_invalid_lambda():
    for bad in (0, Fraction(-1, 2), Fraction(-2)):
        with pytest.raises(InvalidLambda):
            p_s32(3, bad)


def test_beta_family():
    p = p_beta(2, 0)
    assert p.poly.degree == 1
    for n in range(12):
        for beta in (Fraction(0), Fraction(1, 2), Fraction(-3)):
            q = p_beta(n, beta)
            assert q.poly.degree == n // 2
    with pytest.raises(InvalidBeta):
        p_beta(2, 1)


def test_q_rational_examples():
    q = q_rational(2, 1)
    # q_2(s) = (s - 1/2) / (s + 3/2)
    assert q.fun.num == Poly("s", [Fraction(-1, 2), Fraction(1)])
    assert q.fun.den == Poly("s", [Fraction(3, 2), Fraction(1)])
    assert q.fun(Fraction(1)) == Fraction(1, 5)
    with pytest.raises(UndefinedIndex):
        q_rational(0, 1)


def test_q_degrees_match():
    for n in range(1, 13):
        for lam in (Fraction(1, 2), Fraction(1), Fraction(9, 4)):
            q = q_rational(n, lam)
            assert q.fun.num.degree == n // 2
            assert q.fun.den.degree == n // 2


def test_bare_sums_match_closed_forms():
    for n in range(16):
        for lam in (Fraction(1), Fraction(1, 2), Fraction(7, 3)):
            assert (s32_bare_sum(n, lam, 1, "even")
                    == s32_bare_closed_form(n, lam, "even"))
            assert (s32_bare_sum(n, lam, 2, "odd")
                    == s32_bare_closed_form(n, lam, "odd"))


def test_bare_sum_anchors():
    assert s32_bare_closed_form(1, 1, "even") == Fraction(3, 10)
    assert s32_bare_closed_form(0, 1, "odd") == Fraction(1)
    assert s32_bare_sum(1, 1, 1, "even") == Fraction(3, 10)


def test_bare_sum_pole_detection():
    # (s+lambda)/2 - 3/4 = -1 zeroes the even denominator binomial for r >= 1
    with pytest.raises(PoleInDenominator):
        s32_bare_sum(3, Fraction(1, 2), Fraction(-1), "even")


def test_mellin_closed_descriptor():
    form = mellin_closed(4, 1)
    assert form.eps == 0
    assert form.const_rat == Fraction(1, 48)
    assert form.factor == p_hyp(4, 1).poly
    j = form.to_json()
    assert j["kind"] == "gegenbauer" and j["lambda"] == "1"


def test_mellin_T_zero_sets():
    for n in range(2, 13):
        form = mellin_T_closed(n)
        f = form.factor
        # monic, vanishing at n^2 - 1 and the parity-matched integers
        assert f.leading == 1
        assert f(Fraction(n * n - 1)) == 0
        start = 1 if n % 2 == 0 else 2
        for z in range(start, n - 2, 2):
            assert f(Fraction(z)) == 0
        assert form.const_rat == Fraction(1, 4 * 2 ** (n // 2))


def test_memo_shares_one_object_across_spellings():
    assert p_beta(7, 0) is p_beta(7, Fraction(0)) is p_beta(7, "0")
    assert mellin_T_closed(9).factor is mellin_T_closed(9).factor
    # S32 and HYP scale the kernel on every call: equal results, and
    # lambda = 3/2 is beta = 0, so S32, HYP and beta share one kernel entry
    construct.clear_caches()
    assert p_s32(7, 1) == p_s32(7, Fraction(1)) == p_s32(7, "1")
    assert p_hyp(7, "3/2") == p_hyp(7, Fraction(3, 2)) == p_hyp(7, 1.5)
    construct.clear_caches()
    p_s32(7, "3/2"), p_hyp(7, 1.5), p_beta(7, 0)
    assert construct._p_beta.cache_info().currsize == 1


def test_memo_never_caches_a_failure():
    for _ in range(2):
        for bad in (0, "-1/2", Fraction(-2)):
            with pytest.raises(InvalidLambda):
                p_s32(3, bad)
            with pytest.raises(InvalidLambda):
                p_hyp(3, bad)
        with pytest.raises(InvalidBeta):
            p_beta(3, 1)
    assert construct._p_beta.cache_info().currsize == 0
    assert construct._T_factor.cache_info().currsize == 0


def test_memo_is_bounded():
    for memo in (construct._p_beta, construct._T_factor):
        assert memo.cache_info().maxsize == construct.MEMO_SIZE
    assert 0 < construct.MEMO_SIZE < 10_000
