"""The Gould-type sum forms, each written once in eps = n mod 2 around
``construct.gould_term``, against their per-parity transcriptions in
gould_oracle.py; and a ``gould_term`` without its 2^eps, which the
independent S32 kernel and the sum-form checks must catch at odd index."""
from fractions import Fraction

import pytest

import gould_oracle
from critpoly import construct, verify
from critpoly.cli import LAMBDA_SET, S_SAMPLES
from critpoly.construct import (p_hyp, p_s21_chebyshev, p_s32, p_s41,
                                q_rational, s32_bare_closed_form,
                                s32_bare_sum)
from critpoly.verify import (check_gould_closures, check_gould_sum_forms,
                             check_integer_s_sums, lambda1_series)

LAMBDAS = LAMBDA_SET + [Fraction(-1, 4)]
BUILD_NMAX = 30
SUM_NMAX = 6


def outcome(f, *args):
    try:
        return f(*args)
    except Exception as exc:  # the same failure counts as agreement
        return type(exc)


@pytest.mark.parametrize("lam", LAMBDAS, ids=str)
def test_builds_match_oracle(lam):
    for n in range(BUILD_NMAX + 1):
        assert p_s41(n, lam).poly == gould_oracle.p_s41(n, lam), n
        assert (outcome(lambda: q_rational(n, lam).fun)
                == outcome(gould_oracle.q_rational, n, lam)), n


def test_s21_matches_oracle():
    for n in range(BUILD_NMAX + 1):
        assert p_s21_chebyshev(n).poly == gould_oracle.p_s21_chebyshev(n), n


@pytest.mark.parametrize("lam", LAMBDAS, ids=str)
def test_sums_match_oracle(lam):
    for n in range(SUM_NMAX + 1):
        for parity in ("even", "odd"):
            for s in S_SAMPLES + [Fraction(1), Fraction(2), Fraction(-1)]:
                assert (outcome(s32_bare_sum, n, lam, s, parity)
                        == outcome(gould_oracle.s32_bare_sum, n, lam, s,
                                   parity)), (n, parity, s)
        assert (check_gould_sum_forms(n, lam, S_SAMPLES)
                == gould_oracle.check_gould_sum_forms(n, lam, S_SAMPLES))
        got = check_integer_s_sums(n, lam, 6)
        want = gould_oracle.check_integer_s_sums(n, lam, 6)
        # the folded loop also checks the M_0 prefactor at odd s
        assert got["pass"] is want["pass"] is True
        assert (got["checks"], want["checks"]) == (24, 18)
    # the three series are lambda = 1 statements; at n >= 1 with any other
    # lambda the polynomial and its sampled oracle must fail alike
    sampled = {"quarter_shift_series": gould_oracle.check_quarter_shift,
               "beta_kernel_series": gould_oracle.check_beta_kernel,
               "duplication_series": gould_oracle.check_duplication}
    for n in range(2 * SUM_NMAX + 2):
        hat = p_hyp(n, lam).poly
        for name, series in lambda1_series(n).items():
            want = sampled[name](n, hat, S_SAMPLES)
            assert want["samples"] == len(S_SAMPLES)
            assert ((series == hat) is want["pass"]
                    is (lam == 1 or n == 0)), (n, name)


def test_closures_match_oracle():
    got = check_gould_closures(8, LAMBDAS)
    assert got == gould_oracle.check_gould_closures(8, LAMBDAS)
    assert got == {"pass": True, "failures": []}


def test_sum_forms_report_a_wrong_hat_per_parity(monkeypatch):
    # the folded check files each parity's outcome where the oracle does
    good = p_hyp

    def bad_hat(n, lam):
        return good(n, lam) if n != 5 else good(n + 2, lam)

    monkeypatch.setattr(verify, "p_hyp", bad_hat)
    monkeypatch.setattr(gould_oracle, "p_hyp", bad_hat)
    got = check_gould_sum_forms(2, Fraction(3, 2), S_SAMPLES)
    assert got == gould_oracle.check_gould_sum_forms(2, Fraction(3, 2),
                                                     S_SAMPLES)
    assert got["even"] == [True] * 5 and got["odd"] == [False] * 5


@pytest.fixture
def no_two_to_eps(monkeypatch):
    """gould_term without its factor 2^eps, in both modules that call it."""
    good = construct.gould_term

    def bad(m, r, eps, x):
        return good(m, r, eps, x) / 2 ** eps

    monkeypatch.setattr(construct, "gould_term", bad)
    monkeypatch.setattr(verify, "gould_term", bad)


@pytest.mark.usefixtures("no_two_to_eps")
def test_a_wrong_fold_fails_at_odd_index_only():
    for lam in LAMBDA_SET:
        for n in range(10):
            agrees = p_s41(n, lam).poly == p_s32(n, lam).poly
            assert agrees is (n % 2 == 0), (n, lam)
    for n in range(10):
        assert (p_s21_chebyshev(n).poly == p_s32(n, 1).poly) is (n % 2 == 0)
    for n in range(4):
        assert s32_bare_sum(n, 1, 1, "even") == s32_bare_closed_form(n, 1,
                                                                     "even")
        assert s32_bare_sum(n, 1, 2, "odd") != s32_bare_closed_form(n, 1,
                                                                    "odd")


@pytest.mark.usefixtures("no_two_to_eps")
def test_a_wrong_fold_fails_the_sum_checks():
    for lam in LAMBDA_SET:
        for n in range(4):
            got = check_gould_sum_forms(n, lam, S_SAMPLES)
            assert not got["pass"] and all(got["even"]), (n, lam)
            assert not any(got["odd"]), (n, lam)
            assert not check_integer_s_sums(n, lam, 6)["pass"], (n, lam)
    closures = check_gould_closures(4, [Fraction(1)])
    assert {f[0] for f in closures["failures"]} == {"odd"}
