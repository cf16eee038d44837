"""The Gould-type sum forms, each a ``pochhammer_sum`` of
``construct.gould_weights``, against their per-parity transcriptions in
gould_oracle.py; stand-ins that a sampled check passes and the identities
in Q[s] fail; and weights without their 2^eps, which the independent beta
kernel, through the HYP = 2 S32 ratio of the forms row, and the closures
must catch at odd index."""
from fractions import Fraction
from math import factorial
from types import SimpleNamespace

import pytest

import gould_oracle
from critpoly import cli, construct, verify
from critpoly.cli import LAMBDA_SET
from critpoly.construct import (S, p_hyp, p_s21_chebyshev, p_s32, p_s41,
                                q_rational, s32_bare_closed_form,
                                s32_bare_sum)
from critpoly.poly import gen_binom, pochhammer
from critpoly.verify import (check_gould_closures, check_gould_sum_forms,
                             check_hat_ratio, check_integer_s_sums,
                             lambda1_series)

LAMBDAS = LAMBDA_SET + [Fraction(-1, 4)]
# where the sampled oracles of gould_oracle.py evaluate both sides
S_SAMPLES = [Fraction(1, 3), Fraction(7, 5), Fraction(5, 2),
             Fraction(11, 7), Fraction(9, 4)]
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
        # the identity in Q[s] holds where the oracle samples it
        want = gould_oracle.check_gould_sum_forms(n, lam, S_SAMPLES)
        assert check_gould_sum_forms(n, lam) == {
            "method": "identity", "even": all(want["even"]),
            "odd": all(want["odd"]), "pass": want["pass"]}
        assert want["pass"] is True
        # the oracle's sums at integer s read the identity at points; the
        # check keeps the M_0 prefactors, at k = 1..7 for s = 2..13
        want = gould_oracle.check_integer_s_sums(n, lam, 6)
        assert want["pass"] is True and want["checks"] == 18
    assert check_integer_s_sums(lam, 6) == {"pass": True, "checks": 7}
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
    # each parity's identity is filed where the oracle files its samples
    good = p_hyp

    def bad_hat(n, lam):
        return good(n, lam) if n != 5 else good(n + 2, lam)

    monkeypatch.setattr(verify, "p_hyp", bad_hat)
    monkeypatch.setattr(gould_oracle, "p_hyp", bad_hat)
    got = check_gould_sum_forms(2, Fraction(3, 2))
    want = gould_oracle.check_gould_sum_forms(2, Fraction(3, 2), S_SAMPLES)
    assert want["even"] == [True] * 5 and want["odd"] == [False] * 5
    assert (got["even"], got["odd"], got["pass"]) == (True, False, False)


def test_a_hat_off_between_the_samples_fails_the_identity(monkeypatch):
    # hat + c prod (s - s_i) agrees with hat at every sample, so the sampled
    # oracle passes it; as a polynomial it differs, and the identity fails
    nodes = Fraction(1, 7)
    for s in S_SAMPLES:
        nodes = nodes * (S - s)
    good = p_hyp

    def off_hat(n, lam):
        return SimpleNamespace(poly=good(n, lam).poly + nodes)

    monkeypatch.setattr(verify, "p_hyp", off_hat)
    monkeypatch.setattr(gould_oracle, "p_hyp", off_hat)
    for lam in LAMBDAS:
        for n in range(4):
            assert gould_oracle.check_gould_sum_forms(n, lam,
                                                      S_SAMPLES)["pass"]
            got = check_gould_sum_forms(n, lam)
            assert not (got["even"] or got["odd"] or got["pass"]), (n, lam)


def hyp_weights(n, eps, lam, bottom):
    """The 3F2 weights (-1)^n (2n+2)^eps C(n+lam-1+eps, n+eps) (-n)_k
    (lam+n+eps)_k / ((bottom)_k k!), each from its Pochhammer symbols."""
    front = (-1) ** n * (2 * n + 2) ** eps * gen_binom(n + lam - 1 + eps,
                                                       n + eps)
    return [front * pochhammer(Fraction(-n), k) * pochhammer(lam + n + eps, k)
            / (pochhammer(bottom, k) * factorial(k)) for k in range(n + 1)]


def test_a_wrong_3f2_denominator_fails_the_identity(monkeypatch):
    # (1/2+eps)_k in the 3F2 weights is right; (3/2+eps)_k is not
    for lam in LAMBDA_SET:
        for n in range(5):
            for eps in (0, 1):
                assert (verify._hyp_weights(n, eps, lam) == hyp_weights(
                    n, eps, lam, Fraction(1, 2) + eps)), (n, eps, lam)
    monkeypatch.setattr(verify, "_hyp_weights", lambda n, eps, lam: (
        hyp_weights(n, eps, lam, Fraction(3, 2) + eps)))
    for lam in LAMBDA_SET:
        # at n = 0 the weight list is its first entry, which (b)_0 = 1 keeps
        assert check_gould_sum_forms(0, lam)["pass"], lam
        for n in range(1, 5):
            got = check_gould_sum_forms(n, lam)
            assert not (got["even"] or got["odd"]), (n, lam)


@pytest.fixture
def no_two_to_eps(monkeypatch):
    """gould_weights stepped from V_0 = (-1)^m (m+1)^eps, without its
    factor 2^eps, in both modules that call it."""
    good = construct.gould_weights

    def bad(m, eps, lam):
        return [v / 2 ** eps for v in good(m, eps, lam)]

    monkeypatch.setattr(construct, "gould_weights", bad)
    monkeypatch.setattr(verify, "gould_weights", bad)


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
    # the Gould sums are S41 over (2m+eps)!/2, so the forms row's
    # HYP = 2 S32 ratio is their identity in Q[s]
    for lam in LAMBDA_SET:
        for n in range(8):
            assert check_hat_ratio(p_hyp(n, lam).poly, n, lam) is (
                n % 2 == 0), (n, lam)
    row = cli.SUITES["forms"](10, 0)
    assert row["pass"] is False
    assert row["detail"] == "HYP = 2 S32 at n=1, lambda=1 fails", row
    closures = check_gould_closures(4, [Fraction(1)])
    assert {f[0] for f in closures["failures"]} == {"odd"}
