"""The Gould-type sum forms written out once per parity, binomial by
binomial, as critpoly wrote them before each became a ``pochhammer_sum`` of
``construct.gould_weights``: the S41 and S21 builds, q_n, the bare S32 sum,
and the sum forms (sampled at rational s), integer-argument sums, closures
and quarter-shifted series of ``verify``. Kept as the reference the tests
compare the weight-list forms with.
The beta-kernel and duplication series checks are kept as ``verify`` had
them, sampled at rational s through ``eval_3f2``, as the oracles of the
lambda = 1 series that ``verify.lambda1_series`` builds as polynomials.

Nothing here calls ``gould_weights`` or ``pochhammer_sum``, so a fault in
either cannot reach both sides of a comparison."""
from fractions import Fraction
from math import comb, factorial

from critpoly.construct import S, p_hyp, p_s32
from critpoly.errors import PoleInDenominator, UndefinedIndex
from critpoly.hyp3f2 import eval_3f2
from critpoly.poly import Poly, RatFun, gen_binom, pochhammer
from critpoly.rat import as_rat


def p_s41(n: int, lam) -> Poly:
    lam = as_rat(lam)
    m, eps = n // 2, n % 2
    out = Poly.zero("s")
    if eps == 0:
        for r in range(m + 1):
            out = out + (Fraction((-1) ** (m - r)) * Fraction(2) ** (2 * r - 1)
                         * gen_binom(m + r + lam - 1, m + r) * comb(m + r, 2 * r)
                         * gen_binom((S - 2) / 2 + r, r)
                         * gen_binom(m + (S + lam) / 2 - Fraction(3, 4), m - r)
                         / comb(m, r))
        out = factorial(m) * factorial(2 * m) * out
    else:
        for r in range(m + 1):
            out = out + (Fraction((-1) ** (m - r)) * Fraction(4) ** r
                         * gen_binom(m + r + lam, m + r + 1) * comb(m + r + 1, 2 * r + 1)
                         * gen_binom((S - 1) / 2 + r, r)
                         * gen_binom(m + (S + 1 + lam) / 2 - Fraction(3, 4), m - r)
                         / comb(m, r))
        out = factorial(m) * factorial(2 * m + 1) * out
    return out


def p_s21_chebyshev(n: int) -> Poly:
    m, eps = n // 2, n % 2
    out = Poly.zero("s")
    if eps == 0:
        a = S / 2 - Fraction(1, 4)
        for r in range(m + 1):
            out = out + (Fraction((-1) ** (m - r)) * Fraction(2) ** (2 * r - 1)
                         * comb(m + r, 2 * r) * gen_binom((S - 2) / 2 + r, r)
                         * factorial(r) * pochhammer(a + r + 1, m - r))
        out = factorial(2 * m) * out
    else:
        a = S / 2 + Fraction(1, 4)
        for r in range(m + 1):
            out = out + (Fraction((-1) ** (m - r)) * Fraction(4) ** r
                         * comb(m + r + 1, 2 * r + 1) * gen_binom((S - 1) / 2 + r, r)
                         * factorial(r) * pochhammer(a + r + 1, m - r))
        out = factorial(2 * m + 1) * out
    return out


def q_rational(n: int, lam) -> RatFun:
    lam = as_rat(lam)
    m = n // 2
    p = p_s32(n, lam).poly
    if n % 2 == 0:
        if n == 0:
            raise UndefinedIndex("q is undefined at n = 0")
        den_binom = (lam * factorial(m - 1) * factorial(2 * m)
                     * gen_binom(2 * m + 2 * lam - 1, 2 * m - 1)
                     * gen_binom(m + (S + lam) / 2 - Fraction(3, 4), m))
        return _normalized(2 * p, den_binom)
    den_binom = (lam * factorial(m) * factorial(2 * m)
                 * gen_binom(2 * m + 2 * lam, 2 * m)
                 * gen_binom(m + (S + lam) / 2 - Fraction(1, 4), m))
    return _normalized(p, den_binom)


def _normalized(num: Poly, den: Poly) -> RatFun:
    """num / den with the denominator made monic."""
    return RatFun(num / den.leading, den / den.leading)


def s32_bare_sum(n: int, lam, s, parity: str) -> Fraction:
    lam, s = as_rat(lam), as_rat(s)
    total = Fraction(0)
    try:
        if parity == "even":
            for r in range(n + 1):
                total += (Fraction((-1) ** (n - r)) * Fraction(2) ** (2 * r - 1)
                          * gen_binom(n + r + lam - 1, r) * comb(n + r, 2 * r)
                          * gen_binom((s - 2) / 2 + r, r)
                          / (comb(n + r, r)
                             * gen_binom((s + lam) / 2 - Fraction(3, 4) + r, r)))
        elif parity == "odd":
            for r in range(n + 1):
                total += (Fraction((-1) ** (n - r)) * Fraction(4) ** r
                          * gen_binom(n + r + lam, r) * comb(n + r + 1, 2 * r + 1)
                          * gen_binom((s - 1) / 2 + r, r)
                          / (comb(n + r + 1, r)
                             * gen_binom((s + lam) / 2 - Fraction(1, 4) + r, r)))
        else:
            raise ValueError("parity must be 'even' or 'odd'")
    except ZeroDivisionError:
        raise PoleInDenominator(
            f"denominator binomial vanishes at s={s}, lambda={lam}") from None
    return total


def check_quarter_shift(n: int, hat: Poly, s_samples) -> dict:
    k = n // 2
    oks = []
    for s in s_samples:
        if n % 2 == 0:
            f = eval_3f2(Fraction(1, 2) - k, -k - s / 2 + Fraction(1, 4), -k,
                         1 - s / 2 - k, -2 * k)
            val = factorial(2 * k) * Fraction(4) ** k * pochhammer(s / 2, k) * f
        else:
            f = eval_3f2(-Fraction(1, 2) - k, -k - s / 2 - Fraction(1, 4), -k,
                         (1 - s) / 2 - k, -1 - 2 * k)
            val = (2 * factorial(2 * k + 1) * Fraction(4) ** k
                   * pochhammer((s + 1) / 2, k) * f)
        oks.append(val == hat(s))
    return {"pass": all(oks), "samples": len(oks)}


def check_beta_kernel(n: int, hat: Poly, s_samples) -> dict:
    """hat_p_n(s) = n!(n+1) ((s+eps)/2)_m 3F2(3/4, (1-n)/2, -n/2;
    3/2, 1-(n+s)/2; 1)."""
    m, eps = n // 2, n % 2
    oks = []
    for s in s_samples:
        f = eval_3f2(Fraction(3, 4), Fraction(1 - n, 2), Fraction(-n, 2),
                     Fraction(3, 2), 1 - (n + s) / 2)
        val = (factorial(n) * (n + 1)
               * pochhammer((s + eps) / 2, m) * f)
        oks.append(val == hat(s))
    return {"pass": all(oks), "samples": len(oks)}


def check_duplication(n: int, hat: Poly, s_samples) -> dict:
    """hat_p_n(s) = 2^n n! ((s+eps)/2)_m 3F2((1-n)/2, -n/2, 1/4-(n+s)/2;
    -n, 1-(n+s)/2; 1)."""
    m, eps = n // 2, n % 2
    oks = []
    for s in s_samples:
        if n == 0:
            oks.append(hat(s) == 1)
            continue
        f = eval_3f2(Fraction(1 - n, 2), Fraction(-n, 2),
                     Fraction(1, 4) - (n + s) / 2, Fraction(-n),
                     1 - (n + s) / 2)
        val = Fraction(2) ** n * factorial(n) * pochhammer((s + eps) / 2, m) * f
        oks.append(val == hat(s))
    return {"pass": all(oks), "samples": len(oks)}


def check_gould_sum_forms(n: int, lam, s_samples) -> dict:
    lam = as_rat(lam)
    s_samples = [as_rat(s) for s in s_samples]
    results = {"even": [], "odd": []}
    for s in s_samples:
        # even index 2n
        hat = p_hyp(2 * n, lam).poly
        rhs = hat(s) / (factorial(2 * n)
                        * pochhammer((s + lam) / 2 + Fraction(1, 4), n))
        s42 = Fraction(0)
        s31 = Fraction(0)
        top = gen_binom(n + (s + lam) / 2 - Fraction(3, 4), n)
        for r in range(n + 1):
            common = (Fraction((-1) ** (n - r)) * Fraction(4) ** r
                      * gen_binom(n + r + lam - 1, n + r) * comb(n + r, 2 * r)
                      * gen_binom((s - 2) / 2 + r, r))
            s42 += (common * gen_binom(n + (s + lam) / 2 - Fraction(3, 4), n - r)
                    / (comb(n, r) * top))
            s31 += common / gen_binom((s + lam) / 2 - Fraction(3, 4) + r, r)
        f = eval_3f2(-n, lam + n, s / 2, Fraction(1, 2),
                     lam / 2 + s / 2 + Fraction(1, 4))
        hyp = Fraction((-1) ** n) * gen_binom(lam + n - 1, n) * f
        results["even"].append(s42 == rhs and s31 == rhs and hyp == rhs)
        # odd index 2n+1
        hat = p_hyp(2 * n + 1, lam).poly
        rhs = hat(s) / (factorial(2 * n + 1)
                        * pochhammer((s + 1 + lam) / 2 + Fraction(1, 4), n))
        s42 = Fraction(0)
        s31 = Fraction(0)
        top = gen_binom(n + (s + lam) / 2 - Fraction(1, 4), n)
        for r in range(n + 1):
            common = (Fraction((-1) ** (n - r)) * 2 * Fraction(4) ** r
                      * gen_binom(n + r + lam, n + r + 1) * comb(n + r + 1, 2 * r + 1)
                      * gen_binom((s - 1) / 2 + r, r))
            s42 += (common * gen_binom(n + (s + lam) / 2 - Fraction(1, 4), n - r)
                    / (comb(n, r) * top))
            s31 += common / gen_binom((s + lam) / 2 - Fraction(1, 4) + r, r)
        f = eval_3f2(-n, lam + n + 1, s / 2 + Fraction(1, 2), Fraction(3, 2),
                     (lam + s) / 2 + Fraction(3, 4))
        hyp = (Fraction((-1) ** n) * 2 * (n + 1) * gen_binom(lam + n, n + 1) * f)
        results["odd"].append(s42 == rhs and s31 == rhs and hyp == rhs)
    results["pass"] = all(results["even"]) and all(results["odd"])
    return results


def check_integer_s_sums(n: int, lam, s1_max: int = 12) -> dict:
    lam = as_rat(lam)
    hat_even = p_hyp(2 * n, lam).poly
    hat_odd = p_hyp(2 * n + 1, lam).poly
    quarter = lam / 2 + Fraction(1, 4)
    oks = []
    for s1 in range(1, s1_max + 1):
        m0 = Fraction(factorial(s1 - 1), 2) / pochhammer(quarter, s1)
        oks.append(m0 == Fraction(1, 2 * s1) / gen_binom(quarter + s1 - 1, s1))
        closed_even = (m0 * hat_even(Fraction(2 * s1))
                       / (factorial(2 * n) * pochhammer(s1 + quarter, n)))
        total = Fraction(0)
        for r in range(n + 1):
            total += (Fraction((-1) ** (n - r)) * Fraction(4) ** r
                      * gen_binom(n + r + lam - 1, n + r) * comb(n + r, 2 * r)
                      * comb(s1 - 1 + r, r)
                      * gen_binom(n + s1 + quarter - 1, n - r)
                      / (comb(n, n - r)
                         * gen_binom(s1 + quarter - 1, s1)
                         * gen_binom(n + s1 + quarter - 1, n)))
        oks.append(total / (2 * s1) == closed_even)
        s = Fraction(2 * s1 + 1)
        m0_next = Fraction(factorial(s1), 2) / pochhammer(quarter, s1 + 1)
        closed_odd = (m0_next * hat_odd(s)
                      / (factorial(2 * n + 1)
                         * pochhammer(s1 + 1 + quarter, n)))
        total = Fraction(0)
        for r in range(n + 1):
            total += (Fraction((-1) ** (n - r)) * 2 * Fraction(4) ** r
                      * gen_binom(n + r + lam, n + r + 1)
                      * comb(n + r + 1, 2 * r + 1) * comb(s1 + r, r)
                      * gen_binom(n + s1 + quarter, n - r)
                      / (comb(n, r) * gen_binom(s1 + quarter, s1 + 1)
                         * gen_binom(n + s1 + quarter, n)))
        oks.append(total / (2 * (s1 + 1)) == closed_odd)
    return {"pass": all(oks), "checks": len(oks)}


def check_gould_closures(nmax: int, lam_samples) -> dict:
    failures = []
    for lam in map(as_rat, lam_samples):
        for n in range(1, nmax + 1):
            total = sum(Fraction((-1) ** (n - r)) * Fraction(2) ** (2 * r - 1)
                        * gen_binom(n + r + lam - 1, r) * comb(n + r, 2 * r)
                        / comb(n + r, r) for r in range(n + 1))
            want = (Fraction(1, 2) * gen_binom(2 * n + 2 * lam - 1, 2 * n - 1)
                    / gen_binom(n + lam - 1, n - 1))
            if total != want:
                failures.append(("even", n, str(lam)))
        for n in range(0, nmax + 1):
            total = sum(Fraction((-1) ** (n - r)) * Fraction(4) ** r
                        * gen_binom(n + r + lam, r) * comb(n + r + 1, 2 * r + 1)
                        / comb(n + r + 1, r) for r in range(n + 1))
            want = (Fraction(n + 1, 2 * n + 1)
                    * gen_binom(2 * n + 2 * lam, 2 * n)
                    / gen_binom(n + lam, n))
            if total != want:
                failures.append(("odd", n, str(lam)))
        for n in range(1, nmax + 1):
            q = q_rational(n, lam)
            if q.num.leading / q.den.leading != 1:
                failures.append(("leading", n, str(lam)))
    return {"pass": not failures, "failures": failures}
