"""Certification engine: critical-line zero certificates, functional
equations, the identities that tie the constructed forms together,
difference/recurrence identities, closure identities, and the float
Gamma-form cross-checks.

Every recurrence among the Mellin transforms is reduced to an exact
polynomial or rational identity by expressing all terms over a common
Gamma-ratio: shifting n or s by integers changes the ratio by exact
Pochhammer factors, so the Gamma functions cancel completely.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial

import mpmath

from .construct import (S, CriticalPolynomial, gould_term, p_beta, p_hyp,
                        p_s32, q_rational)
from .errors import GammaPole
from .hyp3f2 import eval_3f2
from .poly import (LineIsolation, Poly, RatFun, RealRootData, gen_binom,
                   half_shift, int_mul_linear, pochhammer, real_root_data,
                   substitute_critical)
from .rat import as_rat

log = logging.getLogger("critpoly")

ONE_MINUS_S = Poly("s", [Fraction(1), Fraction(-1)])

# the float cross-checks run in a private 40-digit context: the global
# mpmath precision is shared by every thread and changed by `workdps` blocks
mp = mpmath.MPContext()
mp.dps = 40


# ---------------------------------------------------------------------------
# critical-line certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Certificate:
    """Outcome of ``certify_critical_line``. ``method`` is "descartes" or
    "squarefree"; ``work`` counts the Descartes intervals tested, on w or
    on the squarefree part of p(1/2 + it); ``coeff_bits`` is the largest
    bit size among the integer coefficients of w, the parity reduction of
    p(1/2 + it). ``isolation`` holds the isolated roots, which ``roots()``
    refines: of w, or of the squarefree part of v under "squarefree"."""
    subject: dict
    degree: int
    v_degree: int
    distinct_real_roots: int
    squarefree: bool
    parity_paired: bool
    passed: bool
    method: str
    work: int
    coeff_bits: int
    isolation: LineIsolation | RealRootData = field(compare=False,
                                                    repr=False)

    def to_json(self) -> dict:
        return {"subject": self.subject, "degree": self.degree,
                "v_degree": self.v_degree,
                "distinct_real_roots": self.distinct_real_roots,
                "squarefree": self.squarefree,
                "parity_paired": self.parity_paired, "pass": self.passed,
                "method": self.method, "work": self.work,
                "coeff_bits": self.coeff_bits}


def certify_critical_line(p: CriticalPolynomial | Poly) -> Certificate:
    """Certify exactly that every zero of p lies on Re s = 1/2.

    p(1/2 + it) is t^odd w(t^2) up to a constant factor (1 or i), with w an
    integer polynomial. The certificate passes by Descartes bisection when
    w(0) != 0 and deg w disjoint intervals each hold exactly one positive
    root of w: then all 2 deg w + odd roots of v are real and simple. In
    every other case (w(0) = 0, a repeated root of w, fewer positive roots
    than deg w) the same bisection counts the real roots of the squarefree
    part of v, which decides, and the fallback is logged at DEBUG.
    The substitution raises MixedCoefficients when p(1/2 + it) is neither
    purely real nor purely imaginary; otherwise v is even or odd, so its
    roots pair as +-t and ``parity_paired`` always holds.
    """
    if isinstance(p, Poly):
        poly = p
        subject = {"n": None, "family": None, "param": None, "form": "poly"}
    else:
        poly = p.poly
        subject = {"n": p.n, "family": p.family, "param": str(p.param),
                   "form": p.form}
    iso = LineIsolation(poly)
    bits = max(abs(c).bit_length() for c in iso.w)
    if iso.fallback is None:
        roots = 2 * len(iso.positive.boxes) + iso.odd
        return Certificate(subject, poly.degree, roots, roots, True, True,
                           True, "descartes", iso.positive.nodes, bits, iso)
    log.debug("critical-line certificate of %s falls back to the "
              "squarefree part: %s", subject, iso.fallback)
    v, _ = substitute_critical(poly)
    data = real_root_data(v)
    return Certificate(subject, poly.degree, data.degree,
                       data.distinct_real_roots, data.is_squarefree, True,
                       data.all_roots_real(), "squarefree", data.work, bits,
                       data)


def reflection_sign(n: int) -> int:
    return (-1) ** (n // 2)


def check_functional_equation(p: Poly, n: int) -> bool:
    """The reflection p(s) = (-1)^{floor(n/2)} p(1-s). With
    p(1/2 + u) = sum a_k u^k / D (``half_shift``), p(1-s) at s = 1/2 + u is
    sum a_k (-u)^k / D, so the reflection holds iff a_k = 0 for every k
    with (-1)^k != (-1)^{floor(n/2)}."""
    a, _ = half_shift(p)
    first = 1 if reflection_sign(n) == 1 else 0   # of the a_k that must vanish
    return not any(a[first::2])


def check_fq1(n: int, lam) -> bool:
    """Reflection equation of q_n as an exact cross-multiplied identity."""
    lam = as_rat(lam)
    m, eps = n // 2, n % 2
    q = q_rational(n, lam).fun
    b_left = gen_binom(m + (1 - S + lam + eps) / 2 - Fraction(3, 4), m)
    b_right = gen_binom(m + (S + lam + eps) / 2 - Fraction(3, 4), m)
    n1 = q.num(ONE_MINUS_S)
    d1 = q.den(ONE_MINUS_S)
    # q(s) * B2 * D(1-s) = sign * B1 * N(1-s) * D(s)
    return (q.num * b_right * d1
            == reflection_sign(n) * b_left * n1 * q.den)


# ---------------------------------------------------------------------------
# agreement of the constructed forms
# ---------------------------------------------------------------------------

def s32_sum(n: int, lam) -> Poly:
    """The three-numerator/two-denominator sum form of p_n(s), built apart
    from the beta kernel of ``construct.p_s32``. The s-dependent binomial
    cancels against the prefactor, C(m+A, m) / C(A+r, r) =
    (r!/m!) (A+r+1)_{m-r}, leaving sum_r A_r C(x+r, r) (a+r+1)_{m-r} with
    x = (s-2+eps)/2 and a = (s+lam)/2 - 3/4 + eps/2."""
    lam = as_rat(lam)
    # Split-product Horner T_k = T_{k-1} (a+k) + A_k B_k, B_k = C(x+k, k),
    # whose T_m is the sum, run over integers. For lam = p/q the factors
    # are scaled to L_k = 4q (a+k) and to P_k = 2^k k! B_k, the product of
    # s - 2 + eps + 2j over j <= k. The weights D_k = A_k (2q)^k / k! then
    # have the integer term ratio num / den; u and v multiply those up, and
    # acc = v (4q)^k T_k / A_0 obeys acc_k = den L_k acc_{k-1} + u P_k.
    m, eps = n // 2, n % 2
    p, q = lam.numerator, lam.denominator
    acc, prods, u, v = [1], [1], 1, 1
    for k in range(1, m + 1):
        num = -4 * (q * (m + k - 1 + eps) + p) * (m - k + 1)
        den = (2 * k - 1 + 2 * eps) * k
        u, v = u * num, v * den
        prods = int_mul_linear(prods, 1, eps - 2 + 2 * k)
        acc = int_mul_linear(acc, 2 * q * den,
                             den * (2 * p + (2 * eps - 3) * q + 4 * q * k))
        acc = [a + u * b for a, b in zip(acc, prods)]
    # A_0 times the prefactor (2m+eps)! C(m+lam-1+eps, m+eps), with
    # (m+1) C(m+lam, m+1) = (m+lam) C(m+lam-1, m)
    front = ((-1) ** m * gen_binom(m + lam - 1, m)
             * (m + lam if eps else Fraction(1, 2)))
    scale = factorial(2 * m + eps) * front / (v * (4 * q) ** m)
    return Poly("s", [c * scale for c in acc])


def check_hat_ratio(hat: Poly, n: int, lam) -> bool:
    """HYP = 2 S32: the hypergeometric route (normalization ``thm4_hat``)
    gives exactly twice the S32 sum, built independently by ``s32_sum``."""
    return hat == 2 * s32_sum(n, lam)


def check_q_forms(q: RatFun, n: int, lam) -> bool:
    """The printed product normalization of q_n equals ``q``, the binomial
    normalization that ``q_rational`` builds. The odd-index product form
    carries p_{2n+1} in the numerator (dimensional consistency)."""
    lam = as_rat(lam)
    m, eps = n // 2, n % 2
    prod = Poly.constant("s", pochhammer(2 * lam, 2 * m + eps))
    for j in range(1, m + 1):
        prod = prod * (2 * S + 2 * lam + 4 * j - 3 + 2 * eps)
    return q == RatFun(Fraction(2) ** (2 * m + 1) * p_s32(n, lam).poly, prod)


def check_T_zero_set(factor: Poly, n: int) -> bool:
    """For n >= 2 the T-transform factor is monic with zero set
    {integers of parity n-1 up to n-3} union {n^2 - 1}."""
    expect = S - (n * n - 1)
    for z in range(1 + n % 2, n - 2, 2):
        expect = expect * (S - z)
    return factor == expect


# ---------------------------------------------------------------------------
# difference equations in s
# ---------------------------------------------------------------------------

def check_difference_equation(p: Poly, n: int, lam) -> bool:
    """Four-step difference equation of the canonical polynomials, with n
    the full index; exact zero-polynomial residual."""
    lam = as_rat(lam)
    h = n // 2
    p0, p2, p4 = p, p.shift(2), p.shift(4)
    if n % 2 == 0:
        res = ((S + 2) * (2 * lam + 4 * h - 2 * S - 5) * p4
               - (8 * lam * h + 2 * lam + 8 * h * h - 4 * S * S - 12 * S - 11) * p2
               - (S + 1) * (2 * lam + 4 * h + 2 * S + 1) * p0)
    else:
        res = ((S + 3) * (2 * lam + 4 * h - 2 * S - 3) * p4
               - (8 * lam * h + 6 * lam + 8 * h * h + 8 * h - 4 * S * S - 12 * S - 9) * p2
               - S * (2 * lam + 4 * h + 2 * S + 3) * p0)
    return res.is_zero


def check_central_difference(p: Poly, n: int, lam) -> bool:
    """The symmetric three-point relation connecting p(s-2), p(s), p(s+2)
    used in the zero-location proof; exact zero-polynomial residual."""
    lam = as_rat(lam)
    eps = n % 2
    a = 6 - 4 * (lam + 2 * lam * n + n * n) - 16 * S + 8 * S * (S + 1)
    b = -9 + 4 * (n + lam) ** 2 - 4 * (S - 1) * (S + 2)
    c = 4 * (S - 1) * (S - 2)
    e_half = (S + eps) / 2
    g_half = (S + n + lam) / 2 + Fraction(1, 4)
    res = (a * (e_half - 1) * g_half * p
           + b * e_half * (e_half - 1) * p.shift(2)
           - c * g_half * (g_half - 1) * p.shift(-2))
    return res.is_zero


# ---------------------------------------------------------------------------
# Mellin-transform recurrences, reduced to exact identities
# ---------------------------------------------------------------------------

def _guard_gamma(s_samples, offsets):
    for s in s_samples:
        for off in offsets:
            arg = (as_rat(s) + off) / 2
            if arg.denominator == 1 and arg <= 0:
                raise GammaPole(f"Gamma argument {arg} at s={s}")


def _hat_series(nmax: int, lam):
    return [p_hyp(k, lam).poly for k in range(nmax + 1)]


def check_M_recurrences(n: int, lam, s_samples) -> dict:
    """Verify every Mellin-transform relation at index n as an exact
    identity, then report the (zero) residual at each rational s sample.

    Covered: the mixed (n, s) recurrence, its lambda = 1 special case, the
    central s-recurrence, both lambda = 1 hypergeometric re-expressions,
    and the even/odd quarter-shifted series forms.
    """
    lam = as_rat(lam)
    s_samples = [as_rat(s) for s in s_samples]
    _guard_gamma(s_samples, [Fraction(n % 2), n + lam + Fraction(1, 2)])
    hats = _hat_series(max(n, 2), lam)
    report = {}

    def poly_identity(name: str, res: Poly):
        report[name] = {"zero_polynomial": res.is_zero,
                        "residuals": [str(res(s)) for s in s_samples]}

    # mixed recurrence: common ratio Gamma((s+eps)/2)/Gamma((s+n+lam)/2+1/4)
    if n >= 2:
        e = S / 2 if n % 2 == 0 else Poly.constant("s", Fraction(1))
        res = (Fraction(n, factorial(n)) * hats[n]
               - 2 * (lam + n - 1) * e * hats[n - 1].shift(1) / factorial(n - 1)
               + (2 * lam + n - 2) * ((S + n + lam) / 2 - Fraction(3, 4))
               * hats[n - 2] / factorial(n - 2))
        poly_identity("mixed_recurrence", res)
        if lam == 1:
            res = (hats[n] / factorial(n)
                   - 2 * e * hats[n - 1].shift(1) / factorial(n - 1)
                   + ((S + n + 1) / 2 - Fraction(3, 4)) * hats[n - 2]
                   / factorial(n - 2))
            poly_identity("mixed_recurrence_chebyshev", res)

    # central s-recurrence
    report["central_recurrence"] = {
        "zero_polynomial": check_central_difference(hats[n], n, lam)}

    # hypergeometric re-expressions (lambda = 1 statements)
    if lam == 1:
        report["quarter_shift_series"] = _check_quarter_shift(n, hats[n],
                                                              s_samples)
        report["beta_kernel_series"] = _check_beta_kernel(n, hats[n],
                                                          s_samples)
        report["duplication_series"] = _check_duplication(n, hats[n],
                                                          s_samples)
    return report


def _check_quarter_shift(n: int, hat: Poly, s_samples) -> dict:
    """Even/odd series with the quarter-shifted parameters: for n = 2k + eps,
    hat_p(s) = n! 2^n ((s+eps)/2)_k
    3F2(1/2-k-eps, 1/4-k-(s+eps)/2, -k; 1-k-(s+eps)/2, -n; 1)."""
    k, eps = n // 2, n % 2
    oks = []
    for s in s_samples:
        h = (s + eps) / 2
        f = eval_3f2(Fraction(1, 2) - k - eps, Fraction(1, 4) - k - h, -k,
                     1 - h - k, -n)
        oks.append(factorial(n) * 2 ** n * pochhammer(h, k) * f == hat(s))
    return {"pass": all(oks), "samples": len(oks)}


def _check_beta_kernel(n: int, hat: Poly, s_samples) -> dict:
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


def _check_duplication(n: int, hat: Poly, s_samples) -> dict:
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
    """The four-over-two and three-over-one sum forms of M_{2n+eps}, divided
    through by M_0: both must equal
    hat_p(s) / ((2n+eps)! ((s+lam+eps)/2 + 1/4)_{n}) exactly, and so must
    the 3F2 form."""
    lam = as_rat(lam)
    s_samples = [as_rat(s) for s in s_samples]
    results = {"even": [], "odd": []}
    hats = [p_hyp(2 * n + eps, lam).poly for eps in (0, 1)]
    for s in s_samples:
        for eps, parity in enumerate(("even", "odd")):
            a = (s + lam + eps) / 2 - Fraction(3, 4)
            rhs = (hats[eps](s)
                   / (factorial(2 * n + eps) * pochhammer(a + 1, n)))
            s42 = Fraction(0)
            s31 = Fraction(0)
            top = gen_binom(n + a, n)
            for r in range(n + 1):
                common = (2 * gould_term(n, r, eps, s)
                          * gen_binom(n + r + lam - 1 + eps, n + r + eps))
                s42 += common * gen_binom(n + a, n - r) / (comb(n, r) * top)
                s31 += common / gen_binom(a + r, r)
            f = eval_3f2(-n, lam + n + eps, (s + eps) / 2,
                         Fraction(1, 2) + eps, a + 1)
            hyp = ((-1) ** n * (2 * n + 2) ** eps
                   * gen_binom(lam + n - 1 + eps, n + eps) * f)
            results[parity].append(s42 == rhs and s31 == rhs and hyp == rhs)
    results["pass"] = all(results["even"]) and all(results["odd"])
    return results


def check_integer_s_sums(n: int, lam, s1_max: int = 12) -> dict:
    """At even/odd integer arguments s = 2 s1 + eps the Gamma-ratios become
    exact rationals; the four-over-three sum forms must then reproduce the
    closed-form transform values exactly, over M_0(2k), k = s1 + eps."""
    lam = as_rat(lam)
    hats = [p_hyp(2 * n + eps, lam).poly for eps in (0, 1)]
    quarter = lam / 2 + Fraction(1, 4)
    oks = []
    for s1 in range(1, s1_max + 1):
        for eps, hat in enumerate(hats):
            k = s1 + eps
            # M_0(2k) = (k-1)! / (2 (lam/2+1/4)_k)
            m0 = Fraction(factorial(k - 1), 2) / pochhammer(quarter, k)
            # the printed prefactors 1/2s and lambda/(s+1) read s as s1
            oks.append(m0 == Fraction(1, 2 * k) / gen_binom(quarter + k - 1, k))
            closed = (m0 * hat(Fraction(2 * s1 + eps))
                      / (factorial(2 * n + eps) * pochhammer(k + quarter, n)))
            den = (gen_binom(k + quarter - 1, k)
                   * gen_binom(n + k + quarter - 1, n))
            total = Fraction(0)
            for r in range(n + 1):
                total += (2 * gould_term(n, r, eps, Fraction(2 * s1 + eps))
                          * gen_binom(n + r + lam - 1 + eps, n + r + eps)
                          * gen_binom(n + k + quarter - 1, n - r)
                          / (comb(n, r) * den))
            # at odd s the r = 0 term already carries the factor 2*lam, so
            # the matching prefactor is 1/(2k) = M_0(2k) over its binomial part
            oks.append(total / (2 * k) == closed)
    return {"pass": all(oks), "checks": len(oks)}


# ---------------------------------------------------------------------------
# closure identities and q behavior
# ---------------------------------------------------------------------------

def check_gould_closures(nmax: int, lam_samples) -> dict:
    """Closed forms of the s -> infinity limits of the bare sums, plus the
    leading-coefficient statement lim q(s) = 1."""
    failures = []
    for lam in map(as_rat, lam_samples):
        for eps, parity in enumerate(("even", "odd")):
            for n in range(1 - eps, nmax + 1):
                # at x = 2 - eps the last binomial of gould_term is C(r, r) = 1
                total = sum(gould_term(n, r, eps, Fraction(2 - eps))
                            * gen_binom(n + r + lam - 1 + eps, r)
                            / comb(n + r + eps, r) for r in range(n + 1))
                want = ((Fraction(n + 1, 2 * n + 1) if eps else Fraction(1, 2))
                        * gen_binom(2 * n + 2 * lam - 1 + eps, 2 * n - 1 + eps)
                        / gen_binom(n + lam - 1 + eps, n - 1 + eps))
                if total != want:
                    failures.append((parity, n, str(lam)))
        for n in range(1, nmax + 1):
            q = q_rational(n, lam).fun
            if q.num.leading / q.den.leading != 1:
                failures.append(("leading", n, str(lam)))
    return {"pass": not failures, "failures": failures}


def check_q_range(n: int, lam, s_grid) -> dict:
    """0 < q(s) < 1 on a rational grid in (1, inf); at grid points
    s >= 10^6 n the value must sit within 10^-3 of 1."""
    lam = as_rat(lam)
    q = q_rational(n, lam)
    degree_zero = q.fun.num.degree == 0
    oks, near_one = [], []
    for s in map(as_rat, s_grid):
        val = q(s)
        oks.append(val == 1 if degree_zero else 0 < val < 1)
        if s >= 10 ** 6 * n:
            near_one.append(abs(1 - val) <= Fraction(1, 1000))
    return {"pass": all(oks) and all(near_one), "degree_zero": degree_zero,
            "points": len(oks), "near_one_points": len(near_one)}


# ---------------------------------------------------------------------------
# beta = 0 Gamma-form cross-check (float oracle)
# ---------------------------------------------------------------------------

def check_corollary2(n: int, s_samples) -> dict:
    """Gamma-function closed form of p_n(s; 0) versus the exact series
    construction, compared in floating point to 1e-10 relative."""
    exact = p_beta(n, Fraction(0)).poly
    eps = n % 2
    worst = 0.0
    for s in s_samples:
        s = as_rat(s)
        for arg in ((n + s) / 2, (s + eps) / 2, -(n + s) / 2,
                    (1 - s) / 2, 1 - s / 2, (n + 3 - s) / 2):
            if arg.denominator == 1 and arg <= 0:
                raise GammaPole(f"Gamma argument {arg} at s={s}")
        sm = mp.mpf(s.numerator) / s.denominator
        bracket = 1 - (mp.gamma(-(n + sm) / 2) * mp.gamma((n + 3 - sm) / 2)
                       / (mp.gamma((1 - sm) / 2) * mp.gamma(1 - sm / 2)))
        val = (2 * (n + sm) / ((n + 1) * (n + 2))
               * mp.gamma((n + sm) / 2) / mp.gamma((sm + eps) / 2)
               * bracket)
        want = mp.mpf(exact(s).numerator) / exact(s).denominator
        rel = abs(val - want) / max(abs(want), mp.mpf(1e-300))
        worst = max(worst, float(rel))
    return {"pass": worst <= 1e-10, "worst_rel_err": worst}
