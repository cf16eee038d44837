"""Certification engine: critical-line zero certificates, functional
equations, the identities that tie the constructed forms together,
difference/recurrence identities, closure identities, and the Gamma form
of Corollary 2.

Every recurrence among the Mellin transforms, and Corollary 2, is reduced
to an exact polynomial or rational identity by expressing all terms over a
common Gamma-ratio: shifting n or s by integers changes the ratio by exact
Pochhammer factors, so the Gamma functions cancel completely and no Gamma
function is evaluated.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial, prod

from .construct import (S, CriticalPolynomial, NormalizedRational,
                        gould_weights, p_beta, p_hyp, p_s32, p_s41,
                        q_rational)
from .hyp3f2 import pochhammer_sum, poly_from_3f2
from .poly import (LineIsolation, Poly, RatFun, gen_binom, half_shift,
                   line_reduction, pochhammer)
from .rat import as_rat

log = logging.getLogger("critpoly")

ONE_MINUS_S = Poly("s", [Fraction(1), Fraction(-1)])


# ---------------------------------------------------------------------------
# critical-line certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Certificate:
    """Outcome of ``certify_critical_line``. ``method`` is "favard",
    "descartes" or "squarefree"; ``work`` counts the sign tests of the
    recurrence coefficients under "favard", otherwise the Descartes
    intervals tested, on w and then on its squarefree part;
    ``coeff_bits`` is the largest bit size among the integer coefficients
    of w, the parity reduction of p(1/2 + it) (``poly.line_reduction``).
    ``isolation`` is the ``LineIsolation`` whose ``roots()`` refines the
    isolated roots; a Favard certificate isolates nothing and holds None,
    and ``reduction``, the (odd, w) of ``line_reduction``, to isolate
    later."""
    subject: dict
    degree: int
    v_degree: int
    distinct_real_roots: int
    squarefree: bool
    passed: bool
    method: str
    work: int
    coeff_bits: int
    isolation: LineIsolation | None = field(compare=False, repr=False)
    reduction: tuple | None = field(default=None, compare=False, repr=False)

    def to_json(self) -> dict:
        return {"subject": self.subject, "degree": self.degree,
                "v_degree": self.v_degree,
                "distinct_real_roots": self.distinct_real_roots,
                "squarefree": self.squarefree, "pass": self.passed,
                "method": self.method, "work": self.work,
                "coeff_bits": self.coeff_bits}


def certify_critical_line(p: CriticalPolynomial | Poly,
                          reduction: tuple | None = None) -> Certificate:
    """Certify exactly that every zero of p lies on Re s = 1/2.

    p(1/2 + it) is t^odd w(t^2) up to a constant factor (1 or i), with w an
    integer polynomial. A built polynomial of the beta or Gegenbauer family
    is first tried by Favard's theorem (``favard_failure``): when every
    recurrence coefficient is positive and the chain ends at p's own
    coefficients, its m = deg p zeros are on the line and simple.

    Otherwise, and always for a bare Poly, ``poly.LineIsolation`` decides:
    by Descartes bisection when deg w disjoint intervals each hold one
    positive root of w (then all 2 deg w + odd roots of v are real and
    simple), and in every other case (w(0) = 0, a repeated root of w, fewer
    positive roots than deg w) by the positive roots of the squarefree part
    of w; it logs that fallback at DEBUG. The substitution raises
    MixedCoefficients when p(1/2 + it) is neither purely real nor purely
    imaginary; otherwise v is even or odd, so its roots pair as +-t.
    ``reduction`` is the (odd, w) of a bare Poly p when the caller holds
    it, as the ``reduction`` of a Favard certificate of p.
    """
    if isinstance(p, Poly):
        poly = p
        subject = {"n": None, "family": None, "param": None, "form": "poly"}
    else:
        poly = p.poly
        subject = {"n": p.n, "family": p.family, "param": str(p.param),
                   "form": p.form}
        odd, w = reduction = line_reduction(poly)
        reason = favard_failure(p, odd, w)
        if reason is None:
            m = poly.degree
            return Certificate(subject, m, m, m, True, True, "favard",
                               max(m - 1, 0),
                               max(abs(c).bit_length() for c in w), None,
                               reduction)
        log.debug("Favard certificate of %s fails: %s", subject, reason)
    iso = LineIsolation(poly, reduction)
    return Certificate(subject, poly.degree, iso.v_degree,
                       iso.distinct_real_roots, iso.squarefree, iso.passed,
                       iso.method, iso.work,
                       max(abs(c).bit_length() for c in iso.w), iso)


def favard_gamma(j: int, n: int, beta: Fraction) -> tuple:
    """(num, den) with 4 gamma_j = num / den, gamma_j the coefficient of the
    monic three-term recurrence x P_j = P_(j+1) + gamma_j P_(j-1) of the
    continuous Hahn polynomial p_m(x; a, b, a, b), m = floor(n/2),
    eps = n mod 2, a = 1/4 + eps/2, b = beta - m - a, to which p_n(s; beta)
    is proportional at s = 1/2 + 2ix. Cleared to integers at beta = p/q,
    4 gamma_j = j A (2j-1+2eps) C^2 E / (F G^2 H); for beta < 1 and
    1 <= j <= m-1, A, E, F and H are negative and no factor vanishes."""
    m, eps = n // 2, n % 2
    p, q = beta.numerator, beta.denominator
    a = q * (j - 2 * m - 2) + 2 * p
    c = q * (j - 1 - m) + p
    e = 2 * q * (j - 2 * m - 1 - eps) + 4 * p - q
    f, g, h = (q * (2 * j - 2 * m - k) + 2 * p for k in (3, 2, 1))
    return j * a * (2 * j - 1 + 2 * eps) * c * c * e, f * g * g * h


def favard_chain(gammas: list) -> list:
    """R_m of t R_j = R_(j+1) + g_j R_(j-1), R_0 = 1, R_1 = t, for the
    Fractions g_1..g_(m-1) (here 4 gamma_j, the recurrence of
    ``favard_gamma`` in t = 2x), up to a positive factor: the integer list
    of its coefficients at t^(2i + m mod 2). The chain runs fraction-free
    on the one parity of R_j, with R_(j+1) scaled by the denominators of
    g_1..g_j; t R_j moves the list up by one place when j is odd."""
    prev, cur, den_prev = [], [1], 1
    for j, g in enumerate([Fraction(0)] + gammas):
        num, den = g.numerator, g.denominator
        new = [0] * (j % 2) + [den * c for c in cur]
        k = num * den_prev
        for i, c in enumerate(prev):
            new[i] -= k * c
        prev, cur, den_prev = cur, new, den
    return cur


def favard_failure(p: CriticalPolynomial, odd: int, w: list) -> str | None:
    """None when Favard's theorem proves that the m = floor(n/2) zeros of
    p are on Re s = 1/2 and simple; otherwise why it does not.

    When every gamma_j of ``favard_gamma`` is positive (1 <= j <= m-1), the
    monic P_m has m real, simple zeros: they are the eigenvalues of a real
    symmetric tridiagonal matrix (Chihara 1978, ch. I). The proof holds for
    p when R_m(t) = 2^m P_m(t/2) of ``favard_chain`` is proportional to
    t^odd w(t^2) of ``poly.line_reduction``, which ties it to p's own
    coefficients."""
    if p.family == "beta":
        beta = p.param
    elif p.family == "gegenbauer":
        beta = Fraction(3, 4) - p.param / 2
    else:
        return f"no recurrence for family {p.family!r}"
    m, gammas = p.n // 2, []
    for j in range(1, m):
        num, den = favard_gamma(j, p.n, beta)
        if num * den <= 0:
            return f"gamma_{j} = {num}/{4 * den} is not positive"
        gammas.append(Fraction(num, den))
    chain = favard_chain(gammas)
    if odd != m % 2 or len(w) != len(chain) or any(
            r * w[-1] != c * chain[-1] for r, c in zip(chain, w)):
        return "the recurrence chain differs from the coefficients"
    return None


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

def check_hat_ratio(hat: Poly, n: int, lam) -> bool:
    """HYP = 2 S32: the hypergeometric route (normalization ``thm4_hat``)
    gives exactly twice the S32 binomial sum. With the s-binomial
    cancelled, C(m+A, m) / C(A+r, r) = (r!/m!) (A+r+1)_{m-r}, that sum is
    the S41 build ``p_s41``, (2m+eps)! / 2 times ``construct.gould_sum``,
    built apart from the beta kernel."""
    return hat == 2 * p_s41(n, lam).poly


def check_q_forms(q: RatFun, n: int, lam) -> bool:
    """The printed product normalization of q_n equals ``q``, the binomial
    normalization that ``q_rational`` builds. The odd-index product form
    carries p_{2n+1} in the numerator (dimensional consistency)."""
    lam = as_rat(lam)
    m, eps = n // 2, n % 2
    prod = Poly.constant("s", pochhammer(2 * lam, 2 * m + eps))
    for j in range(1, m + 1):
        prod = prod * (2 * S + 2 * lam + 4 * j - 3 + 2 * eps)
    # q.num / q.den = 2^(2m+1) p / prod, cross-multiplied
    return (q.num * prod
            == Fraction(2) ** (2 * m + 1) * p_s32(n, lam).poly * q.den)


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

def check_M_recurrences(n: int, lam) -> dict:
    """The Mellin-transform relations at index n not checked elsewhere, as
    exact identities in s, by name: the mixed (n, s) recurrence (at
    lambda = 1 its residual is n times that of the Chebyshev recurrence),
    and at lambda = 1 the three 3F2 re-expressions of ``lambda1_series``.
    The central s-recurrence is ``check_central_difference``.
    """
    lam = as_rat(lam)
    hats = [p_hyp(k, lam).poly for k in range(n + 1)]
    report = {}
    # mixed recurrence: common ratio Gamma((s+eps)/2)/Gamma((s+n+lam)/2+1/4)
    if n >= 2:
        e = S / 2 if n % 2 == 0 else Poly.constant("s", Fraction(1))
        res = (Fraction(n, factorial(n)) * hats[n]
               - 2 * (lam + n - 1) * e * hats[n - 1].shift(1) / factorial(n - 1)
               + (2 * lam + n - 2) * ((S + n + lam) / 2 - Fraction(3, 4))
               * hats[n - 2] / factorial(n - 2))
        report["mixed_recurrence"] = res.is_zero
    if lam == 1:
        for name, series in lambda1_series(n).items():
            report[name] = series == hats[n]
    return report


def lambda1_series(n: int) -> dict:
    """The lambda = 1 series of hat_p_n(s) as Polys in s, by report row, at
    n = 2m + eps, u = (s+eps)/2 = (n+s)/2 - m: quarter_shift_series n! 2^n
    (u)_m 3F2(1/2-m-eps, 1/4-m-u, -m; 1-m-u, -n; 1), duplication_series the
    same with 3F2((1-n)/2, -n/2, 1/4-m-u; -n, 1-m-u; 1), beta_kernel_series
    n!(n+1) (u)_m 3F2(3/4, (1-n)/2, -n/2; 3/2, 1-m-u; 1). Term k has
    (u)_m / (1-m-u)_k = (-1)^k (u)_(m-k) and (1/4-m-u)_k = (-1)^k
    (u+m-k+3/4)_k: ``pochhammer_sum``s in j = m - k, and a 3F2 kernel."""
    m, eps = n // 2, n % 2

    def terms(front, tops, bottom, z=1):  # z^k prod (a)_k / ((b)_k k!)
        return [front * z ** k * prod(pochhammer(a, k) for a in tops)
                / (pochhammer(bottom, k) * factorial(k)) for k in range(m + 1)]
    front, gamma = 2 ** n * factorial(n), Fraction(3 + 2 * eps, 4)
    halves = (Fraction(1 - n, 2), Fraction(-n, 2))
    return {"quarter_shift_series": pochhammer_sum(eps, gamma, terms(
                front, (Fraction(1, 2) - m - eps, -m), -n)[::-1]),
            "beta_kernel_series": poly_from_3f2(n, eps, terms(
                factorial(n) * (n + 1), (Fraction(3, 4), *halves),
                Fraction(3, 2), -1)),
            "duplication_series": pochhammer_sum(
                eps, gamma, terms(front, halves, -n)[::-1])}


def _hyp_weights(n: int, eps: int, lam: Fraction) -> list:
    """F_k = (-1)^n (2n+2)^eps C(y, n+eps) (-n)_k (lam+n+eps)_k / ((1/2+eps)_k
    k!), stepped on integers: as (a+1)_n / (a+1)_k = (a+1+k)_(n-k), their
    ``pochhammer_sum`` is the 3F2 form of M_(2n+eps) / M_0 times (a+1)_n,
    (-1)^n (2n+2)^eps C(y, n+eps) 3F2(-n, lam+n+eps, u; 1/2+eps, a+1; 1)."""
    p, q = lam.numerator, lam.denominator
    out = [(-1) ** n * (2 * n + 2) ** eps
           * gen_binom(n + lam - 1 + eps, n + eps)]
    for k in range(1, n + 1):
        out.append(out[-1] * Fraction(
            2 * (k - 1 - n) * (q * (n + eps + k - 1) + p),
            q * (2 * k - 1 + 2 * eps) * k))
    return out


def check_gould_sum_forms(n: int, lam) -> dict:
    """The 3F2 sum form of M_{2n+eps} / M_0 times (a+1)_n as an identity in
    Q[s], per parity: the ``pochhammer_sum`` of ``_hyp_weights`` must equal
    hat_p(s) / (2n+eps)!, hat_p the ``poly_from_3f2`` build of ``p_hyp``.
    The four-over-two and three-over-one forms are ``gould_sum``, which
    ``check_hat_ratio`` at index 2n+eps proves equal to the same quotient."""
    lam = as_rat(lam)
    results = {"method": "identity"}
    for eps, parity in enumerate(("even", "odd")):
        want = p_hyp(2 * n + eps, lam).poly / factorial(2 * n + eps)
        results[parity] = want == pochhammer_sum(
            eps, lam / 2 + Fraction(1 + 2 * eps, 4), _hyp_weights(n, eps, lam))
    results["pass"] = results["even"] and results["odd"]
    return results


def check_integer_s_sums(lam, s1_max: int = 12) -> dict:
    """The prefactor of the four-over-three sum forms at even/odd integer
    arguments s = 2 s1 + eps, where the Gamma-ratios become exact
    rationals: M_0(2k) = (k-1)! / (2 (lam/2+1/4)_k), k = s1 + eps, must be
    1/(2k C(k + lam/2 - 3/4, k)), as the printed prefactors 1/2s and
    lambda/(s+1) read s as s1 (at odd s the r = 0 term already carries the
    factor 2 lam). The sums themselves are ``gould_sum`` at s, which
    ``check_hat_ratio`` proves in Q[s]."""
    quarter = as_rat(lam) / 2 + Fraction(1, 4)
    oks = [Fraction(factorial(k - 1), 2) / pochhammer(quarter, k)
           == Fraction(1, 2 * k) / gen_binom(quarter + k - 1, k)
           for k in range(1, s1_max + 2)]
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
                # as s -> infinity each term of the bare sum tends to V_r / 2
                total = sum(gould_weights(n, eps, lam)) / 2
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


def check_q_range(q: NormalizedRational, s_grid) -> dict:
    """0 < q(s) < 1 for a built q_n on a rational grid in (1, inf); at grid
    points s >= 10^6 n the value must sit within 10^-3 of 1."""
    degree_zero = q.fun.num.degree == 0
    oks, near_one = [], []
    for s in map(as_rat, s_grid):
        val = q(s)
        oks.append(val == 1 if degree_zero else 0 < val < 1)
        if s >= 10 ** 6 * q.n:
            near_one.append(abs(1 - val) <= Fraction(1, 1000))
    return {"pass": all(oks) and all(near_one), "degree_zero": degree_zero,
            "points": len(oks), "near_one_points": len(near_one)}


# ---------------------------------------------------------------------------
# beta = 0 Gamma form (Corollary 2)
# ---------------------------------------------------------------------------

def check_corollary2(n: int) -> bool:
    """Corollary 2, the Gamma closed form of p_n(s; 0), as an identity in
    Q[s]. With n = 2m + eps and u = (s+eps)/2, Gamma((n+s)/2) / Gamma(u) =
    (u)_m, and the bracket 1 - Gamma(-(n+s)/2) Gamma((n+3-s)/2) /
    (Gamma((1-s)/2) Gamma(1-s/2)) is 1 - N/D with the Pochhammer products
    N = ((1+eps-s)/2)_(m+1) and D = (-(n+s)/2)_(m+1): ((1-s)/2)_(m+1) and
    (-m-s/2)_(m+1) at eps = 0, (1-s/2)_(m+1) and ((-1-s)/2-m)_(m+1) at
    eps = 1. So the check is p_n(s; 0) D = 2 (n+s) / ((n+1)(n+2)) (u)_m
    (D - N)."""
    m, eps = n // 2, n % 2
    num = pochhammer((1 + eps - S) / 2, m + 1)
    den = pochhammer(-(n + S) / 2, m + 1)
    rhs = (Fraction(2, (n + 1) * (n + 2)) * (n + S)
           * pochhammer((S + eps) / 2, m) * (den - num))
    return p_beta(n, Fraction(0)).poly * den == rhs
