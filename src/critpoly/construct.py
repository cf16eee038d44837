"""Construction of the critical polynomials p_n(s), the normalized rational
functions q_n(s), the reflection family p_n(s; beta), and the closed-form
Mellin transform descriptors.

One kernel builds the canonical polynomials: the beta family's 3F2 series,
whose term ratio at beta = 3/4 - lam/2 (< 1 for lam > -1/2) is that of the
Gegenbauer series at lam, so p_s32(n, lam) = ((2 lam)_n / 2) p_beta(n, beta)
and p_hyp is twice that. S41 (the S32 binomial sum with its s-binomial
cancelled) and S21, each a ``pochhammer_sum`` of ``gould_weights``, and
RECUR are built here as evidence, and ``verify`` checks the identities.

Normalization bookkeeping: the canonical normalization (tag ``paper_S``)
matches the printed list p_0 = 1/2, p_1 = 1, p_2 = 3s/2 - 3/4, ...; the
hypergeometric construction yields exactly twice that (tag ``thm4_hat``),
and the factor 2 is kept rather than silently absorbed.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .errors import InvalidBeta, PoleInDenominator, UndefinedIndex
from .hyp3f2 import poly_from_3f2, pochhammer_sum
from .orthopoly import _check_lambda
from .poly import Poly, RatFun, gen_binom, pochhammer
from .rat import as_rat, format_rat

S = Poly.var("s")

# Entries kept by each of the two memos: the beta kernel, keyed (n, beta),
# which p_s32 and p_hyp scale, and the T-factor recurrence, keyed n.
# `verify --suite all --nmax 10` asks for 173 distinct beta keys and 41 T
# factors, so every repeat there is a hit.
MEMO_SIZE = 256

# every bounded memo of the package: these two and the quadrature's
_MEMOS = []


def bounded_memo(maxsize: int):
    """functools.lru_cache(maxsize), registered so that clear_caches()
    empties it. A call that raises is not cached."""
    def wrap(fn):
        memo = lru_cache(maxsize=maxsize)(fn)
        _MEMOS.append(memo)
        return memo
    return wrap


def clear_caches() -> None:
    """Forget every memoized build, Gauss-Jacobi rule and Beta value, so
    that the next call computes cold."""
    for memo in _MEMOS:
        memo.cache_clear()


@dataclass(frozen=True)
class CriticalPolynomial:
    """A constructed critical polynomial with its provenance tags.

    Invariant (checked at construction): degree = floor(n/2). The reflection
    p(s) = (-1)^{floor(n/2)} p(1-s) is ``verify.check_functional_equation``.
    """

    n: int
    family: str          # "gegenbauer" or "beta"
    param: Fraction      # lambda or beta
    form: str            # S41 | S32 | S21 | HYP | RECUR
    poly: Poly
    normalization: str   # paper_S | thm4_hat

    def __post_init__(self):
        if self.poly.degree != self.n // 2:
            raise AssertionError(
                f"degree {self.poly.degree} != floor({self.n}/2) "
                f"[{self.family} n={self.n} param={self.param} {self.form}]")

    def to_json(self) -> dict:
        key = "lambda" if self.family == "gegenbauer" else "beta"
        out = {"n": self.n, key: format_rat(self.param), "form": self.form,
               "normalization": self.normalization}
        out.update(self.poly.to_json())
        return out


def _args(n: int, lam=None) -> Fraction | None:
    """lam as a Fraction, once n >= 0 and lam, when given, is admissible."""
    if n < 0:
        raise UndefinedIndex(f"need n >= 0, got n = {n}")
    if lam is not None:
        _check_lambda(lam := as_rat(lam))
    return lam


# ---------------------------------------------------------------------------
# binomial-sum forms
# ---------------------------------------------------------------------------

def gould_weights(m: int, eps: int, lam: Fraction) -> list:
    """V_0..V_m, the weights behind every Gould-type form of index 2m + eps:
    V_r = (-1)^(m-r) 2^(2r+eps) C(m+r+eps, 2r+eps) C(y+r, m+eps+r) /
    C(y, m+eps), y = m + lam - 1 + eps, stepped on integers from
    V_0 = (-1)^m 2^eps (m+1)^eps by V_r / V_(r-1) =
    -4 (m+r+eps)(m-r+1)(y+r) / ((2r-1+eps)(2r+eps)(m+eps+r)). Each form is
    a constant times their ``pochhammer_sum`` at gamma = lam/2 + (1+2eps)/4,
    as C(u-1+r, r) = (u)_r / r! and 1/C(a+r, r) = r! (a+r+1)_(m-r) / (a+1)_m
    at a + 1 = s/2 + gamma."""
    p, q = lam.numerator, lam.denominator
    out = [Fraction((-1) ** m * (2 * m + 2) ** eps)]
    for r in range(1, m + 1):
        out.append(out[-1] * Fraction(
            -4 * (m + r + eps) * (m - r + 1) * (q * (m + r - 1 + eps) + p),
            q * (2 * r - 1 + eps) * (2 * r + eps) * (m + eps + r)))
    return out


def gould_sum(m: int, eps: int, lam: Fraction) -> Poly:
    """C(y, m+eps), y = m + lam - 1 + eps, times the ``pochhammer_sum`` of
    ``gould_weights``: the four-over-two and three-over-one sums of
    M_(2m+eps) / M_0 times (a+1)_m, a = (s+lam+eps)/2 - 3/4, which are equal
    term by term as C(m+a, m-r) / (C(m, r) C(m+a, m)) = 1/C(a+r, r)."""
    return (pochhammer_sum(eps, lam / 2 + Fraction(1 + 2 * eps, 4),
                           gould_weights(m, eps, lam))
            * gen_binom(m + lam - 1 + eps, m + eps))


def p_s41(n: int, lam) -> CriticalPolynomial:
    """Four-binomial-numerator sum form (no s-dependent denominators),
    (2m+eps)! / 2 times ``gould_sum``."""
    lam = _args(n, lam)
    m, eps = n // 2, n % 2
    out = gould_sum(m, eps, lam) * Fraction(factorial(2 * m + eps), 2)
    return CriticalPolynomial(n, "gegenbauer", lam, "S41", out, "paper_S")


def p_s32(n: int, lam) -> CriticalPolynomial:
    """Three-numerator/two-denominator sum form, built as (2 lam)_n / 2
    times the memoized beta kernel at beta = 3/4 - lam/2."""
    lam = _args(n, lam)
    out = (_p_beta(n, Fraction(3, 4) - lam / 2).poly
           * (pochhammer(2 * lam, n) / 2))
    return CriticalPolynomial(n, "gegenbauer", lam, "S32", out, "paper_S")


def p_s21_chebyshev(n: int) -> CriticalPolynomial:
    """Two-numerator/one-denominator sum, the lambda = 1 simplification of
    S41: there C(y+r, m+eps+r) = C(y, m+eps) = 1, so its weights are
    ``gould_weights`` times (2m+eps)! / 2."""
    return CriticalPolynomial(n, "gegenbauer", Fraction(1), "S21",
                              p_s41(n, 1).poly, "paper_S")


def p_hyp(n: int, lam) -> CriticalPolynomial:
    """Hypergeometric-series construction (the Gamma-ratio normalization).

    Builds hat-p_n(s) = n! (2 lam)_n sum_k c_k ((s+eps)/2)_{m-k} with
    c_k = (-1)^k (lam/2 + 1/4)_k / (4^k k! (lam + 1/2)_k (n-2k)!); this is
    exactly twice the canonical polynomial (``verify.check_hat_ratio``),
    built as (2 lam)_n times the memoized beta kernel.
    """
    lam = _args(n, lam)
    out = _p_beta(n, Fraction(3, 4) - lam / 2).poly * pochhammer(2 * lam, n)
    return CriticalPolynomial(n, "gegenbauer", lam, "HYP", out, "thm4_hat")


def p_chebyshev_recursive(n: int) -> CriticalPolynomial:
    """Mixed recursion in (n, s) for lambda = 1.

    The recursion with seeds 1/2, 1 produces p_n(s)/n!; the final n!
    rescaling restores the canonical normalization.
    """
    _args(n)
    a, b = Poly.constant("s", Fraction(1, 2)), Poly.constant("s", Fraction(1))
    for k in range(2, n + 1):
        lead = S if k % 2 == 0 else 2
        a, b = b, lead * b.shift(1) - Fraction(1, 2) * (S + k - Fraction(1, 2)) * a
    out = a if n == 0 else b
    return CriticalPolynomial(n, "gegenbauer", Fraction(1), "RECUR",
                              factorial(n) * out, "paper_S")


def p_beta(n: int, beta) -> CriticalPolynomial:
    """One-parameter reflection family, beta < 1 rational: the 3F2 kernel
    with c_k = (-1)^k (1-beta)_k ((1-n)/2)_k (-n/2)_k / ((2-2beta)_k k!).
    Memoized on (n, beta)."""
    _args(n)
    beta = as_rat(beta)
    if beta >= 1:
        raise InvalidBeta(f"need beta < 1, got {beta}")
    return _p_beta(n, beta)


@bounded_memo(MEMO_SIZE)
def _p_beta(n: int, beta: Fraction) -> CriticalPolynomial:
    p, q = beta.numerator, beta.denominator
    coeffs = [Fraction(1)]
    for k in range(1, n // 2 + 1):
        # c_k / c_{k-1}, with beta = p/q
        coeffs.append(coeffs[-1] * Fraction(
            -(q * k - p) * (n - 2 * k + 2) * (n - 2 * k + 1),
            4 * k * (q * (k + 1) - 2 * p)))
    out = poly_from_3f2(n, n % 2, coeffs)
    return CriticalPolynomial(n, "beta", beta, "HYP", out, "paper_S")


# ---------------------------------------------------------------------------
# normalized rational functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormalizedRational:
    """q_n(s): the critical polynomial divided by its limit normalization.

    Numerator and denominator both have degree floor(n/2), and the
    denominator is monic with all roots on the negative real axis.
    """

    n: int
    lam: Fraction
    fun: RatFun

    def __post_init__(self):
        m = self.n // 2
        if self.fun.num.degree != m or self.fun.den.degree != m:
            raise AssertionError(f"q degrees != {m} at n={self.n}, "
                                 f"lambda={self.lam}")

    def __call__(self, point):
        return self.fun(point)


def q_rational(n: int, lam) -> NormalizedRational:
    """q_n(s) in the binomial normalization; the printed product
    normalization is ``verify.check_q_forms``.

    The pair is already reduced: the zeros of p_n lie on Re s = 1/2 (its
    Favard certificate, at beta = 3/4 - lam/2 < 1), those of the
    denominator at s = 3/2 - lam - eps - 2i < 0 for i = 1..m. So dividing
    both by the denominator's leading coefficient gives the reduced form."""
    lam = _args(n, lam)
    if n == 0:
        raise UndefinedIndex("q is undefined at n = 0")
    m, eps = n // 2, n % 2
    p = p_s32(n, lam).poly
    den_binom = (lam * factorial(m - 1 + eps) * factorial(2 * m)
                 * gen_binom(n + 2 * lam - 1, n - 1)
                 * gen_binom(m + (S + lam + eps) / 2 - Fraction(3, 4), m))
    lead = den_binom.leading
    return NormalizedRational(n, lam, RatFun(2 ** (1 - eps) * p / lead,
                                             den_binom / lead))


def s32_bare_sum(n: int, lam, s, parity: str) -> Fraction:
    """The bare three-over-two binomial sum, without the normalizing
    prefactor: index 2n for parity 'even', 2n+1 for parity 'odd'. It is the
    ``pochhammer_sum`` of ``gould_weights`` at s over 2 (s/2 + gamma)_n."""
    lam, s = as_rat(lam), as_rat(s)
    if parity not in ("even", "odd"):
        raise ValueError("parity must be 'even' or 'odd'")
    eps = int(parity == "odd")
    gamma = lam / 2 + Fraction(1 + 2 * eps, 4)
    den = 2 * pochhammer(s / 2 + gamma, n)
    if den == 0:
        raise PoleInDenominator(
            f"denominator binomial vanishes at s={s}, lambda={lam}")
    return pochhammer_sum(eps, gamma, gould_weights(n, eps, lam))(s) / den


def s32_bare_closed_form(n: int, lam, parity: str) -> Fraction:
    """Printed closed forms of the bare sums at s=1 (even) / s=2 (odd)."""
    lam = as_rat(lam)
    if parity == "even":
        return (Fraction(1, 2) * gen_binom(n + (2 * lam - 3) / 4, n)
                / gen_binom(n + (2 * lam - 1) / 4, n))
    if parity == "odd":
        return ((n + 1) * gen_binom(n + (2 * lam - 3) / 4, n)
                / gen_binom(n + (2 * lam + 3) / 4, n))
    raise ValueError("parity must be 'even' or 'odd'")


# ---------------------------------------------------------------------------
# closed-form Mellin transform descriptors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MellinClosedForm:
    """M(s) = const_rat * Gamma(const_gamma_arg)
              * Gamma((s+eps)/2) / Gamma((s+den_offset)/2) * factor(s)."""

    kind: str                    # "gegenbauer" or "T"
    n: int
    lam: Fraction | None
    eps: int
    factor: Poly
    const_rat: Fraction
    const_gamma_arg: Fraction
    den_offset: Fraction

    def to_json(self) -> dict:
        out = {"kind": self.kind, "n": self.n,
               "eps": self.eps, "const_rat": format_rat(self.const_rat),
               "const_gamma_arg": format_rat(self.const_gamma_arg),
               "den_offset": format_rat(self.den_offset),
               "factor": self.factor.to_json()}
        if self.lam is not None:
            out["lambda"] = format_rat(self.lam)
        return out


def mellin_closed(n: int, lam) -> MellinClosedForm:
    lam = _args(n, lam)
    hat = p_hyp(n, lam).poly
    p, q = lam.numerator, lam.denominator
    # const_gamma_arg = lam/2 + 1/4, den_offset = n + lam + 1/2
    return MellinClosedForm("gegenbauer", n, lam, n % 2, hat,
                            Fraction(1, 2 * factorial(n)),
                            Fraction(2 * p + q, 4 * q),
                            Fraction((2 * n + 1) * q + 2 * p, 2 * q))


def mellin_T_closed(n: int) -> MellinClosedForm:
    """First-kind transform via the exact symbolic recursion
    M_n(s) = 2 M_{n-1}(s+1) - M_{n-2}(s) from the Beta-function seeds. The
    factors are memoized, so factor n is one step from factors n-1 and n-2.

    The polynomial factor's zero set is
    {integers of parity n-1 up to n-3} union {n^2 - 1}
    (``verify.check_T_zero_set``); the constant works out to
    sqrt(pi)/(4 * 2^{floor(n/2)}) (the printed 2^n is off for n >= 4, as
    the recursion shows).
    """
    _args(n)
    for k in range(n):
        _T_factor(k)     # fill the memo bottom-up: no deep recursion
    return MellinClosedForm("T", n, None, n % 2, _T_factor(n),
                            Fraction(1, 4 * 2 ** (n // 2)),
                            Fraction(1, 2), Fraction(n + 3))


@bounded_memo(MEMO_SIZE)
def _T_factor(k: int) -> Poly:
    if k < 2:
        return Poly.constant("s", Fraction(1))
    # c_{k-1}/c_k = 2^{floor(k/2)-floor((k-1)/2)}, c_{k-2}/c_k = 2
    ratio1 = Fraction(2) ** (k // 2 - (k - 1) // 2)
    e = S / 2 if k % 2 == 0 else Poly.constant("s", Fraction(1))
    return (2 * ratio1 * e * _T_factor(k - 1).shift(1)
            - 2 * ((S + k + 1) / 2) * _T_factor(k - 2))
