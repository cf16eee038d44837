"""Floating-point oracle: Gauss-Jacobi quadrature of the defining Mellin
integrals (exact for their polynomial integrands) and Gamma-form closed
values; and the exact proof of the generating functions of the transforms,
coefficient by coefficient as integer polynomials in s.

The quadrature's per-node loops (Newton's method and the Christoffel sums of
the rules, and the three-term recurrences of the integrands) run on Python
integers in _FIXED_BITS-bit fixed point: a real v is held as the integer
near v 2^_FIXED_BITS. lambda and s are read as exact rationals (a float s as
its binary value), so the weight exponents alpha and beta are exact and the
rules start from exact integer ratios. mu0 = B(beta + 1, alpha + 1) is an
mpf, read as its exact dyadic man 2^exp, so each output float (a rule's
value, error estimate and magnitude, and a closed value) is one integer
ratio rounded once to the nearest float.

A rule belongs to its weight, not to the integrand: each rule of k nodes is
memoized on the integer key (A, B, d, k) of its exact alpha = A/d and
beta = B/d, and each Beta value, from three mp.gamma calls, on its exact
arguments, so every row of one weight shares them. A comparison row reads
the closed form as its mu0 times an exact rational: its Gamma quotient is
B(x, a) up to Pochhammer symbols at integer offsets, x = (s + eps)/2,
a = alpha + 1. What does not depend on s is memoized per (n, lambda), or
per n for T, too: the integrand that quad_mellin_gegenbauer and
quad_mellin_T integrate (alpha and the recurrence constants of the
polynomial) and the Beta shape of the closed form that compare_mellin and
compare_mellin_T check it against, so a warm row does no mpf arithmetic."""
from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .construct import (MellinClosedForm, bounded_memo, mellin_T_closed,
                        mellin_closed, p_hyp)
from .errors import InvalidParameters, ToleranceNotMet
from .hyp3f2 import pochhammer_sum
from .poly import gen_binom
from .rat import as_rat, format_rat

log = logging.getLogger("critpoly")

_QUAD_DPS = 30

# A private context whose precision is set here once and never changed, so
# that the caller's global mpmath precision cannot change a result.
mp = mpmath.MPContext()
mp.dps = _QUAD_DPS

# 64 guard bits above the 103 of mp.prec: a fixed-point value carries an
# absolute error near 2^-_FIXED_BITS, so a value down to 2^-_GUARD_BITS
# still has mp.prec correct bits when it is rounded to an mpf. The rules
# check the quantities they divide by against that floor.
_GUARD_BITS = 64
_FIXED_BITS = mp.prec + _GUARD_BITS

# A Gauss-Jacobi node is bracketed in float to within _SEED_WIDTH on each
# side, from where Newton's method takes two or three steps to reach a step
# below 2^(8 - mp.prec), 256 units in the last place of a node near 1; it
# gets _NEWTON_CAP. The half-width sits above the rounding of the float
# Sturm counts that certify a bracket: at 2^-51 they often disagree with a
# node found to float precision, at 2^-44 they hold.
_SEED_WIDTH = 2.0 ** -44
_NEWTON_CAP = 8

# Entries kept by the rule memo, keyed (A, B, d, k), by the Beta memo,
# keyed by its exact arguments, and by each integrand and closed-form shape
# memo, keyed by (n, lambda) or n. 64 mellin-batch rounds (seed 1) ask for
# 320 distinct rules, 74 distinct weights and 52 Gegenbauer and 13 T
# (n, lambda), so at these sizes every repeat there is a hit; at 256 rules
# the memo would keep evicting.
RULE_MEMO_SIZE = 512
BETA_MEMO_SIZE = 128
PLAN_MEMO_SIZE = 256


@dataclass(frozen=True)
class QuadResult:
    """``magnitude`` is the rule's sum of |w_i P(y_i)|, the size of the
    terms that make up ``value``: rounding errors scale with it, and it is
    positive where ``value`` vanishes. Both are rounded from the larger
    rule's fixed-point sums, ``error_estimate`` from the exact difference
    of the two rules' sums. ``mu0`` is the weight's integral
    B(beta + 1, alpha + 1), the mpf that scales both sums."""
    value: float
    error_estimate: float
    evaluations: int
    magnitude: float
    mu0: mpmath.mpf


def _fixed_str(v: int, w: int) -> str:
    return mp.nstr(mp.mpf((v, -w)), 5)


def _ratio(num: int, den: int, w: int) -> int:
    """num / den in w-bit fixed point, rounded to nearest."""
    return ((num << (w + 1)) // den + 1) >> 1


def _to_float(num: int, den: int, e: int = 0) -> float:
    """num 2^e / den (den != 0) rounded once to the nearest float, ties to
    even (int / int is correctly rounded, subnormals included); beyond the
    float range it is +-inf, as float() of an mpf gives it."""
    if e >= 0:
        num <<= e
    else:
        den <<= -e
    try:
        return num / den
    except OverflowError:
        return math.inf if (num > 0) == (den > 0) else -math.inf


def _dyadic(v) -> tuple:
    """(man, exp), integers with the finite mpf v = man 2^exp."""
    sign, man, exp, _ = v._mpf_
    return -man if sign else man, exp


def _recurrence_at(c1, c2, x: int, w: int) -> int:
    """p_n(x) for p_0 = 1, p_k = c1_k x p_(k-1) - c2_k p_(k-2), p_(-1) = 0,
    n = len(c1), with the constants, x and the value in w-bit fixed point."""
    a, b, w2 = 0, 1 << w, 2 * w
    for u, v in zip(c1, c2):
        a, b = b, (u * x * b >> w2) - (v * a >> w)
    return b


def _gegenbauer_constants(n: int, lam, w: int) -> tuple:
    """c1_k = 2(lam + k - 1)/k and c2_k = (2 lam + k - 2)/k, k = 1..n, of the
    C_n^lam recurrence: exact rationals in the rational lam, each rounded
    once to w-bit fixed point."""
    num, den = lam.numerator, lam.denominator
    ks = range(1, n + 1)
    return (tuple(_ratio(2 * (num + (k - 1) * den), k * den, w) for k in ks),
            tuple(_ratio(2 * num + (k - 2) * den, k * den, w) for k in ks))


def _gegenbauer_fixed(n: int, lam):
    """x -> C_n^lam(x) in _FIXED_BITS-bit fixed point (lam a rational),
    with the recurrence constants computed once, here."""
    w = _FIXED_BITS
    c1, c2 = _gegenbauer_constants(n, lam, w)
    return lambda x: _recurrence_at(c1, c2, x, w)


@bounded_memo(PLAN_MEMO_SIZE)
def _chebyshev_t_fixed(n: int):
    """x -> T_n(x) in _FIXED_BITS-bit fixed point: c1_1 = 1, c1_k = 2 and
    c2_k = 1, memoized: the integrand of T_n, whose alpha is _T_ALPHA."""
    w = _FIXED_BITS
    one = 1 << w
    c1 = tuple(one if k == 1 else 2 * one for k in range(1, n + 1))
    c2 = (one,) * n
    return lambda x: _recurrence_at(c1, c2, x, w)


def _over_lcm(an: int, ad: int, bn: int, bd: int) -> tuple:
    """(A, B, d) with alpha = an/ad = A/d and beta = bn/bd = B/d, each in
    lowest terms, d the lcm of their denominators: the one integer key of
    the exact weight y^beta (1-y)^alpha."""
    d = math.lcm(ad, bd)
    return an * (d // ad), bn * (d // bd), d


def _jacobi_recurrence(A: int, B: int, d: int, m: int):
    """Coefficients a_0..a_(m-1) and b_0..b_(m-1), as exact integer ratios
    (num, den), of the monic polynomials orthogonal for y^beta (1-y)^alpha
    on [0, 1], alpha = A/d and beta = B/d, p_(-1) = 0, p_0 = 1,
    p_(k+1)(y) = (y - a_k) p_k(y) - b_k p_(k-1)(y); b_0 = 0.

    a_0 and b_1 are the mean and variance of Beta(beta + 1, alpha + 1): the
    general formulas are 0/0 there at alpha + beta = 0 and -1."""
    # alpha + beta = S/d
    S = A + B
    a = [(B + d, S + 2 * d)]
    b = [(0, 1), ((A + d) * (B + d) * d, (S + 2 * d) ** 2 * (S + 3 * d))]
    for k in range(1, m):
        # c = 2k + alpha + beta = C/d
        C, K = 2 * k * d + S, k * d
        a.append((C * (C + 2 * d) + B * B - A * A, 2 * C * (C + 2 * d)))
        if k > 1:
            b.append((K * (K + A) * (K + B) * (K + S),
                      C * C * (C - d) * (C + d)))
    return a, b[:m]


def _sturm_count(a, b, x: float) -> int:
    """The number of eigenvalues below x of the Jacobi matrix J (diagonal a,
    off-diagonal sqrt(b_k), floats): J - x I has as many negative pivots."""
    count, d = 0, 1.0
    for ak, bk in zip(a, b):
        d = ak - x - bk / d
        if d < 0:
            count += 1
        elif d == 0:
            d = 1e-300
    return count


def _float_nodes(a, b) -> list:
    """Brackets (lo, hi), hi - lo <= 2 _SEED_WIDTH, one around each
    eigenvalue of the Jacobi matrix (diagonal a, off-diagonal sqrt(b_k),
    floats), which are the zeros of p_m, by increasing node: one bisection
    tree on Sturm counts, from the Gershgorin bounds, splits only the
    intervals that hold more than one eigenvalue."""
    e = [math.sqrt(x) for x in b[1:]]
    # (a_k, sqrt(b_k), sqrt(b_(k+1))) with sqrt(b_0) = 0, sqrt(b_m) = 1
    steps = list(zip(a, [0.0] + e, e + [1.0]))
    # Gershgorin's discs hold every eigenvalue
    radii = [u + v for u, v in zip([0.0] + e, e + [0.0])]
    lo = min(x - r for x, r in zip(a, radii))
    hi = max(x + r for x, r in zip(a, radii))
    brackets, todo = [], [(lo, hi, 0, len(a))]
    while todo:
        lo, hi, below_lo, below_hi = todo.pop()
        if below_hi - below_lo == 1:
            brackets.append(_isolated_node(a, b, steps, below_lo, lo, hi))
        elif hi - lo <= 2 * _SEED_WIDTH:
            # nodes closer than a bracket, which _gauss_rule rejects
            brackets += [(lo, hi)] * (below_hi - below_lo)
        elif below_hi > below_lo:
            mid = (lo + hi) / 2
            count = min(max(_sturm_count(a, b, mid), below_lo), below_hi)
            todo += [(mid, hi, count, below_hi), (lo, mid, below_lo, count)]
    return brackets


def _isolated_node(a, b, steps, i: int, lo: float, hi: float) -> tuple:
    """The bracket of the i-th eigenvalue, the only one in [lo, hi]: Newton's
    method on the float orthonormal recurrence (steps, as in _gauss_rule),
    kept in [lo, hi] by the sign (-1)^(m-i) of p_m below the node, and two
    Sturm counts to certify the bracket of half-width _SEED_WIDTH around
    its result; bisection on counts when they do not."""
    below = (-1.0) ** (len(a) - i)
    y, l, h = (lo + hi) / 2, lo, hi
    for _ in range(64):
        p_prev, p, d_prev, d = 0.0, 1.0, 0.0, 0.0
        for ak, r0, r1 in steps:
            t = y - ak
            p_prev, p, d_prev, d = (p, (t * p - r0 * p_prev) / r1,
                                    d, (p + t * d - r0 * d_prev) / r1)
        step = p / d if d else math.inf
        if abs(step) <= 2.0 ** -40:  # it leaves an error near step^2
            y -= step
            break
        l, h = (y, h) if p * below > 0 else (l, y)
        y = y - step if l <= y - step <= h else (l + h) / 2
    if _holds(a, b, i, y - _SEED_WIDTH, y + _SEED_WIDTH):
        return y - _SEED_WIDTH, y + _SEED_WIDTH
    while hi - lo > 2 * _SEED_WIDTH:
        mid = (lo + hi) / 2
        lo, hi = (lo, mid) if _sturm_count(a, b, mid) > i else (mid, hi)
    return lo, hi


def _holds(a, b, i: int, lo: float, hi: float) -> bool:
    """Whether two Sturm counts put the i-th eigenvalue alone in [lo, hi)."""
    return _sturm_count(a, b, lo) == i and _sturm_count(a, b, hi) == i + 1


def _gauss_rule(steps, a, b) -> tuple:
    """The (node, Christoffel sum) pairs, in _FIXED_BITS-bit fixed point,
    of the Gauss rule whose nodes are the zeros of p_m, m = len(steps), for
    the recurrence ratios a and b (floats, for _float_nodes) and the steps
    (a_k, 1 / sqrt(b_(k+1)), sqrt(b_k) / sqrt(b_(k+1))) in fixed point,
    sqrt(b_0) = 0 and sqrt(b_m) taken as 1: each node is seeded at the
    middle of its float bracket and polished by Newton's method on p_m; its
    weight is mu0 over its sum Sum_j pt_j(y)^2. Both loops run on the
    orthonormal polynomials pt_j = p_j / sqrt(b_1..b_j), pt_0 = 1,
    pt_(k+1) = ((y - a_k) pt_k - sqrt(b_k) pt_(k-1)) / sqrt(b_(k+1)),
    whose last step, taken with sqrt(b_m) = 1, gives sqrt(b_m) pt_m, a
    multiple of p_m with the same Newton steps. The p_j shrink like 4^-j
    on [0, 1], faster for large alpha or beta; the pt_j keep their bits at
    any alpha, beta and m: at a node the Christoffel sum is at least
    pt_0^2 = 1, and by Christoffel-Darboux the derivative of
    sqrt(b_m) pt_m is at least the square root of that sum.

    ToleranceNotMet is raised when that derivative falls below
    2^-_GUARD_BITS, and for a node that leaves (0, 1), that is still moving
    by 2^(8 - mp.prec) after _NEWTON_CAP steps, that ends outside its
    bracket (widened by _SEED_WIDTH on each side for the rounding of the
    float count) or that is not above the node before it."""
    w = _FIXED_BITS
    one, floor = 1 << w, 1 << (w - _GUARD_BITS)
    rule, prev = [], 0
    for lo, hi in _float_nodes(a, b):
        y = int(math.ldexp((lo + hi) / 2, w))
        for _ in range(_NEWTON_CAP):
            if not 0 < y < one:
                raise ToleranceNotMet(
                    f"Gauss-Jacobi node {_fixed_str(y, w)} outside (0, 1)")
            pt_prev, pt, d_prev, d = 0, one, 0, 0
            for ak, u, v in steps:
                t = u * (y - ak) >> w
                pt_prev, pt, d_prev, d = (
                    pt, (t * pt - v * pt_prev) >> w,
                    d, (u * pt + t * d - v * d_prev) >> w)
            if abs(d) < floor:
                raise ToleranceNotMet(
                    f"Gauss-Jacobi derivative {_fixed_str(d, w)} at "
                    f"{_fixed_str(y, w)} is below 2^-{_GUARD_BITS}")
            step = (pt << w) // d
            y -= step
            if abs(step) << (mp.prec - 8) < one:
                break
        else:
            raise ToleranceNotMet(
                f"Newton's method on the Gauss-Jacobi node near "
                f"{_fixed_str(y, w)} did not converge in {_NEWTON_CAP} steps")
        if not (int(math.ldexp(lo - _SEED_WIDTH, w)) <= y
                <= int(math.ldexp(hi + _SEED_WIDTH, w))):
            raise ToleranceNotMet(
                f"Gauss-Jacobi node {_fixed_str(y, w)} left its bracket "
                f"[{lo!r}, {hi!r}]")
        if not y > prev:
            raise ToleranceNotMet(
                f"Gauss-Jacobi node {_fixed_str(y, w)} is not above the "
                f"node before it, {_fixed_str(prev, w)}")
        pt_prev, pt, christoffel = 0, one, 0
        for ak, u, v in steps[:-1]:
            christoffel += pt * pt >> w
            pt_prev, pt = pt, ((u * (y - ak) >> w) * pt - v * pt_prev) >> w
        rule.append((y, christoffel + (pt * pt >> w)))
        prev = y
    return tuple(rule)


@bounded_memo(RULE_MEMO_SIZE)
def _gauss_jacobi_rule(A: int, B: int, d: int, k: int) -> tuple:
    """The Gauss rule of k nodes for y^beta (1-y)^alpha on [0, 1]
    (alpha = A/d, beta = B/d > -1, the key of _over_lcm), as _gauss_rule
    gives it, memoized: each a_j is converted to fixed point and to float,
    each b_j to float and sqrt(b_j) by isqrt.

    ToleranceNotMet is raised when a sqrt(b_j) falls below 2^-_GUARD_BITS:
    b_j is read to 2w bits, so each root has an absolute error of 2^-w and
    mp.prec correct bits down to that floor."""
    w = _FIXED_BITS
    one, floor = 1 << w, 1 << (w - _GUARD_BITS)
    a, b = _jacobi_recurrence(A, B, d, k)
    # sqrt(b_j), 0 <= j < k, with sqrt(b_0) = 0
    roots = [0] + [math.isqrt((p << 2 * w) // q) for p, q in b[1:]]
    for j, r in enumerate(roots[1:], 1):
        if r < floor:
            raise ToleranceNotMet(
                f"Gauss-Jacobi recurrence coefficient sqrt(b_{j}) = "
                f"{_fixed_str(r, w)} is below 2^-{_GUARD_BITS}")
    fixed = [_ratio(p, q, w) for p, q in a]
    # the rule ends on (a_(k-1), 1, sqrt(b_(k-1)))
    steps = [(aj, (one << w) // r1, (r0 << w) // r1)
             for aj, r0, r1 in zip(fixed, roots, roots[1:])]
    steps.append((fixed[-1], one, roots[-1]))
    return _gauss_rule(steps, [p / q for p, q in a], [p / q for p, q in b])


@bounded_memo(BETA_MEMO_SIZE)
def _beta(xn: int, an: int, d: int):
    """B(x, a) = Gamma(x) Gamma(a) / Gamma(x + a) at x = xn/d, a = an/d > 0,
    by three mp.gamma calls, memoized: (xn, an, d) in lowest terms."""
    return (mp.gamma(mp.mpf(xn) / d) * mp.gamma(mp.mpf(an) / d)
            / mp.gamma(mp.mpf(xn + an) / d))


def _gauss_jacobi(f, m: int, key: tuple, tol: float) -> QuadResult:
    """Int_0^1 y^beta (1-y)^alpha f(y) dy for f a polynomial of degree at
    most 2m - 1, given as a map from y to f(y) in _FIXED_BITS-bit fixed
    point; key = (A, B, d), alpha = A/d and beta = B/d > -1 as _over_lcm
    gives them.

    The Gauss-Jacobi rules with m and m + 1 nodes are both exact for such
    an f, so they differ only by rounding; their difference is the error
    estimate. An f of higher degree, or not a polynomial at all, shows up
    as a difference above tolerance.

    Each rule is built on [0, 1] from the weight's three-term recurrence in
    exact integer ratios: nodes bracketed in float by one bisection tree on
    Sturm counts and polished by Newton's method on the orthogonal
    polynomial in fixed point (Gautschi, Orthogonal Polynomials:
    Computation and Approximation, 2004, sec. 3.1; Hale and Townsend, SIAM
    J. Sci. Comput. 35, 2013). Each rule's sum of f(y) over the Christoffel
    sums runs on integers; the value, the error estimate (from the integer
    difference of the two sums) and the magnitude are each that integer
    times the dyadic mu0 = B(beta + 1, alpha + 1), rounded once to a
    float. Both rules and mu0 come from their memos."""
    w = _FIXED_BITS
    A, B, d = key
    sums, count = [], 0
    for k in (m, m + 1):
        rule = _gauss_jacobi_rule(A, B, d, k)
        terms = [(f(y) << w) // christoffel for y, christoffel in rule]
        sums.append(sum(terms))
        count += len(rule)
    # over the lcm, B + d, A + d and d have no common factor
    mu0 = _beta(B + d, A + d, d)
    man, exp = _dyadic(mu0)
    exp -= w
    value = _to_float(man * sums[1], 1, exp)
    err = _to_float(man * abs(sums[1] - sums[0]), 1, exp)
    if not err <= tol * max(1.0, abs(value)):
        raise ToleranceNotMet(
            f"quadrature error estimate {err} exceeds {tol}")
    return QuadResult(value, err, count,
                      _to_float(man * sum(map(abs, terms)), 1, exp), mu0)


def _mellin_integrand(g, eps: int):
    """y -> P(y) = g(sqrt y) / (2 sqrt(y)^eps) in _FIXED_BITS-bit fixed
    point, for g a map from x to g(x) in the same fixed point."""
    w = _FIXED_BITS

    def P(y):
        x = math.isqrt(y << w)
        v = g(x)
        return ((v << w) // x if eps else v) >> 1

    return P


def _mellin_even_weight(g, degree: int, alpha, s, tol: float) -> QuadResult:
    """Int_0^1 x^(s-1) (1-x^2)^alpha g(x) dx for g a polynomial of the stated
    degree and parity, given as a map from x to g(x) in _FIXED_BITS-bit
    fixed point: in y = x^2 it is Int_0^1 y^beta (1-y)^alpha P(y) dy,
    beta = (s - 2 + eps)/2, eps = degree mod 2, P(y) = g(sqrt y) / (2
    sqrt(y)^eps) of degree floor(degree/2). alpha is a rational and s a
    float or rational, read exactly."""
    eps = degree % 2
    sn, sd = s.as_integer_ratio()
    # beta = (s - 2 + eps)/2 in lowest terms
    bn, bd = sn + (eps - 2) * sd, 2 * sd
    c = math.gcd(bn, bd)
    key = _over_lcm(alpha.numerator, alpha.denominator, bn // c, bd // c)
    return _gauss_jacobi(_mellin_integrand(g, eps), degree // 4 + 1, key,
                         tol)


def _check_s(n: int, s: float) -> None:
    smin = -(n % 2)
    if n < 0 or not smin < s < math.inf:
        raise InvalidParameters(f"need n >= 0 and a finite s > {smin}, got "
                                f"n = {n}, s = {s}")


def _check_lambda(lam: Fraction) -> None:
    if 2 * lam.numerator <= -lam.denominator or not lam.numerator:
        raise InvalidParameters(f"need lambda > -1/2, lambda != 0, got {lam}")


def _gegenbauer_alpha(lam: Fraction) -> Fraction:
    """The exponent lam/2 - 3/4 of the Gegenbauer weight (1 - x^2)^alpha."""
    p, q = lam.numerator, lam.denominator
    return Fraction(2 * p - 3 * q, 4 * q)


_T_ALPHA = Fraction(1, 2)


@bounded_memo(PLAN_MEMO_SIZE)
def _gegenbauer_integrand(n: int, p: int, q: int) -> tuple:
    """The integrand of C_n^lam, lam = p/q in lowest terms: its weight
    exponent alpha and its fixed-point polynomial g."""
    lam = Fraction(p, q)
    return _gegenbauer_alpha(lam), _gegenbauer_fixed(n, lam)


def quad_mellin_gegenbauer(n: int, lam, s: float,
                           tol: float = 1e-12) -> QuadResult:
    """Int_0^1 x^(s-1) C_n^lam(x) (1-x^2)^(lam/2 - 3/4) dx by Gauss-Jacobi
    quadrature in y = x^2, exact for this integrand up to rounding. lam is
    read as an exact rational, a float through its shortest repr (0.1 is
    1/10), as compare_mellin reads it."""
    lam = as_rat(lam)
    _check_lambda(lam)
    _check_s(n, s)
    alpha, g = _gegenbauer_integrand(n, lam.numerator, lam.denominator)
    return _mellin_even_weight(g, n, alpha, s, tol)


def quad_mellin_T(n: int, s: float, tol: float = 1e-12) -> QuadResult:
    """Int_0^1 x^(s-1) T_n(x) (1-x^2)^(1/2) dx, the same way."""
    _check_s(n, s)
    return _mellin_even_weight(_chebyshev_t_fixed(n), n, _T_ALPHA, s, tol)


def _beta_shape(form: MellinClosedForm, alpha) -> tuple:
    """The closed form over B(x, a), x = (s + eps)/2, a = alpha + 1 (alpha
    rational), as its shape (form, j, k, an, ad, num, den): a = an/ad, and
    num = numerator(const_rat) denominator(g)^j and den =
    denominator(const_rat) den(factor) times the numerators of the (g)_j
    factors, the parts of the rational that do not depend on s.

    With g = const_gamma_arg, j = a - g and k = (den_offset - eps)/2 - g,
    Gamma(z + i) = (z)_i Gamma(z) (DLMF 5.2.5) and B(x, a) = Gamma(x)
    Gamma(a) / Gamma(x + a) (DLMF 5.12.1) turn the form into
    B(x, a) const_rat factor(s) / ((g)_j (x + a)_(k - j)). InvalidParameters
    is raised unless j and k are integers with 0 <= j <= k."""
    eps, g, off = form.eps, form.const_gamma_arg, form.den_offset
    an, ad = alpha.numerator + alpha.denominator, alpha.denominator
    gn, gd = g.numerator, g.denominator
    j, j_rem = divmod(an * gd - gn * ad, ad * gd)
    k, k_rem = divmod((off.numerator - eps * off.denominator) * gd
                      - 2 * gn * off.denominator, 2 * off.denominator * gd)
    if j_rem or k_rem or not 0 <= j <= k:
        a = Fraction(an, ad)
        raise InvalidParameters(
            f"the {form.kind} closed form at n={form.n} is no Beta integral "
            f"B(x, {format_rat(a)}) over Pochhammer symbols: den_offset "
            f"{format_rat(off)} gives k = {format_rat((off - eps) / 2 - g)}"
            f" and const_gamma_arg {format_rat(g)} gives "
            f"j = {format_rat(a - g)}, not integers 0 <= j <= k")
    return (form, j, k, an, ad, form.const_rat.numerator * gd ** j,
            form.const_rat.denominator * form.factor.den
            * math.prod(gn + i * gd for i in range(j)))


def _closed_ratio(shape: tuple, s) -> tuple:
    """(num, den), integers with num / den = const_rat factor(s) / ((g)_j
    (x + a)_(k - j)), the closed form of shape at s (a float or rational,
    read exactly) over B(x, a). InvalidParameters is raised when den is 0:
    (g)_j vanishes, a pole of Gamma(g)."""
    form, j, k, an, ad, num, den = shape
    sn, sd = s.as_integer_ratio()
    # value = factor(s) den sd^deg = Sum_i ints[i] sn^i sd^(deg - i) by
    # Horner; top ends at sd^(deg + 1), so num takes one more sd
    value, top = 0, 1
    for c in reversed(form.factor.ints):
        value = value * sn + c * top
        top *= sd
    # x + a + i = (base + i step) / step
    step = 2 * sd * ad
    base = (sn + form.eps * sd) * ad + 2 * sd * an
    num *= value * sd * step ** (k - j)
    den *= top * math.prod(base + i * step for i in range(k - j))
    if not den:
        raise InvalidParameters(
            f"the {form.kind} closed form at n={form.n} has Gamma at the "
            f"pole {format_rat(form.const_gamma_arg)}")
    return num, den


def _closed_value(mu0, shape: tuple, s) -> float:
    """The closed form of shape at s: mu0 = B(x, a) times its
    _closed_ratio, rounded once to a float."""
    num, den = _closed_ratio(shape, s)
    man, exp = _dyadic(mu0)
    return _to_float(man * num, den, exp)


def closed_form_value(form: MellinClosedForm, s) -> float:
    """Evaluate a Gamma-form Mellin transform at float s: B(x, g) by three
    mp.gamma calls, x = (s + eps)/2, g = const_gamma_arg > 0, times the
    rational of _closed_ratio."""
    g = form.const_gamma_arg
    sn, sd = s.as_integer_ratio()
    xn, gn, d = ((sn + form.eps * sd) * g.denominator, 2 * sd * g.numerator,
                 2 * sd * g.denominator)
    c = math.gcd(xn, gn, d)
    mu0 = _beta(xn // c, gn // c, d // c)
    return _closed_value(mu0, _beta_shape(form, g - 1), s)


def _row(n: int, lam, s: float, q: QuadResult, shape: tuple) -> dict:
    """The row of quadrature q against the closed form of shape, whose a is
    the quadrature's alpha + 1: the closed value is q.mu0 times its
    rational."""
    c = _closed_value(q.mu0, shape, s)
    abs_err = abs(q.value - c)
    # relative to the size of the quadrature's terms, which stays positive
    # at a zero of the polynomial factor, where |c| cannot serve, unless
    # every term underflows the float range
    if not q.magnitude > 0:
        raise ToleranceNotMet(
            f"the quadrature terms at n={n}, lambda={lam}, s={s} underflow "
            f"to magnitude {q.magnitude}: no relative error")
    rel_err = abs_err / q.magnitude
    return {"n": n, "lambda": lam, "s": s, "quadrature": q.value,
            "closed_form": c, "abs_err": abs_err, "rel_err": rel_err,
            "error_estimate": q.error_estimate,
            "evaluations": q.evaluations}


def _comparison_row(n: int, lam, s: float, q: QuadResult,
                    form: MellinClosedForm) -> dict:
    """The row of quadrature q against form, whose Beta shape is checked
    here, on every call. alpha is the exponent of the weight of the form's
    kind."""
    alpha = _T_ALPHA if form.lam is None else _gegenbauer_alpha(form.lam)
    return _row(n, lam, s, q, _beta_shape(form, alpha))


@bounded_memo(PLAN_MEMO_SIZE)
def _gegenbauer_shape(n: int, p: int, q: int) -> tuple:
    """The _beta_shape of mellin_closed(n, lam), lam = p/q in lowest
    terms."""
    lam = Fraction(p, q)
    return _beta_shape(mellin_closed(n, lam), _gegenbauer_alpha(lam))


@bounded_memo(PLAN_MEMO_SIZE)
def _T_shape(n: int) -> tuple:
    """The _beta_shape of mellin_T_closed(n)."""
    return _beta_shape(mellin_T_closed(n), _T_ALPHA)


def memo_counts() -> tuple:
    """(rules built, rules reused, Beta values computed, Beta values
    reused, row plans built, row plans reused) by the memos so far in this
    process; a build that raised counts as built. A row plan is the
    integrand of one (n, lambda), or one n for T: every quadrature asks for
    one, and a comparison row asks for its closed form's shape alongside."""
    rules, betas = _gauss_jacobi_rule.cache_info(), _beta.cache_info()
    plans = [_gegenbauer_integrand.cache_info(),
             _chebyshev_t_fixed.cache_info()]
    return (rules.misses, rules.hits, betas.misses, betas.hits,
            sum(p.misses for p in plans), sum(p.hits for p in plans))


def compare_mellin(n: int, lam, s: float, tol: float = 1e-12) -> dict:
    """One CSV-shaped row: quadrature vs closed form, lam read as an exact
    rational (a float through its shortest repr); the row's lambda is its
    float."""
    lam = as_rat(lam)
    q = quad_mellin_gegenbauer(n, lam, s, tol)
    p, d = lam.numerator, lam.denominator
    return _row(n, p / d, s, q, _gegenbauer_shape(n, p, d))


def compare_mellin_T(n: int, s: float, tol: float = 1e-12) -> dict:
    """The same row for the first-kind (T) transform."""
    return _row(n, None, s, quad_mellin_T(n, s, tol), _T_shape(n))


# ---------------------------------------------------------------------------
# generating functions, coefficient by coefficient
# ---------------------------------------------------------------------------

def _general_weights(k: int, eps: int, lam: Fraction) -> list:
    """The C_0..C_k of ``genfun_check`` on integers at lam = p/q, with
    C(-x, m) = (-1)^m (x)_m / m!."""
    p, q = lam.numerator, lam.denominator
    out, num, den = [], (2 * p) ** eps, q ** eps
    for j in range(k + 1):
        if j:
            num *= 2 * (p + q * (2 * j - 1)) * (p + 2 * q * (eps + j - 1))
            den *= q * q * (2 * eps + 2 * j - 1) * j
        m = k - j
        rising = math.prod(p + q * (eps + 2 * j + i) for i in range(m))
        out.append(Fraction((-1) ** m * num * rising,
                            den * q ** m * math.factorial(m)))
    return out


def _proves(n: int, lam) -> tuple:
    """(whether the t^n identity of ``genfun_check`` holds, the largest bit
    size among the numerators and denominators of its right side, the
    ``pochhammer_sum`` of the weights w_j at gamma = c - s/2)."""
    k, eps = divmod(n, 2)
    if lam is None:
        form = mellin_T_closed(n)
        target = form.factor * ((1 + (n > 0)) * form.const_rat)
        weights = [Fraction((1 + eps) * 4 ** j, 4)
                   * (gen_binom(-1 - eps - 2 * j, k - j)
                      - (gen_binom(-1 - eps - 2 * j, k - 1 - j) if j < k
                         else 0)) for j in range(k + 1)]
        gamma = Fraction(3 + eps, 2)
    else:
        target = p_hyp(n, lam).poly / math.factorial(n)
        weights = _general_weights(k, eps, lam)
        gamma = lam / 2 + Fraction(1 + 2 * eps, 4)
    got = pochhammer_sum(eps, gamma, weights)
    return got == target, max(x.bit_length() for c in got.coeffs
                               for x in (c.numerator, c.denominator))


def genfun_check(lam, K: int = 40) -> dict:
    """Prove the t^n coefficients, n = 0..K, of the generating function of
    the transforms at lam, or of Sum_n (1 + [n > 0]) T_n(s) t^n when lam is
    None, as identities of integer polynomials in s (``_proves``). With
    n = 2k + eps, u = (s+eps)/2 and the Gamma factors divided out they are
    hat_n(s) / n! = Sum_j C_j (u)_j ((s+lam)/2 + 1/4 + eps/2 + j)_(k-j),
    C_j = (2 lam)^eps 4^j ((lam+1)/2)_j (lam/2 + eps)_j
    C(-lam-eps-2j, k-j) / ((1/2 + eps)_j j!) (1 and lam hold where the
    printed form has Gamma(lam) and Gamma(lam+1)), and (1 + [n > 0])
    const_rat factor_n(s) = Sum_j (1+eps) 4^(j-1) (C(-1-eps-2j, k-j)
    - C(-1-eps-2j, k-1-j)) (u)_j (s/2 + 3/2 + eps/2 + j)_(k-j)."""
    if K < 0:
        raise InvalidParameters(f"need K >= 0, got {K}")
    start = time.perf_counter()
    lam = None if lam is None else as_rat(lam)
    results = [_proves(n, lam) for n in range(K + 1)]
    oks = [ok for ok, _ in results]
    family = "T" if lam is None else f"lambda={lam}"
    bits = max(size for _, size in results)
    log.debug("generating function of %s: %d of %d coefficients proved, "
              "%d-bit integers, %.3f s", family, sum(oks), K + 1, bits,
              time.perf_counter() - start)
    return {"family": family, "K": K, "method": "exact",
            "coefficients": sum(oks), "coeff_bits": bits, "pass": all(oks),
            "failed_n": None if all(oks) else oks.index(False)}


def transform_level_lemma1_check(m: int, n: int, s: float,
                                 tol: float = 1e-10) -> dict:
    """Quadrature confirmation that the composition-product integrand
    x^(s-1)(1-x^2)^(-1/4) U_(m-1)(T_n(x)) U_(n-1)(x) has the same transform
    as the single second-kind polynomial of degree mn - 1."""
    if m < 1 or n < 1:
        raise InvalidParameters("need m, n >= 1")
    if not s > 0:
        raise InvalidParameters(f"need s > 0, got {s}")

    # degree mn - 1, parity mn - 1; U_k = C_k^1
    u_outer, t_n = _gegenbauer_fixed(m - 1, 1), _chebyshev_t_fixed(n)
    u_inner, w = _gegenbauer_fixed(n - 1, 1), _FIXED_BITS

    def g(x):
        return u_outer(t_n(x)) * u_inner(x) >> w

    lhs = _mellin_even_weight(g, m * n - 1, Fraction(-1, 4), s, tol)
    rhs = quad_mellin_gegenbauer(m * n - 1, 1, s, tol)
    err = abs(lhs.value - rhs.value)
    return {"m": m, "n": n, "s": s, "lhs": lhs.value, "rhs": rhs.value,
            "abs_err": err, "pass": err <= tol * max(1.0, abs(rhs.value))}


def lemma3a_check(m: int, n: int, s: float, tol: float = 1e-10) -> dict:
    """Argument-shift identity M_n(s + m) = 2^(-m) Sum_r C(m, r)
    M_(m+n-2r)(s) for the second-kind (lambda = 1) transforms, with the
    negative-index convention M_(-1) = 0, M_(-k) = -M_(k-2)."""
    if m < 0 or n < 0:
        raise InvalidParameters("need m, n >= 0")

    def M(k: int, arg: float) -> float:
        if k == -1:
            return 0.0
        if k < -1:
            return -M(-k - 2, arg)
        return closed_form_value(mellin_closed(k, 1), arg)

    lhs = M(n, s + m)
    rhs = sum(math.comb(m, r) * M(m + n - 2 * r, s)
              for r in range(m + 1)) / 2.0 ** m
    err = abs(lhs - rhs)
    return {"m": m, "n": n, "s": s, "lhs": lhs, "rhs": rhs, "abs_err": err,
            "pass": err <= tol * max(1.0, abs(lhs))}
