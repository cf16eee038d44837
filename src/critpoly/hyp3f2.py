"""Terminating 3F2(1) series: exact evaluation, the transformation catalog,
and the two shared polynomial kernels: the Gamma-telescoped 3F2 series and
the two-Pochhammer sum."""
from __future__ import annotations

import random
from fractions import Fraction

from .errors import DenominatorPole, InvalidParameters, NonTerminating
from .poly import Poly, int_form, int_mul_linear
from .rat import as_rat


def termination_index(a1, a2, a3, den: int = 1) -> int:
    """Least n with some numerator parameter a_i / den equal to -n: the
    parameters are integers over den, or rationals with den = 1."""
    hits = [-(a // den) for a in (a1, a2, a3) if a <= 0 and not a % den]
    if not hits:
        shown = ", ".join(str(Fraction(a, den)) for a in (a1, a2, a3))
        raise NonTerminating(f"no nonpositive-integer numerator in ({shown})")
    return min(hits)


def eval_3f2(a1, a2, a3, b1, b2, den: int = 0):
    """Exact value of 3F2(a1, a2, a3; b1, b2; 1), which must terminate.

    The series stops at the least nonpositive-integer numerator parameter;
    a denominator parameter may be a nonpositive integer only at or beyond
    that index (a pole before termination leaves the series undefined).

    With den = L > 0 the five parameters are integers over L and the value
    is an integer pair (num, den), not reduced, for callers that compare
    values by cross-multiplying; rational parameters (den = 0) are put over
    their lcm and give a Fraction.
    """
    if den:
        params, big_l = (a1, a2, a3, b1, b2), den
    else:
        params, big_l = int_form([as_rat(x) for x in (a1, a2, a3, b1, b2)])
    p1, p2, p3, r1, r2 = params
    n = termination_index(p1, p2, p3, big_l)
    for r in (r1, r2):
        if not r % big_l and 0 >= r > -n * big_l:
            raise DenominatorPole(f"denominator parameter "
                                  f"{Fraction(r, big_l)} hits a pole before "
                                  f"index {n}")
    # term ratio t_(k+1) / t_k = N(k) / D(k), N(k) = prod_i (p_i + kL) and
    # D(k) = L (k + 1) prod_j (r_j + kL); nested Horner from the last term
    # inwards, 1 + N(0)/D(0) (1 + N(1)/D(1) (... (1 + N(n-1)/D(n-1)))), on
    # top / bottom; the pole check above keeps every D(k) nonzero
    top = bottom = 1
    for k in range(n - 1, -1, -1):
        kl = k * big_l
        d = big_l * (k + 1) * (r1 + kl) * (r2 + kl)
        top, bottom = (bottom * d + (p1 + kl) * (p2 + kl) * (p3 + kl) * top,
                       bottom * d)
    return (top, bottom) if den else Fraction(top, bottom)


def poly_from_3f2(n: int, eps: int, coeffs) -> Poly:
    """Sum_k coeffs[k] * ((s+eps)/2)_{m-k}, k = 0..m = floor(n/2), as a
    Poly in s.

    This is the kernel shared by every Gamma-prefixed terminating 3F2 here:
    the Gamma-ratio Gamma((s+n)/2 - k)/Gamma((s+eps)/2) telescopes into the
    rising factorial, leaving an exact polynomial. The sum is evaluated by
    nested Horner in the rising-factorial basis, with the linear factors
    scaled to s + eps + 2j and the coefficients put over one common
    denominator: O(m^2) integer operations, one division at the end.
    """
    if eps != n % 2:
        raise InvalidParameters("eps must equal n mod 2")
    m = n // 2
    if len(coeffs) != m + 1:
        raise InvalidParameters(f"need {m + 1} coefficients, got "
                                f"{len(coeffs)}")
    ints, den = int_form(coeffs)
    # acc = 2^(m-j) * sum_{k <= m-j} c_k ((s+eps)/2 + j)_{m-j-k}
    acc = [ints[0]]
    for j in range(m - 1, -1, -1):
        acc = int_mul_linear(acc, 1, eps + 2 * j)
        acc[0] += ints[m - j] << (m - j)
    return Poly.from_ints("s", acc, den << m)


def pochhammer_sum(eps: int, gamma, weights) -> Poly:
    """Sum_j weights[j] (u)_j (c+j)_{m-j}, j = 0..m = len(weights) - 1, as a
    Poly in s, with u = (s+eps)/2, c = s/2 + gamma: the kernel of every
    two-Pochhammer form (S41, S21, the S32 sum, the generating functions,
    the lambda = 1 series). At gamma = g/h, 2^j (u)_j = U_j = prod_(i<j)
    (s + eps + 2i) and (2h)^(m-j) (c+j)_{m-j} = prod_(j<=i<m) (h s + 2g
    + 2hi); with L the weights' common denominator and d_j = L w_j h^j, the
    sum is P_m / (L (2h)^m) for the integer chain P_0 = d_0, P_(j+1) =
    P_j (h s + 2g + 2hj) + d_(j+1) U_(j+1): O(m^2) operations, one division.
    """
    g, h, m = gamma.numerator, gamma.denominator, len(weights) - 1
    ints, den = int_form(weights)
    d = [w * h ** j for j, w in enumerate(ints)]
    chain, u = [d[0]], [1]
    for j in range(m):
        chain = int_mul_linear(chain, h, 2 * g + 2 * h * j)
        u = int_mul_linear(u, 1, eps + 2 * j)
        chain = [x + d[j + 1] * y for x, y in zip(chain, u)]
    return Poly.from_ints("s", chain, den * (2 * h) ** m)


# ---------------------------------------------------------------------------
# transformation catalog, on integers over one denominator L
# ---------------------------------------------------------------------------

def _rising(x: int, n: int, big_l: int) -> int:
    """L^n (x/L)_n = x (x + L) ... (x + (n-1) L)."""
    out = 1
    for j in range(n):
        out *= x + j * big_l
    return out


def _transforms(n: int, a: int, b: int, c: int, d: int, big_l: int) -> list:
    """The seven transformation targets of 3F2(-n, a/L, b/L; c/L, d/L; 1):
    each entry is ((num, den), params) of an equal series, its prefactor
    num/den an integer ratio (each Pochhammer symbol of length n is L^-n
    times ``_rising``, so the powers of L cancel) and params its five
    parameters over L. DenominatorPole when (c/L)_n (d/L)_n = 0."""
    cn, dn = _rising(c, n, big_l), _rising(d, n, big_l)
    if not cn * dn:
        raise DenominatorPole(f"(c)_n (d)_n = 0 at n = {n}")
    sgn, neg_n, one_n = (-1) ** n, -n * big_l, (1 - n) * big_l
    cdn = cn * dn
    ca, da = _rising(c - a, n, big_l), _rising(d - a, n, big_l)
    an, bn = _rising(a, n, big_l), _rising(b, n, big_l)
    cdab = _rising(c + d - a - b, n, big_l)
    return [
        ((ca * da, cdn),
         (neg_n, a, a + b - c - d + one_n, a - c + one_n, a - d + one_n)),
        ((an * cdab, cdn),
         (neg_n, c - a, d - a, one_n - a, c + d - a - b)),
        ((cdab, cn),
         (neg_n, d - a, d - b, d, c + d - a - b)),
        ((sgn * an * bn, cdn),
         (neg_n, one_n - c, one_n - d, one_n - a, one_n - b)),
        ((sgn * da * _rising(d - b, n, big_l), cdn),
         (neg_n, one_n - d, a + b - c - d + one_n, a - d + one_n,
          b - d + one_n)),
        ((ca, cn),
         (neg_n, a, d - b, d, a - c + one_n)),
        ((ca * bn, cdn),
         (neg_n, d - b, one_n - c, one_n - b, a - c + one_n)),
    ]


def thomae_terminating(a: int, b: int, d: int, n: int, m: int,
                       den: int) -> tuple:
    """Thomae's 3F2(1) relation specialized so both sides terminate.

    With c = -n and e = a - m (m a nonnegative integer) in
    3F2(a,b,c;d,e;1) = G * 3F2(d-a, e-a, w; w+b, w+c; 1), w = d+e-a-b-c,
    the Gamma-ratio G collapses to exact Pochhammer quotients. a, b and d
    are integers over L = den; returns (lhs, rhs), each side an integer
    pair (num, den), not reduced, as ``eval_3f2`` gives it.
    """
    big_l = den
    c = -n * big_l
    e = a - m * big_l
    w = d + e - a - b - c
    # Gamma(d)Gamma(e)Gamma(w)/(Gamma(a)Gamma(w+b)) must be finite and
    # nonzero; a nonpositive integer in any slot leaves the relation
    # undefined (0 or infinity, resolvable only as a limit)
    for g in (a, d, e, w, w + b):
        if not g % big_l and g <= 0:
            raise DenominatorPole(f"Gamma-ratio argument "
                                  f"{Fraction(g, big_l)} is a nonpositive "
                                  f"integer")
    lhs = eval_3f2(a, b, c, d, e, den=big_l)
    # G = Gamma(d)Gamma(e)Gamma(w) / (Gamma(a)Gamma(w+b)Gamma(w+c))
    #   = (w-n)_n / ((a-m)_m * (d)_{n-m})        for n >= m
    #   = (w-n)_n * (d-(m-n))_{m-n} / (a-m)_m    for n <  m
    # with n Pochhammer factors above and below (m for n < m), so the
    # powers of L cancel
    g_num = _rising(w + c, n, big_l)
    g_den = _rising(e, m, big_l)
    if n >= m:
        g_den *= _rising(d, n - m, big_l)
    else:
        g_num *= _rising(d - (m - n) * big_l, m - n, big_l)
    if not g_den:
        raise DenominatorPole("Gamma-ratio pole in Thomae prefactor")
    top, bottom = eval_3f2(d - a, e - a, w, w + b, w + c, den=big_l)
    return lhs, (g_num * top, g_den * bottom)


# the suite draws p/q with |p| <= 8 and q <= 4, which is p (12/q) over 12
_SUITE_L = 12


def _sample(rng: random.Random) -> int:
    p = rng.randint(-8, 8)
    return p * (_SUITE_L // rng.randint(1, 4))


def appendix_transform_suite(trials: int, nmax: int, seed: int) -> dict:
    """Randomized exact verification of the seven series transformations
    plus the terminating Thomae relation.

    Parameter tuples that make either side undefined (a denominator pole
    before termination, or a vanishing prefactor denominator) are rejected
    and resampled. The parameters are integers over L = 12 and each side of
    an identity an integer ratio; the two sides are compared by
    cross-multiplying. Returns per-identity pass counts and failure
    exemplars.
    """
    if trials < 1 or nmax < 0:
        raise InvalidParameters(f"need trials >= 1 and nmax >= 0, got "
                                f"trials = {trials}, nmax = {nmax}")
    big_l, rng = _SUITE_L, random.Random(seed)
    passes = [0] * 8
    failures = []

    def record(idx, want, got, params):
        """Count the identity want = got of two integer ratios; only a
        failure builds its Fractions and the text of params()."""
        (wn, wd), (gn, gd) = want, got
        if wn * gd == gn * wd:
            passes[idx] += 1
        else:
            failures.append({"identity": idx + 1, "params": params(),
                             "lhs": str(Fraction(wn, wd)),
                             "rhs": str(Fraction(gn, gd))})

    def over(x):
        return Fraction(x, big_l)

    done = 0
    while done < trials:
        n = rng.randint(0, nmax)
        a, b, c, d = (_sample(rng) for _ in range(4))
        try:
            lhs = eval_3f2(-n * big_l, a, b, c, d, den=big_l)
            rhss = [(pre, eval_3f2(*params, den=big_l))
                    for pre, params in _transforms(n, a, b, c, d, big_l)]
        except (DenominatorPole, NonTerminating):
            continue
        for i, ((pn, pd), (rn, rd)) in enumerate(rhss):
            record(i, lhs, (pn * rn, pd * rd),
                   lambda: f"n={n} a={over(a)} b={over(b)} c={over(c)} "
                           f"d={over(d)}")
        while True:
            ta, tb, td = (_sample(rng) for _ in range(3))
            tn, tm = rng.randint(0, nmax), rng.randint(0, nmax)
            try:
                tl, tr = thomae_terminating(ta, tb, td, tn, tm, den=big_l)
            except (DenominatorPole, NonTerminating):
                continue
            record(7, tl, tr,
                   lambda: f"a={over(ta)} b={over(tb)} d={over(td)} n={tn} "
                           f"m={tm}")
            break
        done += 1
    return {"trials": done, "passes": passes, "failures": failures,
            "all_pass": not failures}
