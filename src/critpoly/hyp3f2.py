"""Terminating 3F2(1) series: exact evaluation, the transformation catalog,
and the two shared polynomial kernels: the Gamma-telescoped 3F2 series and
the two-Pochhammer sum."""
from __future__ import annotations

import random
from fractions import Fraction

from .errors import DenominatorPole, NonTerminating
from .poly import Poly, int_form, int_mul_linear, pochhammer
from .rat import as_rat


def termination_index(a1: Fraction, a2: Fraction, a3: Fraction) -> int:
    """Least n with some numerator parameter equal to -n."""
    hits = [-int(a) for a in (a1, a2, a3)
            if a.denominator == 1 and a <= 0]
    if not hits:
        raise NonTerminating(f"no nonpositive-integer numerator in "
                             f"({a1}, {a2}, {a3})")
    return min(hits)


def eval_3f2(a1, a2, a3, b1, b2) -> Fraction:
    """Exact value of 3F2(a1, a2, a3; b1, b2; 1), which must terminate.

    The series stops at the least nonpositive-integer numerator parameter;
    a denominator parameter may be a nonpositive integer only at or beyond
    that index (a pole before termination leaves the series undefined).
    """
    a1, a2, a3 = as_rat(a1), as_rat(a2), as_rat(a3)
    b1, b2 = as_rat(b1), as_rat(b2)
    n = termination_index(a1, a2, a3)
    for b in (b1, b2):
        if b.denominator == 1 and 0 >= b > -n:
            raise DenominatorPole(
                f"denominator parameter {b} hits a pole before index {n}")
    # term ratio t_(k+1) / t_k = N(k) / D(k) with the parameters over their
    # denominators: N(k) = B prod_i (p_i + k q_i), D(k) = A (k + 1)
    # prod_j (r_j + k s_j), A and B the products of the a- and b-denominators
    ps = [(a.numerator, a.denominator) for a in (a1, a2, a3)]
    rs = [(b.numerator, b.denominator) for b in (b1, b2)]
    big_a = a1.denominator * a2.denominator * a3.denominator
    big_b = b1.denominator * b2.denominator
    # nested Horner from the last term inwards,
    # 1 + N(0)/D(0) (1 + N(1)/D(1) (... (1 + N(n-1)/D(n-1)))), on num / den;
    # the pole check above keeps every D(k) nonzero
    num = den = 1
    for k in range(n - 1, -1, -1):
        top, bottom = big_b, big_a * (k + 1)
        for p, q in ps:
            top *= p + k * q
        for r, s in rs:
            bottom *= r + k * s
        num, den = den * bottom + top * num, den * bottom
    return Fraction(num, den)


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
        raise ValueError("eps must equal n mod 2")
    m = n // 2
    if len(coeffs) != m + 1:
        raise ValueError(f"need {m + 1} coefficients, got {len(coeffs)}")
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
# transformation catalog
# ---------------------------------------------------------------------------

def _poch(x, n):
    return pochhammer(as_rat(x), n)


def _transforms(n, a, b, c, d):
    """The seven transformation targets of 3F2(-n, a, b; c, d; 1): each entry
    is (prefactor, numerators, denominators) of an equal series."""
    cn, dn = _poch(c, n), _poch(d, n)
    sgn = Fraction((-1) ** n)
    return [
        (_poch(c - a, n) * _poch(d - a, n) / (cn * dn),
         (-n, a, a + b - c - d - n + 1), (a - c - n + 1, a - d - n + 1)),
        (_poch(a, n) * _poch(c + d - a - b, n) / (cn * dn),
         (-n, c - a, d - a), (1 - a - n, c + d - a - b)),
        (_poch(c + d - a - b, n) / cn,
         (-n, d - a, d - b), (d, c + d - a - b)),
        (sgn * _poch(a, n) * _poch(b, n) / (cn * dn),
         (-n, 1 - c - n, 1 - d - n), (1 - a - n, 1 - b - n)),
        (sgn * _poch(d - a, n) * _poch(d - b, n) / (cn * dn),
         (-n, 1 - d - n, a + b - c - d - n + 1),
         (a - d - n + 1, b - d - n + 1)),
        (_poch(c - a, n) / cn,
         (-n, a, d - b), (d, a - c - n + 1)),
        (_poch(c - a, n) * _poch(b, n) / (cn * dn),
         (-n, d - b, 1 - c - n), (1 - b - n, a - c - n + 1)),
    ]


def thomae_terminating(a, b, d, n: int, m: int):
    """Thomae's 3F2(1) relation specialized so both sides terminate.

    With c = -n and e = a - m (m a nonnegative integer) in
    3F2(a,b,c;d,e;1) = G * 3F2(d-a, e-a, w; w+b, w+c; 1), w = d+e-a-b-c,
    the Gamma-ratio G collapses to exact Pochhammer quotients.
    Returns (lhs, rhs) as exact rationals.
    """
    a, b, d = as_rat(a), as_rat(b), as_rat(d)
    c = Fraction(-n)
    e = a - m
    w = d + e - a - b - c
    # Gamma(d)Gamma(e)Gamma(w)/(Gamma(a)Gamma(w+b)) must be finite and
    # nonzero; a nonpositive integer in any slot leaves the relation
    # undefined (0 or infinity, resolvable only as a limit)
    for g in (a, d, e, w, w + b):
        if g.denominator == 1 and g <= 0:
            raise DenominatorPole(
                f"Gamma-ratio argument {g} is a nonpositive integer")
    lhs = eval_3f2(a, b, c, d, e)
    # G = Gamma(d)Gamma(e)Gamma(w) / (Gamma(a)Gamma(w+b)Gamma(w+c))
    #   = (w-n)_n / ((a-m)_m * (d)_{n-m})        for n >= m
    #   = (w-n)_n * (d-(m-n))_{m-n} / (a-m)_m    for n <  m
    num = _poch(w - n, n)
    den = _poch(a - m, m)
    if n >= m:
        den *= _poch(d, n - m)
    else:
        num *= _poch(d - (m - n), m - n)
    if den == 0:
        raise ZeroDivisionError("Gamma-ratio pole in Thomae prefactor")
    rhs = num / den * eval_3f2(d - a, e - a, w, w + b, w + c)
    return lhs, rhs


def _sample_rat(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-8, 8), rng.randint(1, 4))


def appendix_transform_suite(trials: int, nmax: int, seed: int) -> dict:
    """Randomized exact verification of the seven series transformations
    plus the terminating Thomae relation.

    Parameter tuples that make either side undefined (a denominator pole
    before termination, or a vanishing prefactor denominator) are rejected
    and resampled. Returns per-identity pass counts and failure exemplars.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = random.Random(seed)
    passes = [0] * 8
    failures = []

    def record(idx, params, got, want):
        if got == want:
            passes[idx] += 1
        else:
            failures.append({"identity": idx + 1, "params": params,
                             "lhs": str(want), "rhs": str(got)})

    done = 0
    while done < trials:
        n = rng.randint(0, nmax)
        a, b, c, d = (_sample_rat(rng) for _ in range(4))
        try:
            lhs = eval_3f2(-n, a, b, c, d)
            rhss = [pre * eval_3f2(*nums, *dens)
                    for pre, nums, dens in _transforms(n, a, b, c, d)]
        except (DenominatorPole, NonTerminating, ZeroDivisionError):
            continue
        for i, rhs in enumerate(rhss):
            record(i, f"n={n} a={a} b={b} c={c} d={d}", rhs, lhs)
        while True:
            ta, tb, td = (_sample_rat(rng) for _ in range(3))
            tn, tm = rng.randint(0, nmax), rng.randint(0, nmax)
            try:
                tl, tr = thomae_terminating(ta, tb, td, tn, tm)
            except (DenominatorPole, NonTerminating, ZeroDivisionError):
                continue
            record(7, f"a={ta} b={tb} d={td} n={tn} m={tm}", tr, tl)
            break
        done += 1
    return {"trials": done, "passes": passes, "failures": failures,
            "all_pass": not failures}
