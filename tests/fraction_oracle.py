"""The Fraction loops that the integer kernels of critpoly.poly,
critpoly.hyp3f2, critpoly.orthopoly and critpoly.arithprops replaced, kept
as the reference the tests compare those kernels with: the schoolbook Poly
product, the term-by-term Pochhammer symbol, the term-ratio 3F2(1) sum, the
transformation catalog and Thomae relation in Fractions with the randomized
suite that draws them, the Gegenbauer binomial sum and three-term
recurrence, and the number-triangle rows from ``math.comb``.

No route here calls ``Poly.__mul__`` on two polynomials in one variable,
so none of them runs the kernels they check."""
import random
from fractions import Fraction
from math import comb, factorial

from critpoly.errors import DenominatorPole, NonTerminating
from critpoly.hyp3f2 import termination_index
from critpoly.poly import Poly
from critpoly.rat import as_rat


def _mul(x, y):
    """x * y, through ``poly_mul`` when both are polynomials."""
    if isinstance(x, Poly) and isinstance(y, Poly):
        return poly_mul(x, y)
    return x * y


def poly_mul(a: Poly, b: Poly) -> Poly:
    """Schoolbook product, one Fraction operation per pair of
    coefficients."""
    if a.is_zero or b.is_zero:
        return Poly.zero(a.variable)
    out = [Fraction(0)] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] += x * y
    return Poly(a.variable, out)


def pochhammer(a, k: int):
    """a (a+1) ... (a+k-1), one factor at a time."""
    if k < 0:
        raise ValueError("pochhammer needs k >= 0")
    out = None
    for j in range(k):
        term = a + j
        out = term if out is None else _mul(out, term)
    if out is None:
        return Poly.constant(a.variable, Fraction(1)) if isinstance(a, Poly) \
            else Fraction(1)
    return out


def eval_3f2(a1, a2, a3, b1, b2) -> Fraction:
    """3F2(a1, a2, a3; b1, b2; 1) summed term by term, each term the last
    times the term ratio, in Fractions."""
    a1, a2, a3 = as_rat(a1), as_rat(a2), as_rat(a3)
    b1, b2 = as_rat(b1), as_rat(b2)
    n = termination_index(a1, a2, a3)
    for b in (b1, b2):
        if b.denominator == 1 and 0 >= b > -n:
            raise DenominatorPole(
                f"denominator parameter {b} hits a pole before index {n}")
    total = term = Fraction(1)
    for k in range(n):
        term *= ((a1 + k) * (a2 + k) * (a3 + k)
                 / ((b1 + k) * (b2 + k) * (k + 1)))
        total += term
    return total


# ---------------------------------------------------------------------------
# the transformation catalog and its randomized suite, in Fractions
# ---------------------------------------------------------------------------

def _transforms(n, a, b, c, d):
    """The seven transformation targets of 3F2(-n, a, b; c, d; 1): each entry
    is (prefactor, numerators, denominators) of an equal series."""
    cn, dn = pochhammer(c, n), pochhammer(d, n)
    sgn = Fraction((-1) ** n)
    return [
        (pochhammer(c - a, n) * pochhammer(d - a, n) / (cn * dn),
         (-n, a, a + b - c - d - n + 1), (a - c - n + 1, a - d - n + 1)),
        (pochhammer(a, n) * pochhammer(c + d - a - b, n) / (cn * dn),
         (-n, c - a, d - a), (1 - a - n, c + d - a - b)),
        (pochhammer(c + d - a - b, n) / cn,
         (-n, d - a, d - b), (d, c + d - a - b)),
        (sgn * pochhammer(a, n) * pochhammer(b, n) / (cn * dn),
         (-n, 1 - c - n, 1 - d - n), (1 - a - n, 1 - b - n)),
        (sgn * pochhammer(d - a, n) * pochhammer(d - b, n) / (cn * dn),
         (-n, 1 - d - n, a + b - c - d - n + 1),
         (a - d - n + 1, b - d - n + 1)),
        (pochhammer(c - a, n) / cn,
         (-n, a, d - b), (d, a - c - n + 1)),
        (pochhammer(c - a, n) * pochhammer(b, n) / (cn * dn),
         (-n, d - b, 1 - c - n), (1 - b - n, a - c - n + 1)),
    ]


def thomae_terminating(a, b, d, n: int, m: int):
    """Thomae's relation with c = -n and e = a - m, both sides as
    Fractions; ZeroDivisionError at a pole of the prefactor."""
    a, b, d = as_rat(a), as_rat(b), as_rat(d)
    c = Fraction(-n)
    e = a - m
    w = d + e - a - b - c
    for g in (a, d, e, w, w + b):
        if g.denominator == 1 and g <= 0:
            raise DenominatorPole(
                f"Gamma-ratio argument {g} is a nonpositive integer")
    lhs = eval_3f2(a, b, c, d, e)
    num = pochhammer(w - n, n)
    den = pochhammer(a - m, m)
    if n >= m:
        den *= pochhammer(d, n - m)
    else:
        num *= pochhammer(d - (m - n), m - n)
    if den == 0:
        raise ZeroDivisionError("Gamma-ratio pole in Thomae prefactor")
    rhs = num / den * eval_3f2(d - a, e - a, w, w + b, w + c)
    return lhs, rhs


def _sample_rat(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-8, 8), rng.randint(1, 4))


def appendix_transform_suite(trials: int, nmax: int, seed: int) -> dict:
    """The randomized suite of the seven transformations and Thomae's
    relation, drawing rational parameters and comparing Fractions."""
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


# ---------------------------------------------------------------------------
# Gegenbauer polynomials and the number triangles
# ---------------------------------------------------------------------------

def gegenbauer(n: int, lam) -> Poly:
    """C_n^lam from its binomial sum, coefficient by coefficient:
    (-1)^r C(n-r, r) C(n-r-1+lam, n-r) 2^(n-2r) at x^(n-2r)."""
    lam = as_rat(lam)
    coeffs = [Fraction(0)] * (n + 1)
    for r in range(n // 2 + 1):
        k = n - r
        binom = pochhammer(lam, k) / factorial(k)   # C(k-1+lam, k)
        coeffs[n - 2 * r] = (Fraction((-1) ** r) * comb(n - r, r) * binom
                             * Fraction(2) ** (n - 2 * r))
    return Poly("x", coeffs)


def gegenbauer_recurrence(n: int, lam: Fraction) -> list:
    """C_0^lam, ..., C_n^lam by m C_m = 2(lam+m-1) x C_(m-1)
    - (2 lam+m-2) C_(m-2), on Fraction coefficient lists."""
    out = [[Fraction(1)], [Fraction(0), 2 * lam]]
    for m in range(2, n + 1):
        nxt = [Fraction(0)] + [2 * (lam + m - 1) * c for c in out[-1]]
        for i, c in enumerate(out[-2]):
            nxt[i] -= (2 * lam + m - 2) * c
        out.append([c / m for c in nxt])
    return [Poly("x", cs) for cs in out[:n + 1]]


def triangle(kind: str, k: int) -> tuple:
    """Row k of the a- or b-triangle, each entry from ``math.comb`` and an
    exact division."""
    if kind == "a":
        entries = [Fraction((2 * k - 1) * (2 * k + 1)
                            * comb(k + j, 2 * j + 1), 2 * j + 3)
                   for j in range(k)]
    else:
        entries = [Fraction((2 * k + 1) * comb(k + j, 2 * j), 2 * j + 1)
                   for j in range(k + 1)]
    assert all(e.denominator == 1 and e > 0 for e in entries), (kind, k)
    return tuple(int(e) for e in entries)


def triangle_row_polynomial_b(k: int) -> Poly:
    """B_k(x) = sum_j (2k+1)/(2j+1) C(k+j, 2j) x^j, in Fractions."""
    return Poly("x", [Fraction(2 * k + 1, 2 * j + 1) * comb(k + j, 2 * j)
                      for j in range(k + 1)])
