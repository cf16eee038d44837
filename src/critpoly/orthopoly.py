"""Exact Gegenbauer, Chebyshev and Legendre polynomials, and the suite of
inter-family identities used to cross-validate them."""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .errors import IdentityFailed, InvalidLambda, InvalidParameters
from .poly import Poly, pochhammer
from .rat import as_rat

X = Poly.var("x")


def _check_lambda(lam: Fraction):
    if lam <= Fraction(-1, 2) or lam == 0:
        raise InvalidLambda(f"need lambda > -1/2 and lambda != 0, got {lam}")


def gegenbauer(n: int, lam) -> Poly:
    """Gegenbauer polynomial of degree n from its power sum, on integers
    over one denominator: c_n = 2^n (lam)_n / n!, and c_(n-2r-2) is
    c_(n-2r) times -(n-2r)(n-2r-1) / (4 (r+1) (lam+n-r-1)). At lam = p/q
    the r-th of these is tops[r] / bottoms[r], each bottom dividing the
    last; the identity suite checks the sum against the three-term
    recurrence."""
    lam = as_rat(lam)
    _check_lambda(lam)
    p, q = lam.numerator, lam.denominator
    top = 2 ** n
    for j in range(n):
        top *= p + j * q
    tops, bottoms = [top], [q ** n * factorial(n)]
    for r in range(n // 2):
        k = n - 2 * r
        tops.append(tops[-1] * -q * k * (k - 1))
        # lam + n - r - 1 >= lam + 1 > 0 for r < n/2
        bottoms.append(bottoms[-1] * 4 * (r + 1) * (p + q * (n - r - 1)))
    den, ints = bottoms[-1], [0] * (n + 1)
    for r, (t, b) in enumerate(zip(tops, bottoms)):
        ints[n - 2 * r] = t * (den // b)
    return Poly.from_ints("x", ints, den)


def _gegenbauer_recurrence(n: int, lam: Fraction) -> list:
    """C_0^lam, ..., C_n^lam by the three-term recurrence
    m C_m = 2 (lam+m-1) x C_(m-1) - (2 lam+m-2) C_(m-2), in one pass on
    integer lists: at lam = p/q, C_m = I_m / (q^m m!) with I_0 = 1,
    I_1 = 2p x and I_m = 2 (p + q(m-1)) x I_(m-1)
    - q (m-1) (2p + q(m-2)) I_(m-2)."""
    p, q = lam.numerator, lam.denominator
    ints = [[1], [0, 2 * p]]
    for m in range(2, n + 1):
        up, down = 2 * (p + q * (m - 1)), q * (m - 1) * (2 * p + q * (m - 2))
        nxt = [0] + [up * c for c in ints[-1]]
        for i, c in enumerate(ints[-2]):
            nxt[i] -= down * c
        ints.append(nxt)
    return [Poly.from_ints("x", c, q ** m * factorial(m))
            for m, c in enumerate(ints[:n + 1])]


@lru_cache(maxsize=None)
def chebyshev(kind: str, n: int) -> Poly:
    """Chebyshev polynomial T_n or U_n (kind 'T' or 'U')."""
    if kind not in ("T", "U"):
        raise ValueError("kind must be 'T' or 'U'")
    if n < 0:
        # U_{-n} = -U_{n-2}; in particular U_{-1} = 0
        if kind == "U":
            if n == -1:
                return Poly.zero("x")
            return -chebyshev("U", -n - 2)
        raise ValueError("negative index only defined for U")
    if n == 0:
        return Poly.constant("x", Fraction(1))
    if n == 1:
        return X if kind == "T" else 2 * X
    return 2 * X * chebyshev(kind, n - 1) - chebyshev(kind, n - 2)


@lru_cache(maxsize=None)
def legendre(n: int) -> Poly:
    if n == 0:
        return Poly.constant("x", Fraction(1))
    if n == 1:
        return X
    return ((2 * n - 1) * X * legendre(n - 1) - (n - 1) * legendre(n - 2)) / n


def triangle_row_polynomial_b(k: int) -> Poly:
    """B_k(x) = sum_j b_j x^j, b_j = (2k+1)/(2j+1) C(k+j, 2j), on integers:
    b_0 = 2k+1 and b_(j+1) = b_j (k+j+1)(k-j) / ((2j+2)(2j+3)), each b_j
    an integer."""
    if k < 0:
        raise InvalidParameters("B_k needs k >= 0")
    b, ints = 2 * k + 1, [2 * k + 1]
    for j in range(k):
        b = b * (k + j + 1) * (k - j) // ((2 * j + 2) * (2 * j + 3))
        ints.append(b)
    return Poly.from_ints("x", ints)


# ---------------------------------------------------------------------------
# identity suite
# ---------------------------------------------------------------------------

def identity_suite(nmax: int, lambda_samples=None) -> dict:
    """Verify the inter-polynomial identity catalog exactly for all
    applicable indices <= nmax. Returns a report dict of check counts per
    identity; raises IdentityFailed with the failing identity and indices on
    the first failure."""
    if nmax < 4:
        raise ValueError("nmax must be >= 4")
    if lambda_samples is None:
        lambda_samples = [Fraction(1, 2), Fraction(3, 2), Fraction(2)]
    report = {}

    def check(name: str, ok: bool, where: str) -> None:
        if not ok:
            raise IdentityFailed(f"{name} failed at {where}")
        report[name] = report.get(name, 0) + 1

    # (i) composition-product: U_{mn-1}(x) = U_{m-1}(T_n(x)) U_{n-1}(x)
    for m in range(1, nmax + 1):
        for n in range(1, nmax + 1):
            lhs = chebyshev("U", m * n - 1)
            rhs = chebyshev("U", m - 1)(chebyshev("T", n)) * chebyshev("U", n - 1)
            check("composition_product", lhs == rhs, f"m={m}, n={n}")

    # (ii) 2 T_n U_{m-1} = U_{m+n-1} + U_{m-n-1}, with U_{-k} = -U_{k-2}
    for m in range(1, nmax + 1):
        for n in range(0, nmax + 1):
            lhs = 2 * chebyshev("T", n) * chebyshev("U", m - 1)
            rhs = chebyshev("U", m + n - 1) + chebyshev("U", m - n - 1)
            check("product_linearization", lhs == rhs, f"m={m}, n={n}")

    # (iii) x^m U_n = 2^-m sum_r C(m,r) U_{m+n-2r}
    for m in range(0, nmax + 1):
        for n in range(0, nmax + 1):
            lhs = X ** m * chebyshev("U", n)
            rhs = Poly.zero("x")
            for r in range(m + 1):
                rhs = rhs + comb(m, r) * chebyshev("U", m + n - 2 * r)
            rhs = rhs / Fraction(2) ** m
            check("power_reduction", lhs == rhs, f"m={m}, n={n}")

    # (iv) U_m = sum_k P_k P_{m-k}
    for m in range(0, nmax + 1):
        rhs = Poly.zero("x")
        for k in range(m + 1):
            rhs = rhs + legendre(k) * legendre(m - k)
        check("legendre_convolution", chebyshev("U", m) == rhs, f"m={m}")

    # (v) 2(x^2-1) sum_k U_k U_{m-k} = (m+1) x U_{m+1} - (m+2) U_m
    for m in range(0, nmax + 1):
        conv = Poly.zero("x")
        for k in range(m + 1):
            conv = conv + chebyshev("U", k) * chebyshev("U", m - k)
        lhs = 2 * (X * X - 1) * conv
        rhs = (m + 1) * X * chebyshev("U", m + 1) - (m + 2) * chebyshev("U", m)
        check("u_self_convolution", lhs == rhs, f"m={m}")

    # (vi) C_m^{l1+l2} = sum_k C_k^{l1} C_{m-k}^{l2}
    geg = {lam: [gegenbauer(k, lam) for k in range(nmax + 1)]
           for lam in lambda_samples}
    for l1 in lambda_samples:
        for l2 in lambda_samples:
            for m in range(0, nmax + 1):
                rhs = Poly.zero("x")
                for k in range(m + 1):
                    rhs = rhs + geg[l1][k] * geg[l2][m - k]
                check("parameter_addition", gegenbauer(m, l1 + l2) == rhs,
                      f"m={m}, {l1}+{l2}")

    # (vii) 2(x^2-1) C_n^2 = (n+1) x U_{n+1} - (n+2) U_n
    for n in range(0, nmax + 1):
        lhs = 2 * (X * X - 1) * gegenbauer(n, Fraction(2))
        rhs = (n + 1) * X * chebyshev("U", n + 1) - (n + 2) * chebyshev("U", n)
        check("lambda2_reduction", lhs == rhs, f"n={n}")

    # (viii) B_k(x) = U_{2k}(sqrt(x+4)/2): U_{2k} is even, so substitute
    # its squared argument u = (x+4)/4
    for k in range(0, nmax + 1):
        u2k = chebyshev("U", 2 * k)
        even = Poly.from_ints("x", u2k.ints[::2], u2k.den)
        rhs = even(Poly("x", [Fraction(1), Fraction(1, 4)]))
        check("b_row_substitution", triangle_row_polynomial_b(k) == rhs
              and not any(u2k.ints[1::2]), f"k={k}")

    # (ix) large-parameter limit: C_n^l(x)/C_n^l(1) -> x^n, error <= 10/l
    lam = Fraction(10 ** 6)
    grid = [Fraction(i, 4) for i in range(-4, 5)]
    for n in range(0, nmax + 1):
        c = gegenbauer(n, lam)
        at_one = pochhammer(2 * lam, n) / factorial(n)
        for x in grid:
            err = abs(c(x) / at_one - x ** n)
            check("large_parameter_limit", err <= Fraction(10) / lam,
                  f"n={n}, x={x}: err={err}")

    # (x) binomial sum = three-term recurrence for every parameter used
    # above, up to 2 nmax: a_polynomial_checks(16) in the triangles suite
    # evaluates C^2_m for m <= 19
    lams = {Fraction(2), *lambda_samples,
            *(l1 + l2 for l1 in lambda_samples for l2 in lambda_samples)}
    for lam in sorted(lams):
        recurrence = _gegenbauer_recurrence(2 * nmax, lam)
        for n in range(2 * nmax + 1):
            check("binomial_recurrence", gegenbauer(n, lam) == recurrence[n],
                  f"n={n}, lambda={lam}")

    return report
