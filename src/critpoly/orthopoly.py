"""Exact Gegenbauer, Chebyshev and Legendre polynomials, and the suite of
inter-family identities used to cross-validate them."""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .errors import IdentityFailed, InvalidLambda
from .poly import Poly, gen_binom, pochhammer
from .rat import as_rat

X = Poly.var("x")


def _check_lambda(lam: Fraction):
    if lam <= Fraction(-1, 2) or lam == 0:
        raise InvalidLambda(f"need lambda > -1/2 and lambda != 0, got {lam}")


def gegenbauer(n: int, lam) -> Poly:
    """Gegenbauer polynomial of degree n, built from its binomial sum; the
    identity suite checks it against the three-term recurrence."""
    lam = as_rat(lam)
    _check_lambda(lam)
    coeffs = [Fraction(0)] * (n + 1)
    for r in range(n // 2 + 1):
        coeffs[n - 2 * r] = (Fraction((-1) ** r) * comb(n - r, r)
                             * gen_binom(n - r - 1 + lam, n - r)
                             * Fraction(2) ** (n - 2 * r))
    return Poly("x", coeffs)


def _gegenbauer_recurrence(n: int, lam: Fraction) -> list:
    """C_0^lam, ..., C_n^lam by the three-term recurrence, in one pass."""
    out = [Poly.constant("x", Fraction(1)), 2 * lam * X]
    for m in range(2, n + 1):
        # m*C_m = 2(lam+m-1)*x*C_{m-1} - (2lam+m-2)*C_{m-2}
        out.append((2 * (lam + m - 1) * X * out[-1]
                    - (2 * lam + m - 2) * out[-2]) / m)
    return out[:n + 1]


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
    """B_k(x) = sum_j (2k+1)/(2j+1) C(k+j, 2j) x^j."""
    return Poly("x", [Fraction(2 * k + 1, 2 * j + 1) * comb(k + j, 2 * j)
                      for j in range(k + 1)])


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
