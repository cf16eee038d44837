"""Integer and prime-factor properties: Catalan-normalized Chebyshev
critical values, 2-adic valuations, and the twin-prime number triangles."""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .construct import p_s32
from .errors import InvalidParameters
from .orthopoly import gegenbauer, triangle_row_polynomial_b
from .poly import Poly


def catalan(n: int) -> int:
    if n < 0:
        raise InvalidParameters("Catalan index must be >= 0")
    return comb(2 * n, n) // (n + 1)


def v2(n: int) -> int:
    """2-adic valuation of a nonzero integer."""
    if n == 0:
        raise InvalidParameters("valuation of 0 is undefined")
    n = abs(n)
    return (n & -n).bit_length() - 1


@lru_cache(maxsize=4)
def _sieve(bound: int) -> tuple:
    flags = bytearray([1]) * (bound + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, int(bound ** 0.5) + 1):
        if flags[p]:
            flags[p * p::p] = bytearray(len(flags[p * p::p]))
    return tuple(i for i, f in enumerate(flags) if f)


def factorize(n: int, bound: int = 100000) -> dict:
    """Best-effort trial-division factorization: primes up to bound, with
    any remaining cofactor reported unfactored."""
    n = abs(n)
    out = {}
    for p in _sieve(bound):
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n > 1:
        if n <= bound * bound:
            out[n] = out.get(n, 0) + 1
        else:
            out["cofactor"] = n
    return out


def is_prime(n: int) -> bool:
    """Deterministic trial division; the ranges used here are tiny."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _exact_quotient(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise AssertionError(
            f"expected an integer value, got {Fraction(num, den)}")
    return q


def _exact_int(x: Fraction) -> int:
    return _exact_quotient(x.numerator, x.denominator)


def odd_factor_check(n: int, s: int) -> dict:
    """Catalan normalizations 4 C_(n-1) p_(2n)(s) and C_n p_(2n+1)(s) at an
    integer argument: both must be odd integers."""
    if s < 1:
        raise InvalidParameters("s must be a positive integer")
    if n < 1:
        raise InvalidParameters("n must be >= 1")
    sv = Fraction(s)
    even_val = _exact_int(4 * catalan(n - 1) * p_s32(2 * n, 1).poly(sv))
    odd_val = _exact_int(catalan(n) * p_s32(2 * n + 1, 1).poly(sv))
    report = {"n": n, "s": s}
    for name, value in (("even", even_val), ("odd", odd_val)):
        report[name] = {"value": value, "is_integer": True,
                        "is_odd": v2(value) == 0,
                        "valuation_2": v2(value),
                        "factorization": factorize(value)}
    report["pass"] = report["even"]["is_odd"] and report["odd"]["is_odd"]
    return report


def largest_odd_factor(n: int) -> int:
    return n >> v2(n)


def reduced_odd_forms(n: int, s: int) -> dict:
    """Smaller odd-integer normalizations 2^(2n+1)/(2n)! p_(2n)(s) and
    2^(2n+1) T_(n+1)/(2n+2)! p_(2n+1)(s), T the largest-odd-factor map;
    factorizations of both normalizations are reported for comparison."""
    if s < 1:
        raise InvalidParameters("s must be a positive integer")
    if n < 0:
        raise InvalidParameters("n must be >= 0")
    sv = Fraction(s)
    even_val = _exact_int(Fraction(2 ** (2 * n + 1), factorial(2 * n))
                          * p_s32(2 * n, 1).poly(sv))
    odd_val = _exact_int(
        Fraction(2 ** (2 * n + 1) * largest_odd_factor(n + 1),
                 factorial(2 * n + 2)) * p_s32(2 * n + 1, 1).poly(sv))
    report = {"n": n, "s": s}
    for name, value in (("even", even_val), ("odd", odd_val)):
        report[name] = {"value": value, "is_odd": v2(value) == 0,
                        "valuation_2": v2(value),
                        "factorization": factorize(value)}
    report["pass"] = report["even"]["is_odd"] and report["odd"]["is_odd"]
    return report


def catalan_valuation_check(nmax: int = 20) -> dict:
    """The power of 2 in C_n is pinned by 2^(2n+1)/(2n+2)!: check
    v2(C_n) = 2n + 1 - v2((2n+2)!)."""
    oks = [v2(catalan(n)) == 2 * n + 1 - v2(factorial(2 * n + 2))
           for n in range(nmax + 1)]
    return {"pass": all(oks), "checks": len(oks)}


# ---------------------------------------------------------------------------
# number triangles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TriangleRow:
    kind: str
    k: int
    entries: tuple

    def to_json(self) -> dict:
        return {"kind": self.kind, "k": self.k,
                "entries": list(self.entries)}


def triangle(kind: str, k: int) -> TriangleRow:
    """Row k of the a-triangle a(k,j) = (2k-1)(2k+1)/(2j+3) C(k+j, 2j+1)
    (k entries, k >= 1) or the b-triangle b(k,j) = (2k+1)/(2j+1) C(k+j, 2j)
    (k+1 entries, k >= 0)."""
    if kind == "a":
        if k < 1:
            raise InvalidParameters("a-triangle needs k >= 1")
        ints = tuple(_exact_quotient((2 * k - 1) * (2 * k + 1)
                                     * comb(k + j, 2 * j + 1), 2 * j + 3)
                     for j in range(k))
    elif kind == "b":
        if k < 0:
            raise InvalidParameters("b-triangle needs k >= 0")
        ints = tuple(_exact_quotient((2 * k + 1) * comb(k + j, 2 * j),
                                     2 * j + 1)
                     for j in range(k + 1))
    else:
        raise InvalidParameters("kind must be 'a' or 'b'")
    if any(v <= 0 for v in ints):
        raise AssertionError(f"non-positive triangle entry in {kind}, k={k}")
    return TriangleRow(kind, k, ints)


def _one_exception(entries, d: int) -> bool:
    return sum(1 for e in entries if e % d != 0) == 1


def divisibility_characterization(kind: str, kmax: int) -> dict:
    """Logical equivalence of the 'exactly one exception' divisibility
    predicate with primality of 2k+1 (b-triangle) or twin-primality of
    (2k-1, 2k+1) (a-triangle), for all rows k <= kmax."""
    mismatches = []
    k0 = 1 if kind == "a" else 0
    for k in range(k0, kmax + 1):
        row = triangle(kind, k).entries
        if kind == "b":
            predicate = _one_exception(row, 2 * k + 1)
            target = is_prime(2 * k + 1)
        else:
            predicate = (_one_exception(row, 2 * k - 1)
                         and _one_exception(row, 2 * k + 1))
            target = is_prime(2 * k - 1) and is_prime(2 * k + 1)
        if predicate != target:
            mismatches.append(k)
    return {"kind": kind, "kmax": kmax, "mismatches": mismatches,
            "pass": not mismatches}


def triangle_row_polynomial_a(k: int) -> Poly:
    """A_k(x) = sum_j a(k,j) x^j."""
    return Poly("x", [Fraction(v) for v in triangle("a", k).entries])


def a_polynomial_checks(kmax: int = 16) -> dict:
    """A_k satisfies the four-term recurrence
    A_(k+4) = (2x+4)(A_(k+3) + A_(k+1)) - (x^2+4x+6) A_(k+2) - A_k
    and equals the Gegenbauer combination
    C^2_(k-1)((x+2)/2) + (x+6) C^2_(k-2)((x+2)/2) + C^2_(k-3)((x+2)/2)."""
    x = Poly.var("x")
    a = {k: triangle_row_polynomial_a(k) for k in range(1, kmax + 5)}
    recurrence = all(
        a[k + 4] == ((2 * x + 4) * (a[k + 3] + a[k + 1])
                     - (x * x + 4 * x + 6) * a[k + 2] - a[k])
        for k in range(1, kmax + 1))

    half_shift = Poly("x", [Fraction(1), Fraction(1, 2)])  # (x+2)/2

    def c2(m: int):
        if m < 0:
            return Poly.zero("x")
        return gegenbauer(m, 2)(half_shift)

    combination = all(
        a[k] == c2(k - 1) + (x + 6) * c2(k - 2) + c2(k - 3)
        for k in range(1, kmax + 5))
    b_rows = all(
        Poly("x", [Fraction(v) for v in triangle("b", k).entries])
        == triangle_row_polynomial_b(k) for k in range(0, kmax + 1))
    return {"recurrence": recurrence, "gegenbauer_combination": combination,
            "b_row_match": b_rows,
            "pass": recurrence and combination and b_rows}


def csv_rows(nmax: int, s_values) -> list:
    """CSV-shaped rows (n, s, value, valuation_2, factorization) for the
    Catalan-normalized values."""
    rows = []
    for n in range(1, nmax + 1):
        for s in s_values:
            rep = odd_factor_check(n, s)
            for name in ("even", "odd"):
                r = rep[name]
                rows.append({"n": 2 * n + (name == "odd"), "s": s,
                             "value": r["value"],
                             "valuation_2": r["valuation_2"],
                             "factorization": _fmt_factorization(
                                 r["factorization"])})
    return rows


def _fmt_factorization(fac: dict) -> str:
    parts = []
    for p, e in sorted(fac.items(), key=lambda kv: (isinstance(kv[0], str),
                                                    kv[0])):
        if p == "cofactor":
            parts.append(f"C{e}")
        else:
            parts.append(f"{p}" if e == 1 else f"{p}^{e}")
    return "*".join(parts) if parts else "1"
