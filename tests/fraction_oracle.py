"""The Fraction loops that the integer kernels of critpoly.poly and
critpoly.hyp3f2 replaced, kept as the reference the tests compare those
kernels with: the schoolbook Poly product, the term-by-term Pochhammer
symbol and the term-ratio 3F2(1) sum.

No route here calls ``Poly.__mul__`` on two polynomials in one variable,
so none of them runs the kernels they check."""
from fractions import Fraction

from critpoly.errors import DenominatorPole
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
