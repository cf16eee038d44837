"""Sturm-sequence root counting, isolation and refinement over Fraction
polynomials: the route the Descartes engine in critpoly.poly replaced,
kept here as the reference the tests compare that engine with. Its long
division, gcd and squarefree part run the Euclidean algorithm on Fraction
coefficients, apart from the integer remainder sequence of
critpoly.poly.squarefree_ints that they check."""
from dataclasses import dataclass
from fractions import Fraction

from critpoly.errors import ZeroPolynomial
from critpoly.poly import Poly


def divmod_poly(a: Poly, b: Poly):
    """Quotient and remainder of a by b, by long division on a list of
    Fraction coefficients updated in place: step k subtracts c x^k b."""
    if b.is_zero:
        raise ZeroPolynomial("division by zero polynomial")
    r, bs = list(a.coeffs), b.coeffs
    db = len(bs) - 1
    q = [Fraction(0)] * (len(r) - db)
    for k in range(len(r) - 1 - db, -1, -1):
        if r[k + db]:
            c = q[k] = r[k + db] / bs[-1]
            for j in range(db):
                r[k + j] -= c * bs[j]
    return Poly(a.variable, q), Poly(a.variable, r[:db])


def derivative(p: Poly) -> Poly:
    return Poly(p.variable, [k * c for k, c in enumerate(p.coeffs)][1:])


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd by the Euclidean algorithm."""
    while not b.is_zero:
        a, b = b, divmod_poly(a, b)[1]
    return a if a.is_zero else a / a.leading


def squarefree_part(p: Poly) -> Poly:
    """p over gcd(p, p'), monic."""
    q, _ = divmod_poly(p, poly_gcd(p, derivative(p)))
    return q / q.leading


def sturm_chain(p: Poly):
    chain = [p, derivative(p)]
    while not chain[-1].is_zero and chain[-1].degree > 0:
        _, r = divmod_poly(chain[-2], chain[-1])
        if r.is_zero:
            break
        chain.append(-r)
    return [q for q in chain if not q.is_zero]


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def _sign_changes(signs) -> int:
    signs = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _variations_at(chain, point) -> int:
    return _sign_changes([_sign(q(point)) for q in chain])


def _variations_at_inf(chain, positive: bool) -> int:
    signs = []
    for q in chain:
        s = _sign(q.leading)
        if not positive and q.degree % 2 == 1:
            s = -s
        signs.append(s)
    return _sign_changes(signs)


@dataclass(frozen=True)
class SturmData:
    degree: int
    squarefree_degree: int
    distinct_real_roots: int

    @property
    def is_squarefree(self) -> bool:
        return self.degree == self.squarefree_degree

    def all_roots_real(self) -> bool:
        return self.distinct_real_roots == self.squarefree_degree


def sturm_root_data(v: Poly) -> SturmData:
    sf = squarefree_part(v)
    if sf.degree == 0:
        return SturmData(v.degree, 0, 0)
    chain = sturm_chain(sf)
    count = _variations_at_inf(chain, False) - _variations_at_inf(chain, True)
    return SturmData(v.degree, sf.degree, count)


def root_bound(p: Poly) -> Fraction:
    """Cauchy bound: all real roots lie in [-B, B]."""
    lead = abs(p.leading)
    return 1 + max((abs(c) for c in p.coeffs[:-1]), default=Fraction(0)) / lead


def sturm_isolate(p: Poly):
    """Disjoint rational intervals (a, b] each containing one distinct root."""
    sf = squarefree_part(p)
    if sf.degree == 0:
        return []
    chain = sturm_chain(sf)
    bound = root_bound(sf)
    out = []

    def recurse(lo, hi):
        n = _variations_at(chain, lo) - _variations_at(chain, hi)
        if n == 0:
            return
        if n == 1:
            out.append((lo, hi))
            return
        mid = (lo + hi) / 2
        recurse(lo, mid)
        recurse(mid, hi)

    recurse(-bound, bound)
    return sorted(out)


def sturm_refine(p: Poly, lo: Fraction, hi: Fraction, bits: int = 52):
    """Bisect a sign-changing (or Sturm-isolating) interval to float width.

    The interval is half-open (lo, hi]: a root exactly at lo belongs to the
    previous isolating interval, so lo is nudged inward in that case.
    """
    sf = squarefree_part(p)
    flo = sf(lo)
    if flo == 0:
        chain = sturm_chain(sf)
        step = (hi - lo) / 2
        while _variations_at(chain, lo + step) - _variations_at(chain, hi) < 1:
            step /= 2
        lo = lo + step
        flo = sf(lo)
        if flo == 0:
            return float(lo)
    use_signs = _sign(flo) != _sign(sf(hi)) and sf(hi) != 0
    chain = None if use_signs else sturm_chain(sf)
    # bisect until the width test holds: the cap of bits + 8 steps this
    # loop once had stopped short on isolating intervals wider than 16,
    # which a large Cauchy bound gives
    while hi - lo >= Fraction(1, 2 ** (bits + 4)) * max(1, abs(hi)):
        mid = (lo + hi) / 2
        fm = sf(mid)
        if fm == 0:
            return float(mid)
        if use_signs:
            if _sign(fm) == _sign(flo):
                lo = mid
            else:
                hi = mid
        else:
            if _variations_at(chain, lo) - _variations_at(chain, mid) >= 1:
                hi = mid
            else:
                lo, flo = mid, fm
    return float((lo + hi) / 2)


def sturm_roots(p: Poly) -> list:
    """The distinct real roots of p as floats, ascending."""
    return sorted(sturm_refine(p, lo, hi) for lo, hi in sturm_isolate(p))
