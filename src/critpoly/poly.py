"""Dense univariate polynomials, rational functions, Sturm counting, and
the integer critical-line kernel with Descartes root isolation.

Coefficients are Fractions in normal use. The same class also carries
Poly coefficients (polynomials in the Gegenbauer parameter), so a handful
of operations are written ring-generically. Division, gcd and Sturm chains
require Fraction coefficients. The critical-line substitution, the
Descartes bisection and its root refinement run on plain integer lists.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import factorial, gcd, lcm, sqrt

from .errors import MixedCoefficients, VariableMismatch, ZeroPolynomial
from .rat import as_rat, format_rat, parse_rat

# Descartes bisection depth allowed beyond 2 (deg w + 1) before the
# isolation gives up: a repeated positive root always reaches it, other
# inputs only when roots near the positive axis lie closer together than
# about 2^-depth times the root bound
DESCARTES_DEPTH = 64


def _is_zero(c) -> bool:
    if isinstance(c, Poly):
        return c.is_zero
    return c == 0


class Poly:
    """Dense polynomial: ``coeffs[k]`` multiplies var**k, no trailing zeros."""

    __slots__ = ("variable", "coeffs")

    def __init__(self, variable: str, coeffs=()):
        cs = list(coeffs)
        while cs and _is_zero(cs[-1]):
            cs.pop()
        self.variable = variable
        self.coeffs = tuple(cs)

    # -- constructors -------------------------------------------------

    @staticmethod
    def constant(variable: str, value) -> "Poly":
        return Poly(variable, [value])

    @staticmethod
    def var(variable: str) -> "Poly":
        return Poly(variable, [Fraction(0), Fraction(1)])

    @staticmethod
    def zero(variable: str) -> "Poly":
        return Poly(variable, [])

    # -- structure ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def leading(self):
        if self.is_zero:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, k: int):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    # -- ring operations ----------------------------------------------

    def _check_var(self, other: "Poly"):
        if self.variable != other.variable:
            raise VariableMismatch(
                f"polynomials in {self.variable!r} and {other.variable!r}")

    def __add__(self, other):
        if isinstance(other, Poly) and other.variable == self.variable:
            n = max(len(self.coeffs), len(other.coeffs))
            return Poly(self.variable,
                        [self.coeff(k) + other.coeff(k) for k in range(n)])
        if isinstance(other, Poly):
            raise VariableMismatch(
                f"cannot add polynomials in {self.variable!r} and {other.variable!r}")
        return self + Poly.constant(self.variable, other)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.variable, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Poly) and other.variable == self.variable:
            if self.is_zero or other.is_zero:
                return Poly.zero(self.variable)
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + a * b
            return Poly(self.variable, out)
        # Poly in another variable acts as a scalar coefficient
        return Poly(self.variable, [c * other for c in self.coeffs])

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        if isinstance(scalar, Poly) and scalar.variable == self.variable:
            q, r = divmod_poly(self, scalar)
            if not r.is_zero:
                raise ValueError("inexact polynomial division")
            return q
        return Poly(self.variable, [c / scalar for c in self.coeffs])

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        out = Poly.constant(self.variable, Fraction(1))
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, Poly):
            return (self.variable == other.variable or self.is_zero or
                    other.is_zero) and self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return self.is_zero
            return self.coeffs == (Fraction(other),) if not isinstance(
                self.coeff(0), Poly) else self.degree <= 0 and self.coeff(0) == other
        return NotImplemented

    def __hash__(self):
        return hash((self.variable, self.coeffs))

    # -- evaluation / substitution --------------------------------------

    def __call__(self, point):
        """Horner evaluation at a Fraction, float or Poly point."""
        acc = None
        for c in reversed(self.coeffs):
            acc = c if acc is None else acc * point + c
        if acc is None:
            return Fraction(0) if not isinstance(point, Poly) else (
                Poly.zero(point.variable))
        return acc

    def shift(self, a) -> "Poly":
        """p(var + a), exactly."""
        return poly_shift(self, a)

    def derivative(self) -> "Poly":
        return Poly(self.variable,
                    [k * c for k, c in enumerate(self.coeffs)][1:])

    # -- presentation ---------------------------------------------------

    def __repr__(self):
        if self.is_zero:
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeff(k)
            if _is_zero(c):
                continue
            cs = format_rat(c) if isinstance(c, Fraction) else f"({c!r})"
            mono = self.variable if k == 1 else f"{self.variable}^{k}"
            if k == 0:
                parts.append(cs)
            elif cs in ("1", "-1"):
                parts.append(cs[:-1] + mono)
            else:
                parts.append(f"{cs}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")

    def to_json(self) -> dict:
        if any(not isinstance(c, Fraction) for c in self.coeffs):
            raise TypeError("JSON encoding defined for rational coefficients")
        return {"variable": self.variable,
                "coeffs": [format_rat(c) for c in self.coeffs]}

    @staticmethod
    def from_json(obj: dict) -> "Poly":
        return Poly(obj["variable"], [parse_rat(c) for c in obj["coeffs"]])


def poly_shift(p: Poly, a) -> Poly:
    """Return p(var + a)."""
    point = Poly(p.variable, [as_rat(a) if not isinstance(a, Poly) else a,
                              Fraction(1)])
    out = p(point)
    return out if isinstance(out, Poly) else Poly.constant(p.variable, out)


# ---------------------------------------------------------------------------
# rising factorials and generalized binomials
# ---------------------------------------------------------------------------

def pochhammer(a, k: int):
    """Rising factorial a (a+1) ... (a+k-1); empty product for k = 0.

    Works for Fraction, int, float and Poly arguments alike.
    """
    if k < 0:
        raise ValueError("pochhammer needs k >= 0")
    out = None
    for j in range(k):
        term = a + j
        out = term if out is None else out * term
    if out is None:
        return Poly.constant(a.variable, Fraction(1)) if isinstance(a, Poly) \
            else Fraction(1)
    return out


def gen_binom(a, k: int):
    """Generalized binomial C(a, k) = (a-k+1)_k / k! for integer k >= 0."""
    if k < 0:
        raise ValueError("gen_binom needs k >= 0")
    return pochhammer(a - (k - 1), k) / factorial(k)


def int_mul_linear(coeffs: list, a: int, b: int) -> list:
    """Integer coefficients (constant term first) of coeffs(x) * (a x + b).

    The O(m^2) builders keep their running polynomials as plain int lists
    and multiply them by integer linear factors only, so no gcd is taken
    until the final rescaling.
    """
    return ([b * coeffs[0]]
            + [b * hi + a * lo for lo, hi in zip(coeffs, coeffs[1:])]
            + [a * coeffs[-1]])


# ---------------------------------------------------------------------------
# Euclidean layer (Fraction coefficients only)
# ---------------------------------------------------------------------------

def divmod_poly(a: Poly, b: Poly):
    if b.is_zero:
        raise ZeroPolynomial("division by zero polynomial")
    a._check_var(b)
    q = Poly.zero(a.variable)
    r = a
    lb = b.leading
    while not r.is_zero and r.degree >= b.degree:
        k = r.degree - b.degree
        c = r.leading / lb
        t = Poly(a.variable, [Fraction(0)] * k + [c])
        q = q + t
        r = r - t * b
    return q, r


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd via the Euclidean algorithm."""
    x, y = a, b
    while not y.is_zero:
        _, r = divmod_poly(x, y)
        x, y = y, r
    if x.is_zero:
        return x
    return x / x.leading


def squarefree_part(p: Poly) -> Poly:
    if p.is_zero:
        raise ZeroPolynomial("squarefree part of zero polynomial")
    if p.degree == 0:
        return Poly.constant(p.variable, Fraction(1))
    g = poly_gcd(p, p.derivative())
    q, _ = divmod_poly(p, g)
    return q / q.leading


# ---------------------------------------------------------------------------
# Sturm chains
# ---------------------------------------------------------------------------

def sturm_chain(p: Poly):
    chain = [p, p.derivative()]
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


class RealRootData:
    """Distinct-real-root count plus multiplicity bookkeeping;
    ``chain_length`` is the length of the Sturm chain that counted them
    (0 when the squarefree part is constant)."""

    __slots__ = ("degree", "squarefree_degree", "distinct_real_roots",
                 "is_squarefree", "chain_length")

    def __init__(self, degree, squarefree_degree, distinct_real_roots,
                 chain_length=0):
        self.degree = degree
        self.squarefree_degree = squarefree_degree
        self.distinct_real_roots = distinct_real_roots
        self.is_squarefree = degree == squarefree_degree
        self.chain_length = chain_length

    def all_roots_real(self) -> bool:
        return self.distinct_real_roots == self.squarefree_degree


def real_root_data(v: Poly) -> RealRootData:
    if v.is_zero:
        raise ZeroPolynomial("root counting needs a nonzero polynomial")
    sf = squarefree_part(v)
    if sf.degree == 0:
        return RealRootData(v.degree, 0, 0)
    chain = sturm_chain(sf)
    count = _variations_at_inf(chain, False) - _variations_at_inf(chain, True)
    return RealRootData(v.degree, sf.degree, count, len(chain))


def sturm_real_root_count(v: Poly) -> int:
    """Number of distinct real roots of v."""
    return real_root_data(v).distinct_real_roots


def count_roots_in(v: Poly, lo: Fraction, hi: Fraction) -> int:
    """Distinct real roots of v in (lo, hi]."""
    sf = squarefree_part(v)
    if sf.degree == 0:
        return 0
    chain = sturm_chain(sf)
    return _variations_at(chain, lo) - _variations_at(chain, hi)


def root_bound(p: Poly) -> Fraction:
    """Cauchy bound: all real roots lie in [-B, B]."""
    lead = abs(p.leading)
    return 1 + max((abs(c) for c in p.coeffs[:-1]), default=Fraction(0)) / lead


def isolate_real_roots(p: Poly):
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


def refine_root(p: Poly, lo: Fraction, hi: Fraction, bits: int = 52) -> float:
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
    for _ in range(bits + 8):
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
        if hi - lo < Fraction(1, 2 ** (bits + 4)) * max(1, abs(hi)):
            break
    return float((lo + hi) / 2)


# ---------------------------------------------------------------------------
# critical-line substitution and Descartes isolation over the integers
# ---------------------------------------------------------------------------

def _taylor_shift1(a: list) -> list:
    """Integer coefficients (constant term first) of a(x + 1), by the
    O(d^2) Horner scheme: pass i turns a[i:] into its suffix sums."""
    a = list(a)
    for i in range(len(a) - 1):
        tail = list(accumulate(reversed(a[i:])))
        tail.reverse()
        a[i:] = tail
    return a


def half_shift(p: Poly):
    """Integers a_0..a_d and a positive integer D with
    p(1/2 + u) = sum a_k u^k / D.

    The denominators of p are cleared (P = L p has integer coefficients),
    q(x) = 2^d P(x/2) is shifted once by 1, and r = q(x + 1) gives
    p(1/2 + u) = r(2u) / (2^d L), so a_k = 2^k r_k and D = 2^d L.
    """
    cs = [as_rat(c) for c in p.coeffs]
    scale = lcm(*(c.denominator for c in cs)) if cs else 1
    d = len(cs) - 1
    q = [(c.numerator * (scale // c.denominator)) << (d - k)
         for k, c in enumerate(cs)]
    return ([c << k for k, c in enumerate(_taylor_shift1(q))],
            scale << max(d, 0))


def _split_parity(a: list):
    """Whether p(1/2 + it) is imaginary (odd k only) for the half-shift
    coefficients a; MixedCoefficients when both parities occur."""
    odd = any(a[1::2])
    if odd and any(a[0::2]):
        raise MixedCoefficients(
            "p(1/2+it) has coefficients with nonzero real and imaginary "
            "parts")
    return odd


def substitute_critical(p: Poly):
    """Expand p(1/2 + i t) and split off the overall real/imaginary unit.

    Returns (v, parity) with v a rational polynomial in t and parity one
    of 'real', 'imaginary': p(1/2 + it) = v(t) or i*v(t) respectively.
    Raises MixedCoefficients when neither case holds. Since
    i^k = (-1)^{k//2} or i (-1)^{k//2} for the k of one parity, v has the
    coefficients (-1)^{k//2} a_k / D of ``half_shift``.
    """
    a, scale = half_shift(p)
    odd = _split_parity(a)
    return (Poly("t", [Fraction(c if k % 4 < 2 else -c, scale)
                       if k % 2 == odd else Fraction(0)
                       for k, c in enumerate(a)]),
            "imaginary" if odd else "real")


def _sign_at(w: list, num: int, e: int) -> int:
    """Sign of w(num / 2^e), from the integer 2^{e d} w(num / 2^e)."""
    acc = 0
    for j in range(len(w) - 1, -1, -1):
        acc = acc * num + (w[j] << (e * (len(w) - 1 - j)))
    return (acc > 0) - (acc < 0)


def _root_bound_exp(w: list) -> int:
    """b >= 1 with every root of w smaller than 2^b in absolute value
    (Fujiwara: |z| <= 2 max_k |w_{d-k} / w_d|^{1/k}, with each ratio
    bounded above through bit lengths)."""
    d = len(w) - 1
    lead = abs(w[d]).bit_length() - 1
    e = 0
    for k in range(1, d + 1):
        if w[d - k]:
            e = max(e, -((lead - abs(w[d - k]).bit_length()) // k))
    return e + 1


class PositiveRoots:
    """Descartes (Vincent-Collins-Akritas) isolation of the positive roots
    of an integer polynomial w.

    ``boxes`` lists (lo, hi, e): the open interval (lo/2^e, hi/2^e) holds
    exactly one root of w (its Descartes variation count is 1) and w is
    nonzero at both ends. The list is None when no isolation was found
    (``reason`` says why: w(0) = 0, the depth guard, or a root of w at a
    bisection point); ``nodes`` counts the intervals tested.
    """

    __slots__ = ("w", "boxes", "nodes", "reason")

    def __init__(self, w: list):
        self.w, self.boxes, self.nodes, self.reason = w, None, 0, None
        if w[0] == 0:
            self.reason = "w(0)=0"
            return
        d = len(w) - 1
        b = _root_bound_exp(w)
        max_depth = DESCARTES_DEPTH + 2 * len(w)
        boxes = []
        # q(x) = w(2^b x) has its positive roots in (0, 1); the stack holds
        # (2^{dk} w(2^b (x + c) / 2^k), c, k) for the interval of number c
        # at depth k
        stack = [([c << (b * j) for j, c in enumerate(w)], 0, 0)]
        while stack:
            q, c, k = stack.pop()
            self.nodes += 1
            # the variations of (x+1)^d q(1/(x+1)) bound the roots in (0, 1)
            count = _sign_changes(map(_sign, _taylor_shift1(q[::-1])))
            if count == 1:
                boxes.append((c << (b - k), (c + 1) << (b - k), 0)
                             if k <= b else (c, c + 1, k - b))
            elif count > 1:
                if k == max_depth:
                    self.reason = "depth guard"
                    return
                left = [x << (d - j) for j, x in enumerate(q)]
                right = _taylor_shift1(left)
                if right[0] == 0:
                    self.reason = "root at a split point"
                    return
                stack.append((right, 2 * c + 1, k + 1))
                stack.append((left, 2 * c, k + 1))
        self.boxes = sorted(boxes)

    def refine(self, box) -> Fraction:
        """Bisect a box, with the exact sign of w at dyadic points, until
        its width is below 2^-56 of its lower end (or a bisection point is
        the root); return the midpoint."""
        lo, hi, e = box
        s_lo = _sign_at(self.w, lo, e)
        while lo == 0 or (hi - lo) << 56 > lo:
            lo, hi, e = 2 * lo, 2 * hi, e + 1
            mid = (lo + hi) // 2
            s_mid = _sign_at(self.w, mid, e)
            if s_mid == 0:
                return Fraction(mid, 1 << e)
            if s_mid == s_lo:
                lo = mid
            else:
                hi = mid
        return Fraction(lo + hi, 1 << (e + 1))


class LineIsolation:
    """The zeros of p(1/2 + it) through its parity reduction.

    p(1/2 + it) is a positive multiple of t^odd w(t^2), times 1 or i, with
    w an integer polynomial of content 1. When ``fallback`` is None,
    ``positive`` isolates deg w distinct positive roots of w (so w(0) != 0),
    and v(t) has 2 deg w + odd distinct real roots: all its roots are real
    and simple. Otherwise ``fallback`` names why no such proof was found.
    """

    __slots__ = ("w", "odd", "positive", "fallback")

    def __init__(self, p: Poly):
        if p.is_zero:
            raise ZeroPolynomial("critical-line isolation needs a nonzero "
                                 "polynomial")
        a, _ = half_shift(p)
        self.odd = _split_parity(a)
        w = [c if j % 2 == 0 else -c for j, c in enumerate(a[self.odd::2])]
        g = gcd(*w)
        self.w = [c // g for c in w]
        self.positive = PositiveRoots(self.w)
        self.fallback = self.positive.reason
        found, degree = len(self.positive.boxes or ()), len(self.w) - 1
        if self.fallback is None and found != degree:
            self.fallback = f"{found} positive roots of w for degree {degree}"

    def roots(self) -> list:
        """The real roots of v as floats, ascending: +-sqrt(r) for each
        positive root r of w, and 0 when v is odd. Needs the isolation to
        have succeeded (``fallback`` None)."""
        half = [sqrt(self.positive.refine(box))
                for box in self.positive.boxes]
        return sorted([-t for t in half] + [0.0] * self.odd + half)


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------

class RatFun:
    """Reduced quotient of two polynomials; denominator monic and nonzero."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly):
        if den.is_zero:
            raise ZeroPolynomial("RatFun with zero denominator")
        num._check_var(den)
        if num.is_zero:
            self.num = Poly.zero(num.variable)
            self.den = Poly.constant(num.variable, Fraction(1))
            return
        g = poly_gcd(num, den)
        if g.degree > 0:
            num, _ = divmod_poly(num, g)
            den, _ = divmod_poly(den, g)
        lc = den.leading
        self.num = num / lc
        self.den = den / lc

    @staticmethod
    def from_poly(p: Poly) -> "RatFun":
        return RatFun(p, Poly.constant(p.variable, Fraction(1)))

    @staticmethod
    def constant(variable: str, value) -> "RatFun":
        return RatFun.from_poly(Poly.constant(variable, as_rat(value)))

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __add__(self, other):
        o = other if isinstance(other, RatFun) else RatFun.from_poly(
            other if isinstance(other, Poly)
            else Poly.constant(self.num.variable, as_rat(other)))
        return RatFun(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFun(-self.num, self.den)

    def __sub__(self, other):
        return self + (-(other if isinstance(other, RatFun)
                         else RatFun.from_poly(other) if isinstance(other, Poly)
                         else RatFun.constant(self.num.variable, other)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = other if isinstance(other, RatFun) else RatFun.from_poly(
            other if isinstance(other, Poly)
            else Poly.constant(self.num.variable, as_rat(other)))
        return RatFun(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = other if isinstance(other, RatFun) else RatFun.from_poly(
            other if isinstance(other, Poly)
            else Poly.constant(self.num.variable, as_rat(other)))
        if o.is_zero:
            raise ZeroDivisionError("division by zero rational function")
        return RatFun(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        return RatFun.constant(self.num.variable, other) / self \
            if not isinstance(other, (RatFun, Poly)) else NotImplemented

    def __call__(self, point):
        d = self.den(point)
        if d == 0:
            raise ZeroDivisionError(f"pole at {point}")
        return self.num(point) / d

    def __eq__(self, other):
        if isinstance(other, RatFun):
            return self.num == other.num and self.den == other.den
        if isinstance(other, Poly):
            return self.den.degree == 0 and self.num == other * self.den.coeff(0)
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return self.is_zero
            return self.den.degree == 0 and self.num.degree == 0 and \
                self.num.coeff(0) / self.den.coeff(0) == other
        return NotImplemented

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"({self.num!r}) / ({self.den!r})"
