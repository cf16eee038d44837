"""Dense univariate rational polynomials, each an integer list over one
denominator; the numerator/denominator record of a rational function; the
integer gcd and squarefree part; and the integer critical-line kernel with
Descartes root isolation, the one real-root engine.

Only this module clears rationals to integers (``int_form``). Sums, products
(one convolution), shifts and Horner evaluation run on a Poly's ``ints`` and
reduce once at the end; ``coeffs`` derives the Fractions. The critical-line
substitution and the Descartes bisection read ``ints`` and ``den`` directly.
The one gcd is a primitive remainder sequence on integer lists
(``squarefree_ints``); a Poly divides by scalars only.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, islice, zip_longest
from math import comb, factorial, gcd, lcm, sqrt
from operator import add

from .errors import MixedCoefficients, VariableMismatch, ZeroPolynomial
from .rat import as_rat, format_rat, parse_rat

log = logging.getLogger("critpoly")

# Descartes bisection depth allowed beyond 2 (deg w + 1) before the
# isolation checks that w is squarefree: a repeated positive root off the
# bisection points always reaches it, and the isolation then gives up; on
# squarefree w the bisection ends (Collins-Akritas), so it goes on.
DESCARTES_DEPTH = 64
# ``PositiveRoots.refine`` narrows a box below 2^-REFINE_BITS of its lower
# end, past the 53 bits of the float it is returned as
REFINE_BITS = 56


class Poly:
    """Dense polynomial ``ints[k] / den`` times var**k, in lowest terms:
    den > 0, gcd(den, *ints) = 1 and no trailing zero."""

    __slots__ = ("variable", "ints", "den")

    def __init__(self, variable: str, coeffs=()):
        self._reduce(variable, *int_form(coeffs))

    def _reduce(self, variable: str, ints, den: int):
        ints = list(ints)
        while ints and not ints[-1]:
            ints.pop()
        # g takes the sign den // |den| of den, a ZeroDivisionError at 0
        g = gcd(den, *ints) * (den // abs(den))
        self.variable, self.den = variable, den // g
        self.ints = tuple(x // g for x in ints) if g != 1 else tuple(ints)
        return self

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_ints(variable: str, ints, den: int = 1) -> "Poly":
        """The polynomial with coefficients ints[k] / den, reduced."""
        return Poly.__new__(Poly)._reduce(variable, ints, den)

    @staticmethod
    def constant(variable: str, value) -> "Poly":
        return Poly(variable, [value])

    @staticmethod
    def var(variable: str) -> "Poly":
        return Poly.from_ints(variable, [0, 1])

    @staticmethod
    def zero(variable: str) -> "Poly":
        return Poly.from_ints(variable, [])

    # -- structure ----------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """The coefficients as reduced Fractions, constant term first."""
        return tuple(Fraction(c, self.den) for c in self.ints)

    @property
    def is_zero(self) -> bool:
        return not self.ints

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.ints) - 1

    @property
    def leading(self):
        if self.is_zero:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return Fraction(self.ints[-1], self.den)

    def coeff(self, k: int):
        return Fraction(self.ints[k] if 0 <= k < len(self.ints) else 0,
                        self.den)

    # -- ring operations ----------------------------------------------

    def _check_var(self, other: "Poly"):
        if self.variable != other.variable:
            raise VariableMismatch(
                f"polynomials in {self.variable!r} and {other.variable!r}")

    def __add__(self, other):
        if not isinstance(other, Poly):
            return self + Poly.constant(self.variable, as_rat(other))
        self._check_var(other)
        den = lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        return Poly.from_ints(self.variable, [
            a * x + b * y
            for x, y in zip_longest(self.ints, other.ints, fillvalue=0)], den)

    __radd__ = __add__

    def __neg__(self):
        return Poly.from_ints(self.variable, [-c for c in self.ints], self.den)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Poly):
            # other / den is reduced once, so the product's reduction is cheap
            c = as_rat(other) / self.den
            ints = [x * c.numerator for x in self.ints]
            return Poly.from_ints(self.variable, ints, c.denominator)
        self._check_var(other)
        return Poly.from_ints(self.variable, _convolve(self.ints, other.ints),
                              self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return self * (1 / as_rat(scalar))

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        out = Poly.constant(self.variable, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, Poly):
            return (self.ints, self.den) == (other.ints, other.den) and (
                self.variable == other.variable or not self.ints)
        if isinstance(other, (int, Fraction)):
            return self.degree <= 0 and self.coeff(0) == other
        return NotImplemented

    def __hash__(self):
        # a constant equals its value, in any variable
        if self.degree <= 0:
            return hash(self.coeff(0))
        return hash((self.variable, self.ints, self.den))

    # -- evaluation / substitution --------------------------------------

    def __call__(self, point):
        """Horner evaluation on ``ints`` at a Fraction, float or Poly point
        (giving a Poly in its variable), divided by ``den`` once at the end;
        at u/v, the integer sum of ints[k] u^k v^(d-k) over den v^d."""
        if isinstance(point, (int, Fraction)):
            u, v, acc, vk = point.numerator, point.denominator, 0, 1
            for c in reversed(self.ints):
                acc, vk = acc * u + c * vk, vk * v
            return Fraction(acc * v, self.den * vk)
        acc = Poly.zero(point.variable) if isinstance(point, Poly) else 0
        for c in reversed(self.ints):
            acc = acc * point + c
        return acc / self.den

    def shift(self, a) -> "Poly":
        """p(var + a) for a rational a = u/v, on integers: with P = ``ints``
        and q(y) = v^d P(a y), p(x + a) = q(x/a + 1) / (v^d den), so one
        Taylor shift by 1 of q gives r_k, each divisible by u^k, and p(x + a)
        is r_k v^k / u^k over v^d den."""
        a = as_rat(a)
        if not a or self.is_zero:
            return self
        u, v, d = a.numerator, a.denominator, self.degree
        r = _taylor_shift1([c * u ** k * v ** (d - k)
                            for k, c in enumerate(self.ints)])
        ints = [c // u ** k * v ** k for k, c in enumerate(r)]
        return Poly.from_ints(self.variable, ints, self.den * v ** d)

    # -- presentation ---------------------------------------------------

    def __repr__(self):
        if self.is_zero:
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeff(k)
            if not c:
                continue
            cs = format_rat(c)
            mono = self.variable if k == 1 else f"{self.variable}^{k}"
            if k == 0:
                parts.append(cs)
            elif cs in ("1", "-1"):
                parts.append(cs[:-1] + mono)
            else:
                parts.append(f"{cs}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")

    def to_json(self) -> dict:
        return {"variable": self.variable,
                "coeffs": [format_rat(c) for c in self.coeffs]}

    @staticmethod
    def from_json(obj: dict) -> "Poly":
        return Poly(obj["variable"], [parse_rat(c) for c in obj["coeffs"]])


# ---------------------------------------------------------------------------
# rising factorials and generalized binomials
# ---------------------------------------------------------------------------

def pochhammer(a, k: int):
    """Rising factorial a (a+1) ... (a+k-1); empty product for k = 0.

    Works for Fraction, int, float and Poly arguments alike. For a = u/v
    rational the product (u)(u + v)...(u + (k-1) v) is taken in integers
    and divided by v^k once; an int argument gives an int for k >= 1.
    """
    if k < 0:
        raise ValueError("pochhammer needs k >= 0")
    if k == 0:
        return Poly.constant(a.variable, Fraction(1)) if isinstance(a, Poly) \
            else Fraction(1)
    if isinstance(a, (int, Fraction)):
        u, v = a.numerator, a.denominator
        num = 1
        for j in range(k):
            num *= u + j * v
        return num if isinstance(a, int) else Fraction(num, v ** k)
    out = None
    for j in range(k):
        term = a + j
        out = term if out is None else out * term
    return out


def gen_binom(a, k: int):
    """Generalized binomial C(a, k) = (a-k+1)_k / k! for integer k >= 0;
    an int for an int a and k >= 1, since k! divides any k consecutive
    integers."""
    if k < 0:
        raise ValueError("gen_binom needs k >= 0")
    rising = pochhammer(a - (k - 1), k)
    if isinstance(rising, int):
        return rising // factorial(k)
    return rising / factorial(k)


def int_mul_linear(coeffs: list, a: int, b: int) -> list:
    """Integer coefficients (constant term first) of coeffs(x) * (a x + b).

    The O(m^2) builders keep their running polynomials as plain int lists
    and multiply them by integer linear factors only, so no gcd is taken
    until the final rescaling.
    """
    return ([b * coeffs[0]]
            + [b * hi + a * lo for lo, hi in zip(coeffs, coeffs[1:])]
            + [a * coeffs[-1]])


def int_form(rationals) -> tuple:
    """(ints, den) with rationals[k] = ints[k] / den for ints and
    Fractions, den the lcm of their denominators."""
    rs = list(rationals)
    den = lcm(*(c.denominator for c in rs))
    return [c.numerator * (den // c.denominator) for c in rs], den


def _convolve(a: list, b: list) -> list:
    """Integer coefficients of the product of the integer polynomials a and
    b (constant term first), by the schoolbook convolution."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


# ---------------------------------------------------------------------------
# integer gcd layer: one primitive remainder sequence
# ---------------------------------------------------------------------------

def _primitive(a: list) -> list:
    """The nonzero integer polynomial a over its content, with a positive
    leading coefficient."""
    g = gcd(*a)
    return [x // g for x in a] if a[-1] > 0 else [-x // g for x in a]


def _pseudo_divmod(a: list, b: list) -> tuple:
    """(q, r) with lc(b)^e a = q b + r, e = deg a - deg b + 1 and
    deg r < deg b, for integer lists a and b (constant term first, b with
    no trailing zero): step k replaces r by lc(b) r - c x^k b, with c the
    top coefficient of r, and q by lc(b) q + c x^k."""
    r, db, lb = list(a), len(b) - 1, b[-1]
    q = [0] * max(len(r) - db, 0)
    for k in range(len(q) - 1, -1, -1):
        c = r.pop()
        r = [lb * x for x in r]
        q[k + 1:] = [lb * x for x in q[k + 1:]]
        q[k] = c
        for j in range(db):
            r[k + j] -= c * b[j]
    while r and not r[-1]:
        r.pop()
    return q, r


def squarefree_ints(a: list) -> list:
    """The squarefree part a / gcd(a, a') of the nonzero integer polynomial
    a (constant term first), primitive with a positive leading coefficient.

    The gcd is the last nonzero term of the primitive remainder sequence of
    a and a' (Brown, J. ACM 18, 1971), each pseudo-remainder divided by its
    content. It is primitive, so a over it is in Z[x] (Gauss's lemma): the
    primitive part of the pseudo-quotient."""
    x, y = _primitive(a), [k * c for k, c in enumerate(a)][1:]
    while y:
        y = _primitive(y)
        x, y = y, _pseudo_divmod(x, y)[1]
    return _primitive(_pseudo_divmod(a, x)[0])


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

    With P = L p the integer polynomial ``p.ints`` over L = ``p.den``,
    q(x) = 2^d P(x/2) is shifted once by 1, and r = q(x + 1) gives
    p(1/2 + u) = r(2u) / (2^d L), so a_k = 2^k r_k and D = 2^d L.
    """
    d = p.degree
    q = [c << (d - k) for k, c in enumerate(p.ints)]
    return ([c << k for k, c in enumerate(_taylor_shift1(q))],
            p.den << max(d, 0))


def _split_parity(a: list):
    """Whether p(1/2 + it) is imaginary (odd k only) for the half-shift
    coefficients a; MixedCoefficients when both parities occur."""
    odd = any(a[1::2])
    if odd and any(a[0::2]):
        raise MixedCoefficients(
            "p(1/2+it) has coefficients with nonzero real and imaginary "
            "parts")
    return odd


def line_reduction(p: Poly):
    """(odd, w): p(1/2 + it) is a positive multiple of t^odd w(t^2), times
    1 or i, with w an integer polynomial of content 1; w_j is
    (-1)^j a_(2j+odd) of ``half_shift`` over their gcd. MixedCoefficients
    when p(1/2 + it) is neither real nor imaginary."""
    a, _ = half_shift(p)
    odd = _split_parity(a)
    w = [c if j % 2 == 0 else -c for j, c in enumerate(a[odd::2])]
    g = gcd(*w)
    return odd, [c // g for c in w]


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
    return (Poly.from_ints("t", [(c if k % 4 < 2 else -c) if k % 2 == odd
                                 else 0 for k, c in enumerate(a)], scale),
            "imaginary" if odd else "real")


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _variations(b: list) -> int:
    """The sign variations of b, zeros skipped, counted up to 2: the
    isolation only needs to know whether there are none, one or more."""
    count, negative = 0, None
    for x in b:
        if x and (x < 0) != negative:
            if negative is not None:
                count += 1
                if count == 2:
                    return 2
            negative = x < 0
    return count


def _value_at(w: list, num: int, e: int) -> int:
    """The integer 2^{e d} w(num / 2^e), by Horner's scheme."""
    acc = 0
    for i, c in enumerate(reversed(w)):
        acc = acc * num + (c << (e * i))
    return acc


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


def _strip_twos(b: list) -> list:
    """b divided by the largest power of 2 that divides every entry."""
    g = 0
    for x in b:
        g |= x
    t = (g & -g).bit_length() - 1
    return [x >> t for x in b] if t > 0 else b


def _bernstein(w: list, b: int) -> list:
    """Integer Bernstein coefficients of w(2^b x) on (0, 1), up to a
    positive factor. With q(x) = w(2^b x), coefficient d - i of
    (x + 1)^d q(1/(x + 1)) is C(d, i) times Bernstein coefficient i, so one
    Taylor shift gives them all, and multiplying coefficient d - i by
    lcm_j C(d, j) / C(d, i) makes them integers with one common factor."""
    d = len(w) - 1
    c = _taylor_shift1([x << (b * j) for j, x in enumerate(w)][::-1])
    binoms = [comb(d, i) for i in range(d + 1)]
    scale = lcm(*binoms)
    return _strip_twos([c[d - i] * (scale // binoms[i])
                        for i in range(d + 1)])


def _bernstein_split(b: list):
    """The Bernstein coefficients of the halves (0, 1/2) and (1/2, 1) of
    the polynomial with Bernstein coefficients b on (0, 1): one de
    Casteljau pass at 1/2 that sums instead of averaging, so row r carries
    the factor 2^r; each child is brought to the common factor 2^d and
    then stripped of its common power of 2. The last entry of the left
    child and the first of the right are the value at 1/2 (up to a
    positive factor)."""
    d = len(b) - 1
    row = list(b)
    left, right = [row[0]], [row[-1]]
    for r in range(d, 0, -1):
        row[:r] = map(add, row[:r], islice(row, 1, r + 1))
        left.append(row[0])
        right.append(row[r - 1])
    right.reverse()
    return (_strip_twos([x << (d - i) for i, x in enumerate(left)]),
            _strip_twos([x << i for i, x in enumerate(right)]))


class PositiveRoots:
    """Descartes (Vincent-Collins-Akritas) isolation of the positive roots
    of an integer polynomial w, in the integer Bernstein form of
    Rouillier-Zimmermann ("Efficient isolation of polynomial's real roots",
    2004), with quadratic interval refinement (Abbott, ISSAC 2006).

    The bisection runs over (0, 2^b), which holds every positive root of
    w. Each interval carries the integer Bernstein coefficients of w on it,
    up to a positive factor; their sign variations bound the roots in the
    open interval (a root at an end drops out of the count), and one de
    Casteljau split gives both halves.

    ``boxes`` lists (lo, hi, e) in ascending order, one box for each
    distinct positive root of w. When lo == hi the root is lo/2^e, found
    exactly at a bisection point. Otherwise the open interval
    (lo/2^e, hi/2^e) holds exactly one root of w, which is simple (its
    Descartes variation count is 1); an end of it may be a root found
    exactly. The list is None when no isolation was found; ``reason`` then
    says why: w(0) = 0, or the depth guard, which gives up only when w is
    not squarefree; ``sf`` is the ``squarefree_ints`` of w once the guard
    has computed it. ``nodes`` counts the intervals tested and
    ``evaluations`` the exact values of w that ``refine`` has computed.
    """

    __slots__ = ("w", "boxes", "nodes", "reason", "evaluations", "sf")

    def __init__(self, w: list):
        self.w, self.boxes, self.nodes, self.reason = w, None, 0, None
        self.evaluations, self.sf = 0, None
        if w[0] == 0:
            self.reason = "w(0)=0"
            return
        b = _root_bound_exp(w)
        max_depth = DESCARTES_DEPTH + 2 * len(w)
        boxes = []

        def box(lo, hi, k):
            # (lo/2^k, hi/2^k) scaled by 2^b
            return (lo << (b - k), hi << (b - k), 0) if k <= b \
                else (lo, hi, k - b)

        # the stack holds (the Bernstein coefficients of w(2^b x) on
        # (c/2^k, (c+1)/2^k), c, k) for intervals of x in (0, 1)
        stack = [(_bernstein(w, b), 0, 0)]
        while stack:
            q, c, k = stack.pop()
            self.nodes += 1
            count = _variations(q)
            if count == 1:
                boxes.append(box(c, c + 1, k))
            elif count > 1:
                if k == max_depth:
                    self.sf = squarefree_ints(w)
                    if len(self.sf) < len(w):
                        self.reason = "depth guard"
                        return
                    max_depth = None
                left, right = _bernstein_split(q)
                if right[0] == 0:
                    # the split point is a root; neither half counts it
                    boxes.append(box(2 * c + 1, 2 * c + 1, k + 1))
                stack.append((right, 2 * c + 1, k + 1))
                stack.append((left, 2 * c, k + 1))
        self.boxes = sorted(boxes, key=lambda x: Fraction(x[0], 1 << x[2]))

    def _value(self, num: int, e: int) -> int:
        self.evaluations += 1
        return _value_at(self.w, num, e)

    def refine(self, box) -> Fraction:
        """Narrow a box, with exact values of w at dyadic points, until its
        width is below 2^-REFINE_BITS of its lower end (or a grid point is
        the root); return the midpoint. A box found exactly returns its
        root.

        This is quadratic interval refinement: each step cuts the box into
        2^k equal parts and tests the two parts beside the grid point
        nearest the secant root, with one value of w or two. On success the
        box is the part that holds the root and k doubles; on failure the
        box keeps the side the values show and k halves, down to k = 1,
        where the step is a bisection. While an end of the box is a root
        (found exactly), the step is a bisection too."""
        lo, hi, e = box
        if lo == hi:
            return Fraction(lo, 1 << e)
        d = len(self.w) - 1
        f_lo, f_hi = self._value(lo, e), self._value(hi, e)
        # the sign of w just right of lo, which may be a root found exactly:
        # that of its first derivative not zero at lo
        s_lo, deriv = _sign(f_lo), self.w
        while not s_lo:
            deriv = [j * c for j, c in enumerate(deriv)][1:]
            self.evaluations += 1
            s_lo = _sign(_value_at(deriv, lo, e))
        k = 2
        while lo == 0 or (hi - lo) << REFINE_BITS > lo:
            if f_lo and f_hi:
                # f_lo and f_hi differ in sign: round n f_lo / (f_lo - f_hi)
                n, den = 1 << k, f_lo - f_hi
                j = min(max((2 * n * f_lo + den) // (2 * den), 1), n - 1)
            else:
                # an end is a root: bisect
                k, n, j = 1, 2, 1
            step = hi - lo
            lo, hi, e = lo << k, hi << k, e + k
            f_lo, f_hi = f_lo << (k * d), f_hi << (k * d)
            g = lo + j * step
            f_g = self._value(g, e)
            if f_g == 0:
                return Fraction(g, 1 << e)
            if _sign(f_g) == s_lo:
                # the root is right of g; is it left of g + step?
                lo, f_lo, k = g, f_g, 2 * k
                if j + 1 < n:
                    f_next = self._value(g + step, e)
                    if f_next == 0:
                        return Fraction(g + step, 1 << e)
                    if _sign(f_next) == s_lo:
                        lo, f_lo, k = g + step, f_next, max(k // 4, 1)
                    else:
                        hi, f_hi = g + step, f_next
            else:
                # the root is left of g; is it right of g - step?
                hi, f_hi, k = g, f_g, 2 * k
                if j > 1:
                    f_prev = self._value(g - step, e)
                    if f_prev == 0:
                        return Fraction(g - step, 1 << e)
                    if _sign(f_prev) != s_lo:
                        hi, f_hi, k = g - step, f_prev, max(k // 4, 1)
                    else:
                        lo, f_lo = g - step, f_prev
        return Fraction(lo + hi, 1 << (e + 1))


class LineIsolation:
    """The zeros of p(1/2 + it) through its parity reduction.

    p(1/2 + it) is a positive multiple of v(t) = t^odd w(t^2), times 1 or i
    (``line_reduction``, or ``reduction`` when the caller holds it), so v
    has degree ``v_degree`` = odd + 2 deg w. Under ``method`` "descartes",
    ``positive`` isolates deg w distinct positive roots of w, and all the
    roots of v are real and simple. Otherwise ``fallback`` (logged at DEBUG)
    says why not, and under "squarefree" ``positive`` isolates the positive
    roots of sf, the squarefree part of w divided by x when w(0) = 0. Either
    way v has [odd or w(0) = 0] + 2 (roots isolated) ``distinct_real_roots``;
    it is ``squarefree`` iff w is and w(0) != 0, and ``passed`` (all its
    roots real) iff every root of sf is positive. ``work`` counts the
    intervals both isolations tested.
    """

    __slots__ = ("w", "odd", "positive", "fallback", "method", "work",
                 "v_degree", "zero_root", "distinct_real_roots", "squarefree",
                 "passed")

    def __init__(self, p: Poly, reduction: tuple | None = None):
        if p.is_zero:
            raise ZeroPolynomial("critical-line isolation needs a nonzero "
                                 "polynomial")
        self.odd, self.w = reduction or line_reduction(p)
        self.positive = PositiveRoots(self.w)
        self.work = self.positive.nodes
        self.v_degree = self.odd + 2 * (len(self.w) - 1)
        self.zero_root = bool(self.odd or not self.w[0])
        self.fallback = self.descartes_failure()
        self.method, self.squarefree = "descartes", True
        if self.fallback is not None:
            log.debug("critical-line isolation falls back to the squarefree "
                      "part of w: %s", self.fallback)
            # the guard's squarefree part, when it has computed one
            sf = self.positive.sf or squarefree_ints(self.w)
            self.method = "squarefree"
            self.squarefree = len(sf) == len(self.w) and bool(sf[0])
            self.positive = PositiveRoots(sf if sf[0] else sf[1:])
            self.work += self.positive.nodes
        found = len(self.positive.boxes)
        self.distinct_real_roots = self.zero_root + 2 * found
        self.passed = found == len(self.positive.w) - 1

    def descartes_failure(self) -> str | None:
        """Why ``positive`` does not isolate deg w positive roots of w."""
        found, degree = len(self.positive.boxes or ()), len(self.w) - 1
        if self.positive.reason or found == degree:
            return self.positive.reason
        return f"{found} positive roots of w for degree {degree}"

    def roots(self) -> list:
        """The real roots of v as floats, ascending: +-sqrt(r) for each
        positive root r that ``positive`` isolates, and 0 when v(0) = 0."""
        half = [sqrt(self.positive.refine(box))
                for box in self.positive.boxes]
        return sorted([-t for t in half] + [0.0] * self.zero_root + half)

    @property
    def refine_work(self) -> int:
        """The exact values of w (or sf) that ``roots`` has computed."""
        return self.positive.evaluations


# ---------------------------------------------------------------------------
# real roots of a rational polynomial, on the same engine
# ---------------------------------------------------------------------------

def _interval(sign: int, box) -> tuple:
    """A box (lo, hi, e) of the positive roots of sf(sign x) as the
    ascending pair of Fractions that bounds the roots of sf it holds."""
    lo, hi, e = box
    return tuple(sorted((Fraction(sign * lo, 1 << e),
                         Fraction(sign * hi, 1 << e))))


class RealRootData:
    """The distinct real roots of v, isolated by Descartes bisection of
    sf(x) and sf(-x), with sf the ``squarefree_ints`` of v divided by x when
    0 is a root. ``intervals`` lists them as ``isolate_real_roots`` does.
    sf is squarefree, so the bisection ends."""

    def __init__(self, v: Poly):
        if v.is_zero:
            raise ZeroPolynomial("root isolation needs a nonzero polynomial")
        w = squarefree_ints(v.ints)
        self.degree, self.squarefree_degree = v.degree, len(w) - 1
        self.is_squarefree = self.degree == self.squarefree_degree
        self.zero_root = w[0] == 0
        if self.zero_root:
            w = w[1:]
        # (sign, the positive roots of sf(sign x))
        self.sides = [(sign, PositiveRoots([c * sign ** j
                                            for j, c in enumerate(w)]))
                      for sign in (1, -1)]
        self.intervals = sorted(
            [(Fraction(0), Fraction(0))] * self.zero_root
            + [_interval(sign, box)
               for sign, roots in self.sides for box in roots.boxes])
        self.distinct_real_roots = len(self.intervals)

    def all_roots_real(self) -> bool:
        return self.distinct_real_roots == self.squarefree_degree

    def roots(self) -> list:
        """The distinct real roots of v as floats, ascending, each refined
        by ``PositiveRoots.refine`` on sf(x) or sf(-x)."""
        return sorted([0.0] * self.zero_root
                      + [sign * float(roots.refine(box))
                         for sign, roots in self.sides
                         for box in roots.boxes])


def real_root_data(v: Poly) -> RealRootData:
    return RealRootData(v)


def isolate_real_roots(p: Poly):
    """The distinct real roots of p, ascending, as pairs (lo, hi) of
    Fractions: the root itself when lo == hi, otherwise an open interval
    (lo, hi) holding exactly one root of p."""
    return RealRootData(p).intervals


def refine_root(p: Poly, lo: Fraction, hi: Fraction) -> float:
    """The root of p in a pair from ``isolate_real_roots``: lo when
    lo == hi, otherwise the box of ``RealRootData(p)`` that gave the pair,
    refined by ``PositiveRoots.refine``."""
    if lo == hi:
        return float(lo)
    for sign, roots in RealRootData(p).sides:
        for box in roots.boxes:
            if _interval(sign, box) == (lo, hi):
                return sign * float(roots.refine(box))
    raise ValueError(f"({lo}, {hi}) is not an isolating interval of {p!r}")


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RatFun:
    """A rational function held as its numerator and denominator, as the
    builder gave them: no common factor is cancelled."""

    num: Poly
    den: Poly

    def __call__(self, point):
        d = self.den(point)
        if d == 0:
            raise ZeroDivisionError(f"pole at {point}")
        return self.num(point) / d
