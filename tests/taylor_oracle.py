"""Descartes bisection in the monomial basis, with two Taylor shifts by 1
per interval, and root refinement by exact bisection: the route that the
Bernstein-basis isolation and the quadratic interval refinement of
critpoly.poly.PositiveRoots replaced, kept here as the reference the tests
compare them with."""
from fractions import Fraction
from itertools import accumulate

from critpoly.poly import Poly
from sturm_oracle import squarefree_part

DESCARTES_DEPTH = 64


def taylor_shift1(a: list) -> list:
    """Integer coefficients (constant term first) of a(x + 1)."""
    a = list(a)
    for i in range(len(a) - 1):
        tail = list(accumulate(reversed(a[i:])))
        tail.reverse()
        a[i:] = tail
    return a


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _sign_changes(signs) -> int:
    signs = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _sign_at(w: list, num: int, e: int) -> int:
    acc = 0
    for j in range(len(w) - 1, -1, -1):
        acc = acc * num + (w[j] << (e * (len(w) - 1 - j)))
    return _sign(acc)


def _root_bound_exp(w: list) -> int:
    d = len(w) - 1
    lead = abs(w[d]).bit_length() - 1
    e = 0
    for k in range(1, d + 1):
        if w[d - k]:
            e = max(e, -((lead - abs(w[d - k]).bit_length()) // k))
    return e + 1


class TaylorPositiveRoots:
    """The positive roots of an integer polynomial w, with the same
    ``boxes``, ``nodes`` and ``reason`` as critpoly.poly.PositiveRoots;
    ``evaluations`` counts the signs of w that ``refine`` has computed."""

    def __init__(self, w: list):
        self.w, self.boxes, self.nodes, self.reason = w, None, 0, None
        self.evaluations = 0
        if w[0] == 0:
            self.reason = "w(0)=0"
            return
        d = len(w) - 1
        b = _root_bound_exp(w)
        max_depth = DESCARTES_DEPTH + 2 * len(w)
        boxes = []

        def box(lo, hi, k):
            return (lo << (b - k), hi << (b - k), 0) if k <= b \
                else (lo, hi, k - b)

        # (2^{dk} w(2^b (x + c) / 2^k), c, k) for the interval of number c
        # at depth k
        stack = [([c << (b * j) for j, c in enumerate(w)], 0, 0)]
        while stack:
            q, c, k = stack.pop()
            self.nodes += 1
            count = _sign_changes(map(_sign, taylor_shift1(q[::-1])))
            if count == 1:
                boxes.append(box(c, c + 1, k))
            elif count > 1:
                if k == max_depth:
                    if squarefree_part(Poly("x", map(Fraction, w))).degree < d:
                        self.reason = "depth guard"
                        return
                    max_depth = None
                left = [x << (d - j) for j, x in enumerate(q)]
                right = taylor_shift1(left)
                if right[0] == 0:
                    boxes.append(box(2 * c + 1, 2 * c + 1, k + 1))
                stack.append((right, 2 * c + 1, k + 1))
                stack.append((left, 2 * c, k + 1))
        self.boxes = sorted(boxes, key=lambda x: Fraction(x[0], 1 << x[2]))

    def refine(self, box) -> Fraction:
        """Bisect a box until its width is below 2^-56 of its lower end (or
        a bisection point is the root); return the midpoint."""
        lo, hi, e = box
        if lo == hi:
            return Fraction(lo, 1 << e)
        w = self.w
        while True:
            self.evaluations += 1
            s_lo = _sign_at(w, lo, e)
            if s_lo:
                break
            w = [j * c for j, c in enumerate(w)][1:]
        while lo == 0 or (hi - lo) << 56 > lo:
            lo, hi, e = 2 * lo, 2 * hi, e + 1
            mid = (lo + hi) // 2
            self.evaluations += 1
            s_mid = _sign_at(self.w, mid, e)
            if s_mid == 0:
                return Fraction(mid, 1 << e)
            if s_mid == s_lo:
                lo = mid
            else:
                hi = mid
        return Fraction(lo + hi, 1 << (e + 1))
