"""References for critpoly.quadrature's Gauss-Jacobi rules and integrands.

- gauss_jacobi_rule: the rules as mpmath's eigen-solver builds them
  (Golub-Welsch on the Jacobi matrix of the weight on [-1, 1]), mapped to
  [0, 1] at the precision of critpoly.quadrature: the reference that the
  rules quadrature builds from the three-term recurrence are compared with.
- jacobi_recurrence, float_nodes: the weight's recurrence coefficients in
  mpf arithmetic at that precision, and one bisection on float Sturm counts
  per node, restarted at the Gershgorin bound, as quadrature built them
  before it took exact integer ratios and one bisection tree per rule; the
  references for those.
- mpf_gauss_jacobi_rules, gegenbauer_at, chebyshev_t_at, mellin_integrand:
  the same recurrence route with its per-node loops (Newton's method, the
  Christoffel sums and the integrands' three-term recurrences) in mpf
  arithmetic at that precision, as quadrature ran them before they moved
  to fixed-point integers; the reference for the fixed-point loops."""
import functools
import math
from fractions import Fraction

import mpmath

from critpoly import quadrature
from critpoly.errors import ToleranceNotMet

ctx = mpmath.MPContext()
ctx.prec = quadrature.mp.prec


@functools.cache
def gauss_jacobi_rule(m: int, alpha: Fraction, beta: Fraction) -> tuple:
    """The (node, weight) pairs of the m-node Gauss rule for
    y^beta (1-y)^alpha on [0, 1], by increasing node. Cached: a comparison
    meets each rule twice, as the larger rule of one pair and the smaller of
    the next."""
    alpha = ctx.mpf(alpha.numerator) / alpha.denominator
    beta = ctx.mpf(beta.numerator) / beta.denominator
    # nodes x on [-1, 1] for (1-x)^alpha (1+x)^beta; y = (1+x)/2
    xs, ws = ctx.gauss_quadrature(m, "jacobi", alpha, beta)
    scale = ctx.mpf(2) ** -(alpha + beta + 1)
    return tuple(sorted(((1 + x) / 2, scale * w) for x, w in zip(xs, ws)))


def jacobi_recurrence(alpha, beta, m: int):
    """Coefficients a_0..a_(m-1) and b_0..b_(m-1) of the monic polynomials
    orthogonal for y^beta (1-y)^alpha on [0, 1] (alpha, beta mpfs),
    p_(-1) = 0, p_0 = 1, p_(k+1)(y) = (y - a_k) p_k(y) - b_k p_(k-1)(y);
    b_0 = 0.

    a_0 and b_1 are the mean and variance of Beta(beta + 1, alpha + 1): the
    general formulas are 0/0 there at alpha + beta = 0 and -1."""
    ab = alpha + beta
    a = [(beta + 1) / (ab + 2)]
    b = [quadrature.mp.zero,
         (alpha + 1) * (beta + 1) / ((ab + 2) ** 2 * (ab + 3))]
    d = beta * beta - alpha * alpha
    for k in range(1, m):
        c = 2 * k + ab
        a.append((1 + d / (c * (c + 2))) / 2)
        if k > 1:
            b.append(k * (k + alpha) * (k + beta) * (k + ab)
                     / (c * c * (c - 1) * (c + 1)))
    return a, b[:m]


def float_nodes(a, b) -> list:
    """Brackets (lo, hi), hi - lo <= 2^-50, one around each eigenvalue of
    the Jacobi matrix (diagonal a, off-diagonal sqrt(b_k)), which are the
    zeros of p_m, by increasing node, in float by bisection: J - x I has as
    many negative pivots as J has eigenvalues below x. Each node's
    bisection starts again at the Gershgorin bound."""
    af, bf = [float(x) for x in a], [float(x) for x in b]

    def below(x):
        count, d = 0, 1.0
        for ak, bk in zip(af, bf):
            d = ak - x - bk / d
            if d < 0:
                count += 1
            elif d == 0:
                d = 1e-300
        return count

    # Gershgorin's discs hold every eigenvalue
    e = [math.sqrt(x) for x in bf[1:]]
    radii = [u + v for u, v in zip([0.0] + e, e + [0.0])]
    lo = min(x - r for x, r in zip(af, radii))
    hi = max(x + r for x, r in zip(af, radii))
    brackets = []
    for i in range(len(af)):
        top = hi
        while top - lo > 2.0 ** -50:
            mid = (lo + top) / 2
            if below(mid) > i:
                top = mid
            else:
                lo = mid
        brackets.append((lo, top))
    return brackets


def mpf_gauss_rule(a, b, mu0) -> list:
    """The (node, weight) pairs of the Gauss rule whose nodes are the zeros
    of p_m, m = len(a): the middle of each of float_nodes' brackets
    polished by Newton's method on p_m and weighted by its Christoffel
    number mu0 / Sum_j p_j(y)^2 / (b_1..b_j), all in mpf."""
    mp = quadrature.mp
    step_max = mp.mpf(2) ** (8 - mp.prec)
    rule = []
    for lo, hi in float_nodes(a, b):
        y = mp.mpf((lo + hi) / 2)
        for _ in range(quadrature._NEWTON_CAP):
            if not 0 < y < 1:
                raise ToleranceNotMet(
                    f"Gauss-Jacobi node {mp.nstr(y, 5)} outside (0, 1)")
            p_prev, p, dp_prev, dp = mp.one, y - a[0], mp.zero, mp.one
            for k in range(1, len(a)):
                t = y - a[k]
                p_prev, p, dp_prev, dp = (p, t * p - b[k] * p_prev, dp,
                                          p + t * dp - b[k] * dp_prev)
            step = p / dp
            y -= step
            if abs(step) < step_max:
                break
        else:
            raise ToleranceNotMet(
                f"Newton's method on the Gauss-Jacobi node near "
                f"{mp.nstr(y, 5)} did not converge")
        p_prev, p, norm, christoffel = mp.one, y - a[0], mp.one, mp.one
        for k in range(1, len(a)):
            norm *= b[k]
            christoffel += p * p / norm
            p_prev, p = p, (y - a[k]) * p - b[k] * p_prev
        rule.append((y, mu0 / christoffel))
    return rule


def mpf_gauss_jacobi_rules(alpha, beta, m: int) -> tuple:
    """The m- and (m+1)-node rules of quadrature._gauss_jacobi_rule (alpha
    and beta mpfs) from jacobi_recurrence, by mpf_gauss_rule."""
    a, b = jacobi_recurrence(alpha, beta, m + 1)
    mu0 = quadrature.mp.beta(beta + 1, alpha + 1)
    return mpf_gauss_rule(a[:m], b[:m], mu0), mpf_gauss_rule(a, b, mu0)


def gegenbauer_at(n: int, lam, x):
    """C_n^lam(x) by the three-term recurrence in mpf (lam and x mpfs)."""
    if n == 0:
        return quadrature.mp.one
    a, b = quadrature.mp.one, 2 * lam * x
    for m in range(2, n + 1):
        a, b = b, (2 * (lam + m - 1) * x * b - (2 * lam + m - 2) * a) / m
    return b


def chebyshev_t_at(n: int, x):
    """T_n(x) by the three-term recurrence in mpf."""
    if n == 0:
        return quadrature.mp.one
    a, b = quadrature.mp.one, x
    for _ in range(2, n + 1):
        a, b = b, 2 * x * b - a
    return b


def mellin_integrand(g, eps: int):
    """P(y) = g(sqrt y) / (2 sqrt(y)^eps) in mpf, for g a map of mpfs."""
    def P(y):
        x = quadrature.mp.sqrt(y)
        return g(x) / (2 * x) if eps else g(x) / 2

    return P
