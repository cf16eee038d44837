"""References for critpoly.quadrature's Gauss-Jacobi rules and integrands.

- gauss_jacobi_rule: the rules as mpmath's eigen-solver builds them
  (Golub-Welsch on the Jacobi matrix of the weight on [-1, 1]), mapped to
  [0, 1] at the precision of critpoly.quadrature: the reference that the
  rules quadrature builds from the three-term recurrence are compared with.
- mpf_gauss_jacobi_rules, gegenbauer_at, chebyshev_t_at, mellin_integrand:
  the same recurrence route with its per-node loops (Newton's method, the
  Christoffel sums and the integrands' three-term recurrences) in mpf
  arithmetic at that precision, as quadrature ran them before they moved
  to fixed-point integers; the reference for the fixed-point loops."""
import functools
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


def mpf_gauss_rule(a, b, mu0) -> list:
    """The (node, weight) pairs of the Gauss rule whose nodes are the zeros
    of p_m, m = len(a): the middle of each of quadrature's float brackets
    polished by Newton's method on p_m and weighted by its Christoffel
    number mu0 / Sum_j p_j(y)^2 / (b_1..b_j), all in mpf."""
    mp = quadrature.mp
    step_max = mp.mpf(2) ** (8 - mp.prec)
    rule = []
    for lo, hi in quadrature._float_nodes(a, b):
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
    """The m- and (m+1)-node rules of quadrature._gauss_jacobi_rules (alpha
    and beta mpfs) from the same recurrence coefficients, by
    mpf_gauss_rule."""
    a, b = quadrature._jacobi_recurrence(alpha, beta, m + 1)
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
