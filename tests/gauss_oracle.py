"""The Gauss-Jacobi rules as mpmath's eigen-solver builds them (Golub-Welsch
on the Jacobi matrix of the weight on [-1, 1]), mapped to [0, 1] at the
precision of critpoly.quadrature: the reference that the rules quadrature
builds from the three-term recurrence are compared with."""
import functools
from fractions import Fraction

import mpmath

from critpoly import quadrature

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
