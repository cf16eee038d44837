"""The three-term recurrence of the critical polynomials over Fraction,
straight from the printed coefficients: the route the fraction-free chain
of critpoly.verify replaced, kept here as the reference the tests compare
that chain with.

With m = floor(n/2), eps = n mod 2, a = 1/4 + eps/2, b = beta - m - a and
sigma = 2 beta - 2 m, p_n(1/2 + 2ix; beta) is proportional to the monic
continuous Hahn polynomial P_m(x) of x P_j = P_(j+1) + gamma_j P_(j-1),
gamma_j = j (j+sigma-2)(j-1+2a)(j-1+beta-m)^2 (j+2b-1)
          / ((2j+sigma-3)(2j+sigma-2)^2 (2j+sigma-1)).
"""
from fractions import Fraction


def printed_gamma(j: int, n: int, beta: Fraction) -> Fraction:
    m, eps = n // 2, n % 2
    a = Fraction(1, 4) + Fraction(eps, 2)
    b = beta - m - a
    sigma = 2 * beta - 2 * m
    return (j * (j + sigma - 2) * (j - 1 + 2 * a) * (j - 1 + beta - m) ** 2
            * (j + 2 * b - 1)
            / ((2 * j + sigma - 3) * (2 * j + sigma - 2) ** 2
               * (2 * j + sigma - 1)))


def monic_chain(n: int, beta: Fraction) -> list:
    """P_m as its list of coefficients in x, lowest first."""
    prev, cur = [], [Fraction(1)]
    for j in range(n // 2):
        gamma = printed_gamma(j, n, beta) if j else Fraction(0)
        new = [Fraction(0)] + cur
        for i, c in enumerate(prev):
            new[i] -= gamma * c
        prev, cur = cur, new
    return cur
