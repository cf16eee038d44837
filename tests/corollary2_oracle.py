"""The Gamma form of Corollary 2 in 40-digit floats: the route that
critpoly.verify.check_corollary2 replaced by an identity in Q[s], kept as a
cross-check of that identity at sample points."""
from fractions import Fraction

import mpmath

from critpoly.construct import p_beta

# a private context, so that the caller's global mpmath precision cannot
# change a result
mp = mpmath.MPContext()
mp.dps = 40


def corollary2_rel_err(n: int, s: Fraction) -> float:
    """The relative distance of 2 (n+s) / ((n+1)(n+2))
    Gamma((n+s)/2) / Gamma((s+eps)/2) [1 - Gamma(-(n+s)/2)
    Gamma((n+3-s)/2) / (Gamma((1-s)/2) Gamma(1-s/2))] from p_n(s; 0), at
    a rational s that puts no Gamma argument at a pole."""
    exact = p_beta(n, Fraction(0)).poly(s)
    sm = mp.mpf(s.numerator) / s.denominator
    bracket = 1 - (mp.gamma(-(n + sm) / 2) * mp.gamma((n + 3 - sm) / 2)
                   / (mp.gamma((1 - sm) / 2) * mp.gamma(1 - sm / 2)))
    val = (2 * (n + sm) / ((n + 1) * (n + 2))
           * mp.gamma((n + sm) / 2) / mp.gamma((sm + n % 2) / 2) * bracket)
    want = mp.mpf(exact.numerator) / exact.denominator
    return float(abs(val - want) / abs(want))
