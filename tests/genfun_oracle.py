"""The float generating-function forms that critpoly.quadrature summed
before ``genfun_check`` proved the coefficients exactly, kept as the oracle
the tests compare the exact coefficients with at the acceptance c12 points.

- hyp_partial, z_of and the four genfun_rhs_* closed forms, as quadrature
  evaluated them in its private 30-digit context: the general form with
  its printed Gamma(lam) and Gamma(lam+1) corrected to 1 and lam, the
  lambda = 1 and T forms, and the power-series re-expansion of the
  lambda = 1 form, which sums its odd series only for k >= 1.
- slow_hyp_partial and slow_genfun_rhs_reexpanded: the re-expansion
  summing its odd series at k = 0 too, where the factor 2k/t vanishes; the
  reference for skipping it.
- exact_series: Sum_(n<=K) of the exact coefficients that
  ``genfun_check`` proves, the closed forms of the transforms, evaluated
  in the same context."""
from fractions import Fraction

from critpoly import quadrature
from critpoly.construct import mellin_T_closed, mellin_closed
from critpoly.errors import ToleranceNotMet

mp = quadrature.mp


def hyp_partial(nums, dens, z, max_terms=4000):
    """Sum of a (generalized) hypergeometric series at z, stopping on
    termination or when the last term is negligible at working precision.
    Raises ToleranceNotMet when neither happens within max_terms terms."""
    term = mp.mpf(1)
    total = mp.mpf(1)
    eps = mp.mpf(10) ** (-(mp.dps - 2))
    for k in range(max_terms):
        num = mp.mpf(1)
        for a in nums:
            num *= a + k
        if num == 0:
            return total
        den = mp.mpf(k + 1)
        for b in dens:
            den *= b + k
        term = term * num / den * z
        total += term
        if abs(term) < eps * max(mp.mpf(1), abs(total)):
            return total
    raise ToleranceNotMet(
        f"series with numerator parameters {[str(a) for a in nums]} and "
        f"denominator parameters {[str(b) for b in dens]} at z = {z} "
        f"neither terminates nor converges within {max_terms} terms")


def z_of(t):
    return 4 * t * t / (1 + t * t) ** 2


def genfun_rhs_general(lam, s, t):
    """Right side of the general-parameter generating function. The printed
    form carries spurious Gamma(lam) and Gamma(lam+1) prefactors (at t = 0 it
    would equal Gamma(lam) * M_0(s)); they are corrected to 1 and lam."""
    z = z_of(t)
    even = hyp_partial([(lam + 1) / 2, lam / 2, s / 2],
                        [mp.mpf("0.5"), (s + lam) / 2 + mp.mpf("0.25")], z)
    odd = hyp_partial([(lam + 1) / 2, 1 + lam / 2, (s + 1) / 2],
                       [mp.mpf("1.5"), (s + lam) / 2 + mp.mpf("0.75")], z)
    pre = (1 + t * t) ** (-lam) * mp.gamma(mp.mpf("0.25") + lam / 2) / 2
    return pre * (mp.gamma(s / 2) / mp.gamma((s + lam) / 2 + mp.mpf("0.25"))
                  * even
                  + 2 * t * lam / (1 + t * t)
                  * mp.gamma((s + 1) / 2)
                  / mp.gamma((s + lam) / 2 + mp.mpf("0.75")) * odd)


def genfun_rhs_lambda1(s, t):
    z = z_of(t)
    even = hyp_partial([mp.mpf(1), s / 2], [(2 * s + 3) / 4], z)
    odd = hyp_partial([mp.mpf(1), (s + 1) / 2], [(2 * s + 5) / 4], z)
    pre = mp.gamma(mp.mpf("0.75")) / (2 * (1 + t * t))
    return pre * (mp.gamma(s / 2) / mp.gamma(s / 2 + mp.mpf("0.75")) * even
                  + 2 * t / (1 + t * t) * mp.gamma((s + 1) / 2)
                  / mp.gamma(s / 2 + mp.mpf("1.25")) * odd)


def genfun_rhs_T(s, t):
    z = z_of(t)
    even = hyp_partial([mp.mpf(1), s / 2], [(s + 3) / 2], z)
    odd = hyp_partial([mp.mpf(1), (s + 1) / 2], [(s + 4) / 2], z)
    pre = mp.sqrt(mp.pi) / 4 * (1 - t * t)
    return pre * (mp.gamma(s / 2) / ((1 + t * t) * mp.gamma(s / 2 + 1.5))
                  * even
                  + 2 * t / (1 + t * t) ** 2 * mp.gamma((s + 1) / 2)
                  / mp.gamma(s / 2 + 2) * odd)


def genfun_rhs_reexpanded(s, t, K):
    """Power-series re-expansion of the lambda = 1 generating function in
    which each t^(2k) coefficient is a pair of terminating series at 4/t^2.
    Returns (partial sum to K, magnitude of the last added term).

    The odd series is summed only for k >= 1: its factor 2k/t vanishes at
    k = 0, where the series does not terminate and diverges at w > 1."""
    g34 = mp.gamma(mp.mpf("0.75"))
    ge = mp.gamma(s / 2) / mp.gamma(s / 2 + mp.mpf("0.75"))
    go = mp.gamma((s + 1) / 2) / mp.gamma(s / 2 + mp.mpf("1.25"))
    w = 4 / (t * t)
    total = mp.mpf(0)
    last = mp.mpf(0)
    for k in range(K + 1):
        e = hyp_partial([(1 - k) / mp.mpf(2), s / 2, -k / mp.mpf(2)],
                         [mp.mpf("0.5"), (2 * s + 3) / 4], w)
        o = hyp_partial([(1 - k) / mp.mpf(2), 1 - k / mp.mpf(2),
                          (s + 1) / 2],
                         [mp.mpf("1.5"), (2 * s + 5) / 4], w) if k else 0
        piece = (g34 / 2 * (-1) ** k * t ** (2 * k)
                 * (ge * e - 2 * k / t * go * o))
        total += piece
        last = abs(piece)
    return total, last


def slow_hyp_partial(nums, dens, z, max_terms=4000):
    term = total = mp.mpf(1)
    eps = mp.mpf(10) ** (-(mp.dps - 2))
    for k in range(max_terms):
        num = mp.mpf(1)
        for a in nums:
            num *= a + k
        if num == 0:
            return total
        den = mp.mpf(k + 1)
        for b in dens:
            den *= b + k
        term = term * num / den * z
        total += term
        if abs(term) < eps * max(mp.mpf(1), abs(total)):
            return total
    return total


def slow_genfun_rhs_reexpanded(s, t, K):
    g34 = mp.gamma(mp.mpf("0.75"))
    ge = mp.gamma(s / 2) / mp.gamma(s / 2 + mp.mpf("0.75"))
    go = mp.gamma((s + 1) / 2) / mp.gamma(s / 2 + mp.mpf("1.25"))
    w = 4 / (t * t)
    total = mp.mpf(0)
    for k in range(K + 1):
        e = slow_hyp_partial([(1 - k) / mp.mpf(2), s / 2, -k / mp.mpf(2)],
                             [mp.mpf("0.5"), (2 * s + 3) / 4], w)
        o = slow_hyp_partial([(1 - k) / mp.mpf(2), 1 - k / mp.mpf(2),
                              (s + 1) / 2],
                             [mp.mpf("1.5"), (2 * s + 5) / 4], w)
        total += (g34 / 2 * (-1) ** k * t ** (2 * k)
                  * (ge * e - 2 * k / t * go * o))
    return total


def _mpf(x: Fraction):
    return mp.mpf(x.numerator) / x.denominator


def exact_series(lam, s: Fraction, t: Fraction, K: int = 40):
    """Sum_(n<=K) M_n(s) t^n for the transforms at lam, or
    Sum_(n<=K) (1 + [n > 0]) T_n(s) t^n when lam is None, each M_n the
    closed form of ``construct.mellin_closed`` or ``mellin_T_closed`` (the
    exact coefficients that ``genfun_check`` proves) evaluated in mpf at
    the rational s."""
    total = mp.mpf(0)
    for n in range(K + 1):
        form = mellin_T_closed(n) if lam is None else mellin_closed(n, lam)
        value = (_mpf(form.const_rat * form.factor(s))
                 * mp.gamma(_mpf(form.const_gamma_arg))
                 * mp.gamma(_mpf((s + form.eps) / 2))
                 / mp.gamma(_mpf((s + form.den_offset) / 2)))
        total += (1 + (lam is None and n > 0)) * value * _mpf(t) ** n
    return total
