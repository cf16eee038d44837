"""The Mellin comparison row with mpf parameters, as critpoly.quadrature
computed it before lambda and s were read as exact rationals: the reference
for the Beta form of the closed value and for the rules built from one
recurrence conversion.

- closed_form_value: const_rat Gamma(const_gamma_arg) Gamma((s + eps)/2)
  / Gamma((s + den_offset)/2) factor(s) from three mp.gamma calls and an
  mpf Horner of the factor (poly_at).
- quadrature: lambda, alpha and beta as binary mpfs, read into the integer
  recurrences through their dyadic integers; each Gauss rule converting its
  own recurrence ratios; mu0 = mp.beta(beta + 1, alpha + 1).

The per-node loops that did not change (the bracket tree, the Newton and
Christoffel loops, the integrand recurrences) are quadrature's own.

mpf_rounded_row is the comparison row with the roundings that came before
each output float was one correctly rounded integer ratio: on the same
exact rule sums and closed-form rationals, each is taken to an mpf and
multiplied by mu0 at the quadrature's 103 bits, then passed to float()."""
import math
from fractions import Fraction

from critpoly import quadrature
from critpoly.construct import MellinClosedForm, mellin_T_closed, mellin_closed
from critpoly.errors import ToleranceNotMet
from critpoly.rat import as_rat

mp = quadrature.mp


def poly_at(p, x):
    acc = mp.mpf(0)
    for c in reversed(p.ints):
        acc = acc * x + c
    return acc / p.den


def closed_form_value(form: MellinClosedForm, s) -> float:
    s_m = mp.mpf(s)
    c = mp.mpf(form.const_rat.numerator) / form.const_rat.denominator
    g1 = mp.gamma(mp.mpf(form.const_gamma_arg.numerator)
                  / form.const_gamma_arg.denominator)
    num = mp.gamma((s_m + form.eps) / 2)
    den = mp.gamma((s_m + mp.mpf(form.den_offset.numerator)
                    / form.den_offset.denominator) / 2)
    return float(c * g1 * num / den * poly_at(form.factor, s_m))


def dyadic(v) -> tuple:
    """The integers num, den, den a power of 2, with num / den equal to the
    finite mpf v."""
    sign, man, exp, _ = v._mpf_
    man = -man if sign else man
    return (man << exp, 1) if exp >= 0 else (man, 1 << -exp)


def jacobi_recurrence(alpha, beta, m: int):
    """quadrature._jacobi_recurrence on the dyadic integers of the mpfs
    alpha and beta."""
    (na, da), (nb, db) = dyadic(alpha), dyadic(beta)
    d = max(da, db)
    A, B = na * (d // da), nb * (d // db)
    S = A + B
    a = [(B + d, S + 2 * d)]
    b = [(0, 1), ((A + d) * (B + d) * d, (S + 2 * d) ** 2 * (S + 3 * d))]
    for k in range(1, m):
        C, K = 2 * k * d + S, k * d
        a.append((C * (C + 2 * d) + B * B - A * A, 2 * C * (C + 2 * d)))
        if k > 1:
            b.append((K * (K + A) * (K + B) * (K + S),
                      C * C * (C - d) * (C + d)))
    return a, b[:m]


def gauss_rule(a, b) -> list:
    """The (node, Christoffel sum) pairs of one rule, its ratios converted
    here (sqrt(b_m) taken as 1); quadrature._gauss_rule without its
    checks."""
    w = quadrature._FIXED_BITS
    one = 1 << w
    roots = [0] + [math.isqrt((p << 2 * w) // q) for p, q in b[1:]] + [one]
    steps = [(quadrature._ratio(p, q, w), (one << w) // r1, (r0 << w) // r1)
             for (p, q), r0, r1 in zip(a, roots, roots[1:])]
    rule = []
    for lo, hi in quadrature._float_nodes([p / q for p, q in a],
                                          [p / q for p, q in b]):
        y = int(math.ldexp((lo + hi) / 2, w))
        for _ in range(quadrature._NEWTON_CAP):
            pt_prev, pt, d_prev, d = 0, one, 0, 0
            for ak, u, v in steps:
                t = u * (y - ak) >> w
                pt_prev, pt, d_prev, d = (
                    pt, (t * pt - v * pt_prev) >> w,
                    d, (u * pt + t * d - v * d_prev) >> w)
            step = (pt << w) // d
            y -= step
            if abs(step) << (mp.prec - 8) < one:
                break
        pt_prev, pt, christoffel = 0, one, 0
        for ak, u, v in steps[:-1]:
            christoffel += pt * pt >> w
            pt_prev, pt = pt, ((u * (y - ak) >> w) * pt - v * pt_prev) >> w
        rule.append((y, christoffel + (pt * pt >> w)))
    return rule


def quadrature_row(n: int, lam, s: float) -> tuple:
    """(value, error estimate) of the Gegenbauer quadrature at the float
    lam, or of the T quadrature when lam is None."""
    w, eps = quadrature._FIXED_BITS, n % 2
    if lam is None:
        alpha, g = mp.mpf(1) / 2, quadrature._chebyshev_t_fixed(n)
    else:
        lam_m = mp.mpf(lam)
        num, den = dyadic(lam_m)
        ks = range(1, n + 1)
        c1 = [quadrature._ratio(2 * (num + (k - 1) * den), k * den, w)
              for k in ks]
        c2 = [quadrature._ratio(2 * num + (k - 2) * den, k * den, w)
              for k in ks]
        alpha = lam_m / 2 - mp.mpf(3) / 4

        def g(x):
            return quadrature._recurrence_at(c1, c2, x, w)
    beta = (mp.mpf(s) - 2 + eps) / 2
    f = quadrature._mellin_integrand(g, eps)
    m = n // 2 // 2 + 1
    a, b = jacobi_recurrence(alpha, beta, m + 1)
    sums = []
    for rule in (gauss_rule(a[:m], b[:m]), gauss_rule(a, b)):
        sums.append(sum((f(y) << w) // christoffel for y, christoffel in rule))
    mu0 = mp.beta(beta + 1, alpha + 1)
    return (float(mu0 * mp.mpf((sums[1], -w))),
            float(mu0 * mp.mpf((abs(sums[1] - sums[0]), -w))))


def mpf_rounded_row(n: int, lam, s: float, tol: float = 1e-12) -> dict:
    """compare_mellin(n, lam, s, tol), or compare_mellin_T(n, s, tol) when
    lam is None, with every output float rounded as float(mu0 * mpf(...)):
    the rule sums of quadrature's rules and integrands, and the closed
    form's quadrature._closed_ratio."""
    w, eps = quadrature._FIXED_BITS, n % 2
    if lam is None:
        alpha, form = Fraction(1, 2), mellin_T_closed(n)
        g = quadrature._chebyshev_t_fixed(n)
    else:
        lam = as_rat(lam)
        alpha, form = lam / 2 - Fraction(3, 4), mellin_closed(n, lam)
        g = quadrature._gegenbauer_fixed(n, lam)
    beta = (Fraction(s) - 2 + eps) / 2
    A, B, d = quadrature._over_lcm(alpha.numerator, alpha.denominator,
                                   beta.numerator, beta.denominator)
    f = quadrature._mellin_integrand(g, eps)
    m, sums, count = n // 4 + 1, [], 0
    for k in (m, m + 1):
        rule = quadrature._gauss_jacobi_rule(A, B, d, k)
        terms = [(f(y) << w) // christoffel for y, christoffel in rule]
        sums.append(sum(terms))
        count += len(rule)
    mu0 = quadrature._beta(B + d, A + d, d)
    value = float(mu0 * mp.mpf((sums[1], -w)))
    err = float(mu0 * mp.mpf((abs(sums[1] - sums[0]), -w)))
    if not err <= tol * max(1.0, abs(value)):
        raise ToleranceNotMet(f"quadrature error estimate {err} exceeds {tol}")
    magnitude = float(mu0 * mp.mpf((sum(map(abs, terms)), -w)))
    num, den = quadrature._closed_ratio(
        quadrature._beta_shape(form, alpha), s)
    closed = float(mu0 * (mp.mpf(num) / den))
    if not magnitude > 0:
        raise ToleranceNotMet("the quadrature terms underflow")
    abs_err = abs(value - closed)
    return {"n": n, "lambda": None if lam is None else float(lam), "s": s,
            "quadrature": value, "closed_form": closed, "abs_err": abs_err,
            "rel_err": abs_err / magnitude, "error_estimate": err,
            "evaluations": count}
