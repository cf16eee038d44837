"""Floating-point oracle: Gauss-Jacobi quadrature of the defining Mellin
integrals (exact for their polynomial integrands), Gamma-form closed values,
and the generating-function checks that cannot be made exact."""
from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath

from .construct import MellinClosedForm, mellin_T_closed, mellin_closed
from .errors import (ConvergenceMarginViolated, InvalidParameters,
                     ToleranceNotMet)
from .poly import Poly
from .rat import as_rat

_QUAD_DPS = 30

# A private context whose precision is set here once and never changed: the
# global mpmath precision is shared by every thread, and a `workdps` block in
# one thread can restore it to 15 digits under another's running block.
mp = mpmath.MPContext()
mp.dps = _QUAD_DPS

# A Gauss-Jacobi node is seeded in float to within _SEED_WIDTH, from where
# Newton's method takes two or three steps to reach a step below
# _NEWTON_STEP, 256 units in the last place of a node near 1; it gets
# _NEWTON_CAP.
_SEED_WIDTH = 2.0 ** -50
_NEWTON_STEP = mp.mpf(2) ** (8 - mp.prec)
_NEWTON_CAP = 8


@dataclass(frozen=True)
class QuadResult:
    """``magnitude`` is the rule's sum of |w_i P(y_i)|, the size of the
    terms that make up ``value``: rounding errors scale with it, and it is
    positive where ``value`` vanishes."""
    value: float
    error_estimate: float
    evaluations: int
    magnitude: float


def _poly_at(p: Poly, x):
    acc = mp.mpf(0)
    for c in reversed(p.coeffs):
        acc = acc * x + mp.mpf(c.numerator) / c.denominator
    return acc


def _gegenbauer_at(n: int, lam, x):
    # three-term recurrence; stable enough for the n <= ~40 used here
    if n == 0:
        return mp.mpf(1)
    a, b = mp.mpf(1), 2 * lam * x
    for m in range(2, n + 1):
        a, b = b, (2 * (lam + m - 1) * x * b - (2 * lam + m - 2) * a) / m
    return b


def _chebyshev_t_at(n: int, x):
    if n == 0:
        return mp.mpf(1)
    a, b = mp.mpf(1), x
    for _ in range(2, n + 1):
        a, b = b, 2 * x * b - a
    return b


def _jacobi_recurrence(alpha, beta, m: int):
    """Coefficients a_0..a_(m-1) and b_0..b_(m-1) of the monic polynomials
    orthogonal for y^beta (1-y)^alpha on [0, 1], p_(-1) = 0, p_0 = 1,
    p_(k+1)(y) = (y - a_k) p_k(y) - b_k p_(k-1)(y); b_0 = 0.

    a_0 and b_1 are the mean and variance of Beta(beta + 1, alpha + 1): the
    general formulas are 0/0 there at alpha + beta = 0 and -1."""
    ab = alpha + beta
    a = [(beta + 1) / (ab + 2)]
    b = [mp.zero, (alpha + 1) * (beta + 1) / ((ab + 2) ** 2 * (ab + 3))]
    d = beta * beta - alpha * alpha
    for k in range(1, m):
        c = 2 * k + ab
        a.append((1 + d / (c * (c + 2))) / 2)
        if k > 1:
            b.append(k * (k + alpha) * (k + beta) * (k + ab)
                     / (c * c * (c - 1) * (c + 1)))
    return a, b[:m]


def _float_nodes(a, b) -> list:
    """The eigenvalues of the Jacobi matrix (diagonal a, off-diagonal
    sqrt(b_k)), which are the zeros of p_m, in float by bisection: J - x I
    has as many negative pivots as J has eigenvalues below x."""
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
    nodes = []
    for i in range(len(af)):
        top = hi
        while top - lo > _SEED_WIDTH:
            mid = (lo + top) / 2
            if below(mid) > i:
                top = mid
            else:
                lo = mid
        nodes.append((lo + top) / 2)
    return nodes


def _gauss_rule(a, b, mu0) -> list:
    """The (node, weight) pairs of the Gauss rule whose nodes are the zeros
    of p_m, m = len(a): each float seed is polished by Newton's method on p_m
    and weighted by its Christoffel number mu0 / Sum_j p_j(y)^2 / (b_1..b_j).

    A node that leaves (0, 1) or is still moving by _NEWTON_STEP after
    _NEWTON_CAP steps raises ToleranceNotMet."""
    rule = []
    for y in _float_nodes(a, b):
        y = mp.mpf(y)
        for _ in range(_NEWTON_CAP):
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
            if abs(step) < _NEWTON_STEP:
                break
        else:
            raise ToleranceNotMet(
                f"Newton's method on the Gauss-Jacobi node near "
                f"{mp.nstr(y, 5)} did not converge in {_NEWTON_CAP} steps")
        p_prev, p, norm, christoffel = mp.one, y - a[0], mp.one, mp.one
        for k in range(1, len(a)):
            norm *= b[k]
            christoffel += p * p / norm
            p_prev, p = p, (y - a[k]) * p - b[k] * p_prev
        rule.append((y, mu0 / christoffel))
    return rule


def _gauss_jacobi_rules(alpha, beta, m: int) -> tuple:
    """The Gauss rules of m and m + 1 nodes for y^beta (1-y)^alpha on
    [0, 1] (alpha, beta > -1 mpfs); the m-node rule takes a prefix of the
    other's recurrence coefficients."""
    a, b = _jacobi_recurrence(alpha, beta, m + 1)
    mu0 = mp.beta(beta + 1, alpha + 1)
    return _gauss_rule(a[:m], b[:m], mu0), _gauss_rule(a, b, mu0)


def _gauss_jacobi(f, degree: int, alpha, beta, tol: float) -> QuadResult:
    """Int_0^1 y^beta (1-y)^alpha f(y) dy for f a polynomial of the stated
    degree (alpha, beta > -1).

    The Gauss-Jacobi rules with m = degree//2 + 1 and m + 1 nodes are both
    exact for such an f, so they differ only by rounding; their difference
    is the error estimate. An f of higher degree, or not a polynomial at
    all, shows up as a difference above tolerance.

    Each rule is built on [0, 1] from the weight's three-term recurrence:
    nodes seeded in float by Sturm-count bisection on the Jacobi matrix and
    polished by Newton's method on the orthogonal polynomial, weights as
    Christoffel numbers (Gautschi, Orthogonal Polynomials: Computation and
    Approximation, 2004, sec. 3.1; Hale and Townsend, SIAM J. Sci. Comput.
    35, 2013)."""
    values, count = [], 0
    for rule in _gauss_jacobi_rules(mp.mpf(alpha), mp.mpf(beta),
                                    degree // 2 + 1):
        terms = [w * f(y) for y, w in rule]
        values.append(mp.fsum(terms))
        count += len(rule)
    value, err = float(values[1]), float(abs(values[1] - values[0]))
    if not err <= tol * max(1.0, abs(value)):
        raise ToleranceNotMet(
            f"quadrature error estimate {err} exceeds {tol}")
    return QuadResult(value, err, count,
                      float(mp.fsum(abs(t) for t in terms)))


def _mellin_even_weight(g, degree: int, alpha, s, tol: float) -> QuadResult:
    """Int_0^1 x^(s-1) (1-x^2)^alpha g(x) dx for g a polynomial of the stated
    degree and parity: in y = x^2 it is Int_0^1 y^beta (1-y)^alpha P(y) dy,
    beta = (s - 2 + eps)/2, eps = degree mod 2, P(y) = g(sqrt y) / (2
    sqrt(y)^eps) of degree floor(degree/2)."""
    eps = degree % 2

    def P(y):
        x = mp.sqrt(y)
        return g(x) / (2 * x) if eps else g(x) / 2

    return _gauss_jacobi(P, degree // 2, alpha, (mp.mpf(s) - 2 + eps) / 2,
                         tol)


def _check_s(n: int, s: float) -> None:
    smin = -(n % 2)
    if not s > smin:
        raise InvalidParameters(f"need s > {smin} for n = {n}, got s = {s}")


def quad_mellin_gegenbauer(n: int, lam: float, s: float,
                           tol: float = 1e-12) -> QuadResult:
    """Int_0^1 x^(s-1) C_n^lam(x) (1-x^2)^(lam/2 - 3/4) dx by Gauss-Jacobi
    quadrature in y = x^2, exact for this integrand up to rounding."""
    if lam <= -0.5 or lam == 0:
        raise InvalidParameters(f"need lambda > -1/2, lambda != 0, got {lam}")
    _check_s(n, s)
    lam_m = mp.mpf(lam)
    return _mellin_even_weight(lambda x: _gegenbauer_at(n, lam_m, x), n,
                               lam_m / 2 - mp.mpf(3) / 4, s, tol)


def quad_mellin_T(n: int, s: float, tol: float = 1e-12) -> QuadResult:
    """Int_0^1 x^(s-1) T_n(x) (1-x^2)^(1/2) dx, the same way."""
    _check_s(n, s)
    return _mellin_even_weight(lambda x: _chebyshev_t_at(n, x), n,
                               mp.mpf(1) / 2, s, tol)


def closed_form_value(form: MellinClosedForm, s) -> float:
    """Evaluate a Gamma-form Mellin transform at float s via mp.gamma."""
    s_m = mp.mpf(s)
    c = mp.mpf(form.const_rat.numerator) / form.const_rat.denominator
    g1 = mp.gamma(mp.mpf(form.const_gamma_arg.numerator)
                  / form.const_gamma_arg.denominator)
    num = mp.gamma((s_m + form.eps) / 2)
    den = mp.gamma((s_m + mp.mpf(form.den_offset.numerator)
                    / form.den_offset.denominator) / 2)
    return float(c * g1 * num / den * _poly_at(form.factor, s_m))


def _comparison_row(n: int, lam, s: float, q: QuadResult,
                    form: MellinClosedForm) -> dict:
    c = closed_form_value(form, s)
    abs_err = abs(q.value - c)
    # relative to the size of the quadrature's terms, which stays positive
    # at a zero of the polynomial factor, where |c| cannot serve
    rel_err = abs_err / q.magnitude
    return {"n": n, "lambda": lam, "s": s, "quadrature": q.value,
            "closed_form": c, "abs_err": abs_err, "rel_err": rel_err,
            "error_estimate": q.error_estimate,
            "evaluations": q.evaluations}


def compare_mellin(n: int, lam, s: float, tol: float = 1e-12) -> dict:
    """One CSV-shaped row: quadrature vs closed form."""
    q = quad_mellin_gegenbauer(n, float(lam), s, tol)
    return _comparison_row(n, float(lam), s, q, mellin_closed(n, lam))


def compare_mellin_T(n: int, s: float, tol: float = 1e-12) -> dict:
    """The same row for the first-kind (T) transform."""
    return _comparison_row(n, None, s, quad_mellin_T(n, s, tol),
                           mellin_T_closed(n))


# ---------------------------------------------------------------------------
# generating functions
# ---------------------------------------------------------------------------

def _hyp_partial(nums, dens, z, max_terms=4000):
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


def _z_of(t):
    return 4 * t * t / (1 + t * t) ** 2


def _genfun_rhs_general(lam, s, t):
    """Right side of the general-parameter generating function. The printed
    form carries spurious Gamma(lam) and Gamma(lam+1) prefactors (at t = 0 it
    would equal Gamma(lam) * M_0(s)); they are corrected to 1 and lam."""
    z = _z_of(t)
    even = _hyp_partial([(lam + 1) / 2, lam / 2, s / 2],
                        [mp.mpf("0.5"), (s + lam) / 2 + mp.mpf("0.25")], z)
    odd = _hyp_partial([(lam + 1) / 2, 1 + lam / 2, (s + 1) / 2],
                       [mp.mpf("1.5"), (s + lam) / 2 + mp.mpf("0.75")], z)
    pre = (1 + t * t) ** (-lam) * mp.gamma(mp.mpf("0.25") + lam / 2) / 2
    return pre * (mp.gamma(s / 2) / mp.gamma((s + lam) / 2 + mp.mpf("0.25"))
                  * even
                  + 2 * t * lam / (1 + t * t)
                  * mp.gamma((s + 1) / 2)
                  / mp.gamma((s + lam) / 2 + mp.mpf("0.75")) * odd)


def _genfun_rhs_lambda1(s, t):
    z = _z_of(t)
    even = _hyp_partial([mp.mpf(1), s / 2], [(2 * s + 3) / 4], z)
    odd = _hyp_partial([mp.mpf(1), (s + 1) / 2], [(2 * s + 5) / 4], z)
    pre = mp.gamma(mp.mpf("0.75")) / (2 * (1 + t * t))
    return pre * (mp.gamma(s / 2) / mp.gamma(s / 2 + mp.mpf("0.75")) * even
                  + 2 * t / (1 + t * t) * mp.gamma((s + 1) / 2)
                  / mp.gamma(s / 2 + mp.mpf("1.25")) * odd)


def _genfun_rhs_T(s, t):
    z = _z_of(t)
    even = _hyp_partial([mp.mpf(1), s / 2], [(s + 3) / 2], z)
    odd = _hyp_partial([mp.mpf(1), (s + 1) / 2], [(s + 4) / 2], z)
    pre = mp.sqrt(mp.pi) / 4 * (1 - t * t)
    return pre * (mp.gamma(s / 2) / ((1 + t * t) * mp.gamma(s / 2 + 1.5))
                  * even
                  + 2 * t / (1 + t * t) ** 2 * mp.gamma((s + 1) / 2)
                  / mp.gamma(s / 2 + 2) * odd)


def _genfun_rhs_reexpanded(s, t, K):
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
        e = _hyp_partial([(1 - k) / mp.mpf(2), s / 2, -k / mp.mpf(2)],
                         [mp.mpf("0.5"), (2 * s + 3) / 4], w)
        o = _hyp_partial([(1 - k) / mp.mpf(2), 1 - k / mp.mpf(2),
                          (s + 1) / 2],
                         [mp.mpf("1.5"), (2 * s + 5) / 4], w) if k else 0
        piece = (g34 / 2 * (-1) ** k * t ** (2 * k)
                 * (ge * e - 2 * k / t * go * o))
        total += piece
        last = abs(piece)
    return total, last


def _series_sum(values, t):
    """Sum_k values[k] t^k with a geometric tail bound from the last ratio;
    the bound is infinite when that ratio is >= 1."""
    total = mp.mpf(0)
    terms = []
    for k, v in enumerate(values):
        term = mp.mpf(v) * t ** k
        total += term
        terms.append(abs(term))
    if len(terms) >= 2 and terms[-2] > 0:
        r = terms[-1] / terms[-2]
        tail = terms[-1] * r / (1 - r) if r < 1 else mp.inf
    else:
        tail = terms[-1] if terms else mp.mpf(0)
    return total, tail


def _within(err: float, tol: float, tail: float) -> bool:
    return math.isfinite(tail) and err <= tol + tail


def mellin_values(lam, s: float, K: int) -> list:
    """closed_form_value of M_k(lam, s) for k = 0..K, or of the first-kind
    transforms T_k(s) when lam is None: the coefficients of the series that
    genfun_check sums, which do not depend on t."""
    if lam is None:
        return [closed_form_value(mellin_T_closed(k), s)
                for k in range(K + 1)]
    lam_r = as_rat(lam)
    return [closed_form_value(mellin_closed(k, lam_r), s)
            for k in range(K + 1)]


def genfun_check(lam: float, s: float, t: float, K: int = 40,
                 tol: float = 1e-9, m_values=None, t_values=None) -> dict:
    """Compare the truncated transform series Sum_k M_k(s) t^k against every
    closed generating-function form that applies at this parameter point.

    The truncation error is bounded by a geometric tail estimate from the
    last computed term; each comparison must satisfy
    |series - closed| <= tol + tail bound, with a finite bound: a series
    whose last term ratio is >= 1 fails. ``m_values`` and ``t_values`` are
    ``mellin_values(lam, s, K)`` and ``mellin_values(None, s, K)`` when the
    caller has them already, as for several t at one (lam, s).
    """
    if abs(t) >= 0.25:
        raise ConvergenceMarginViolated(
            f"|t| = {abs(t)} outside the enforced margin |t| < 1/4")
    if not s > 0:
        raise InvalidParameters(f"need s > 0, got {s}")
    if K < 2:
        raise InvalidParameters("K must be >= 2")
    if m_values is None:
        m_values = mellin_values(lam, s, K)
    if t_values is None:
        t_values = mellin_values(None, s, K)
    if len(m_values) != K + 1 or len(t_values) != K + 1:
        raise InvalidParameters(f"need K + 1 = {K + 1} transform values")
    t_m, s_m, lam_m = mp.mpf(t), mp.mpf(s), mp.mpf(lam)
    series, tail = _series_sum(m_values, t_m)
    checks = {"general": float(_genfun_rhs_general(lam_m, s_m, t_m))}
    if lam == 1:
        checks["lambda1"] = float(_genfun_rhs_lambda1(s_m, t_m))
        if t != 0:
            reexp, _ = _genfun_rhs_reexpanded(s_m, t_m, K)
            checks["reexpanded"] = float(reexp)
    # T family is parameter-free; checked at the same (s, t)
    t_series, t_tail = _series_sum(
        [t_values[0]] + [2 * v for v in t_values[1:]], t_m)
    t_closed = float(_genfun_rhs_T(s_m, t_m))
    series_f, tail_f = float(series), float(tail)
    report = {"lambda": lam, "s": s, "t": t, "K": K,
              "series": series_f, "tail_bound": tail_f,
              "closed": checks, "errors": {}, "pass": True}
    for name, val in checks.items():
        err = abs(series_f - val)
        report["errors"][name] = err
        if not _within(err, tol, tail_f):
            report["pass"] = False
    err = abs(float(t_series) - t_closed)
    report["closed"]["chebyshev_T"] = t_closed
    report["series_T"] = float(t_series)
    report["errors"]["chebyshev_T"] = err
    if not _within(err, tol, float(t_tail)):
        report["pass"] = False
    return report


def transform_level_lemma1_check(m: int, n: int, s: float,
                                 tol: float = 1e-10) -> dict:
    """Quadrature confirmation that the composition-product integrand
    x^(s-1)(1-x^2)^(-1/4) U_(m-1)(T_n(x)) U_(n-1)(x) has the same transform
    as the single second-kind polynomial of degree mn - 1."""
    if m < 1 or n < 1:
        raise InvalidParameters("need m, n >= 1")
    if not s > 0:
        raise InvalidParameters(f"need s > 0, got {s}")

    def g(x):
        # degree mn - 1, parity mn - 1; U_k = C_k^1
        return _gegenbauer_at(m - 1, 1, _chebyshev_t_at(n, x)) \
            * _gegenbauer_at(n - 1, 1, x)

    lhs = _mellin_even_weight(g, m * n - 1, -mp.mpf(1) / 4, s, tol)
    rhs = quad_mellin_gegenbauer(m * n - 1, 1.0, s, tol)
    err = abs(lhs.value - rhs.value)
    return {"m": m, "n": n, "s": s, "lhs": lhs.value, "rhs": rhs.value,
            "abs_err": err, "pass": err <= tol * max(1.0, abs(rhs.value))}


def lemma3a_check(m: int, n: int, s: float, tol: float = 1e-10) -> dict:
    """Argument-shift identity M_n(s + m) = 2^(-m) Sum_r C(m, r)
    M_(m+n-2r)(s) for the second-kind (lambda = 1) transforms, with the
    negative-index convention M_(-1) = 0, M_(-k) = -M_(k-2)."""
    if m < 0 or n < 0:
        raise InvalidParameters("need m, n >= 0")

    def M(k: int, arg: float) -> float:
        if k == -1:
            return 0.0
        if k < -1:
            return -M(-k - 2, arg)
        return closed_form_value(mellin_closed(k, 1), arg)

    lhs = M(n, s + m)
    rhs = sum(math.comb(m, r) * M(m + n - 2 * r, s)
              for r in range(m + 1)) / 2.0 ** m
    err = abs(lhs - rhs)
    return {"m": m, "n": n, "s": s, "lhs": lhs, "rhs": rhs, "abs_err": err,
            "pass": err <= tol * max(1.0, abs(lhs))}
