"""Gegenbauer/Chebyshev/Legendre constructions and the identity catalog."""
from fractions import Fraction
from math import factorial

import pytest

from critpoly import orthopoly
from critpoly.errors import IdentityFailed, InvalidLambda, InvalidParameters
from critpoly.orthopoly import (_gegenbauer_recurrence, chebyshev,
                                gegenbauer, identity_suite, legendre,
                                triangle_row_polynomial_b)
from critpoly.poly import Poly, pochhammer


@pytest.mark.parametrize("lam", [Fraction(1, 2), Fraction(1), Fraction(3, 2),
                                 Fraction(7, 3)])
def test_value_at_one(lam):
    # C_n^lam(1) = (2 lam)_n / n!
    for n in range(31):
        want = pochhammer(2 * lam, n) / factorial(n)
        assert gegenbauer(n, lam)(Fraction(1)) == want


def test_binomial_form_equals_recurrence():
    # every (n, lambda) at which the tests build a Gegenbauer polynomial
    for lam in (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2),
                Fraction(7, 3)):
        recurrence = _gegenbauer_recurrence(30, lam)
        assert len(recurrence) == 31
        for n in range(31):
            assert gegenbauer(n, lam) == recurrence[n]


def test_u_is_lambda_one():
    for n in range(25):
        assert gegenbauer(n, 1) == chebyshev("U", n)


def test_legendre_is_lambda_half():
    for n in range(20):
        assert gegenbauer(n, Fraction(1, 2)) == legendre(n)


@pytest.mark.parametrize("lam", [Fraction(1, 2), Fraction(2)])
def test_parity(lam):
    minus_x = Poly("x", [Fraction(0), Fraction(-1)])
    for n in range(12):
        c = gegenbauer(n, lam)
        reflected = c(minus_x)
        if not isinstance(reflected, Poly):
            reflected = Poly.constant("x", reflected)
        assert reflected == (c if n % 2 == 0 else -c)


def test_invalid_lambda_rejected():
    with pytest.raises(InvalidLambda):
        gegenbauer(3, 0)
    with pytest.raises(InvalidLambda):
        gegenbauer(3, Fraction(-3, 4))


def test_chebyshev_t_values():
    assert chebyshev("T", 3) == Poly("x", [Fraction(0), Fraction(-3),
                                           Fraction(0), Fraction(4)])
    assert chebyshev("U", -1).is_zero
    assert chebyshev("U", -3) == -chebyshev("U", 1)


def test_t_as_lambda_derivative_limit():
    for n in range(1, 12):
        assert chebyshev_limit_from_lambda(n) == chebyshev("T", n)


def lambda_linear_part(n: int) -> Poly:
    """The part of C_n^lambda linear in lambda, interpolated from
    ``gegenbauer`` alone: each coefficient c(lambda) has degree <= n and
    c(0) = 0 (n >= 1), so c(lambda)/lambda has degree < n and its value at
    0, the linear coefficient, is the Lagrange sum over lambda = 1..n+1."""
    nodes = [Fraction(j) for j in range(1, n + 2)]
    values = [gegenbauer(n, lam) for lam in nodes]
    out = Poly.zero("x")
    for j, (lam, c) in enumerate(zip(nodes, values)):
        weight = Fraction(1) / lam
        for k, other in enumerate(nodes):
            if k != j:
                weight *= other / (other - lam)
        out = out + c * weight
    return out


def limit_closed_form(n: int, top) -> Poly:
    """The normalized linear part with coefficient
    (-1)^r 2^(n-2r) top(n, r)! / (r! (n-2r)!) at x^(n-2r)."""
    lin = Poly.zero("x")
    for r in range(n // 2 + 1):
        lin = lin + Poly("x", [0] * (n - 2 * r) + [Fraction(
            (-1) ** r * 2 ** (n - 2 * r) * factorial(top(n, r)),
            factorial(r) * factorial(n - 2 * r))])
    return lin / lin(Fraction(1))


def chebyshev_limit_from_lambda(n: int) -> Poly:
    """T_n (n >= 1) as the part of C_n^lambda linear in lambda, divided by
    its value at x = 1. In the binomial sum of ``gegenbauer``,
    C(n-r-1+lambda, n-r) = (lambda)_(n-r) / (n-r)!, and (lambda)_k has
    linear coefficient (k-1)!, so that part has coefficient
    (-1)^r 2^(n-2r) (n-r-1)! / (r! (n-2r)!) at x^(n-2r)."""
    return limit_closed_form(n, lambda n, r: n - r - 1)


def test_lambda_limit_matches_interpolation():
    for n in range(1, 21):
        lin = lambda_linear_part(n)
        want = lin / lin(Fraction(1))
        assert chebyshev_limit_from_lambda(n) == want, n
        # (n - r)! in place of (n - r - 1)! weighs coefficient n - 2r by
        # n - r, which changes the shape once there are two terms
        wrong = limit_closed_form(n, lambda n, r: n - r)
        assert (wrong == want) is (n == 1), n


def test_b_row_polynomial_anchor():
    assert triangle_row_polynomial_b(2) == Poly("x", [Fraction(5), Fraction(5),
                                                      Fraction(1)])
    assert triangle_row_polynomial_b(0) == 1
    with pytest.raises(InvalidParameters):
        triangle_row_polynomial_b(-1)


def test_identity_suite_runs_clean():
    report = identity_suite(6)
    assert all(v > 0 for v in report.values())
    assert set(report) == {
        "composition_product", "product_linearization", "power_reduction",
        "legendre_convolution", "u_self_convolution", "parameter_addition",
        "lambda2_reduction", "b_row_substitution", "large_parameter_limit",
        "binomial_recurrence"}


def test_identity_suite_rejects_broken_gegenbauer_form(monkeypatch):
    def broken(n, lam):
        out = _gegenbauer_recurrence(n, lam)
        out[3] = out[3] + Poly.var("x")
        return out

    monkeypatch.setattr(orthopoly, "_gegenbauer_recurrence", broken)
    with pytest.raises(IdentityFailed,
                       match="binomial_recurrence failed at n=3,"):
        identity_suite(4)
