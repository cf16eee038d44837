"""Exact polynomial core: ring laws, Sturm counting, and the critical-line
substitution."""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critpoly.errors import MixedCoefficients, ZeroPolynomial
from critpoly.poly import (Poly, RatFun, count_roots_in, gen_binom,
                           isolate_real_roots, pochhammer, real_root_data,
                           refine_root, squarefree_part, sturm_real_root_count,
                           substitute_critical)
from critpoly.rat import GaussRat

fracs = st.fractions(min_value=-5, max_value=5, max_denominator=12)
polys = st.lists(fracs, min_size=1, max_size=5).map(lambda cs: Poly("s", cs))


@given(polys, polys, polys)
@settings(max_examples=120, deadline=None)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)


@given(polys, fracs)
@settings(max_examples=80, deadline=None)
def test_horner_matches_naive(p, x):
    assert p(x) == sum(c * x ** k for k, c in enumerate(p.coeffs))


@given(polys, fracs)
@settings(max_examples=60, deadline=None)
def test_shift_is_argument_translation(p, x):
    assert p.shift(1)(x) == p(x + 1)


@given(polys)
@settings(max_examples=60, deadline=None)
def test_json_roundtrip(p):
    assert Poly.from_json(p.to_json()) == p


@given(polys, fracs)
@settings(max_examples=100, deadline=None)
def test_substitute_critical_agrees_with_gauss_eval(p, t):
    try:
        v, parity = substitute_critical(p)
    except MixedCoefficients:
        # generic polynomials do not split; only those with the
        # reflection symmetry do
        return
    z = GaussRat(Fraction(1, 2)) + GaussRat(Fraction(0), t)
    direct = GaussRat(Fraction(0))
    for c in reversed(p.coeffs):
        direct = direct * z + GaussRat(c)
    want = GaussRat(v(t)) if parity == "real" \
        else GaussRat(Fraction(0), Fraction(1)) * GaussRat(v(t))
    assert direct == want


def test_repr_writes_unit_coefficients_bare():
    s = Poly.var("s")
    assert repr((s - 2) * (s - 24)) == "s^2 - 26*s + 48"
    assert repr(-s * s + s - 1) == "-s^2 + s - 1"
    assert repr(Poly("s", [Fraction(63, 4), Fraction(-15), Fraction(15)])) \
        == "15*s^2 - 15*s + 63/4"


def _poly_from_roots(roots):
    out = Poly("s", [Fraction(1)])
    for r in roots:
        out = out * Poly("s", [Fraction(-r), Fraction(1)])
    return out


@given(st.lists(st.integers(min_value=-6, max_value=6), min_size=1,
                max_size=6))
@settings(max_examples=80, deadline=None)
def test_sturm_count_matches_known_roots(roots):
    p = _poly_from_roots(roots)
    assert sturm_real_root_count(p) == len(set(roots))


def test_sturm_ignores_complex_pairs():
    # (s^2+1)(s-2): one real root
    p = Poly("s", [Fraction(-2), Fraction(1), Fraction(-2), Fraction(1)])
    data = real_root_data(p)
    assert data.distinct_real_roots == 1
    assert data.is_squarefree


def test_root_data_on_repeated_roots():
    p = _poly_from_roots([1, 1, 3])
    data = real_root_data(p)
    assert data.degree == 3
    assert data.squarefree_degree == 2
    assert data.distinct_real_roots == 2
    # both roots are real, but the multiplicity shows up as non-squarefree
    assert data.all_roots_real()
    assert not data.is_squarefree


def test_zero_polynomial_rejected():
    with pytest.raises(ZeroPolynomial):
        real_root_data(Poly.zero("s"))


def test_isolate_and_refine():
    p = _poly_from_roots([-3, 0, 5])
    boxes = isolate_real_roots(p)
    assert len(boxes) == 3
    got = sorted(refine_root(p, lo, hi) for lo, hi in boxes)
    assert got == pytest.approx([-3.0, 0.0, 5.0], abs=1e-12)


def test_count_roots_in_window():
    p = _poly_from_roots([-1, 2, 4])
    assert count_roots_in(p, Fraction(0), Fraction(3)) == 1
    assert count_roots_in(p, Fraction(-2), Fraction(5)) == 3


@given(st.integers(min_value=0, max_value=8))
def test_gen_binom_pochhammer_identity(k):
    # C(a, k) * k! == (a-k+1)_k as polynomials in a
    a = Poly.var("a")
    lhs = gen_binom(a, k) * _factorial(k)
    assert lhs == pochhammer(a - (k - 1), k)


def _factorial(k):
    out = 1
    for j in range(2, k + 1):
        out *= j
    return out


def test_squarefree_part():
    p = _poly_from_roots([2, 2, 2, 7])
    sf = squarefree_part(p)
    assert sf.degree == 2
    assert sf(Fraction(2)) == 0 and sf(Fraction(7)) == 0


def test_ratfun_reduces():
    num = _poly_from_roots([1, 2])
    den = _poly_from_roots([2, 3])
    q = RatFun(num, den)
    assert q.num.degree == 1 and q.den.degree == 1
    assert q(Fraction(5)) == Fraction(4, 2)


def test_exact_division_raises_on_remainder():
    p = Poly("s", [Fraction(1), Fraction(1)])
    q = Poly("s", [Fraction(0), Fraction(1)])
    with pytest.raises(Exception):
        p / q
