"""Exact polynomial core: ring laws, real-root counting against the Sturm
oracle, the critical-line substitution and Descartes isolation."""
from fractions import Fraction
from math import comb
from operator import add, mul, sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critpoly import poly
from critpoly.construct import p_beta
from critpoly.errors import (MixedCoefficients, VariableMismatch,
                             ZeroPolynomial)
from critpoly.poly import (LineIsolation, Poly, PositiveRoots, RatFun,
                           gen_binom, half_shift, isolate_real_roots,
                           pochhammer, real_root_data, refine_root,
                           squarefree_ints, substitute_critical)
from sturm_oracle import sturm_root_data

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


def composed_shift(p: Poly, a) -> Poly:
    """p(var + a) by Horner composition over Poly objects, the route that
    the integer Taylor shift of ``Poly.shift`` replaced."""
    return p(Poly(p.variable, [Fraction(a), Fraction(1)]))


@given(polys, st.sampled_from([-2, 1, 2, 4, Fraction(1, 2),
                               Fraction(-3, 7)]))
@settings(max_examples=120, deadline=None)
def test_shift_matches_composition(p, a):
    assert p.shift(a) == composed_shift(p, a)


def test_shift_of_zero_polynomial_and_by_zero():
    p = Poly("s", [Fraction(3, 4), Fraction(-1), 2])
    for a in (-2, 1, 2, 4):
        assert Poly.zero("s").shift(a) == composed_shift(Poly.zero("s"), a) \
            == Poly.zero("s")
    assert p.shift(0) == p and p.shift(4).shift(-4) == p


@given(polys)
@settings(max_examples=60, deadline=None)
def test_json_roundtrip(p):
    assert Poly.from_json(p.to_json()) == p


def _gauss_eval(p: Poly, t: Fraction):
    """p(1/2 + it) as a pair (re, im) of Fractions, by Horner over the
    Gaussian rationals."""
    re, im = Fraction(0), Fraction(0)
    for c in reversed(p.coeffs):
        re, im = re / 2 - im * t + c, re * t + im / 2
    return re, im


@given(polys, fracs)
@settings(max_examples=100, deadline=None)
def test_substitute_critical_agrees_with_gauss_eval(p, t):
    try:
        v, parity = substitute_critical(p)
    except MixedCoefficients:
        # generic polynomials do not split; only those with the
        # reflection symmetry do
        return
    want = (v(t), Fraction(0)) if parity == "real" else (Fraction(0), v(t))
    assert _gauss_eval(p, t) == want


def test_substitute_critical_of_zero_and_constants():
    assert substitute_critical(Poly.zero("s")) == (Poly.zero("t"), "real")
    assert half_shift(Poly.zero("s")) == ([], 1)
    assert substitute_critical(Poly("s", [Fraction(-3, 7)])) == (
        Poly("t", [Fraction(-3, 7)]), "real")
    # s - 1/2 = it
    assert substitute_critical(Poly("s", [Fraction(-1, 2), Fraction(1)])) \
        == (Poly("t", [Fraction(0), Fraction(1)]), "imaginary")


@given(polys)
@settings(max_examples=60, deadline=None)
def test_half_shift_is_translation_by_one_half(p):
    a, scale = half_shift(p)
    assert scale > 0
    shifted = p.shift(Fraction(1, 2))
    assert Poly("s", [Fraction(c, scale) for c in a]) == shifted


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
    data = real_root_data(p)
    assert data.distinct_real_roots == len(set(roots))
    assert sturm_root_data(p).distinct_real_roots == len(set(roots))
    assert data.squarefree_degree == len(set(roots))


def test_sturm_ignores_complex_pairs():
    # (s^2+1)(s-2): one real root
    p = Poly("s", [Fraction(-2), Fraction(1), Fraction(-2), Fraction(1)])
    data = real_root_data(p)
    assert data.distinct_real_roots == 1
    assert sturm_root_data(p).distinct_real_roots == 1
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
    # in the second case 1 and 2 are bisection points of (0, 4), found
    # exactly, 13/10 lies between them, and the double root -1/2 counts once
    for roots, exact in (([-3, 0, 5], [0]),
                         ([Fraction(-1, 2), Fraction(-1, 2), 0, 1,
                           Fraction(13, 10), 2], [0, 1, 2])):
        p = _poly_from_roots(roots)
        boxes = isolate_real_roots(p)
        assert len(boxes) == len(set(roots))
        assert [lo for lo, hi in boxes if lo == hi] == exact
        assert all(a[1] <= b[0] for a, b in zip(boxes, boxes[1:]))
        got = [refine_root(p, lo, hi) for lo, hi in boxes]
        assert got == pytest.approx(sorted(set(roots)), abs=1e-12)


def test_refine_root_takes_only_isolating_intervals():
    p = _poly_from_roots([-3, 0, 5])
    lo, hi = isolate_real_roots(p)[-1]
    with pytest.raises(ValueError, match="not an isolating interval"):
        refine_root(p, lo, hi + 1)


def test_positive_roots_isolates_and_refines():
    # w = (x - 1/3)(x - 2/3)(x - 7)(x + 5)(x^2 + 1)
    w = Poly("x", [Fraction(1)])
    for r in (Fraction(1, 3), Fraction(2, 3), Fraction(7), Fraction(-5)):
        w = w * Poly("x", [-r, Fraction(1)])
    w = w * Poly("x", [Fraction(1), Fraction(0), Fraction(1)])
    ints = [int(c * 9) for c in w.coeffs]
    pos = PositiveRoots(ints)
    assert pos.reason is None and len(pos.boxes) == 3
    for (lo, hi, e), r in zip(pos.boxes, (Fraction(1, 3), Fraction(2, 3), 7)):
        assert Fraction(lo, 2 ** e) < r < Fraction(hi, 2 ** e)
        assert abs(pos.refine((lo, hi, e)) - r) < Fraction(r, 2 ** 56)
    # (3x - 1)^2
    assert PositiveRoots([1, -6, 9]).reason == "depth guard"
    # (3x - 1)(3 * 2^100 x - 2^100 - 3) is squarefree, with roots 2^-100
    # apart, deeper than the guard: the bisection goes on and isolates both
    big = 2 ** 100
    pos = PositiveRoots([big + 3, -6 * big - 9, 9 * big])
    assert pos.reason is None and len(pos.boxes) == 2
    for (lo, hi, e), r in zip(pos.boxes, (Fraction(1, 3),
                                          Fraction(1, 3) + Fraction(1, big))):
        assert Fraction(lo, 2 ** e) < r < Fraction(hi, 2 ** e)
    # (2x - 1)(x - 1): x = 1 is the first split point of (0, 2), found
    # exactly; x = 1/2 is isolated in (0, 1)
    pos = PositiveRoots([1, -3, 2])
    assert pos.reason is None and pos.boxes == [(0, 1, 0), (1, 1, 0)]
    assert [pos.refine(box) for box in pos.boxes] == [Fraction(1, 2), 1]
    # (x - 1)^2 (x - 3): the double root sits on the split point 1
    assert PositiveRoots([-3, 7, -5, 1]).boxes == [(1, 1, 0), (2, 4, 0)]
    # (x - 1)(x - 2)(10x - 13): both ends of the box of 13/10 are roots
    pos = PositiveRoots([-26, 59, -43, 10])
    assert pos.boxes == [(1, 1, 0), (1, 2, 0), (2, 2, 0)]
    assert pos.refine(pos.boxes[1]) == pytest.approx(1.3, rel=1e-16)
    assert PositiveRoots([0, 1, 1]).reason == "w(0)=0"


def test_line_isolation_roots():
    # p(s) = (s - 1/2)((s - 1/2)^2 + 4/9)((s - 1/2)^2 + 25): v = t (4/9 - t^2)
    # (25 - t^2) up to a constant, with roots 0, +-2/3, +-5
    u = Poly("s", [Fraction(-1, 2), Fraction(1)])
    p = u * (u * u + Fraction(4, 9)) * (u * u + 25)
    iso = LineIsolation(p)
    assert iso.fallback is None and iso.odd
    assert iso.w == [100, -229, 9]
    assert iso.roots() == pytest.approx([-5, -2 / 3, 0, 2 / 3, 5],
                                        rel=1e-15)
    assert iso.method == "descartes" and iso.distinct_real_roots == 5
    # a double zero at s = 1/2: v = t^2, w = x
    iso = LineIsolation(u * u)
    assert iso.fallback == "w(0)=0" and iso.method == "squarefree"
    assert (iso.v_degree, iso.distinct_real_roots) == (2, 1)
    assert iso.passed and not iso.squarefree and iso.roots() == [0.0]
    # w = (x - 1)(x - 2)(10x - 13), with the roots 1 and 2 at split points
    iso = LineIsolation((u * u + 1) * (u * u + 2) * (10 * u * u + 13))
    assert iso.fallback is None and iso.w == [26, -59, 43, -10]
    half = [1, 1.3 ** 0.5, 2 ** 0.5]
    assert iso.roots() == pytest.approx([-t for t in half[::-1]] + half,
                                        rel=1e-15)
    # zeros 1/2 +- 1, off the line
    iso = LineIsolation(u * u - 1)
    assert iso.fallback == "0 positive roots of w for degree 1"
    assert not iso.passed and iso.squarefree and iso.roots() == []
    with pytest.raises(ZeroPolynomial):
        LineIsolation(Poly.zero("s"))


def root_window_problems(v, roots) -> list:
    """Each listed t must be a root of v: v changes sign across a window
    around t too narrow to hold a neighbouring root."""
    problems = []
    windows = []
    for t in roots:
        delta = Fraction(1, 10 ** 9) * max(1, abs(Fraction(t)))
        lo, hi = Fraction(t) - delta, Fraction(t) + delta
        if v(lo) * v(hi) >= 0:
            problems.append(f"no sign change of v around t={t}")
        windows.append((lo, hi))
    windows.sort()
    if any(a[1] >= b[0] for a, b in zip(windows, windows[1:])):
        problems.append("listed roots are not distinct")
    return problems


def test_refined_roots_pass_the_window_check(monkeypatch):
    p = p_beta(40, -3).poly
    v, _ = substitute_critical(p)
    assert root_window_problems(v, LineIsolation(p).roots()) == []
    assert root_window_problems(v, real_root_data(v).roots()) == []
    # a refinement stopped at 2^-8 of the lower end
    monkeypatch.setattr(poly, "REFINE_BITS", 8)
    assert root_window_problems(v, LineIsolation(p).roots())
    assert root_window_problems(v, real_root_data(v).roots())
    monkeypatch.undo()
    # a refinement that returns the next point beyond the upper end
    refine = PositiveRoots.refine
    monkeypatch.setattr(PositiveRoots, "refine", lambda self, box: (
        refine(self, box) + Fraction(box[1] - box[0], 1 << box[2])))
    assert root_window_problems(v, LineIsolation(p).roots())
    assert root_window_problems(v, real_root_data(v).roots())


@given(st.integers(min_value=0, max_value=8))
def test_gen_binom_pochhammer_identity(k):
    # C(a, k) * k! == (a-k+1)_k as polynomials in a
    a = Poly.var("a")
    lhs = gen_binom(a, k) * _factorial(k)
    assert lhs == pochhammer(a - (k - 1), k)


def test_gen_binom_is_exact_for_int_arguments():
    big = gen_binom(10 ** 20, 3)
    assert big == comb(10 ** 20, 3) and isinstance(big, int)
    assert gen_binom(5, 2) == 10 and isinstance(gen_binom(5, 2), int)
    assert gen_binom(-4, 3) == -20


def _factorial(k):
    out = 1
    for j in range(2, k + 1):
        out *= j
    return out


def test_squarefree_part():
    # (s - 2)^3 (s - 7) over 5, and -(2s - 1)^2 (3s + 1): primitive, with a
    # positive leading coefficient
    p = _poly_from_roots([2, 2, 2, 7]) / 5
    assert squarefree_ints(p.ints) == [14, -9, 1]
    assert squarefree_ints([-1, 1, 8, -12]) == [-1, -1, 6]
    assert squarefree_ints([-4]) == [1]


def test_ratfun_is_a_record_that_evaluates():
    s = Poly.var("s")
    q = RatFun(s * s - 4, s * s - 3 * s + 2)
    # the pair is kept as given: (s - 2) is not cancelled
    assert q.num.degree == q.den.degree == 2
    assert q(Fraction(5)) == Fraction(7, 4)
    with pytest.raises(ZeroDivisionError):
        q(Fraction(1))


def test_polys_in_two_variables_do_not_mix():
    s, t = Poly.var("s"), Poly.var("t")
    for op in (add, sub, mul):
        with pytest.raises(VariableMismatch):
            op(s + 1, t + 1)
    # a Poly divides by scalars only
    with pytest.raises(TypeError):
        (s + 1) / (s + 1)


def test_hash_agrees_with_eq():
    # equal objects must hash alike: constants equal their value, and the
    # zero polynomial is equal in every variable
    assert Poly.zero("s") == Poly.zero("t") == 0
    assert Poly.constant("s", 3) == 3 == Poly.constant("s", Fraction(3))
    assert len({Poly.constant("s", 3), Fraction(3), 3}) == 1
    assert len({Poly.zero("s"), Poly.zero("t"), 0, Fraction(0)}) == 1
    s = Poly.var("s")
    assert hash(s * s - 1) == hash(Poly("s", [-1, 0, 1]))


def test_composition_is_a_poly_in_the_inner_variable():
    y = Poly.var("y")
    for p in (Poly.constant("x", 3), Poly.zero("x")):
        out = p(y)
        assert isinstance(out, Poly) and out.variable == "y", out
        assert out == p.coeff(0)
    assert Poly("x", [1, 2])(y + 1) == Poly("y", [3, 2])


def test_integer_form_is_in_lowest_terms():
    want = Poly("x", [Fraction(1, 3), Fraction(2, 3)])
    for ints, den in (([2, 4], 6), ([-2, -4], -6), ([1, 2, 0, 0], 3)):
        p = Poly.from_ints("x", ints, den)
        assert p == want and hash(p) == hash(want), (ints, den)
        assert (p.ints, p.den) == ((1, 2), 3)
    assert want.coeffs == (Fraction(1, 3), Fraction(2, 3))
    zero = Poly.from_ints("x", [0, 0], 5)
    assert (zero.ints, zero.den) == ((), 1)
    # a constant still hashes as its value
    assert hash(Poly.from_ints("x", [-4], 6)) == hash(Fraction(-2, 3))


def test_division_by_zero_raises():
    x = Poly.var("x")
    for zero in (0, Fraction(0)):
        with pytest.raises(ZeroDivisionError):
            x / zero
    with pytest.raises(ZeroDivisionError):
        Poly.from_ints("x", [1, 2], 0)
    with pytest.raises(ZeroDivisionError):
        Poly.from_ints("x", [], 0)
