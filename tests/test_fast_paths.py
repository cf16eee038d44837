"""The integer fast paths against the Fraction routes they replaced, on
shared grids: the O(m^2) builders coefficient for coefficient against the
O(m^3) constructions, and the integer critical-line kernel, its reflection
check, the Descartes certificate and its roots against the Gaussian-rational
substitution, the composed reflection p(1-s) and the Sturm oracle in
sturm_oracle.py; and the fraction-free Favard chain against the Fraction
chain of the printed recurrence in favard_oracle.py, and the Favard
certificate against Descartes on the bare polynomial; and the Bernstein-basis isolation and its quadratic
refinement against the Taylor-shift bisection in taylor_oracle.py; and
the integer kernels of the Poly product, the Pochhammer symbol and the
3F2(1) sum against the Fraction loops in fraction_oracle.py, and the
integer squarefree part against the Fraction Euclid of sturm_oracle.py; and
the ring operations, shifts and evaluations of ``Poly``'s
integer list over one denominator against Fraction arithmetic done
coefficient by coefficient; and
the Gauss-Jacobi rules built from the three-term recurrence against mpmath's
eigen-solver, their fixed-point Newton and Christoffel loops and the
fixed-point integrand recurrences against the mpf loops, and their integer
recurrence ratios and bracket tree against the mpf recurrence and the
per-node bisection, in gauss_oracle.py; and the comparison row's closed
value as a rational multiple of the quadrature's mu0, and its quadrature on
exact lambda and s, against the row with mpf parameters and three-Gamma
closed value in mellin_oracle.py, and each float of the row, one integer
ratio rounded once, against the mpf products that rounded the same
integers before, with the rounding itself against exact nearest-float
comparisons; and the float re-expanded
lambda = 1 generating function of genfun_oracle.py against its twin there
that sums its odd series at k = 0 too.

The slow routes below are test-local copies of the earlier constructions:
the S32 binomial sum with one Poly term per r, the 3F2 kernel summing a
fresh Pochhammer polynomial per k with c_k from four Pochhammer symbols,
the T-factor recurrence rerun from 0 for every n, the Horner expansion
of p(1/2 + it) over Gaussian rationals, and the Gegenbauer binomial sum
with each x^k built by Poly powers.
"""
import math
from fractions import Fraction
from itertools import zip_longest
from math import comb, factorial, gcd

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import favard_oracle
import fraction_oracle
import gauss_oracle
import genfun_oracle
import mellin_oracle
from critpoly import construct, hyp3f2, poly, quadrature
from critpoly.construct import (S, mellin_T_closed, mellin_closed, p_beta,
                                p_hyp, p_s32)
from critpoly.errors import (DenominatorPole, InvalidParameters,
                             NonTerminating, ToleranceNotMet)
from critpoly.orthopoly import gegenbauer
from critpoly.poly import (LineIsolation, Poly, PositiveRoots, gen_binom,
                           int_mul_linear, pochhammer, squarefree_ints,
                           substitute_critical)
from critpoly.verify import (certify_critical_line, check_functional_equation,
                             favard_chain, favard_gamma, reflection_sign)
from sturm_oracle import squarefree_part, sturm_root_data, sturm_roots
from taylor_oracle import TaylorPositiveRoots

LAMBDAS = [Fraction(-1, 4), Fraction(1, 2), Fraction(1), Fraction(3, 2),
           Fraction(2), Fraction(7, 3)]
BETAS = [Fraction(0), Fraction(1, 2), Fraction(-1), Fraction(-2),
         Fraction(-3)]
NMAX = 60
T_NMAX = 45


def slow_s32(n, lam):
    m, eps = n // 2, n % 2
    out = Poly.zero("s")
    if eps == 0:
        a = (S + lam) / 2 - Fraction(3, 4)
        for r in range(m + 1):
            out = out + (Fraction((-1) ** (m - r)) * Fraction(2) ** (2 * r - 1)
                         * gen_binom(m + r + lam - 1, r) * comb(m + r, 2 * r)
                         * gen_binom((S - 2) / 2 + r, r) * factorial(r)
                         * pochhammer(a + r + 1, m - r) / comb(m + r, r))
        return factorial(2 * m) * gen_binom(m + lam - 1, m) * out
    a = (S + lam) / 2 - Fraction(1, 4)
    for r in range(m + 1):
        out = out + (Fraction((-1) ** (m - r)) * Fraction(4) ** r
                     * gen_binom(m + r + lam, r) * comb(m + r + 1, 2 * r + 1)
                     * gen_binom((S - 1) / 2 + r, r) * factorial(r)
                     * pochhammer(a + r + 1, m - r) / comb(m + r + 1, r))
    return factorial(2 * m + 1) * gen_binom(m + lam, m + 1) * out


def slow_3f2(n, coeff_rule):
    half = Poly("s", [Fraction(n % 2, 2), Fraction(1, 2)])
    out = Poly.zero("s")
    for k in range(n // 2 + 1):
        out = out + coeff_rule(k) * pochhammer(half, n // 2 - k)
    return out


def slow_hyp(n, lam):
    front = factorial(n) * pochhammer(2 * lam, n)
    return slow_3f2(n, lambda k: (
        front * Fraction((-1) ** k) * pochhammer(lam / 2 + Fraction(1, 4), k)
        / (Fraction(4) ** k * factorial(k)
           * pochhammer(lam + Fraction(1, 2), k) * factorial(n - 2 * k))))


def slow_beta(n, beta):
    return slow_3f2(n, lambda k: (
        Fraction((-1) ** k) * pochhammer(1 - beta, k)
        * pochhammer(Fraction(1 - n, 2), k) * pochhammer(Fraction(-n, 2), k)
        / (pochhammer(2 * (1 - beta), k) * factorial(k))))


def slow_T_factor(n):
    facs = [Poly.constant("s", Fraction(1)), Poly.constant("s", Fraction(1))]
    for k in range(2, n + 1):
        ratio1 = Fraction(2) ** (k // 2 - (k - 1) // 2)
        e = S / 2 if k % 2 == 0 else Poly.constant("s", Fraction(1))
        facs.append(2 * ratio1 * e * facs[k - 1].shift(1)
                    - 2 * ((S + k + 1) / 2) * facs[k - 2])
    return facs[n]


@pytest.mark.parametrize("lam", LAMBDAS, ids=str)
def test_s32_matches_slow_sum(lam):
    for n in range(NMAX + 1):
        assert p_s32(n, lam).poly.coeffs == slow_s32(n, lam).coeffs, n


@pytest.mark.parametrize("lam", LAMBDAS, ids=str)
def test_hyp_matches_slow_kernel(lam):
    for n in range(NMAX + 1):
        assert p_hyp(n, lam).poly.coeffs == slow_hyp(n, lam).coeffs, n


@pytest.mark.parametrize("beta", BETAS, ids=str)
def test_beta_matches_slow_kernel(beta):
    for n in range(NMAX + 1):
        assert p_beta(n, beta).poly.coeffs == slow_beta(n, beta).coeffs, n


def test_T_factor_matches_recurrence_from_zero():
    for n in range(T_NMAX + 1):
        assert mellin_T_closed(n).factor.coeffs == slow_T_factor(n).coeffs, n


def slow_substitute_critical(p):
    """p(1/2 + it) by Horner over Gaussian rationals: each coefficient is a
    pair (re, im); returns (v, parity) or None for mixed coefficients."""
    acc = []
    for c in reversed(p.coeffs):
        # acc * (1/2 + it) + c
        out = [(re / 2, im / 2) for re, im in acc] + [(Fraction(0),) * 2]
        for k, (re, im) in enumerate(acc):
            out[k + 1] = (out[k + 1][0] - im, out[k + 1][1] + re)
        out = out or [(Fraction(0),) * 2]
        out[0] = (out[0][0] + c, out[0][1])
        acc = out
    has_re = any(re for re, _ in acc)
    has_im = any(im for _, im in acc)
    if has_re and has_im:
        return None
    if has_im:
        return Poly("t", [im for _, im in acc]), "imaginary"
    return Poly("t", [re for re, _ in acc]), "real"


def slow_functional_equation(p, n):
    reflected = p(Poly("s", [Fraction(1), Fraction(-1)]))
    if not isinstance(reflected, Poly):
        reflected = Poly.constant("s", reflected)
    return p == reflection_sign(n) * reflected


def samples(nmax):
    for n in range(nmax + 1):
        for lam in LAMBDAS:
            yield n, p_s32(n, lam)
        for beta in BETAS:
            yield n, p_beta(n, beta)


def test_substitute_critical_matches_gauss_route():
    for n, p in samples(NMAX):
        assert substitute_critical(p.poly) == slow_substitute_critical(
            p.poly), (n, p.param)


def test_reflection_check_matches_composition():
    for n, p in samples(30):
        broken = p.poly + Poly("s", [Fraction(0)] * (n // 2) + [Fraction(1)])
        for q in (p.poly, broken, p.poly.shift(1)):
            for k in (n, n + 2):
                assert check_functional_equation(q, k) \
                    == slow_functional_equation(q, k), (n, p.param, k)


class NoDescartesProof(LineIsolation):
    """A ``LineIsolation`` that refuses every Descartes proof, so that it
    always takes the squarefree fallback."""

    def descartes_failure(self):
        return "forced"


def test_descartes_certificate_matches_sturm():
    # the acceptance c02 grid; a bare Poly takes the Descartes path, and
    # the squarefree fallback, forced, must count the same
    for n, p in samples(30):
        cert = certify_critical_line(p.poly)
        data = sturm_root_data(substitute_critical(p.poly)[0])
        assert cert.method == "descartes", (n, p.param)
        forced = NoDescartesProof(p.poly)
        assert forced.method == "squarefree"
        for got in (cert, forced):
            assert got.passed == data.all_roots_real(), (n, p.param)
            assert got.distinct_real_roots == data.distinct_real_roots
            assert got.squarefree == data.is_squarefree
            assert got.v_degree == data.degree


# every n <= 30 for one lambda, and two sizes of each other sample: the
# Sturm route refines each root through a fresh squarefree part, which
# makes it too slow for the whole c02 grid
ROOTS_GRID = ([(p_s32, Fraction(7, 3), n) for n in range(31)]
              + [(p_s32, lam, n) for lam in LAMBDAS[:-1] for n in (17, 24)]
              + [(p_beta, beta, n) for beta in BETAS for n in (19, 22)])


@pytest.mark.parametrize("build, param, n", ROOTS_GRID,
                         ids=lambda x: getattr(x, "__name__", str(x)))
def test_roots_match_sturm_refinement(build, param, n):
    p = build(n, param)
    v, _ = substitute_critical(p.poly)
    want = sturm_roots(v)
    got = certify_critical_line(p.poly).isolation.roots()
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


# the betas of the tier-1 lambdas and betas, and three more near and far
FAVARD_BETAS = sorted({Fraction(3, 4) - lam / 2 for lam in LAMBDAS}
                      | set(BETAS) | {Fraction(-100), Fraction(7, 8),
                                      Fraction(99, 100)})


def favard_disagreements(n, beta) -> list:
    """How the integer chain and the built p_beta(n, beta) differ from the
    Fraction chain of the printed gamma_j: each 4 gamma_j, the chain's R_m
    made monic, and the monic x-coefficients of p(1/2 + 2ix)."""
    m = n // 2
    gammas = [Fraction(*favard_gamma(j, n, beta)) for j in range(1, m)]
    out = [f"4 gamma_{j}" for j, g in enumerate(gammas, 1)
           if g != 4 * favard_oracle.printed_gamma(j, n, beta)]
    want = favard_oracle.monic_chain(n, beta)
    if any(want[(m + 1) % 2::2]):
        out.append("P_m has a coefficient of the other parity")
    # R_m(t) = 2^m P_m(t/2): coefficient t^k is 2^(m-k) P_m[k]
    chain = favard_chain(gammas)
    if [Fraction(c, chain[-1]) for c in chain] != [
            want[k] * 2 ** (m - k) for k in range(m % 2, m + 1, 2)]:
        out.append("integer chain")
    v, _ = substitute_critical(p_beta(n, beta).poly)
    got = [c * 2 ** k for k, c in enumerate(v.coeffs)]
    if [c / got[-1] for c in got] != want:
        out.append("p(1/2 + 2ix)")
    return out


@pytest.mark.parametrize("beta", FAVARD_BETAS, ids=str)
def test_favard_chain_matches_fraction_chain(beta):
    for n in range(NMAX + 1):
        assert favard_disagreements(n, beta) == [], n


def test_favard_chain_matches_p_s32():
    # the chain is the Gegenbauer polynomial's too: p_s32(n, lam) is a
    # constant times p_beta(n, 3/4 - lam/2)
    for lam in LAMBDAS:
        for n in range(NMAX + 1):
            m, beta = n // 2, Fraction(3, 4) - lam / 2
            v, _ = substitute_critical(p_s32(n, lam).poly)
            got = [c * 2 ** k for k, c in enumerate(v.coeffs)]
            assert [c / got[-1] for c in got] \
                == favard_oracle.monic_chain(n, beta), (n, lam)


# the acceptance c02 grid, and the c14 samples at n = 400
CERT_LAMBDAS = [Fraction(-1, 4), Fraction(1), Fraction(2), Fraction(7, 3),
                Fraction(5, 2), Fraction(10)]
CERT_GRID = ([(p_s32, lam, n) for lam in CERT_LAMBDAS for n in range(31)]
             + [(p_beta, beta, n) for beta in BETAS for n in range(31)]
             + [(p_s32, lam, 400) for lam in CERT_LAMBDAS]
             + [(p_beta, beta, 400) for beta in BETAS])


def test_favard_certificate_matches_descartes():
    for build, param, n in CERT_GRID:
        p = build(n, param)
        fast, slow = certify_critical_line(p), certify_critical_line(p.poly)
        assert (fast.method, slow.method) == ("favard", "descartes"), n
        for field in ("passed", "degree", "v_degree", "distinct_real_roots",
                      "squarefree", "coeff_bits"):
            assert getattr(fast, field) == getattr(slow, field), \
                (build.__name__, param, n, field)
        assert fast.passed and fast.distinct_real_roots == n // 2


def oracle_disagreements(w) -> list:
    """How the Bernstein isolation and quadratic refinement of w differ
    from the Taylor-shift bisection: boxes, nodes and reason must be
    equal, and each refined root within 2^-56 of the larger value."""
    new, old = PositiveRoots(w), TaylorPositiveRoots(w)
    if (new.boxes, new.nodes, new.reason) != (old.boxes, old.nodes,
                                              old.reason):
        return [f"isolation {new.boxes, new.nodes, new.reason} != "
                f"{old.boxes, old.nodes, old.reason}"]
    return [f"root {float(a)} != {float(b)}" for box in new.boxes or ()
            for a, b in [(new.refine(box), old.refine(box))]
            if abs(a - b) > max(a, b) / 2 ** 56]


# the pinned cases of test_poly: roots at split points, a box with both
# ends roots, the depth guard, w(0) = 0 and roots 2^-100 apart
PINNED_W = [[1, -3, 2], [-3, 7, -5, 1], [-26, 59, -43, 10], [1, -6, 9],
            [0, 1, 1], [2 ** 100 + 3, -6 * 2 ** 100 - 9, 9 * 2 ** 100]]


def test_bernstein_isolation_matches_taylor_oracle():
    # the acceptance c02 grid, n = 60 and 400 for one lambda and one beta,
    # and the pinned cases
    ws = [LineIsolation(p.poly).w for _, p in samples(30)]
    ws += [LineIsolation(build(n, param).poly).w for n in (60, 400)
           for build, param in ((p_s32, Fraction(7, 3)), (p_beta, -3))]
    for w in ws + PINNED_W:
        assert oracle_disagreements(w) == [], w


@given(st.lists(st.tuples(st.integers(min_value=-9, max_value=40),
                          st.integers(min_value=1, max_value=12)),
                min_size=1, max_size=7),
       st.integers(min_value=0, max_value=3), st.booleans())
@settings(max_examples=120, deadline=None)
def test_bernstein_matches_taylor_oracle_on_products(roots, complex_pairs,
                                                     square):
    # prod (b x - a), with the first factor squared when square is set,
    # times (x^2 + x + 1)^complex_pairs: roots at split points, close
    # together, at 0, repeated, negative or not real
    w = [1]
    for a, b in roots + roots[:square]:
        w = int_mul_linear(w, b, -a)
    for _ in range(complex_pairs):
        w = [sum(w[k - j] for j in range(3) if 0 <= k - j < len(w))
             for k in range(len(w) + 2)]
    assert oracle_disagreements(w) == []


def test_refinement_counts_its_values_of_w():
    # (x - 1)(x - 2)(10x - 13): both ends of the box of 13/10 are roots,
    # so each refinement also takes the sign of w' at 1
    new, old = (cls([-26, 59, -43, 10])
                for cls in (PositiveRoots, TaylorPositiveRoots))
    for pos in (new, old):
        assert pos.refine(pos.boxes[1]) == pytest.approx(1.3, rel=1e-16)
    assert (new.evaluations, old.evaluations) == (14, 58)


def test_perturbed_de_casteljau_child_is_caught(monkeypatch):
    w = LineIsolation(p_beta(60, -3).poly).w
    split, calls = poly._bernstein_split, []

    def perturbed(b):
        # the right child of the first split only: perturbing every split
        # can keep the variation counts above 1 at every depth, and the
        # bisection of a squarefree w goes on without a depth limit
        left, right = split(b)
        if not calls:
            right[len(right) // 2] *= -1
        calls.append(b)
        return left, right

    monkeypatch.setattr(poly, "_bernstein_split", perturbed)
    assert oracle_disagreements(w)


def slow_gegenbauer(n, lam):
    x = Poly.var("x")
    out = Poly.zero("x")
    for r in range(n // 2 + 1):
        c = (Fraction((-1) ** r) * comb(n - r, r)
             * gen_binom(n - r - 1 + lam, n - r) * Fraction(2) ** (n - 2 * r))
        out = out + c * x ** (n - 2 * r)
    return out


# the identity suite's default samples, their pairwise sums (identity vi)
# and its large-parameter limit (identity ix)
IDENTITY_LAMBDAS = [Fraction(1, 2), Fraction(3, 2), Fraction(2)]
GEGENBAUER_LAMBDAS = sorted({*LAMBDAS, Fraction(10 ** 6),
                             *(a + b for a in IDENTITY_LAMBDAS
                               for b in IDENTITY_LAMBDAS)})


@pytest.mark.parametrize("lam", GEGENBAUER_LAMBDAS, ids=str)
def test_gegenbauer_matches_power_sum(lam):
    for n in range(31):
        assert gegenbauer(n, lam).coeffs == slow_gegenbauer(n, lam).coeffs, n


# the acceptance c12 grid
@pytest.mark.parametrize("s", [1, 2, 3])
@pytest.mark.parametrize("t", ["0.05", "0.1"])
def test_reexpanded_genfun_matches_full_sum(s, t):
    s_m, t_m = genfun_oracle.mp.mpf(s), genfun_oracle.mp.mpf(t)
    got, _ = genfun_oracle.genfun_rhs_reexpanded(s_m, t_m, 40)
    assert got == genfun_oracle.slow_genfun_rhs_reexpanded(s_m, t_m, 40)


# ---------------------------------------------------------------------------
# the integer kernels against the Fraction loops in fraction_oracle.py, on
# one shared grid: rational coefficients mixing ints and Fractions (the
# empty list is the zero polynomial)
# ---------------------------------------------------------------------------

RATIONALS = st.one_of(st.integers(min_value=-12, max_value=12),
                      st.fractions(min_value=-12, max_value=12,
                                   max_denominator=9))


def polys_of(coeffs, variable="x", max_size=6):
    return st.lists(coeffs, max_size=max_size).map(
        lambda cs: Poly(variable, cs))


RATIONAL_POLYS = polys_of(RATIONALS)


def typed(x):
    """x with the type of every coefficient beside its value, so that an
    int and the Fraction of the same value compare unequal."""
    if isinstance(x, Poly):
        return x.variable, tuple(typed(c) for c in x.coeffs)
    return type(x), x


def outcome(f, *args):
    """f(*args) typed, or the type of the 3F2 error it raised."""
    try:
        return typed(f(*args))
    except (DenominatorPole, NonTerminating) as exc:
        return type(exc)


def product_agrees(a, b) -> bool:
    return typed(a * b) == typed(fraction_oracle.poly_mul(a, b))


@given(RATIONAL_POLYS, RATIONAL_POLYS)
@settings(max_examples=200, deadline=None)
def test_product_matches_schoolbook(a, b):
    assert product_agrees(a, b)


@given(st.one_of(RATIONALS, st.integers(min_value=-30, max_value=0),
                 RATIONAL_POLYS),
       st.integers(min_value=0, max_value=6))
@example(-3, 5)      # a factor is zero
@example(7, 0)       # the empty product
@settings(max_examples=200, deadline=None)
def test_pochhammer_matches_factor_by_factor(a, k):
    assert typed(pochhammer(a, k)) == typed(fraction_oracle.pochhammer(a, k))


@given(st.one_of(st.integers(min_value=-10, max_value=0), RATIONALS),
       RATIONALS, RATIONALS, RATIONALS, RATIONALS)
@example(-3, Fraction(1, 2), 2, -1, 3)               # pole at index 1 < 3
@example(Fraction(1, 2), Fraction(-3, 2), 2, 3, 4)  # never terminates
@example(-6, Fraction(1, 2), Fraction(7, 3), -6, Fraction(5, 4))
@settings(max_examples=300, deadline=None)
def test_3f2_matches_term_ratio_sum(a1, a2, a3, b1, b2):
    params = a1, a2, a3, b1, b2
    assert outcome(hyp3f2.eval_3f2, *params) \
        == outcome(fraction_oracle.eval_3f2, *params)


@given(st.lists(st.tuples(polys_of(RATIONALS, max_size=4),
                          st.integers(min_value=1, max_value=3)),
                min_size=1, max_size=3))
@example([(Poly("x", [0, 1]), 2), (Poly("x", [-1, 1]), 3)])  # x^2 (x-1)^3
@example([(Poly("x", [5]), 1)])                              # a constant
@settings(max_examples=150, deadline=None)
def test_squarefree_part_matches_fraction_euclid(factors):
    # products of factors raised to powers, so that most repeat a factor
    p = Poly.constant("x", 1)
    for f, k in factors:
        p = p * f ** k
    assume(not p.is_zero)
    sf = squarefree_ints(p.ints)
    assert sf[-1] > 0 and gcd(*sf) == 1
    assert Poly("x", sf) / sf[-1] == squarefree_part(p)


def test_perturbed_convolution_coefficient_is_caught(monkeypatch):
    a = Poly("x", [Fraction(1, 2), 3, Fraction(-2, 5)])
    b = Poly("x", [2, Fraction(1, 3)])
    assert product_agrees(a, b)
    convolve = poly._convolve

    def perturbed(x, y):
        out = convolve(x, y)
        out[len(out) // 2] += 1
        return out

    monkeypatch.setattr(poly, "_convolve", perturbed)
    assert not product_agrees(a, b)


def test_perturbed_horner_step_is_caught(monkeypatch):
    # the kernel's innermost step, 1 + N(n-1)/D(n-1), taken as 1: it sees
    # one term fewer than the oracle, which imported termination_index
    # before the patch
    params = -3, Fraction(1, 2), 2, Fraction(5, 2), 3
    assert outcome(hyp3f2.eval_3f2, *params) \
        == outcome(fraction_oracle.eval_3f2, *params)
    index = hyp3f2.termination_index
    monkeypatch.setattr(hyp3f2, "termination_index",
                        lambda *a: index(*a) - 1)
    assert outcome(hyp3f2.eval_3f2, *params) \
        != outcome(fraction_oracle.eval_3f2, *params)


# ---------------------------------------------------------------------------
# Poly's integer list over one denominator against Fraction arithmetic,
# coefficient by coefficient, on the same grid: the references below never
# build a Poly, so the reduction they check is not also on their side
# ---------------------------------------------------------------------------

def trimmed(cs) -> tuple:
    cs = [Fraction(c) for c in cs]
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def fraction_product(a, b) -> list:
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def fraction_composition(a, b) -> list:
    """The coefficients of a(b(x)), summed power by power of b."""
    out, power = [], [Fraction(1)]
    for c in a:
        out = [x + c * y for x, y in zip_longest(out, power, fillvalue=0)]
        power = fraction_product(power, b)
    return out


def agrees(p: Poly, want) -> bool:
    """p is in lowest terms and has the coefficients want."""
    return (p.den > 0 and gcd(p.den, *p.ints) == 1
            and (not p.ints or p.ints[-1] != 0)
            and p.coeffs == trimmed(want))


@given(st.lists(RATIONALS, max_size=6), st.lists(RATIONALS, max_size=6),
       RATIONALS, RATIONALS)
@example([], [], 0, 0)
@example([Fraction(1, 2), Fraction(3, 2)], [Fraction(-1, 2), Fraction(5, 2)],
         Fraction(-2, 3), Fraction(5, 7))
@settings(max_examples=200, deadline=None)
def test_integer_form_matches_fraction_arithmetic(xs, ys, r, x):
    a, b = Poly("x", xs), Poly("x", ys)
    xs, ys = trimmed(xs), trimmed(ys)
    pairs = list(zip_longest(xs, ys, fillvalue=0))
    assert agrees(a, xs) and agrees(b, ys)
    assert agrees(a + b, [u + v for u, v in pairs])
    assert agrees(a - b, [u - v for u, v in pairs])
    assert agrees(a * b, fraction_product(xs, ys))
    assert agrees(a * r, [c * r for c in xs])
    assert agrees(r * a, [r * c for c in xs])
    if r:
        assert agrees(a / r, [c / r for c in xs])
    # coefficient j of a(x + r) is the sum over k >= j of c_k C(k, j) r^(k-j)
    shifted = [sum((c * comb(k, j) * r ** (k - j)
                    for k, c in enumerate(xs) if k >= j), Fraction(0))
               for j in range(len(xs))]
    assert agrees(a.shift(r), shifted)
    at_x = a(x)
    assert type(at_x) is Fraction
    assert at_x == sum((c * x ** k for k, c in enumerate(xs)), Fraction(0))
    composed = a(Poly("y", ys))
    assert composed.variable == "y"
    assert agrees(composed, fraction_composition(xs, ys))


# ---------------------------------------------------------------------------
# Gauss-Jacobi rules from the three-term recurrence against mpmath's
# eigen-solver (gauss_oracle.py)
# ---------------------------------------------------------------------------

# alpha = lambda/2 - 3/4 for the tier-1 lambdas, and 1/2 for the T transform;
# beta = (s - 2 + eps)/2 over the s of the quadrature tests and benchmark
RULE_ALPHAS = sorted({lam / 2 - Fraction(3, 4) for lam in LAMBDAS
                      + [Fraction(5, 2)]} | {Fraction(1, 2)})
RULE_BETAS = [(s - 2 + eps) / 2
              for s in map(Fraction, ("1/8", "1/2", "3/4", "1", "2", "5", "8",
                                      "143"))
              for eps in (0, 1)]
# alpha + beta = 0 and -1, where the general a_0 and b_1 are 0/0
RULE_EDGES = [(Fraction(1, 4), Fraction(-1, 4)),
              (Fraction(-7, 8), Fraction(7, 8)),
              (Fraction(0), Fraction(0)), (Fraction(-1, 4), Fraction(-3, 4)),
              (Fraction(-7, 8), Fraction(-1, 8)),
              (Fraction(-1, 2), Fraction(-1, 2))]
RULE_MMAX = 7
RULE_TOL = 1e-25


def as_mpf(x):
    return quadrature.mp.mpf(x.numerator) / x.denominator


def weight_key(alpha, beta) -> tuple:
    """The integer key (A, B, d) of the weight y^beta (1-y)^alpha."""
    return quadrature._over_lcm(alpha.numerator, alpha.denominator,
                                beta.numerator, beta.denominator)


def gauss_jacobi_rules(alpha, beta, m: int) -> list:
    """The rules of m and m + 1 nodes that _gauss_jacobi integrates with
    at the weight (alpha, beta)."""
    return [quadrature._gauss_jacobi_rule(*weight_key(alpha, beta), k)
            for k in (m, m + 1)]


def mpf_rules(alpha, beta, m: int) -> list:
    """The rules of gauss_jacobi_rules(alpha, beta, m) (alpha, beta
    rationals) as (node, weight) mpfs: the fixed-point node, and
    B(beta + 1, alpha + 1) over the fixed-point Christoffel sum."""
    mp, w = quadrature.mp, quadrature._FIXED_BITS
    mu0 = mp.beta(as_mpf(beta) + 1, as_mpf(alpha) + 1)
    return [[(mp.mpf((y, -w)), mu0 / mp.mpf((christoffel, -w)))
             for y, christoffel in rule]
            for rule in gauss_jacobi_rules(alpha, beta, m)]


def rule_disagreements(alpha, beta, m) -> list:
    """The nodes and weights of the m- and (m+1)-node rules of
    gauss_jacobi_rules that differ from the oracle's by more than
    RULE_TOL relative."""
    rules = mpf_rules(alpha, beta, m)
    assert [len(rule) for rule in rules] == [m, m + 1]
    bad = []
    for rule in rules:
        want = gauss_oracle.gauss_jacobi_rule(len(rule), alpha, beta)
        for (y, w), (y0, w0) in zip(rule, want):
            if not (abs(y - y0) <= RULE_TOL * y0
                    and abs(w - w0) <= RULE_TOL * w0):
                bad.append((len(rule), float(y0), float(y - y0),
                            float(w - w0)))
    return bad


@pytest.mark.parametrize("alpha", RULE_ALPHAS, ids=str)
def test_gauss_jacobi_rules_match_eigen_solver(alpha):
    points = [(alpha, beta) for beta in RULE_BETAS] \
        + [(a, b) for a, b in RULE_EDGES if a == alpha]
    for a, b in points:
        for m in range(1, RULE_MMAX + 1):
            assert not rule_disagreements(a, b, m), (a, b, m)


def patch_rule_builder(patch, name: str, value) -> None:
    """Sets quadrature.<name> to value and empties the memos, so that no
    rule built before the patch is reused under it."""
    patch.setattr(quadrature, name, value)
    construct.clear_caches()


def perturb_recurrence(monkeypatch, which: int, k: int, change):
    """Patches _jacobi_recurrence so that change maps the ratio (num, den)
    of a_k (which = 0) or b_k (which = 1) to another ratio."""
    build = quadrature._jacobi_recurrence

    def perturbed(A, B, d, m):
        coeffs = build(A, B, d, m)
        coeffs[which][k] = change(coeffs[which][k])
        return coeffs

    patch_rule_builder(monkeypatch, "_jacobi_recurrence", perturbed)


def test_perturbed_recurrence_coefficient_is_caught(monkeypatch):
    # b_3 nudged by one part in 10^20 gives the Gauss rules of another
    # weight: they agree with each other on every polynomial of degree
    # <= 7, so only the oracle sees it. a_3 moved by 1 puts the largest
    # node above 1 (it is at least the largest diagonal entry), which the
    # rule builder rejects.
    alpha, beta, m = Fraction(1, 4), Fraction(3, 4), 4
    key = weight_key(alpha, beta)
    # y^7 in fixed point, integrated by the rules of 4 and 5 nodes
    w = quadrature._FIXED_BITS
    top = lambda y: y ** (2 * m - 1) >> (2 * m - 2) * w  # noqa: E731
    assert not rule_disagreements(alpha, beta, m)
    with monkeypatch.context() as patch:
        perturb_recurrence(patch, 1, m - 1,
                           lambda r: (r[0] * (10 ** 20 + 1), r[1] * 10 ** 20))
        assert rule_disagreements(alpha, beta, m)
        q = quadrature._gauss_jacobi(top, m, key, 1e-25)
        assert q.error_estimate <= 1e-25
    perturb_recurrence(monkeypatch, 0, m - 1, lambda r: (r[0] + r[1], r[1]))
    with pytest.raises(ToleranceNotMet, match="outside"):
        rule_disagreements(alpha, beta, m)
    with pytest.raises(ToleranceNotMet, match="outside"):
        quadrature._gauss_jacobi(top, m, key, 1e-12)


def test_unpolished_or_outside_nodes_return_no_rule(monkeypatch):
    alpha, beta = Fraction(-1, 4), Fraction(-3, 4)
    key = weight_key(alpha, beta)
    q = quadrature._gauss_jacobi(lambda y: y, 1, key, 1e-25)
    assert q.value == pytest.approx(
        float(quadrature.mp.beta(as_mpf(beta) + 2, as_mpf(alpha) + 1)),
        rel=1e-15)
    with monkeypatch.context() as patch:
        patch_rule_builder(patch, "_NEWTON_CAP", 0)
        with pytest.raises(ToleranceNotMet, match="did not converge"):
            gauss_jacobi_rules(alpha, beta, 3)
        with pytest.raises(ToleranceNotMet, match="did not converge"):
            quadrature._gauss_jacobi(lambda y: y, 1, key, 1e-12)
    for seed in (1.5, 0.0, -0.25):
        with monkeypatch.context() as patch:
            patch_rule_builder(patch, "_float_nodes",
                               lambda a, b, seed=seed: [(seed, seed)] * len(a))
            with pytest.raises(ToleranceNotMet, match="outside"):
                gauss_jacobi_rules(alpha, beta, 3)
            with pytest.raises(ToleranceNotMet, match="outside"):
                quadrature._gauss_jacobi(lambda y: y, 1, key, 1e-12)


def test_colliding_or_misplaced_seeds_return_no_rule(monkeypatch):
    # every node seeded in the first node's bracket: Newton's method
    # polishes each seed to the same node, which is not a rule
    alpha, beta = Fraction(1, 4), Fraction(3, 4)
    brackets = quadrature._float_nodes
    with monkeypatch.context() as patch:
        patch_rule_builder(patch, "_float_nodes",
                           lambda a, b: [brackets(a, b)[0]] * len(a))
        with pytest.raises(ToleranceNotMet, match="not above"):
            gauss_jacobi_rules(alpha, beta, 3)
    # a bracket moved off its node by 2^-20: the seed is still polished to
    # that node, which then lies outside the bracket it was given

    def moved(a, b):
        (lo, hi), *rest = brackets(a, b)
        return [(lo + 2.0 ** -20, hi + 2.0 ** -20)] + rest

    patch_rule_builder(monkeypatch, "_float_nodes", moved)
    with pytest.raises(ToleranceNotMet, match="left its bracket"):
        gauss_jacobi_rules(alpha, beta, 3)


# ---------------------------------------------------------------------------
# the fixed-point loops of the rules and integrands against the mpf loops
# they replaced (gauss_oracle.py)
# ---------------------------------------------------------------------------

# relative to the node, the weight or the largest integrand value of the
# row; the mpf loops themselves round to about 3e-29 here
FIXED_TOL = 1e-28
INTEGRAND_NMAX = 24
# the rules of rows far outside the benchmark's s <= 143: the T zeros
# s = n^2 - 1 at n = 24 and 40 (alpha = 1/2, beta = 573/2 and 1597/2,
# m = 7 and 11), T at n = 80, s = 1599 (m = 21), and lambda = 600 at
# n = 23 and 24, s = 2 (alpha = 1197/4, beta = 1/2 and 0, m = 6 and 7)
LARGE_RULES = [(Fraction(1, 2), Fraction(573, 2), 7),
               (Fraction(1, 2), Fraction(1597, 2), 11),
               (Fraction(1, 2), Fraction(1597, 2), 21),
               (Fraction(1197, 4), Fraction(1, 2), 6),
               (Fraction(1197, 4), Fraction(0), 7)]
# at beta = 1597/2 the mpf loops are up to 3.3e-28 from an 80-digit
# eigen-solver, the fixed-point loops up to 7e-29
LARGE_TOL = 1e-27
INTEGRAND_LAMBDAS = LAMBDAS + [Fraction(600)]
INTEGRAND_GRID = [Fraction(j, 16) for j in range(1, 16)] \
    + [Fraction(1, 1024), Fraction(1023, 1024)]


def fixed_rule_disagreements(alpha, beta, m, tol=FIXED_TOL) -> list:
    """The nodes and weights of the m- and (m+1)-node rules of
    gauss_jacobi_rules that differ from the mpf loops' by more than tol
    relative, or the error that stopped the fixed-point build."""
    try:
        rules = mpf_rules(alpha, beta, m)
    except ToleranceNotMet as exc:
        return [str(exc)]
    bad = []
    for rule, want in zip(rules, gauss_oracle.mpf_gauss_jacobi_rules(
            as_mpf(alpha), as_mpf(beta), m)):
        assert len(rule) == len(want)
        for (y, w), (y0, w0) in zip(rule, want):
            if not (abs(y - y0) <= tol * y0 and abs(w - w0) <= tol * w0):
                bad.append((len(rule), float(y0), float(y - y0),
                            float(w - w0)))
    return bad


def fixed_integrand_disagreements(lam, n) -> list:
    """The points of INTEGRAND_GRID where the Mellin integrand
    P(y) = g(sqrt y) / (2 sqrt(y)^(n mod 2)) of C_n^lam (T_n when lam is
    None) differs in fixed point from the mpf recurrence's by more than
    FIXED_TOL times the row's largest |P|."""
    if lam is None:
        fixed = quadrature._chebyshev_t_fixed(n)
        slow = lambda x: gauss_oracle.chebyshev_t_at(n, x)  # noqa: E731
    else:
        # quad_mellin_gegenbauer reads lambda exactly
        lam_m = as_mpf(lam)
        fixed = quadrature._gegenbauer_fixed(n, lam)
        slow = lambda x: gauss_oracle.gegenbauer_at(n, lam_m, x)  # noqa: E731
    got = quadrature._mellin_integrand(fixed, n % 2)
    want = gauss_oracle.mellin_integrand(slow, n % 2)
    # the grid is dyadic, so each y is exact in fixed point
    w = quadrature._FIXED_BITS
    values = [(y, quadrature.mp.mpf((got((y.numerator << w) // y.denominator),
                                      -w)), want(as_mpf(y)))
              for y in INTEGRAND_GRID]
    scale = max(abs(v0) for _, _, v0 in values)
    return [(y, float((v - v0) / scale)) for y, v, v0 in values
            if not abs(v - v0) <= FIXED_TOL * scale]


def rule_grid_disagreements():
    """Generates (alpha, beta, m, disagreements) over the rule grid and
    LARGE_RULES."""
    points = [(alpha, beta, m, FIXED_TOL) for alpha in RULE_ALPHAS
              for beta in RULE_BETAS for m in range(1, RULE_MMAX + 1)]
    for alpha, beta, m, tol in points + [p + (LARGE_TOL,)
                                         for p in LARGE_RULES]:
        bad = fixed_rule_disagreements(alpha, beta, m, tol)
        if bad:
            yield alpha, beta, m, bad


def integrand_grid_disagreements():
    """Generates (lambda, n, disagreements) over the integrand grid."""
    for lam in INTEGRAND_LAMBDAS + [None]:
        for n in range(INTEGRAND_NMAX + 1):
            bad = fixed_integrand_disagreements(lam, n)
            if bad:
                yield lam, n, bad


def test_fixed_point_loops_match_mpf_loops():
    assert not list(rule_grid_disagreements())
    assert not list(integrand_grid_disagreements())


def test_perturbed_fixed_point_constant_is_caught(monkeypatch):
    # c1_2 of every Gegenbauer row moved by 2^-90 relative, in new tuples:
    # the constants are immutable, and the integrand memo keeps them
    build = quadrature._gegenbauer_constants

    def perturbed(n, lam, w):
        c1, c2 = build(n, lam, w)
        if n >= 2:
            c1 = c1[:1] + (c1[1] + (c1[1] >> 90),) + c1[2:]
        return c1, c2

    monkeypatch.setattr(quadrature, "_gegenbauer_constants", perturbed)
    bad = list(integrand_grid_disagreements())
    assert {lam for lam, _, _ in bad} == set(INTEGRAND_LAMBDAS)
    assert all(n >= 2 for _, n, _ in bad)


def test_fixed_point_below_working_precision_is_caught(monkeypatch):
    # 8 bits under mp.prec, Newton's method cannot reach its step bound and
    # the integrands lose the last digits the mpf loops keep
    patch_rule_builder(monkeypatch, "_FIXED_BITS", quadrature.mp.prec - 8)
    assert any("did not converge" in str(bad)
               for *_, bad in rule_grid_disagreements())
    assert any(integrand_grid_disagreements())


def test_quantities_below_the_guard_bits_are_caught(monkeypatch):
    # the Legendre weight has a_k = 1/2, so p_2 has its minimum at 1/2,
    # where a seed gives Newton's method a derivative of 0
    zero = Fraction(0)
    with monkeypatch.context() as patch:
        patch_rule_builder(patch, "_float_nodes",
                           lambda a, b: [(0.5, 0.5)] * len(a))
        with pytest.raises(ToleranceNotMet, match="derivative"):
            gauss_jacobi_rules(zero, zero, 2)
    # sqrt(b_2) = 2^-65 would keep fewer than mp.prec bits in fixed point
    perturb_recurrence(monkeypatch, 1, 2, lambda r: (1, 1 << 130))
    with pytest.raises(ToleranceNotMet, match=r"sqrt\(b_2\)"):
        gauss_jacobi_rules(Fraction(1, 4), Fraction(3, 4), 3)


# ---------------------------------------------------------------------------
# the integer recurrence ratios and the bracket tree against the mpf
# recurrence and the per-node bisection they replaced (gauss_oracle.py)
# ---------------------------------------------------------------------------

BRACKET_SIZES = list(range(1, RULE_MMAX + 1)) + [21, 60, 200]
# the weights of the larger bracket sizes: the T weight at beta = 3/2 and
# 1597/2, lambda = 600 at s = 2, and an edge of RULE_EDGES
BRACKET_WEIGHTS = [(Fraction(1, 2), Fraction(3, 2)),
                   (Fraction(1197, 4), Fraction(0)),
                   (Fraction(1, 2), Fraction(1597, 2)),
                   (Fraction(-1, 4), Fraction(-3, 4))]


def float_recurrence(alpha, beta, m: int) -> tuple:
    """The recurrence ratios of _jacobi_recurrence, each rounded to float
    as _gauss_jacobi_rule rounds them for _float_nodes."""
    a, b = quadrature._jacobi_recurrence(*weight_key(alpha, beta), m)
    return [p / q for p, q in a], [p / q for p, q in b]


def test_integer_recurrence_matches_mpf_recurrence():
    # the mpf recurrence runs at twice the rules' precision: at theirs, its
    # own rounding reaches 1.7e-30 relative at alpha = 1197/4, where
    # 1 + d/(c(c + 2)) in a_k cancels to about 0.02
    ctx = mpmath.MPContext()
    ctx.prec = 2 * quadrature.mp.prec
    points = [(alpha, beta, RULE_MMAX + 1) for alpha in RULE_ALPHAS
              for beta in RULE_BETAS] \
        + [(alpha, beta, RULE_MMAX + 1) for alpha, beta in RULE_EDGES] \
        + [(alpha, beta, m + 1) for alpha, beta, m in LARGE_RULES]
    for alpha, beta, m in points:
        a, b = quadrature._jacobi_recurrence(*weight_key(alpha, beta), m)
        want_a, want_b = gauss_oracle.jacobi_recurrence(
            ctx.mpf(alpha.numerator) / alpha.denominator,
            ctx.mpf(beta.numerator) / beta.denominator, m)
        assert len(a) == len(b) == m and b[0][0] == 0
        for (p, q), x in zip(a + b[1:], want_a + want_b[1:]):
            assert abs(ctx.mpf(p) / q - x) <= ctx.mpf(2) ** -100 * abs(x), \
                (alpha, beta, m)


@pytest.mark.parametrize("m", BRACKET_SIZES)
def test_bracket_tree_holds_the_per_node_bisection_nodes(m):
    points = [(alpha, beta) for alpha in RULE_ALPHAS for beta in RULE_BETAS] \
        if m <= RULE_MMAX else BRACKET_WEIGHTS
    for alpha, beta in points:
        want = gauss_oracle.float_nodes(*gauss_oracle.jacobi_recurrence(
            as_mpf(alpha), as_mpf(beta), m))
        got = quadrature._float_nodes(*float_recurrence(alpha, beta, m))
        assert len(got) == m
        for (lo, hi), (lo0, hi0) in zip(got, want):
            assert hi - lo <= 2 * quadrature._SEED_WIDTH
            assert lo <= (lo0 + hi0) / 2 <= hi, (alpha, beta, m)


@pytest.mark.parametrize("m", [3, 5, 21])
def test_a_node_at_the_first_split_point(monkeypatch, m):
    # at alpha = beta every a_k is 1/2, so the Gershgorin bounds are
    # symmetric about 1/2, the tree's first split point, and the middle
    # node of an odd rule sits exactly there
    count, points = quadrature._sturm_count, []

    def spy(a, b, x):
        points.append(x)
        return count(a, b, x)

    monkeypatch.setattr(quadrature, "_sturm_count", spy)
    for alpha in (Fraction(0), Fraction(1, 2), Fraction(-1, 4)):
        points.clear()
        lo, hi = quadrature._float_nodes(*float_recurrence(alpha, alpha,
                                                           m))[m // 2]
        assert points[0] == 0.5 and lo < 0.5 < hi
        assert not rule_disagreements(alpha, alpha, m), (alpha, m)
    row = quadrature.compare_mellin(12, Fraction(5, 2), 1.0)
    assert row["rel_err"] <= 1e-12, row


def test_uncertified_brackets_fall_back_to_bisection(monkeypatch):
    alpha, beta, m = Fraction(1, 4), Fraction(3, 4), 6
    a, b = float_recurrence(alpha, beta, m)
    want = gauss_oracle.float_nodes(*gauss_oracle.jacobi_recurrence(
        as_mpf(alpha), as_mpf(beta), m))
    certified = quadrature._float_nodes(a, b)
    holds, count = quadrature._holds, quadrature._sturm_count
    with monkeypatch.context() as patch:
        # the certifying counts off by one: no bracket of Newton's method
        # is taken, and bisection finds each node instead
        patch_rule_builder(patch, "_holds", lambda a, b, i, lo, hi:
                           holds(a, b, i + 1, lo, hi))
        got = quadrature._float_nodes(a, b)
        assert all(x != y for x, y in zip(got, certified))
        for (lo, hi), (lo0, hi0) in zip(got, want):
            assert hi - lo <= 2 * quadrature._SEED_WIDTH
            assert lo <= (lo0 + hi0) / 2 <= hi
        assert not rule_disagreements(alpha, beta, m - 1)
    # every count off by one, the tree's too: no rule at all, the rules
    # just built included
    patch_rule_builder(monkeypatch, "_sturm_count",
                       lambda a, b, x: count(a, b, x) + 1)
    for k in range(2, RULE_MMAX + 1):
        with pytest.raises(ToleranceNotMet):
            gauss_jacobi_rules(alpha, beta, k)


# ---------------------------------------------------------------------------
# the comparison row on exact lambda and s, its closed value a rational
# multiple of the quadrature's mu0, against the row with mpf parameters and
# a three-Gamma closed value (mellin_oracle.py)
# ---------------------------------------------------------------------------

# the c06 grid of the acceptance tests, and the grid on which the rules of
# the dyadic lambda and s are the same integers as with mpf parameters
C06_GRID = [(n, lam, s) for n in range(11) for lam in (0.5, 1.0, 1.5, 2.5)
            for s in (0.5, 1.0, 2.0, 3.7)]
DYADIC_GRID = [(n, lam, s) for n in range(13)
               for lam in (0.5, 1.0, 1.5, 2.5, -0.25)
               for s in (0.125, 0.5, 0.75, 2.0, 3.7, 5.0)]
# lambdas whose weight the mpf parameters rounded, to n = 40
WIDE_GRID = [(n, lam, s) for n in range(41)
             for lam in (Fraction(7, 3), Fraction(-1, 4), Fraction(1, 10))
             for s in (0.125, 0.5, 2.0, 3.7)]
T_GRID = [(n, s) for n in range(41)
          for s in [0.125, 0.5, 2.0, 3.7] + ([float(n * n - 1)] if n >= 2
                                             else [])]


def closed_disagreement(form, s, got) -> str | None:
    """Why got is not the three-Gamma value of form at s to 1e-14 relative:
    where the factor vanishes exactly, got must be 0 and the oracle's value
    no more than its rounding."""
    want = mellin_oracle.closed_form_value(form, s)
    if form.factor(Fraction(s)) == 0:
        if got == 0 and abs(want) <= 1e-25:
            return None
    elif abs(got - want) <= 1e-14 * abs(want):
        return None
    return f"{form.kind} n={form.n} lambda={form.lam} s={s}: {got} != {want}"


def test_beta_form_closed_value_matches_three_gamma_value():
    bad = []
    for n, lam, s in C06_GRID + DYADIC_GRID + WIDE_GRID:
        form = mellin_closed(n, lam)
        row = quadrature.compare_mellin(n, lam, s)
        bad += [closed_disagreement(form, s, got) for got in
                (row["closed_form"], quadrature.closed_form_value(form, s))]
    for n, s in T_GRID:
        form = mellin_T_closed(n)
        row = quadrature.compare_mellin_T(n, s)
        bad += [closed_disagreement(form, s, got) for got in
                (row["closed_form"], quadrature.closed_form_value(form, s))]
        if s == n * n - 1:
            assert row["closed_form"] == 0, (n, s)
    assert not [b for b in bad if b]


def test_exact_parameters_keep_the_dyadic_quadrature_bits():
    # a dyadic lambda and s give the recurrences the same integers as their
    # binary mpfs did, and the rules the same fixed-point nodes and sums
    for n, lam, s in DYADIC_GRID:
        row = quadrature.compare_mellin(n, lam, s)
        assert (row["quadrature"], row["error_estimate"]) \
            == mellin_oracle.quadrature_row(n, lam, s), (n, lam, s)
    for n, s in [(n, s) for n, s in T_GRID if n <= 12]:
        row = quadrature.compare_mellin_T(n, s)
        assert (row["quadrature"], row["error_estimate"]) \
            == mellin_oracle.quadrature_row(n, None, s), (n, s)


# ---------------------------------------------------------------------------
# rows that read their rules and mu0 from the memos against rows built cold
# ---------------------------------------------------------------------------

# the rows of the benchmark's mellin-batch workload: its four lambdas,
# n <= 12, every s it draws and s = 1/2, and T rows at the same s and at
# the zeros s = n^2 - 1 of their factor
BATCH_S = [0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0]
BATCH_GRID = [(n, lam, s) for lam in (Fraction(1, 2), Fraction(1),
                                      Fraction(3, 2), Fraction(5, 2))
              for s in BATCH_S for n in range(13)]
BATCH_T_GRID = [(n, s) for s in BATCH_S for n in range(13)] \
    + [(n, float(n * n - 1)) for n in range(2, 13)]


def row_bits(row: dict) -> dict:
    """The row with each float as its hex digits, so that rows compare
    equal only bit for bit."""
    return {key: v.hex() if isinstance(v, float) else v
            for key, v in row.items()}


def test_memoized_rows_equal_cold_rows():
    jobs = [(quadrature.compare_mellin, job)
            for job in C06_GRID + BATCH_GRID] \
        + [(quadrature.compare_mellin_T, job) for job in BATCH_T_GRID]
    cold = []
    for row, job in jobs:
        construct.clear_caches()
        cold.append(row_bits(row(*job)))
        # the same row again reads both rules and mu0 from the memos
        start = quadrature.memo_counts()
        assert row_bits(row(*job)) == cold[-1], job
        assert [b - a for a, b in zip(start, quadrature.memo_counts())] \
            == [0, 2, 0, 1, 0, 1], job
    # one pass over the grid, in which rows read the rules and mu0 that
    # other rows of their weight built
    construct.clear_caches()
    start = quadrature.memo_counts()
    assert [row_bits(row(*job)) for row, job in jobs] == cold
    built, reused, computed, beta_reused, planned, plan_reused = (
        b - a for a, b in zip(start, quadrature.memo_counts()))
    assert reused > built and beta_reused > computed
    assert plan_reused > planned


# n <= 40 at the tier-1 lambdas, 5/2 and 7/3, over BATCH_S and s = 1/8
ROUNDING_GRID = [(n, lam, s)
                 for lam in (Fraction(-1, 4), Fraction(1, 2), Fraction(1),
                             Fraction(3, 2), Fraction(5, 2), Fraction(7, 3))
                 for n in range(41) for s in BATCH_S + [0.125]]


def rounding_outcome(row, *args):
    """row_bits of row(*args), or the name of the error it raised."""
    try:
        return row_bits(row(*args))
    except (InvalidParameters, ToleranceNotMet) as exc:
        return type(exc).__name__


def test_rows_round_as_the_mpf_route():
    # each output float is one integer ratio rounded once; the mpf route
    # rounded the same integers to 103 bits, multiplied and rounded again
    assert len(ROUNDING_GRID) == 3198
    oracle = mellin_oracle.mpf_rounded_row
    bad = [job for job in BATCH_GRID + ROUNDING_GRID
           if rounding_outcome(quadrature.compare_mellin, *job)
           != rounding_outcome(oracle, *job)]
    bad += [(n, s) for n, s in BATCH_T_GRID
            if rounding_outcome(quadrature.compare_mellin_T, n, s)
            != rounding_outcome(oracle, n, None, s)]
    assert bad == []
    # a row whose terms all underflow raises on both routes
    for row in (quadrature.compare_mellin, oracle):
        assert rounding_outcome(row, 40, 2000, 1e4) == "ToleranceNotMet"


def is_nearest(x: Fraction, r: float) -> bool:
    """Whether the finite float r is a float nearest to x, and the one with
    an even last digit at a tie."""
    gap = abs(x - Fraction(r))
    even = (Fraction(r) / Fraction(math.ulp(r))).numerator % 2 == 0
    return all(gap < abs(x - Fraction(v)) or (gap == abs(x - Fraction(v))
                                              and even)
               for v in (math.nextafter(r, -math.inf),
                         math.nextafter(r, math.inf)) if math.isfinite(v))


# 2^1024 - 2^970, halfway from the largest float to 2^1024: a value from
# there on rounds to infinity
OVERFLOW = 2 ** 1024 - 2 ** 970


@given(st.integers(min_value=-2 ** 1100, max_value=2 ** 1100),
       st.integers(min_value=1, max_value=2 ** 200), st.sampled_from((1, -1)),
       st.integers(min_value=-1400, max_value=1200))
@example(2 ** 53 - 1, 1, 1, 971)        # the largest float
@example(OVERFLOW - 1, 1, 1, 0)         # just under the halfway point
@example(OVERFLOW, 1, -1, 0)            # a tie, to even: 2^1024
@example(3 * 2 ** 1100, 1, 1, 0)
@example(1, 1, 1, -1074)                # the smallest subnormal
@example(1, 1, -1, -1075)               # a tie, to even: 0
@example(3, 1, 1, -1076)                # 3/4 of it, up to it
@example(-3, 2, 1, -1073)
@example(2 ** 52 - 1, 1, 1, -1074)      # the largest subnormal
@settings(max_examples=400, deadline=None)
def test_int_ratio_rounds_once_to_nearest(num, den, sign, e):
    den *= sign
    x = Fraction(num, den) * Fraction(2) ** e
    r = quadrature._to_float(num, den, e)
    if abs(x) < OVERFLOW:
        assert is_nearest(x, r), (num, den, e, r)
    else:
        # infinite, as float() of an mpf is, and no OverflowError
        assert r == (math.inf if x > 0 else -math.inf)
        ctx = mpmath.MPContext()
        ctx.prec = 2400
        assert float(ctx.mpf(num) * ctx.ldexp(1, e) / den) == r
