"""Catalan normalizations, 2-adic valuations, and the number triangles."""
import inspect

import pytest

from critpoly import arithprops
from critpoly.arithprops import (a_polynomial_checks, catalan,
                                 catalan_valuation_check, csv_rows,
                                 divisibility_characterization, factorize,
                                 is_prime, largest_odd_factor,
                                 odd_factor_check, reduced_odd_forms,
                                 triangle, v2)
from critpoly.errors import IdentityFailed, InvalidParameters


def test_catalan_values():
    assert [catalan(n) for n in range(7)] == [1, 1, 2, 5, 14, 42, 132]
    assert catalan(10) == 16796


def test_v2_and_odd_part():
    assert v2(48) == 4
    assert v2(-12) == 2
    assert largest_odd_factor(48) == 3
    with pytest.raises(InvalidParameters):
        v2(0)


def test_factorize_small():
    assert factorize(423) == {3: 2, 47: 1}
    assert factorize(1) == {}
    assert factorize(97) == {97: 1}


def test_is_prime_edges():
    assert not is_prime(1)
    assert is_prime(2) and is_prime(3) and is_prime(397)
    assert not is_prime(9) and not is_prime(391)  # 391 = 17 * 23


def test_odd_factor_anchors():
    r = odd_factor_check(1, 3)
    assert r["even"]["value"] == 15 and r["odd"]["value"] == 15
    r = odd_factor_check(2, 3)
    assert r["even"]["value"] == 423
    assert r["even"]["factorization"] == {3: 2, 47: 1}
    assert r["pass"]


def test_odd_factor_grid():
    for n in range(1, 9):
        for s in (1, 2, 5, 17, 40):
            assert odd_factor_check(n, s)["pass"], (n, s)


def test_reduced_forms():
    assert reduced_odd_forms(1, 3)["even"]["value"] == 15
    assert reduced_odd_forms(0, 1)["even"]["value"] == 1
    for n in range(9):
        for s in (1, 3, 11):
            assert reduced_odd_forms(n, s)["pass"], (n, s)


def test_catalan_valuation_identity():
    assert catalan_valuation_check(20)["pass"]


def test_triangle_rows():
    assert triangle("b", 2).entries == (5, 5, 1)
    assert triangle("a", 2).entries == (10, 3)
    assert triangle("b", 0).entries == (1,)
    assert len(triangle("a", 7).entries) == 7
    assert len(triangle("b", 7).entries) == 8
    with pytest.raises(InvalidParameters):
        triangle("a", 0)
    with pytest.raises(InvalidParameters):
        triangle("c", 3)


def step_mutant(old: str, new: str):
    """arithprops._triangle_row with one step factor edited in its source."""
    source = inspect.getsource(arithprops._triangle_row)
    mutant = source.replace(old, new)
    assert mutant != source
    namespace = {}
    exec(compile(mutant, arithprops.__file__, "exec"), vars(arithprops),
         namespace)
    return namespace["_triangle_row"]


def test_triangle_entry_with_a_remainder_raises(monkeypatch):
    # with the step factor k + j off by one, C(k+j, 2j) at k = 3, j = 1
    # reads 5 * 3 / 2, no integer
    monkeypatch.setattr(arithprops, "_triangle_row",
                        step_mutant("c * (k + j) *", "c * (k + j + 1) *"))
    with pytest.raises(IdentityFailed, match="got 15/2"):
        triangle("b", 3)


def test_non_positive_triangle_entry_raises(monkeypatch):
    row = arithprops._triangle_row
    monkeypatch.setattr(arithprops, "_triangle_row",
                        lambda k, odd, top: row(k, odd, -top))
    with pytest.raises(IdentityFailed, match="non-positive triangle entry"):
        triangle("a", 4)


def test_divisibility_characterizations():
    # 2k+1 = 9 composite: the one-exception predicate must fail with it
    assert not divisibility_characterization("b", 4)["mismatches"]
    assert divisibility_characterization("b", 199)["pass"]
    assert divisibility_characterization("a", 200)["pass"]


def test_a_polynomial_structure():
    r = a_polynomial_checks(16)
    assert r["recurrence"]
    assert r["gegenbauer_combination"]
    assert r["b_row_match"]


def test_csv_rows_shape():
    rows = csv_rows(2, [3])
    assert rows[0] == {"n": 2, "s": 3, "value": 15, "valuation_2": 0,
                       "factorization": "3*5"}
    assert {r["n"] for r in rows} == {2, 3, 4, 5}
