"""Exact rational scalars: plain ``fractions.Fraction`` (always reduced,
positive denominator), coerced, parsed and printed."""
from __future__ import annotations

from fractions import Fraction


def as_rat(x) -> Fraction:
    """Coerce an int, Fraction, float or 'p/q' string to a Fraction; a float
    is read through its shortest repr (0.1 -> 1/10, not its binary value)."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(repr(x))
    if isinstance(x, str):
        return parse_rat(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to a rational")


def parse_rat(text: str) -> Fraction:
    """Parse 'p/q' or an integer string; decimal literals are rejected."""
    t = text.strip()
    if "." in t or "e" in t.lower():
        raise ValueError(f"{text!r}: decimal literals not accepted, use p/q")
    return Fraction(t)


def format_rat(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"
