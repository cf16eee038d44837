"""Exact rational and Gaussian-rational scalars.

Rationals are plain ``fractions.Fraction`` (always reduced, positive
denominator). ``GaussRat`` adds the imaginary unit for evaluation on the
line s = 1/2 + it; it stays internal to the critical-line substitution.
"""
from __future__ import annotations

from dataclasses import dataclass
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


@dataclass(frozen=True)
class GaussRat:
    """Gaussian rational re + im*i with exact Fraction parts."""

    re: Fraction
    im: Fraction = Fraction(0)

    @staticmethod
    def _coerce(other):
        if isinstance(other, GaussRat):
            return other
        if isinstance(other, (int, Fraction)):
            return GaussRat(Fraction(other))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussRat(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussRat(-self.re, -self.im)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussRat(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussRat(self.re * o.re - self.im * o.im,
                        self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError("division by zero GaussRat")
        return GaussRat((self.re * o.re + self.im * o.im) / d,
                        (self.im * o.re - self.re * o.im) / d)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __repr__(self):
        return f"GaussRat({format_rat(self.re)}, {format_rat(self.im)})"

