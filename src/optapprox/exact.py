"""Exact complex-rational scalars.

The exact backend stores every coefficient as a pair of
``fractions.Fraction`` values (real and imaginary part), so arithmetic is
closed: no rounding ever occurs.  Fractions are kept in lowest terms with
canonical sign by the standard library, which makes equality against
fractions like 741/1694 exact.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from numbers import Rational


def _to_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, Rational):
        return Fraction(x)
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot build an exact rational from {type(x).__name__}")


class ExactComplex:
    """Immutable complex number with rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _to_fraction(re))
        object.__setattr__(self, "im", _to_fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("ExactComplex is immutable")

    @classmethod
    def coerce(cls, x) -> "ExactComplex":
        if isinstance(x, ExactComplex):
            return x
        if isinstance(x, complex):
            raise TypeError("refusing to coerce a float complex into the exact backend")
        return cls(x)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        o = ExactComplex.coerce(other)
        return ExactComplex(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = ExactComplex.coerce(other)
        return ExactComplex(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return ExactComplex.coerce(other) - self

    def __mul__(self, other):
        o = ExactComplex.coerce(other)
        return ExactComplex(self.re * o.re - self.im * o.im,
                            self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = ExactComplex.coerce(other)
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError("division by exact zero")
        return ExactComplex((self.re * o.re + self.im * o.im) / d,
                            (self.im * o.re - self.re * o.im) / d)

    def __rtruediv__(self, other):
        return ExactComplex.coerce(other) / self

    def __neg__(self):
        return ExactComplex(-self.re, -self.im)

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise TypeError("exact powers must have integer exponents")
        if k < 0:
            return (ExactComplex(1) / self) ** (-k)
        out = ExactComplex(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- structure ----------------------------------------------------

    def conjugate(self) -> "ExactComplex":
        return ExactComplex(self.re, -self.im)

    @property
    def real(self) -> Fraction:
        return self.re

    @property
    def imag(self) -> Fraction:
        return self.im

    @property
    def abs_sq(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __eq__(self, other):
        try:
            o = ExactComplex.coerce(other)
        except TypeError:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        if self.im == 0:
            return f"ExactComplex({self.re})"
        return f"ExactComplex({self.re}, {self.im})"


def _digits(k: int) -> str:
    try:
        return str(k)
    except ValueError:  # more than sys.get_int_max_str_digits() digits (4300 by default)
        return str(Decimal(k))   # the same text, with no limit


def format_rational(x: Fraction) -> str:
    """Serialize a rational as ``p/q`` in lowest terms (``p`` for integers),
    however many digits it has."""
    x = Fraction(x)
    if x.denominator == 1:
        return _digits(x.numerator)
    return f"{_digits(x.numerator)}/{_digits(x.denominator)}"


def parse_rational(s: str) -> Fraction:
    return Fraction(s)


# -- backend-agnostic scalar helpers ----------------------------------
#
# The library's formulas are written once for both backends, over the
# operations an ExactComplex shares with a Python or numpy complex:
# + - * /, .conjugate(), .real and .imag.  |x|^2 is the one more they need.

def abs_sq(x):
    """|x|^2 = re^2 + im^2: a Fraction for an ExactComplex, a float for a
    float scalar."""
    return x.real * x.real + x.imag * x.imag
