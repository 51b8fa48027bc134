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
    if isinstance(x, (Rational, str)):
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
    #
    # An operand coerce cannot build (a float, an ndarray) gives
    # NotImplemented, so that Python asks its own reflected method: an
    # object ndarray then works elementwise from either side.

    def __add__(self, other):
        o = _operand(other)
        if o is NotImplemented:
            return o
        return ExactComplex(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = _operand(other)
        if o is NotImplemented:
            return o
        return ExactComplex(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = _operand(other)
        return o if o is NotImplemented else o - self

    def __mul__(self, other):
        o = _operand(other)
        if o is NotImplemented:
            return o
        return ExactComplex(self.re * o.re - self.im * o.im,
                            self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _operand(other)
        if o is NotImplemented:
            return o
        if o.is_zero:
            raise ZeroDivisionError("division by exact zero")
        if o.im == 0:   # a real divisor: the same quotient, without |o|^2
            return ExactComplex(self.re / o.re, self.im / o.re)
        d = o.re * o.re + o.im * o.im
        return ExactComplex((self.re * o.re + self.im * o.im) / d,
                            (self.im * o.re - self.re * o.im) / d)

    def __rtruediv__(self, other):
        o = _operand(other)
        return o if o is NotImplemented else o / self

    def __neg__(self):
        return ExactComplex(-self.re, -self.im)

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


def _operand(x):
    """The other operand of + - * / as an ExactComplex, or NotImplemented
    for a type coerce cannot build; a float complex is refused by coerce."""
    if isinstance(x, (ExactComplex, complex, Rational, str)):
        return ExactComplex.coerce(x)
    return NotImplemented


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


# -- backend-agnostic scalar helpers ----------------------------------
#
# The library's formulas are written once for both backends, over the
# operations an ExactComplex shares with a Python or numpy complex:
# + - * /, .conjugate(), .real and .imag.  |x|^2 is the one more they need.

def abs_sq(x):
    """|x|^2 = re^2 + im^2: a Fraction for an ExactComplex, a float for a
    float scalar."""
    return x.real * x.real + x.imag * x.imag
