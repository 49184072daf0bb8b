"""Exact Gaussian-rational scalars.

Every coefficient in the engine is a + b*i with a, b rational, held exactly.
Floats are rejected at construction. The rational type is
fractions.Fraction, which keeps values reduced with positive denominators.
"""

from __future__ import annotations

import sys
from fractions import Fraction

from .errors import OutputLimitError

BACKEND = "fractions"

QZERO = Fraction(0)
QONE = Fraction(1)


def rational(num=0, den=1):
    """Exact rational from ints, a Fraction, or 'a/b' text."""
    if den != 1:
        return _coerce(num) / _coerce(den)
    return _coerce(num)


def _coerce(v):
    if type(v) is Fraction:
        return v
    if isinstance(v, (int, Fraction, str)):
        return Fraction(v)
    raise TypeError(f"cannot build an exact rational from {type(v).__name__}")


class GaussianRational:
    """Immutable complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _coerce(re))
        object.__setattr__(self, "im", _coerce(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @classmethod
    def _wrap(cls, re, im):
        # internal: re/im are already Fractions
        self = object.__new__(cls)
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)
        return self

    # predicates

    def is_zero(self):
        return not self.re and not self.im

    def is_one(self):
        return self.re == 1 and not self.im

    def is_real(self):
        return not self.im

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    # field operations

    def __add__(self, other):
        other = _as_gaussian(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational._wrap(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_gaussian(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational._wrap(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _as_gaussian(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational._wrap(other.re - self.re, other.im - self.im)

    def __neg__(self):
        return GaussianRational._wrap(-self.re, -self.im)

    def __mul__(self, other):
        other = _as_gaussian(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, c, d = self.re, self.im, other.re, other.im
        return GaussianRational._wrap(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def inverse(self):
        n = self.re * self.re + self.im * self.im
        if not n:
            raise ZeroDivisionError("inverse of zero")
        return GaussianRational._wrap(self.re / n, -self.im / n)

    def __truediv__(self, other):
        other = _as_gaussian(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _as_gaussian(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        out = G_ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def conjugate(self):
        return GaussianRational._wrap(self.re, -self.im)

    # comparison / hashing

    def __eq__(self, other):
        other = _as_gaussian(other)
        if other is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    # rendering: canonical scalar text, reparsed by the expression grammar

    def __str__(self):
        return scalar_to_string(self)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


def _coerce_gaussian(v):
    """v itself if it is a GaussianRational, else GaussianRational(v)."""
    return v if isinstance(v, GaussianRational) else GaussianRational(v)


def _as_gaussian(v):
    if isinstance(v, GaussianRational):
        return v
    if isinstance(v, (int, Fraction)):
        return GaussianRational._wrap(_coerce(v), QZERO)
    return NotImplemented


def rational_to_string(q):
    """str(q); OutputLimitError when a part is past Python's digit limit."""
    try:
        return str(q)
    except ValueError:
        raise OutputLimitError(
            "a coefficient has more than "
            f"{sys.get_int_max_str_digits()} digits, Python's limit for "
            "printing an integer") from None


def _imag_text(mag):
    return "i" if mag == 1 else f"{rational_to_string(mag)}*i"


def scalar_to_string(c):
    """Canonical text: 'a/b', 'c/d*i', or 'a/b+c/d*i' with units suppressed."""
    if c.is_zero():
        return "0"
    if not c.im:
        return rational_to_string(c.re)
    if not c.re:
        if c.im < 0:
            return "-" + _imag_text(-c.im)
        return _imag_text(c.im)
    sign = "-" if c.im < 0 else "+"
    return f"{rational_to_string(c.re)}{sign}{_imag_text(abs(c.im))}"


G_ZERO = GaussianRational(0)
G_ONE = GaussianRational(1)
G_I = GaussianRational(0, 1)
G_MINUS_I = GaussianRational(0, -1)
