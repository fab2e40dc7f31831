"""Scalar backends: exact Gaussian rationals and complex doubles.

Algebraic predicates (gcd, resultant-is-zero, standardness) are only
authoritative over the exact backend; root finding and exploration live in
complex doubles.  A value is "exact" exactly when it is a :class:`GaussRat`;
everything else (int/float/complex) is treated as a float-mode scalar and is
never promoted to exact.

The mixing rule lives here and nowhere else: in arithmetic, a GaussRat
combined with an int or Fraction by + - * / stays exact, and combined with
a float or complex it gives what ``complex(exact)`` gives in its place.
Exact with float gives float, never the reverse, so polynomial arithmetic
mixes the two backends without branching on their modes.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, EvaluationOverflow


@dataclass(frozen=True)
class GaussRat:
    """A Gaussian rational re + im*i with arbitrary-precision Fraction parts."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    @staticmethod
    def of(re, im=0) -> "GaussRat":
        return GaussRat(Fraction(re), Fraction(im))

    def __add__(self, other):
        o = _as_gauss(other)
        if o is None:
            return complex(self) + other if isinstance(other, _FLOATS) else NotImplemented
        return GaussRat(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = _as_gauss(other)
        if o is None:
            return complex(self) - other if isinstance(other, _FLOATS) else NotImplemented
        return GaussRat(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = _as_gauss(other)
        if o is None:
            return other - complex(self) if isinstance(other, _FLOATS) else NotImplemented
        return GaussRat(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = _as_gauss(other)
        if o is None:
            return complex(self) * other if isinstance(other, _FLOATS) else NotImplemented
        return GaussRat(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _as_gauss(other)
        if o is None:
            return complex(self) / other if isinstance(other, _FLOATS) else NotImplemented
        n = o.re * o.re + o.im * o.im
        if n == 0:
            raise ZeroDivisionError("division by zero GaussRat")
        return GaussRat(
            (self.re * o.re + self.im * o.im) / n,
            (self.im * o.re - self.re * o.im) / n,
        )

    def __rtruediv__(self, other):
        o = _as_gauss(other)
        if o is None:
            return other / complex(self) if isinstance(other, _FLOATS) else NotImplemented
        return o / self

    def __neg__(self):
        return GaussRat(-self.re, -self.im)

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise DomainError("GaussRat powers must be nonnegative integers")
        return square_and_multiply(self, k, GR_ONE)

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __complex__(self):
        try:
            return complex(float(self.re), float(self.im))
        except OverflowError:
            raise EvaluationOverflow("exact scalar beyond the float range") from None

    def is_real(self) -> bool:
        return self.im == 0

    def __str__(self):
        from .textio import format_scalar

        return format_scalar(self)

    __repr__ = __str__


GR_ZERO = GaussRat()
GR_ONE = GaussRat(Fraction(1))
GR_I = GaussRat(Fraction(0), Fraction(1))


_FLOATS = (float, complex)


def _as_gauss(v):
    if isinstance(v, GaussRat):
        return v
    if isinstance(v, (int, Fraction)):
        return GaussRat(Fraction(v))
    return None


def is_exact(v) -> bool:
    return isinstance(v, GaussRat)


def square_and_multiply(base, k: int, one, mul=operator.mul):
    """base**k for an int k >= 0 by square-and-multiply under the product
    mul; one is its unit."""
    out = one
    while k:
        if k & 1:
            out = mul(out, base)
        k >>= 1
        if k:
            base = mul(base, base)
    return out


def require_finite(z: complex, context: str) -> complex:
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise EvaluationOverflow(f"non-finite value during {context}")
    return z
