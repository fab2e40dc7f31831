"""Dense univariate polynomials over exact Gaussian rationals or complex doubles.

Coefficients are stored ascending.  A polynomial is exact when every
coefficient is a :class:`~polygraph.scalars.GaussRat`; arithmetic mixing
the two modes follows the scalar rule of :mod:`polygraph.scalars`.  The zero
polynomial has an empty coefficient tuple and degree -1.

`GaussRat` is only the stored and public scalar.  Exact multiplication,
division and gcd clear the common denominator of their operands on entry,
run on polynomials over Z[i] (ascending lists of (re, im) int pairs, the
`_gz_*` helpers below) and convert back once on exit: integer convolution,
pseudo-division followed by one division by lc**e and the denominators, and
the subresultant PRS (Collins 1967; Brown and Traub 1971).
`resultant_by_evaluation`, the exact resultant of `bipoly`, evaluates at
integers, takes scalar resultants by the same PRS and interpolates on the
same helpers; the Z[i] format does not leave this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DomainError, ExactArithmeticRequired, SynthesisError
from .scalars import GR_ONE, GR_ZERO, GaussRat, is_exact, require_finite, square_and_multiply

# Float coefficients below this fraction of the largest one are treated as
# arithmetic debris and trimmed from the leading end.
TRIM_REL = 1e-12


class cached:
    """Lock-free cached property: the first read stores the value in the
    instance __dict__, where later reads find it before this non-data
    descriptor (functools.cached_property locks on Python 3.10 and 3.11)."""

    def __init__(self, func):
        self.func = func
        self.name = func.__name__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


def _trim(coeffs: list, exact_mode: bool) -> tuple:
    if exact_mode:
        while coeffs and not coeffs[-1]:
            coeffs.pop()
    else:
        scale = max((abs(c) for c in coeffs), default=0.0)
        floor = TRIM_REL * scale
        while coeffs and abs(coeffs[-1]) <= floor:
            coeffs.pop()
    return tuple(coeffs)


@dataclass(frozen=True)
class UniPoly:
    coeffs: tuple  # ascending powers, trimmed
    var: str = "x"

    @staticmethod
    def make(coeffs: Iterable, var: str = "x") -> "UniPoly":
        cs = list(coeffs)
        exact_mode = all(is_exact(c) for c in cs)
        if exact_mode:
            return UniPoly(_trim(cs, True), var)
        cs = [require_finite(complex(c), "polynomial construction") for c in cs]
        return UniPoly(_trim(cs, False), var)

    @staticmethod
    def zero(var: str = "x") -> "UniPoly":
        return UniPoly((), var)

    @staticmethod
    def one(var: str = "x") -> "UniPoly":
        return UniPoly((GR_ONE,), var)

    @staticmethod
    def variable(var: str = "x") -> "UniPoly":
        return UniPoly((GR_ZERO, GR_ONE), var)

    @staticmethod
    def constant(c, var: str = "x") -> "UniPoly":
        return UniPoly.make([c], var)

    # -- structure -------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @cached
    def mode(self) -> str:
        return "exact" if all(is_exact(c) for c in self.coeffs) else "float"

    @property
    def _zero(self):
        return GR_ZERO if self.mode == "exact" else 0j

    @property
    def lead(self):
        if self.is_zero:
            raise DomainError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, k: int):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return self._zero

    def is_constant(self) -> bool:
        return self.degree <= 0

    def to_float(self) -> "UniPoly":
        if self.mode == "float":
            return self
        return UniPoly(tuple(complex(c) for c in self.coeffs), self.var)

    def rename(self, var: str) -> "UniPoly":
        return UniPoly(self.coeffs, var)

    def coeff_scale(self) -> float:
        return max((abs(complex(c)) for c in self.coeffs), default=0.0)

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "UniPoly") -> "UniPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly.make(
            [self.coeff(k) + other.coeff(k) for k in range(n)], self.var
        )

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-other)

    def __neg__(self) -> "UniPoly":
        return UniPoly(tuple(-c for c in self.coeffs), self.var)

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        if self.is_zero or other.is_zero:
            return UniPoly.zero(self.var)
        if self.mode == "exact" and other.mode == "exact":
            (a,), da = _gz_clear([self])
            (b,), db = _gz_clear([other])
            return _gz_unipoly(_gz_mul(a, b), (da * db, 0), self.var)
        out = [0j] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return UniPoly.make(out, self.var)

    def scale(self, s) -> "UniPoly":
        return UniPoly.make([c * s for c in self.coeffs], self.var)

    def power(self, k: int) -> "UniPoly":
        if k < 0:
            raise DomainError("negative polynomial power")
        return square_and_multiply(self, k, UniPoly.one(self.var))

    def derivative(self) -> "UniPoly":
        return UniPoly.make(
            [self.coeffs[k] * k for k in range(1, len(self.coeffs))], self.var
        )

    def __call__(self, u):
        return self.eval(u)

    def eval(self, u):
        """Horner evaluation; float paths raise on overflow."""
        if self.mode == "exact" and is_exact(u):
            acc = GR_ZERO
        else:
            acc, u = 0j, complex(u)
        for c in reversed(self.coeffs):
            acc = acc * u + c
        return acc if is_exact(acc) else require_finite(acc, "polynomial evaluation")

    # -- exact division and gcd ------------------------------------------

    def monic(self) -> "UniPoly":
        if self.is_zero:
            return self
        lead = self.lead
        return UniPoly(tuple(c / lead for c in self.coeffs), self.var)

    def divmod(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        if self.mode != "exact" or other.mode != "exact":
            raise ExactArithmeticRequired("polynomial division requires exact scalars")
        if other.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        # lc**e * a = Q*b + R over Z[i] for the cleared a = A/da, b = B/db,
        # so the quotient is Q*db / (lc**e*da) and the remainder R / (lc**e*da).
        (a,), da = _gz_clear([self])
        (b,), db = _gz_clear([other])
        quo, rem, lc_e = _gz_pseudo_divmod(a, b)
        den = (lc_e[0] * da, lc_e[1] * da)
        quo = [(re * db, im * db) for re, im in quo]
        return _gz_unipoly(quo, den, self.var), _gz_unipoly(rem, den, self.var)

    def divexact(self, other: "UniPoly") -> "UniPoly":
        q, r = self.divmod(other)
        if not r.is_zero:
            raise DomainError("inexact polynomial division")
        return q

    def gcd(self, other: "UniPoly") -> "UniPoly":
        """Monic gcd over exact scalars; gcd(0, 0) = 0."""
        if self.mode != "exact" or other.mode != "exact":
            raise ExactArithmeticRequired("gcd is only defined in exact mode")
        var = other.var if self.is_zero and not other.is_zero else self.var
        (a, b), _ = _gz_clear([self, other])
        g = _gz_gcd(a, b)
        return _gz_unipoly(g, g[-1], var) if g else UniPoly.zero(var)

    def divides(self, other: "UniPoly") -> bool:
        if self.is_zero:
            return other.is_zero
        return other.divmod(self)[1].is_zero

    # -- misc --------------------------------------------------------------

    def __str__(self):
        from .textio import format_unipoly

        return format_unipoly(self)

    __repr__ = __str__


# -- polynomials over Z[i] ----------------------------------------------------
#
# Ascending lists of (re, im) int pairs with a nonzero last entry; [] is the
# zero polynomial.  Gaussian integer scalars are (re, im) pairs too.


def _gz_clear(polys: Sequence[UniPoly]) -> tuple[list, int]:
    """Exact polys as Z[i] polynomials over their common denominator den."""
    den = 1
    for p in polys:
        for c in p.coeffs:
            den = math.lcm(den, c.re.denominator, c.im.denominator)
    return [
        [(c.re.numerator * (den // c.re.denominator),
          c.im.numerator * (den // c.im.denominator)) for c in p.coeffs]
        for p in polys
    ], den


def _gz_unipoly(p: list, den: tuple, var: str) -> UniPoly:
    """The exact UniPoly p / den, for a nonzero Gaussian integer den."""
    c, d = den
    if not d:
        coeffs = (GaussRat(Fraction(re, c), Fraction(im, c)) for re, im in p)
    else:
        n = c * c + d * d
        coeffs = (
            GaussRat(Fraction(re * c + im * d, n), Fraction(im * c - re * d, n))
            for re, im in p
        )
    return UniPoly(tuple(coeffs), var)


def _gi_mul(s: tuple, t: tuple) -> tuple:
    return (s[0] * t[0] - s[1] * t[1], s[0] * t[1] + s[1] * t[0])


def _gi_pow(s: tuple, k: int) -> tuple:
    out = (1, 0)
    for _ in range(k):
        out = _gi_mul(out, s)
    return out


def _gi_divexact(s: tuple, t: tuple) -> tuple:
    """s / t for a Gaussian integer t that divides s."""
    c, d = t
    n = c * c + d * d
    return ((s[0] * c + s[1] * d) // n, (s[1] * c - s[0] * d) // n)


def _gz_mul(p: list, q: list) -> list:
    if not p or not q:
        return []
    re = [0] * (len(p) + len(q) - 1)
    im = re[:]
    for i, (a, b) in enumerate(p):
        if not a and not b:
            continue
        for j, (c, d) in enumerate(q):
            re[i + j] += a * c - b * d
            im[i + j] += a * d + b * c
    return list(zip(re, im))  # Z[i] has no zero divisors: the lead is nonzero


def _gz_pseudo_divmod(a: list, b: list) -> tuple[list, list, tuple]:
    """(Q, R, lc**e) with lc**e * a = Q*b + R and deg R < deg b.

    lc is the leading coefficient of b != [] and e = max(deg a - deg b + 1, 0).
    """
    m = len(b) - 1
    e = max(len(a) - m, 0)
    lc = b[-1]
    rem = a[:]
    quo = [(0, 0)] * e
    for k in range(e - 1, -1, -1):
        t = rem.pop()  # the coefficient of x**(k + m)
        quo = [_gi_mul(lc, q) for q in quo]
        quo[k] = t
        rem = [_gi_mul(lc, r) for r in rem]
        if t[0] or t[1]:
            for j in range(m):
                r, s = rem[k + j]
                u, v = _gi_mul(t, b[j])
                rem[k + j] = (r - u, s - v)
    while rem and rem[-1] == (0, 0):
        rem.pop()
    return quo, rem, _gi_pow(lc, e)


def _gz_eval(p: list, t: int) -> tuple:
    """p(t) for an integer t, by Horner."""
    re = im = 0
    for a, b in reversed(p):
        re, im = re * t + a, im * t + b
    return re, im


def _gz_prs(a: list, b: list) -> tuple[list, list, tuple, int]:
    """The subresultant PRS of a and b over Z[i] (Collins 1967; Brown and
    Traub 1971; Cohen, Alg. 3.3.7), run up to its first element of degree <= 0.

    Returns (a, b, h, sign): b is that element, a the one before it (an
    associate of gcd(a, b) when b is []), h the recurrence's h after the last
    step and sign the sign of Res(a, b) collected on the way.
    """
    sign = 1
    if len(a) < len(b):
        a, b = b, a
        sign = -1 if len(a) % 2 == 0 and len(b) % 2 == 0 else 1  # both degrees odd
    g = h = (1, 0)
    while len(b) > 1:
        delta = len(a) - len(b)
        _, r, _ = _gz_pseudo_divmod(a, b)
        if len(a) % 2 == 0 and len(b) % 2 == 0:
            sign = -sign
        s = _gi_mul(g, _gi_pow(h, delta))
        a, b = b, [_gi_divexact(c, s) for c in r]
        g = a[-1]
        h = _gi_divexact(_gi_pow(g, delta), _gi_pow(h, delta - 1)) if delta else h
    return a, b, h, sign


def _gz_gcd(a: list, b: list) -> list:
    """An associate of gcd(a, b) over Q(i), by the subresultant PRS; [] iff both are []."""
    a, b, _, _ = _gz_prs(a, b)
    return a if not b else [(1, 0)]


def _gz_resultant(a: list, b: list) -> tuple:
    """Res(a, b) of nonzero a and b over Z[i], by the subresultant PRS."""
    a, b, h, sign = _gz_prs(a, b)
    if not b:
        return (0, 0)
    k = len(a) - 1  # k = 0 only for two constants: h = 1, _gi_pow(h, -1) = 1
    res = _gi_divexact(_gi_pow(b[0], k), _gi_pow(h, k - 1))
    return res if sign > 0 else (-res[0], -res[1])


def _gz_interpolate(values: list, t0: int) -> list:
    """n! * f for the f of degree <= n with f(t0 + k) = values[k], k = 0..n.

    Newton's forward-difference form scaled by n! has integer coefficients,
    so Horner on it stays in the integers; real and imaginary parts in turn.
    """
    n = len(values) - 1
    parts = []
    for vals in zip(*values):
        diffs = []
        for _ in range(n + 1):
            diffs.append(vals[0])
            vals = [b - a for a, b in zip(vals, vals[1:])]
        out = [diffs[n]]
        scale = 1  # n! / k!
        for k in range(n - 1, -1, -1):
            scale *= k + 1
            out = [0] + out  # out * (t - t0 - k)
            for i in range(len(out) - 1):
                out[i] -= (t0 + k) * out[i + 1]
            out[0] += scale * diffs[k]
        parts.append(out)
    out = list(zip(*parts))
    while out and out[-1] == (0, 0):
        out.pop()
    return out


def resultant_by_evaluation(
    pc: Sequence[UniPoly], qc: Sequence[UniPoly], bound: int, var: str
) -> UniPoly:
    """Res_t(P, Q) in var for P = sum_k pc[k] t**k and Q = sum_k qc[k] t**k.

    pc and qc are exact UniPolys in var with nonzero last entries, and
    bound bounds the degree of the resultant.  The coefficients are cleared
    of denominators once.  The resultant is evaluated at the first run
    t0..t0+bound of integers where neither leading coefficient vanishes
    (only there does specialisation commute with the resultant), by the
    subresultant PRS, and interpolated in the integers.
    """
    a, den_p = _gz_clear(pc)
    b, den_q = _gz_clear(qc)
    t0 = t = 0
    while t <= t0 + bound:
        if _gz_eval(a[-1], t) == (0, 0) or _gz_eval(b[-1], t) == (0, 0):
            t0 = t + 1
        t += 1
    vals = [
        _gz_resultant([_gz_eval(c, t) for c in a], [_gz_eval(c, t) for c in b])
        for t in range(t0, t0 + bound + 1)
    ]
    # Res(a, b) = den_p**deg Q * den_q**deg P * Res(P, Q)
    den = math.factorial(bound) * den_p ** (len(qc) - 1) * den_q ** (len(pc) - 1)
    return _gz_unipoly(_gz_interpolate(vals, t0), (den, 0), var)


def from_roots(roots: Sequence, lead=1.0, var: str = "x") -> UniPoly:
    """Expand lead * prod (var - r) over the mode of the inputs."""
    p = UniPoly.constant(lead, var)
    for r in roots:
        p = p * UniPoly.make([-r, GR_ONE], var)
    return p


def lagrange_interpolate(points: Sequence[tuple], var: str = "x") -> UniPoly:
    """Exact interpolation through (node, value) GaussRat pairs.

    Nodes must be pairwise distinct; the result is the unique polynomial of
    degree < len(points) matching every pair.  Newton's divided differences
    give its Newton form, which Horner expands (von zur Gathen and Gerhard,
    Modern Computer Algebra, Ch. 5).
    """
    nodes = [p[0] for p in points]
    coef = [p[1] for p in points]
    if not all(is_exact(u) for u in nodes) or not all(is_exact(v) for v in coef):
        raise ExactArithmeticRequired("interpolation nodes and values must be exact")
    for i in range(len(nodes)):
        for j in range(i + 1, len(nodes)):
            if nodes[i] == nodes[j]:
                raise SynthesisError(
                    "repeated interpolation node", node=str(nodes[i])
                )
    n = len(nodes)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (nodes[i] - nodes[i - j])
    acc: list = []
    for k in range(n - 1, -1, -1):  # acc = acc * (x - nodes[k]) + coef[k]
        acc = [GR_ZERO] + acc
        for i in range(len(acc) - 1):
            acc[i] = acc[i] - nodes[k] * acc[i + 1]
        acc[0] = acc[0] + coef[k]
    return UniPoly.make(acc, var)
