"""Dense univariate polynomials over exact Gaussian rationals or complex doubles.

Coefficients are stored ascending in `terms`.  An exact polynomial stores
them as (re, im) int pairs, the numerators over one positive int `den`, in
lowest terms (no integer > 1 divides `den` and every part), so equal
polynomials have equal fields however they were built.  A float polynomial
stores complex doubles and `den` = 0.  The zero polynomial has no terms and
`den` = 1: it is exact.  Arithmetic mixing the two modes follows the scalar
rule of :mod:`polygraph.scalars`.

Exact arithmetic, evaluation, division and the gcd run on these integers
(polynomials over Z[i] as lists of (re, im) pairs, the `_gz_*` helpers
below): integer convolution, pseudo-division followed by one division by
lc**e and the denominators, and the subresultant PRS (Collins 1967; Brown
and Traub 1971).  `gcd_all`, the one gcd path, folds the PRS gcd over any
number of polynomials and makes the result monic once;
`UniPoly.squarefree_part` divides by the gcd with the derivative.

`resultant_by_evaluation` is the one exact resultant: Res_t(P, dP/dt) for
P = sum_k p_k t**k with UniPoly coefficients p_k, by scalar resultants
taken with the same PRS.  Below a size rule (`KRONECKER_WORK`) it takes
one, at the Kronecker point x = 2**s chosen above `sylvester_norm`, a
proven bound on the coefficients of the resultant, and reads them back as
balanced base-2**s digits; above it, it takes one at each of bound + 1
integers and interpolates.  It takes P's coefficients alone: dP/dt has the
numerators k*p_k over P's denominator, so its images at each point are k
times P's and no derivative is built.  `GaussRat` is the public scalar
only: `make` and scalar arguments take it, `coeffs`, `coeff(k)`, `lead`
and exact `eval` return it.

This module is the only one that knows the format.  A `BiPoly` is a tuple
of UniPoly rows, the coefficients of y**j as polynomials in x, and works on
them through the public operations; `shift` (times x**k), `scale` by an int,
`transpose` (the coefficients by powers of x instead of y), `convolve`
(the rows of a product, one normalization per row) and `diagonal` (the
rows summed as sum_j rows[j] * x**j, in one pass) are there for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Iterable, Sequence

from .errors import DomainError, EvaluationOverflow, ExactArithmeticRequired, SynthesisError
from .scalars import GR_ONE, GR_ZERO, GaussRat, _as_gauss, is_exact, require_finite, square_and_multiply


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


@dataclass(frozen=True)
class UniPoly:
    terms: tuple  # ascending powers, the last nonzero: (re, im) int pairs, or complex
    den: int  # exact: the positive common denominator; float: 0
    var: str = "x"

    @staticmethod
    def make(coeffs: Iterable, var: str = "x") -> "UniPoly":
        cs = list(coeffs)
        if all(is_exact(c) for c in cs):
            p, den = _from_gauss(cs)
            return _gz_poly(p, den, var)
        cs = [require_finite(complex(c), "polynomial construction") for c in cs]
        while cs and not cs[-1]:
            cs.pop()
        return UniPoly(tuple(cs), 0 if cs else 1, var)

    @staticmethod
    def zero(var: str = "x") -> "UniPoly":
        return UniPoly((), 1, var)

    @staticmethod
    def one(var: str = "x") -> "UniPoly":
        return UniPoly(((1, 0),), 1, var)

    @staticmethod
    def variable(var: str = "x") -> "UniPoly":
        return UniPoly(((0, 0), (1, 0)), 1, var)

    @staticmethod
    def constant(c, var: str = "x") -> "UniPoly":
        return UniPoly.make([c], var)

    # -- structure -------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self) -> int:
        return len(self.terms) - 1

    @cached
    def mode(self) -> str:
        return "exact" if self.den else "float"

    @cached
    def coeffs(self) -> tuple:
        """The coefficients, ascending: GaussRat values or complex doubles."""
        if self.den:
            return tuple(_gauss(re, im, self.den) for re, im in self.terms)
        return self.terms

    @property
    def lead(self):
        if self.is_zero:
            raise DomainError("zero polynomial has no leading coefficient")
        return self.coeff(self.degree)

    def coeff(self, k: int):
        if 0 <= k < len(self.terms):
            return _gauss(*self.terms[k], self.den) if self.den else self.terms[k]
        return GR_ZERO if self.den else 0j

    def to_float(self) -> "UniPoly":
        """The float image; a coefficient below the float range rounds to 0,
        one beyond it raises EvaluationOverflow."""
        if self.mode == "float" or self.is_zero:
            return self
        return UniPoly.make([_complex(re, im, self.den) for re, im in self.terms], self.var)

    def rename(self, var: str) -> "UniPoly":
        return UniPoly(self.terms, self.den, var)

    def coeff_scale(self) -> float:
        return max((abs(c) for c in self.to_float().terms), default=0.0)

    def norm1(self) -> Fraction:
        """The sum of |re| + |im| over the coefficients (exact mode)."""
        return Fraction(sum(abs(re) + abs(im) for re, im in self.terms), self.den)

    def max_part(self) -> Fraction:
        """The largest |re| or |im| of a coefficient, 0 for the zero
        polynomial (exact mode)."""
        return Fraction(max((max(abs(re), abs(im)) for re, im in self.terms), default=0), self.den)

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "UniPoly") -> "UniPoly":
        if self.den and other.den:
            if not (self.terms and other.terms):
                return (self if other.is_zero else other).rename(self.var)
            den = math.lcm(self.den, other.den)
            p = _gz_lincomb(self.terms, den // self.den, other.terms, den // other.den)
            return _gz_poly(p, den, self.var)
        a, b = self.to_float().terms, other.to_float().terms
        if len(a) < len(b):
            a, b = b, a
        return UniPoly.make([s + t for s, t in zip(a, b + (0j,) * (len(a) - len(b)))], self.var)

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-other)

    def __neg__(self) -> "UniPoly":
        if self.den:
            return UniPoly(tuple((-re, -im) for re, im in self.terms), self.den, self.var)
        return UniPoly(tuple(-c for c in self.terms), 0, self.var)

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        return convolve([self], [other])[0]

    def scale(self, s) -> "UniPoly":
        if self.den and isinstance(s, int):
            return _gz_poly([(re * s, im * s) for re, im in self.terms], self.den, self.var)
        g = _as_gauss(s) if self.den else None
        if g is None:
            return UniPoly.make([c * s for c in self.to_float().terms], self.var)
        (t,), d = _from_gauss([g])
        return _gz_poly([_gi_mul(c, t) for c in self.terms], self.den * d, self.var)

    def shift(self, k: int) -> "UniPoly":
        """self * var**k for k >= 0."""
        if self.is_zero or not k:
            return self
        return UniPoly(((0, 0) if self.den else 0j,) * k + self.terms, self.den, self.var)

    def power(self, k: int) -> "UniPoly":
        if k < 0:
            raise DomainError("negative polynomial power")
        return square_and_multiply(self, k, UniPoly.one(self.var))

    def derivative(self) -> "UniPoly":
        if self.den:
            p = [(re * k, im * k) for k, (re, im) in enumerate(self.terms)]
            return _gz_poly(p[1:], self.den, self.var)
        return UniPoly.make([self.terms[k] * k for k in range(1, len(self.terms))], self.var)

    def eval(self, u):
        """Horner evaluation: exact (a GaussRat) when self and u are; float
        paths raise on overflow."""
        if self.den and is_exact(u):
            if self.is_zero:
                return GR_ZERO
            (t,), d = _from_gauss([u])
            re, im = _gz_horner(self.terms, t, d)
            return _gauss(re, im, self.den * d**self.degree)
        acc, u = 0j, complex(u)
        for c in reversed(self.to_float().terms):
            acc = acc * u + c
        return require_finite(acc, "polynomial evaluation")

    # -- exact division and gcd ------------------------------------------

    def monic(self) -> "UniPoly":
        if self.is_zero:
            return self
        if self.den:
            return _gz_poly(*_gz_over(self.terms, self.terms[-1]), self.var)
        lead = self.lead
        return UniPoly(tuple(c / lead for c in self.terms), 0, self.var)

    def divmod(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        if self.mode != "exact" or other.mode != "exact":
            raise ExactArithmeticRequired("polynomial division requires exact scalars")
        if other.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        # lc**e * a = Q*b + R over Z[i] for the numerators a = A*da, b = B*db,
        # so the quotient is Q*db / (lc**e*da) and the remainder R / (lc**e*da).
        da, db = self.den, other.den
        quo, rem, lc_e = _gz_pseudo_divmod(list(self.terms), other.terms)
        den = (lc_e[0] * da, lc_e[1] * da)
        quo = [(re * db, im * db) for re, im in quo]
        return _gz_poly(*_gz_over(quo, den), self.var), _gz_poly(*_gz_over(rem, den), self.var)

    def divexact(self, other: "UniPoly") -> "UniPoly":
        q, r = self.divmod(other)
        if not r.is_zero:
            raise DomainError("inexact polynomial division")
        return q

    def gcd(self, other: "UniPoly") -> "UniPoly":
        """Monic gcd over exact scalars; gcd(0, 0) = 0."""
        var = other.var if self.is_zero and not other.is_zero else self.var
        return gcd_all([self, other], var)

    def divides(self, other: "UniPoly") -> bool:
        if self.is_zero:
            return other.is_zero
        return other.divmod(self)[1].is_zero

    def squarefree_part(self) -> "UniPoly":
        """self over its monic gcd with its derivative (exact): its roots,
        each simple, under its leading coefficient; a constant is itself."""
        return self.divexact(self.gcd(self.derivative())) if self.degree > 0 else self

    # -- misc --------------------------------------------------------------

    def __str__(self):
        from .textio import format_unipoly

        return format_unipoly(self)

    __repr__ = __str__


# -- exact scalars -------------------------------------------------------------


def _gauss(re: int, im: int, den: int) -> GaussRat:
    return GaussRat(Fraction(re, den), Fraction(im, den))


def _complex(re: int, im: int, den: int) -> complex:
    """complex((re + im*i) / den), each part rounded once, as complex(GaussRat) does."""
    try:
        return complex(re / den, im / den)
    except OverflowError:
        raise EvaluationOverflow("exact scalar beyond the float range") from None


def _from_gauss(values: Sequence[GaussRat]) -> tuple[list, int]:
    """GaussRat values as Gaussian integers over their least common
    denominator den, which leaves them in lowest terms."""
    den = math.lcm(*(c.re.denominator for c in values), *(c.im.denominator for c in values))
    return [
        (c.re.numerator * (den // c.re.denominator), c.im.numerator * (den // c.im.denominator))
        for c in values
    ], den


def _lowest(parts: Iterable[tuple], den: int) -> int:
    """The int g, of den's sign, with den / g > 0 and the gcd of den / g
    and every part / g equal to 1."""
    if den == 1:
        return 1
    g = math.gcd(den, *chain.from_iterable(parts))
    return -g if den < 0 else g


# -- polynomials over Z[i] ----------------------------------------------------
#
# Ascending sequences of (re, im) int pairs with a nonzero last entry; [] is
# the zero polynomial.  Gaussian integer scalars are (re, im) pairs too.


def _gz_poly(p: list, den: int, var: str) -> UniPoly:
    """The exact UniPoly p / den for a nonzero int den; trims p in place."""
    while p and p[-1] == (0, 0):
        p.pop()
    g = _lowest(p, den)
    if g != 1:
        p = [(re // g, im // g) for re, im in p]
    return UniPoly(tuple(p), den // g, var)


def _gz_over(p: Iterable, den: tuple) -> tuple[list, int]:
    """(q, n) with q / n = p / den, for a nonzero Gaussian integer den and an int n."""
    c, d = den
    if not d:
        return list(p), c
    return [(re * c + im * d, im * c - re * d) for re, im in p], c * c + d * d


def _gz_lincomb(p: Sequence, s: int, q: Sequence, t: int) -> list:
    """s*p + t*q for ints s and t, untrimmed."""
    if len(p) < len(q):
        p, s, q, t = q, t, p, s
    out = [(a * s + c * t, b * s + d * t) for (a, b), (c, d) in zip(p, q)]
    out += [(a * s, b * s) for a, b in p[len(q):]]
    return out


def _gz_horner(p: Sequence, u: tuple, d: int) -> tuple:
    """d**n * p(u / d) for a Gaussian integer u, an int d and n = len(p) - 1,
    by Horner over Z[i]; the coefficient of t**k is scaled by d**(n - k)."""
    re = im = 0
    w = 1
    for a, b in reversed(p):
        re, im = re * u[0] - im * u[1] + a * w, re * u[1] + im * u[0] + b * w
        w *= d
    return re, im


def _gz_at(p: Sequence, t: int) -> tuple:
    """p(t) for an int t, by Horner over Z[i]."""
    re = im = 0
    for a, b in reversed(p):
        re, im = re * t + a, im * t + b
    return re, im


def _gi_mul(s: tuple, t: tuple) -> tuple:
    return (s[0] * t[0] - s[1] * t[1], s[0] * t[1] + s[1] * t[0])


def _gi_pow(s: tuple, k: int) -> tuple:
    """s**k for k >= 0."""
    return square_and_multiply(s, k, (1, 0), _gi_mul)


def _gi_divexact(s: tuple, t: tuple) -> tuple:
    """s / t for a Gaussian integer t that divides s."""
    c, d = t
    if not d:
        return s[0] // c, s[1] // c
    n = c * c + d * d
    return ((s[0] * c + s[1] * d) // n, (s[1] * c - s[0] * d) // n)


def _gz_pseudo_divmod(a: list, b: Sequence) -> tuple[list, list, tuple]:
    """(Q, R, lc**e) with lc**e * a = Q*b + R and deg R < deg b.

    lc is the leading coefficient of b != [] and e = max(deg a - deg b + 1, 0).
    Step k (k = e-1 .. 0) takes rem <- lc*rem - t_k x**k b for the leading
    term t_k of rem.  Only the top deg b entries of rem change at step k, so
    the entry of x**k is scaled by the lc**(e-1-k) it has gathered when it
    enters that window, and each quotient term is t_k * lc**k.
    """
    m = len(b) - 1
    e = max(len(a) - m, 0)
    lc = lr, li = b[-1]
    pows = [(1, 0)]
    for _ in range(e):
        pows.append(_gi_mul(pows[-1], lc))
    rem = a[:]
    quo = [(0, 0)] * e
    for k in range(e - 1, -1, -1):
        rem[k] = _gi_mul(rem[k], pows[e - 1 - k])
        t = tr, ti = rem.pop()  # the coefficient of x**(k + m)
        quo[k] = _gi_mul(t, pows[k])
        for j in range(m):
            r, s = rem[k + j]
            c, d = b[j]
            rem[k + j] = (lr * r - li * s - tr * c + ti * d, lr * s + li * r - tr * d - ti * c)
    while rem and rem[-1] == (0, 0):
        rem.pop()
    return quo, rem, pows[e]


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


def gcd_all(polys: Sequence[UniPoly], var: str) -> UniPoly:
    """Monic gcd of exact polys, a UniPoly named var; 0 when every poly is 0.

    Folds the subresultant PRS gcd over the polys' Z[i] numerators (von zur
    Gathen and Gerhard, Modern Computer Algebra, Ch. 6), stops at the first
    constant fold and makes the result monic once.
    """
    if any(not p.den for p in polys):
        raise ExactArithmeticRequired("gcd is only defined in exact mode")
    g: list = []
    for p in polys:
        g = _gz_gcd(g, list(p.terms))
        if len(g) == 1:
            return UniPoly.one(var)
    return _gz_poly(*_gz_over(g, g[-1]), var) if g else UniPoly.zero(var)


def _gz_resultant(a: list, b: list) -> tuple:
    """Res(a, b) of nonzero a and b over Z[i], not both constant, by the
    subresultant PRS."""
    a, b, h, sign = _gz_prs(a, b)
    if not b:
        return (0, 0)
    k = len(a) - 1  # >= 1: a is the PRS element before its first constant
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
    return list(zip(*parts))


def _gz_common(polys: Sequence[UniPoly]) -> tuple[list, int]:
    """Exact polys as Z[i] polynomials over their least common denominator."""
    den = math.lcm(*(p.den for p in polys))
    return [
        list(p.terms) if p.den == den else [(re * (den // p.den), im * (den // p.den)) for re, im in p.terms]
        for p in polys
    ], den


# The size rule.  The one PRS at the Kronecker point runs on integers of
# about bound * s bits, where interpolation runs bound + 1 PRSs on small
# integers.  It is taken while deg**2 * (bound + 1) * s is at most this
# many bits, deg = deg P: timed on both paths, the crossover falls with the
# eliminated degree faster than linearly, and at degree 3 the Kronecker PRS
# won on bounds up to 84 (a 3-regular round trip's D).
KRONECKER_WORK = 2**18


def sylvester_norm(pc: Sequence[UniPoly]) -> Fraction:
    """C = |P|**(d-1) * |P'|**d for P = sum_k pc[k] t**k of degree d >= 1
    in t, where |P| is the sum of |re| + |im| over every coefficient of
    every pc[k] and P' = dP/dt, so |P'| = sum_k k |pc[k]|.

    Res(P, P') is the determinant of the Sylvester matrix, whose d - 1 rows
    of P and d rows of P' have these 1-norms.  The 1-norm is
    submultiplicative, so C bounds |re| and |im| of every coefficient of
    Res(P, P'); and as each row is linear in P, moving every coefficient c
    of P by at most e |c| moves each of them by at most (2d - 1) e C, to
    first order.
    """
    a, den = _gz_common(pc)
    return Fraction(_sylvester_int(a), den ** (2 * len(a) - 3))


def _sylvester_int(a: list) -> int:
    """`sylvester_norm` of the P whose Z[i] numerators over its common
    denominator den are a: C * den**(2d - 1), an int."""
    norms = [sum(abs(re) + abs(im) for re, im in c) for c in a]
    d = len(a) - 1
    return sum(norms) ** (d - 1) * sum(k * n for k, n in enumerate(norms)) ** d


def _images(a: list, t: int) -> tuple[list, list]:
    """The coefficients of a and of its derivative sum_k k a[k] t**(k-1) at
    x = t, an int: the derivative's are k times a's (von zur Gathen and
    Gerhard, Modern Computer Algebra, Sec. 8.4), so a is evaluated once."""
    pa = [_gz_at(c, t) for c in a]
    return pa, [(k * re, k * im) for k, (re, im) in enumerate(pa) if k]


def _digits(v: int, s: int) -> list:
    """The balanced base-2**s digits of the int v, lowest first."""
    base = 1 << s
    half = base >> 1
    digits = []
    while v:
        d = v & (base - 1)
        if d >= half:
            d -= base
        digits.append(d)
        v = (v - d) >> s
    return digits


def _res_kronecker(a: list, s: int) -> list:
    """Res_t(a, da/dt) at the one point x = 2**s, read back as balanced
    base-2**s digits (von zur Gathen and Gerhard, Modern Computer Algebra,
    Sec. 8.4), for 2**(s-1) above a's `sylvester_norm`.  That norm bounds
    |re| and |im| of each coefficient of the resultant, so its digits are
    those parts, and of the leading coefficient of a (deg a >= 2), which
    thus does not vanish at 2**s: the resultant commutes with x = 2**s."""
    re, im = (_digits(v, s) for v in _gz_resultant(*_images(a, 1 << s)))
    n = max(len(re), len(im))
    return list(zip(re + [0] * (n - len(re)), im + [0] * (n - len(im))))


def _res_interpolated(a: list, bound: int) -> list:
    """Res_t(a, da/dt) for a resultant of degree <= bound, from its values
    at the first run t0..t0+bound of integers where a's leading coefficient
    (deg a times that of da/dt) does not vanish: only there does
    specialisation commute with the resultant."""
    t0 = t = 0
    while t <= t0 + bound:
        if _gz_at(a[-1], t) == (0, 0):
            t0 = t + 1
        t += 1
    vals = [_gz_resultant(*_images(a, t)) for t in range(t0, t0 + bound + 1)]
    f = math.factorial(bound)
    return [(re // f, im // f) for re, im in _gz_interpolate(vals, t0)]


def resultant_by_evaluation(pc: Sequence[UniPoly], bound: int, var: str) -> UniPoly:
    """Res_t(P, dP/dt) in var for P = sum_k pc[k] t**k.

    pc are exact UniPolys in var with a nonzero last entry, deg P >= 2, and
    bound bounds the degree of the resultant.  P is taken over its common
    denominator, which leaves a Z[i] polynomial a; dP/dt is k a[k] over the
    same denominator, and its images are k times a's, so it is never
    built.  One scalar subresultant PRS at the Kronecker point x = 2**s,
    2**(s-1) above `sylvester_norm` on a, gives Res(a, da/dt) when
    deg P**2 * (bound + 1) * s is at most KRONECKER_WORK; above it, bound
    + 1 scalar PRSs at integers and Newton interpolation do.
    """
    a, den = _gz_common(pc)
    d = len(a) - 1
    s = _sylvester_int(a).bit_length() + 1
    if d**2 * (bound + 1) * s <= KRONECKER_WORK:
        res = _res_kronecker(a, s)
    else:
        res = _res_interpolated(a, bound)
    # Res(a, da/dt) = den**(2d - 1) * Res(P, dP/dt)
    return _gz_poly(res, den ** (2 * d - 1), var)


def transpose(polys: Sequence[UniPoly], var: str) -> list[UniPoly]:
    """The coefficients of F = sum_j polys[j] t**j by powers of the polys'
    variable: out[i] is the coefficient of its i-th power, a UniPoly in t
    named var.  The polys share one mode; zero ones may be among them."""
    n = max((len(p.terms) for p in polys), default=0)
    if any(not p.den for p in polys):
        return [UniPoly.make([p.coeff(i) for p in polys], var) for i in range(n)]
    rows, den = _gz_common(polys)
    return [_gz_poly([r[i] if i < len(r) else (0, 0) for r in rows], den, var) for i in range(n)]


def convolve(a: Sequence[UniPoly], b: Sequence[UniPoly]) -> list[UniPoly]:
    """The coefficients of (sum_j a[j] t**j) * (sum_k b[k] t**k) by powers
    of t, for UniPolys in one variable (zero ones may be among them):
    out[i] = sum over j + k = i of a[j] * b[k].  Each output is one sum of
    products per coefficient: over Z[i] on the operands' common
    denominators, brought to lowest terms once, when every operand is exact;
    in complex doubles, then one `UniPoly.make` per output, otherwise."""
    var = a[0].var
    if not all(p.den for p in chain(a, b)):
        fa = [p.to_float().terms for p in a]
        fb = [q.to_float().terms for q in b]
        width = max(map(len, fa)) + max(map(len, fb)) - 1
        out = [[0j] * width for _ in range(len(a) + len(b) - 1)]
        # Output row j + k gathers a[j] * b[k], as in the exact loop below.
        for j, p in enumerate(fa):
            for i, s in enumerate(p):
                if not s:
                    continue
                for k, q in enumerate(fb):
                    row = out[j + k]
                    for m, t in enumerate(q):
                        row[i + m] += s * t
        return [UniPoly.make(r, var) for r in out]
    (pa, da), (pb, db) = _gz_common(a), _gz_common(b)
    width = max(map(len, pa)) + max(map(len, pb)) - 1
    re = [[0] * width for _ in range(len(a) + len(b) - 1)]
    im = [[0] * width for _ in re]
    # Output row j + k gathers a[j] * b[k].
    for j, p in enumerate(pa):
        for i, (s, t) in enumerate(p):
            if not s and not t:
                continue
            for k, q in enumerate(pb):
                out_re, out_im = re[j + k], im[j + k]
                for m, (u, v) in enumerate(q):
                    out_re[i + m] += s * u - t * v
                    out_im[i + m] += s * v + t * u
    return [_gz_poly(list(zip(r, m)), da * db, var) for r, m in zip(re, im)]


def diagonal(polys: Sequence[UniPoly]) -> UniPoly:
    """sum_j polys[j] * v**j for UniPolys in one variable v (zero ones may
    be among them): sum_j polys[j] t**j at t = v, in one pass.  Each output
    coefficient is one sum, over Z[i] on the common denominator and brought
    to lowest terms once when every poly is exact, in complex doubles
    otherwise; it adds its terms from the highest j down, the order of
    Horner in t, so a float result has Horner's bits."""
    var = polys[0].var if polys else "x"
    width = max((len(p.terms) + j for j, p in enumerate(polys)), default=0)
    if not all(p.den for p in polys):
        out = [0j] * width
        for j in range(len(polys) - 1, -1, -1):
            for i, c in enumerate(polys[j].to_float().terms, j):
                out[i] += c
        return UniPoly.make(out, var)
    rows, den = _gz_common(polys)
    re, im = [0] * width, [0] * width
    for j, p in enumerate(rows):
        for i, (s, t) in enumerate(p, j):
            re[i] += s
            im[i] += t
    return _gz_poly(list(zip(re, im)), den, var)


def from_roots(roots: Sequence, lead=1.0, var: str = "x") -> UniPoly:
    """Expand lead * prod (var - r) over the mode of the inputs."""
    p = UniPoly.constant(lead, var)
    for r in roots:
        p = p * UniPoly.make([-r, GR_ONE], var)
    return p


def lagrange_interpolate(points: Sequence[tuple], var: str = "x") -> UniPoly:
    """Exact interpolation through (node, value) GaussRat pairs.

    Nodes must be pairwise distinct; the result is the unique polynomial of
    degree < len(points) matching every pair.  With nodes u_k = U_k / s and
    values v_k = V_k / t over Gaussian integers, the g with g(U_k) = V_k is
    sum_k V_k P(X) / ((X - U_k) P'(U_k)) for P = prod_k (X - U_k), taken
    over the lcm of the norms of the P'(U_k) (von zur Gathen and Gerhard,
    Modern Computer Algebra, Ch. 5), and the result is g(s x) / t.
    """
    nodes = [p[0] for p in points]
    values = [p[1] for p in points]
    if not all(is_exact(u) for u in nodes) or not all(is_exact(v) for v in values):
        raise ExactArithmeticRequired("interpolation nodes and values must be exact")
    us, s = _from_gauss(nodes)
    vs, t = _from_gauss(values)
    for i in range(len(us)):
        for j in range(i + 1, len(us)):
            if us[i] == us[j]:
                raise SynthesisError("repeated interpolation node", node=str(nodes[i]))
    prod = [(1, 0)]
    for u in us:  # prod * (X - U_k) = X * prod - U_k * prod
        prod = _gz_lincomb([(0, 0)] + prod, 1, [_gi_mul(u, c) for c in prod], -1)
    parts = []
    for u, v in zip(us, vs):
        q = _gz_pseudo_divmod(prod, [(-u[0], -u[1]), (1, 0)])[0]  # P / (X - U_k)
        c, d = _gz_horner(q, u, 1)  # P'(U_k)
        parts.append((q, _gi_mul(v, (c, -d)), c * c + d * d))  # V_k / P'(U_k) = f / n
    norm = math.lcm(*(n for _, _, n in parts))
    acc: list = []
    for q, f, n in parts:
        acc = _gz_lincomb(acc, 1, [_gi_mul(c, f) for c in q], norm // n)
    return _gz_poly([(re * s**k, im * s**k) for k, (re, im) in enumerate(acc)], norm * t, var)
