"""Bivariate polynomials Phi(x, y) and the algebra the digraph machinery needs.

Phi is stored as a polynomial in y over polynomials in x, Phi = sum_j
a_j(x) y**j: `rows[j]` is a_j as a `UniPoly` in x and the last row is
nonzero.  The rows share one mode, exact (GaussRat) or complex doubles, and
a zero row is the exact zero `UniPoly`; mixing modes follows the scalar
rule of :mod:`polygraph.scalars`.  Every ring operation, coefficient view
and exact algorithm is written with `UniPoly` operations on the rows, so
only `unipoly` knows how exact coefficients are stored.  A float
polynomial keeps every nonzero coefficient, and so does every row it
evaluates: only the root kernel trims rounding debris.  Highlights:

* row evaluation Phi(u, y) / Phi(x, u): `eval_rows` evaluates a whole
  vector of values in floats at once, for one direction or for both
  interleaved, by one Horner pass over a cached dense table that holds the
  coefficients and their transpose,
* the one exact resultant, Res(Phi, dPhi) of an exact Phi in either
  variable: `resultant_with_derivative` passes Phi's coefficient
  polynomials in the eliminated variable to
  `unipoly.resultant_by_evaluation`, which evaluates them over Z[i] at one
  Kronecker point, or at a run of integers and interpolates, and makes
  dPhi's images from Phi's, so no dPhi is built,
* the diagonal Phi(x, x), the rows summed in one pass (`unipoly.diagonal`),
* squarefree part (exact), exact division, affine reparametrization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .errors import DomainError, ExactArithmeticRequired
from .scalars import GR_ZERO, GaussRat, is_exact, require_finite, square_and_multiply
from .unipoly import UniPoly, cached, convolve, diagonal, gcd_all, resultant_by_evaluation, transpose

_CROSS_SIGN = np.array([-1.0, 1.0])


@dataclass(frozen=True)
class BiPoly:
    rows: tuple  # rows[j]: the coefficient of y**j, a UniPoly in x; the last is nonzero

    @staticmethod
    def make(entries: Mapping[tuple[int, int], object]) -> "BiPoly":
        rows: dict[int, dict[int, object]] = {}
        for (i, j), c in entries.items():
            rows.setdefault(j, {})[i] = c
        return _bipoly(
            UniPoly.make([r.get(i, GR_ZERO) for i in range(max(r, default=-1) + 1)])
            for r in (rows.get(j, {}) for j in range(max(rows, default=-1) + 1))
        )

    @staticmethod
    def zero() -> "BiPoly":
        return BiPoly(())

    @staticmethod
    def constant(c) -> "BiPoly":
        return _bipoly([UniPoly.constant(c)])

    @staticmethod
    def variable(var: str) -> "BiPoly":
        if var == "x":
            return BiPoly((UniPoly.variable("x"),))
        if var == "y":
            return BiPoly((UniPoly.zero(), UniPoly.one()))
        raise DomainError(f"unsupported variable {var!r}")

    @staticmethod
    def from_unipoly(p: UniPoly) -> "BiPoly":
        return _bipoly([p] if p.var == "x" else transpose([p], "x"))

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.rows

    @cached
    def deg_x(self) -> int:
        return max((r.degree for r in self.rows), default=-1)

    @property
    def deg_y(self) -> int:
        return len(self.rows) - 1

    @property
    def total_degree(self) -> int:
        return max((r.degree + j for j, r in enumerate(self.rows)), default=-1)

    @cached
    def den(self) -> int:
        """Exact: the lcm of the rows' denominators; float: 0."""
        return math.lcm(*(r.den for r in self.rows))

    @cached
    def mode(self) -> str:
        return "exact" if self.den else "float"

    @cached
    def coeffs(self) -> dict:
        """(i, j) -> the nonzero coefficient of x**i y**j: GaussRat or complex."""
        return {(i, j): c for j, r in enumerate(self.rows) for i, c in enumerate(r.coeffs) if c}

    def degree(self, var: str) -> int:
        return self.deg_x if var == "x" else self.deg_y

    def is_constant(self) -> bool:
        return self.deg_x <= 0 and self.deg_y <= 0

    def coeff(self, i: int, j: int):
        c = self.rows[j].coeff(i) if 0 <= j < len(self.rows) else GR_ZERO
        return c if self.den else complex(c)

    def coeff_scale(self) -> float:
        return max((r.coeff_scale() for r in self.rows), default=0.0)

    def to_float(self) -> "BiPoly":
        if self.mode == "float":
            return self
        return BiPoly(tuple(r.to_float() for r in self.rows))

    def to_exact(self) -> "BiPoly":
        """The exact value of every coefficient: each double is a dyadic rational."""
        if self.den:
            return self
        return BiPoly.make({ij: GaussRat.of(z.real, z.imag) for ij, z in self.coeffs.items()})

    def lead_gl(self):
        """Coefficient of the graded-lex (total degree, then x) top monomial."""
        if self.is_zero:
            raise DomainError("zero polynomial has no leading term")
        return self.coeff(*max(self.coeffs, key=lambda ij: (ij[0] + ij[1], ij[0])))

    def normalized(self) -> "BiPoly":
        """Scale so the graded-lex leading coefficient is 1."""
        return self if self.is_zero else self.scale(1 / self.lead_gl())

    # -- ring operations -----------------------------------------------------

    def __add__(self, other: "BiPoly") -> "BiPoly":
        a, b = self.rows, other.rows
        if len(a) < len(b):
            a, b = b, a
        return _bipoly([r + s for r, s in zip(a, b)] + list(a[len(b):]))

    def __sub__(self, other: "BiPoly") -> "BiPoly":
        return self + (-other)

    def __neg__(self) -> "BiPoly":
        return BiPoly(tuple(-r for r in self.rows))

    def __mul__(self, other: "BiPoly") -> "BiPoly":
        if self.is_zero or other.is_zero:
            return BiPoly.zero()
        return _bipoly(convolve(self.rows, other.rows))

    def scale(self, s) -> "BiPoly":
        return _bipoly(r.scale(s) for r in self.rows)

    def power(self, k: int) -> "BiPoly":
        if k < 0:
            raise DomainError("negative polynomial power")
        return square_and_multiply(self, k, BiPoly((UniPoly.one(),)))

    # -- coefficient views ---------------------------------------------------

    def coeff_polys(self, var: str) -> list[UniPoly]:
        """Coefficients of var**k as UniPolys in the other variable, k=0..deg."""
        return list(self._columns if var == "x" else self.rows)

    @cached
    def is_symmetric(self) -> bool:
        """Phi(x, y) == Phi(y, x) with no tolerance: the coefficients of
        x**i y**j and x**j y**i are equal, float ones bit for bit, so a
        symmetric float Phi gives bit-identical rows Phi(u, y) and Phi(x, u)."""
        if self.deg_x != self.deg_y:
            return False
        if self.den:
            return self.rows == tuple(c.rename("x") for c in self._columns)
        bits = self._table.view(np.int64)
        return np.array_equal(bits[:, 0], bits[:, 1])

    @cached
    def _columns(self) -> tuple:
        """The coefficients of x**i as UniPolys in y, transposed once."""
        return tuple(transpose(self.rows, "y"))

    def derivative(self, var: str) -> "BiPoly":
        if var == "x":
            return _bipoly(r.derivative() for r in self.rows)
        return _bipoly(r.scale(j) for j, r in enumerate(self.rows) if j)

    # -- evaluation ------------------------------------------------------------

    @cached
    def _table(self) -> np.ndarray:
        """Dense (n, 2, n, 2) table, n = max(deg_x, deg_y, 0) + 1, zeros
        elsewhere: [k, 0, j] holds the real and imaginary parts of the
        coefficient of x**k y**j and [k, 1, i] those of x**i y**k, so
        [:, 0] is the table of Phi(u, y) in powers of u and [:, 1] that of
        Phi(x, u)."""
        n = max(self.deg_x, self.deg_y, 0) + 1
        table = np.zeros((n, 2, n, 2))
        for j, r in enumerate(self.to_float().rows):
            for i, z in enumerate(r.coeffs):
                table[i, 0, j] = table[j, 1, i] = z.real, z.imag
        return table

    def eval_rows(self, us, axes: str) -> np.ndarray:
        """Float rows Phi(u, y) (axis 'x') and/or Phi(x, u) (axis 'y') of
        each u, in the order (u0, axes[0]), (u0, axes[1]), (u1, axes[0]), ...;
        axes is 'x', 'y' or 'xy'.

        Returns a (len(axes) * len(us), w) complex array, coefficients
        ascending and untrimmed: w is d+1, d the degree in the kept
        variable, for one axis, and max(deg_x, deg_y) + 1 for 'xy', the
        narrower rows padded with +0.0 (one zero column for the zero
        polynomial).  Non-finite entries are left for the caller to reject.
        Horner in the substituted variable runs elementwise over `_table`
        in real arithmetic, one multiply or add per step and part, so a
        row's bits do not depend on which other rows share the call: for
        'xy' with deg_x != deg_y, the direction with more steps runs its
        extra leading steps alone and the other one starts at its own top
        coefficient.
        """
        if axes not in ("x", "y", "xy"):
            raise DomainError(f"axes must be x, y or xy, got {axes!r}")
        first = "xy".index(axes[0])
        sides = slice(first, first + len(axes))  # of _table: 0 Phi(u, y), 1 Phi(x, u)
        steps = (max(self.deg_x, 0), max(self.deg_y, 0))  # each side's Horner steps
        low, high = min(steps[sides]), max(steps[sides])
        width = max(steps[::-1][sides]) + 1  # a side's row width is the other's steps + 1
        table = self._table[: high + 1, sides, :width]
        u = np.asarray(us, dtype=complex).reshape(-1, 1, 1, 1)
        acc = np.empty((len(u),) + table.shape[1:])
        acc[:] = table[-1]
        with np.errstate(over="ignore", invalid="ignore"):
            if low != high:
                a = steps.index(high)  # the direction with more steps
                acc[:, a] = _horner(acc[:, a], table[low:-1][::-1, a], u[:, 0])
                acc[:, 1 - a] = table[low, 1 - a]
            acc = _horner(acc, table[:low][::-1], u)
        if low != high:
            acc[:, a, low + 1 :] = 0.0  # the narrower rows' padding, which Horner touched
        return acc.view(complex).reshape(-1, width)

    def eval(self, u, v):
        """Phi(u, v) by Horner in y over the rows' values at u: exact when
        Phi, u and v are; a non-finite float value raises EvaluationOverflow."""
        acc = GR_ZERO
        for r in reversed(self.rows):
            acc = acc * v + r.eval(u)
        return acc if is_exact(acc) else require_finite(complex(acc), "polynomial evaluation")

    def diagonal(self) -> UniPoly:
        """Phi(x, x) as a UniPoly in x (the loop polynomial): the rows summed
        as sum_j a_j(x) x**j in one pass, `unipoly.diagonal`."""
        return diagonal(self.rows)

    def _substitute(self, sx: "BiPoly", sy: "BiPoly") -> "BiPoly":
        """Phi(sx, sy), by Horner in y over Horner in x."""
        total = BiPoly.zero()
        for row in reversed(self.rows):
            acc = BiPoly.zero()
            for cf in reversed(row.coeffs):
                acc = acc * sx + BiPoly.constant(cf)
            total = total * sy + acc
        return total

    def shear_y(self) -> "BiPoly":
        """Substitute y -> y + x; kills x-dependence exactly for f(y-x) forms."""
        x = BiPoly.variable("x")
        return self._substitute(x, x + BiPoly.variable("y"))

    def affine_transform(self, a, b, c) -> "BiPoly":
        """c * Phi(a x + b, a y + b); requires a != 0 and c != 0."""
        if not a or not c:
            raise DomainError("affine transform requires a != 0 and c != 0")
        lin_x = BiPoly.make({(1, 0): a, (0, 0): b})
        lin_y = BiPoly.make({(0, 1): a, (0, 0): b})
        return self._substitute(lin_x, lin_y).scale(c)

    # -- resultants -------------------------------------------------------------

    def resultant_with_derivative(self, var: str) -> UniPoly:
        """Res_var(Phi, dPhi/dvar) of an exact Phi, a UniPoly in the other
        variable, with no dPhi built: `unipoly.resultant_by_evaluation` makes
        dPhi's images from Phi's.  With d = deg_var Phi, d <= 0 gives 0 and
        d = 1 the coefficient of var (Res(Phi, c) = c).  Its degree is at
        most the smaller of the Sylvester row bound and the Bezout bound
        (Cox, Little and O'Shea, Ch. 8 Sec. 7), read off Phi's coefficients
        in var: dPhi drops the one of var**0 and lowers the total degree of
        the others by 1."""
        if self.mode != "exact":
            raise ExactArithmeticRequired("resultant_with_derivative requires exact scalars")
        other_var = "y" if var == "x" else "x"
        pc = self.coeff_polys(var)
        d = len(pc) - 1
        if d <= 1:
            return pc[1] if d == 1 else UniPoly.zero(other_var)
        degs = [p.degree for p in pc]
        total_q = max(k + e for k, e in enumerate(degs) if k and e >= 0) - 1
        bound = min(max(degs) * (d - 1) + max(degs[1:]) * d, self.total_degree * total_q)
        return resultant_by_evaluation(pc, bound, other_var)

    # -- squarefree part ---------------------------------------------------------

    def content(self, var: str) -> UniPoly:
        """Monic gcd of `coeff_polys(var)`, a polynomial in the other variable (exact mode)."""
        return gcd_all(self.coeff_polys(var), "y" if var == "x" else "x")

    def divexact_y(self, g: "BiPoly") -> "BiPoly":
        """Exact division viewing both as polynomials in y over exact x-polys."""
        if self.mode != "exact" or g.mode != "exact":
            raise ExactArithmeticRequired("exact division requires exact scalars")
        if g.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        rem = list(self.rows)
        quo = [UniPoly.zero()] * max(len(rem) - g.deg_y, 0)
        for k in range(len(quo) - 1, -1, -1):
            quo[k] = t = rem.pop().divexact(g.rows[-1])
            for i, r in enumerate(g.rows[:-1]):
                rem[k + i] = rem[k + i] - t * r
        if any(not r.is_zero for r in rem):
            raise DomainError("inexact bivariate division")
        return _bipoly(quo)

    def squarefree_part(self) -> "BiPoly":
        """Radical: distinct irreducible factors to the first power (exact).

        An input that is already radical, a nonzero constant included, comes
        back as itself; any other input comes back as its normalized radical.
        """
        if self.mode != "exact":
            raise ExactArithmeticRequired("squarefree part requires exact mode")
        if self.is_zero:
            return self
        cont = self.content("y")
        prim = self if cont.degree <= 0 else _bipoly(r.divexact(cont) for r in self.rows)
        g = _gcd_bivar_y(prim, prim.derivative("y"))
        rad = prim if g.is_constant() else prim.divexact_y(g)
        if cont.degree > 0:
            rad = rad * BiPoly.from_unipoly(cont.squarefree_part())
        rad = rad.normalized()
        return self if rad == self.normalized() else rad

    def __str__(self):
        from .textio import format_bipoly

        return format_bipoly(self)

    __repr__ = __str__


# -- helpers ---------------------------------------------------------------


def _horner(acc: np.ndarray, steps: np.ndarray, u: np.ndarray) -> np.ndarray:
    """acc <- acc * u + c for each c of steps in turn, acc and c holding
    (real, imaginary) pairs in their last axis, in real arithmetic, one
    multiply or add per step and part."""
    re = u.real
    im = u.imag * _CROSS_SIGN  # (-Im u, +Im u): the cross terms of (a + bi)(re + i im)
    for c in steps:
        acc = acc * re + acc[..., ::-1] * im
        acc += c
    return acc


def _bipoly(rows: Iterable[UniPoly]) -> BiPoly:
    """The BiPoly with these rows, UniPolys in x, less its trailing zero
    rows; if any row is float, every row is taken in float."""
    rows = list(rows)
    if any(r.mode == "float" for r in rows):
        rows = [r.to_float() for r in rows]
    while rows and rows[-1].is_zero:
        rows.pop()
    return BiPoly(tuple(rows))


def _primitive_y(p: BiPoly) -> BiPoly:
    """The normalized primitive part of p in y (exact)."""
    cont = p.content("y")
    return _bipoly(r.divexact(cont) for r in p.rows).normalized()


def _gcd_bivar_y(p: BiPoly, q: BiPoly) -> BiPoly:
    """gcd of exact bivariate polynomials in y over the x-polynomial ring,
    by the primitive PRS: fraction-free pseudo-remainders in y, each made
    primitive before the next step."""
    if p.deg_y < q.deg_y:
        p, q = q, p
    while not q.is_zero:
        a, b = list(p.rows), q.rows
        while len(a) >= len(b):  # a <- lc(b) a - lc(a) y**k b
            t = a.pop()
            k = len(a) + 1 - len(b)
            a = [r * b[-1] for r in a]
            for i, r in enumerate(b[:-1]):
                a[k + i] = a[k + i] - t * r
            while a and a[-1].is_zero:
                a.pop()
        p, q = q, _primitive_y(BiPoly(tuple(a)))
    return _primitive_y(p)
