"""Bivariate polynomials Phi(x, y) and the algebra the digraph machinery needs.

Coefficients live in a sparse map (x_power, y_power) -> scalar, all exact
(GaussRat) or all complex doubles; mixing the two follows the scalar rule of
:mod:`polygraph.scalars`.  Highlights:

* partial evaluation Phi(u, y) / Phi(x, u): `eval_rows` evaluates a whole
  vector of values in floats at once, by Horner over a cached dense
  coefficient table, and `eval_partial` is its one-row case (or exact),
* resultants by evaluation in both modes: in exact mode
  `unipoly.resultant_by_evaluation` takes the coefficient polynomials in
  the eliminated variable (it evaluates them over Z[i] at one Kronecker
  point, or at a run of integers and interpolates), in float mode the
  samples are at roots of unity, with one `eval_rows` call per operand,
  one stacked Sylvester determinant call and an FFT,
* squarefree part (exact), exact division, affine reparametrization.

An exact BiPoly stores its coefficients as `unipoly` does: (re, im) int
pairs over one positive int `den`, in lowest terms, so the ring operations,
coefficient views, evaluation at an exact point and everything built on
them run on integers; `coeffs` and `coeff(i, j)` give GaussRat values.  A
float BiPoly stores complex doubles and `den` = 0.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import (
    DomainError,
    EvaluationOverflow,
    ExactArithmeticRequired,
    ZeroPolynomialError,
)
from .scalars import GR_ONE, GR_ZERO, _as_gauss, is_exact, require_finite, square_and_multiply
from .unipoly import TRIM_REL, UniPoly, cached, resultant_by_evaluation
from .unipoly import _complex, _from_gauss, _gauss, _gz_horner, _gz_over, _gz_poly, _lowest

_INTERP_ANGLE = 0.3  # fixed angular offset for float resultant sample points
_CROSS_SIGN = np.array([-1.0, 1.0])


@dataclass(frozen=True)
class BiPoly:
    terms: Mapping[tuple[int, int], object]  # (i, j) -> (re, im) int pair, or complex
    den: int  # exact: the positive common denominator; float: 0

    @staticmethod
    def make(entries: Mapping[tuple[int, int], object]) -> "BiPoly":
        items = dict(entries)
        if all(is_exact(v) for v in items.values()):
            p, den = _from_gauss(list(items.values()))
            return _gz_bipoly(dict(zip(items, p)), den)
        out = {
            k: require_finite(complex(v), "polynomial construction") for k, v in items.items()
        }
        scale = max((abs(v) for v in out.values()), default=0.0)
        floor = TRIM_REL * scale
        out = {k: v for k, v in out.items() if abs(v) > floor}
        return BiPoly(out, 0 if out else 1)

    @staticmethod
    def zero() -> "BiPoly":
        return BiPoly({}, 1)

    @staticmethod
    def constant(c) -> "BiPoly":
        return BiPoly.make({(0, 0): c})

    @staticmethod
    def variable(var: str) -> "BiPoly":
        if var == "x":
            return BiPoly({(1, 0): (1, 0)}, 1)
        if var == "y":
            return BiPoly({(0, 1): (1, 0)}, 1)
        raise DomainError(f"unsupported variable {var!r}")

    @staticmethod
    def from_unipoly(p: UniPoly) -> "BiPoly":
        keys = [(k, 0) if p.var == "x" else (0, k) for k in range(len(p.terms))]
        if p.den:
            return BiPoly({k: t for k, t in zip(keys, p.terms) if t != (0, 0)}, p.den)
        return BiPoly.make(dict(zip(keys, p.terms)))

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @cached
    def deg_x(self) -> int:
        return max((i for i, _ in self.terms), default=-1)

    @cached
    def deg_y(self) -> int:
        return max((j for _, j in self.terms), default=-1)

    @property
    def total_degree(self) -> int:
        return max((i + j for i, j in self.terms), default=-1)

    @cached
    def mode(self) -> str:
        return "exact" if self.den else "float"

    @cached
    def coeffs(self) -> dict:
        """(i, j) -> the coefficient of x**i y**j: GaussRat or complex."""
        if self.den:
            return {k: _gauss(re, im, self.den) for k, (re, im) in self.terms.items()}
        return self.terms

    def degree(self, var: str) -> int:
        return self.deg_x if var == "x" else self.deg_y

    def is_constant(self) -> bool:
        return self.deg_x <= 0 and self.deg_y <= 0

    def coeff(self, i: int, j: int):
        if not self.den:
            return self.terms.get((i, j), 0j)
        t = self.terms.get((i, j))
        return GR_ZERO if t is None else _gauss(*t, self.den)

    def coeff_scale(self) -> float:
        return max((abs(v) for v in self.to_float().terms.values()), default=0.0)

    def to_float(self) -> "BiPoly":
        if self.mode == "float" or self.is_zero:
            return self
        return BiPoly({k: _complex(re, im, self.den) for k, (re, im) in self.terms.items()}, 0)

    def lead_gl(self):
        """Coefficient of the graded-lex (total degree, then x) top monomial."""
        if self.is_zero:
            raise DomainError("zero polynomial has no leading term")
        return self.coeff(*max(self.terms, key=lambda ij: (ij[0] + ij[1], ij[0])))

    def normalized(self) -> "BiPoly":
        """Scale so the graded-lex leading coefficient is 1."""
        if self.is_zero:
            return self
        if not self.den:
            lead = self.lead_gl()
            return BiPoly({k: v / lead for k, v in self.terms.items()}, 0)
        lc = self.terms[max(self.terms, key=lambda ij: (ij[0] + ij[1], ij[0]))]
        p, den = _gz_over(self.terms.values(), lc)  # (p / den) / (lc / den) = p / lc
        return _gz_bipoly(dict(zip(self.terms, p)), den)

    # -- ring operations -----------------------------------------------------

    def __add__(self, other: "BiPoly") -> "BiPoly":
        if self.den and other.den:
            den = math.lcm(self.den, other.den)
            s, t = den // self.den, den // other.den
            out = {k: (re * s, im * s) for k, (re, im) in self.terms.items()}
            for k, (re, im) in other.terms.items():
                a, b = out.get(k, (0, 0))
                out[k] = (a + re * t, b + im * t)
            return _gz_bipoly(out, den)
        out = dict(self.to_float().terms)
        for k, v in other.to_float().terms.items():
            out[k] = out.get(k, 0j) + v
        return BiPoly.make(out)

    def __sub__(self, other: "BiPoly") -> "BiPoly":
        return self + (-other)

    def __neg__(self) -> "BiPoly":
        if self.den:
            return BiPoly({k: (-re, -im) for k, (re, im) in self.terms.items()}, self.den)
        return BiPoly({k: -v for k, v in self.terms.items()}, 0)

    def __mul__(self, other: "BiPoly") -> "BiPoly":
        if self.is_zero or other.is_zero:
            return BiPoly.zero()
        if self.den and other.den:
            re: dict = {}
            im: dict = {}
            for (i1, j1), (a, b) in self.terms.items():
                for (i2, j2), (c, d) in other.terms.items():
                    k = (i1 + i2, j1 + j2)
                    re[k] = re.get(k, 0) + a * c - b * d
                    im[k] = im.get(k, 0) + a * d + b * c
            return _gz_bipoly({k: (v, im[k]) for k, v in re.items()}, self.den * other.den)
        out: dict = {}
        for (i1, j1), a in self.to_float().terms.items():
            for (i2, j2), b in other.to_float().terms.items():
                k = (i1 + i2, j1 + j2)
                out[k] = out.get(k, 0j) + a * b
        return BiPoly.make(out)

    def scale(self, s) -> "BiPoly":
        g = _as_gauss(s) if self.den else None
        if g is None:
            return BiPoly.make({k: v * s for k, v in self.to_float().terms.items()})
        ((c, d),), e = _from_gauss([g])
        return _gz_bipoly(
            {k: (re * c - im * d, re * d + im * c) for k, (re, im) in self.terms.items()},
            self.den * e,
        )

    def power(self, k: int) -> "BiPoly":
        if k < 0:
            raise DomainError("negative polynomial power")
        return square_and_multiply(self, k, BiPoly({(0, 0): (1, 0)}, 1))

    # -- coefficient views ---------------------------------------------------

    def coeff_polys(self, var: str) -> list[UniPoly]:
        """Coefficients of var**k as UniPolys in the other variable, k=0..deg."""
        d = self.degree(var)
        other = "y" if var == "x" else "x"
        rows: list[dict[int, object]] = [dict() for _ in range(d + 1)]
        for (i, j), c in self.terms.items():
            k, m = (i, j) if var == "x" else (j, i)
            rows[k][m] = c
        out = []
        for row in rows:
            n = max(row, default=-1)
            if self.den:
                out.append(_gz_poly([row.get(t, (0, 0)) for t in range(n + 1)], self.den, other))
            else:
                out.append(UniPoly.make([row.get(t, 0j) for t in range(n + 1)], other))
        return out

    def derivative(self, var: str) -> "BiPoly":
        out: dict = {}
        for (i, j), c in self.terms.items():
            k = i if var == "x" else j
            if k > 0:
                key = (i - 1, j) if var == "x" else (i, j - 1)
                out[key] = (c[0] * k, c[1] * k) if self.den else c * k
        return _gz_bipoly(out, self.den) if self.den else BiPoly.make(out)

    # -- evaluation ------------------------------------------------------------

    def eval_partial(self, u, axis: str) -> UniPoly:
        """Phi(u, y) for axis='x', Phi(x, u) for axis='y'.

        Exact when both Phi and u are; otherwise the one-row case of
        `eval_rows`, trimmed by `UniPoly.make`.
        """
        if axis not in ("x", "y"):
            raise DomainError(f"axis must be x or y, got {axis!r}")
        other = "y" if axis == "x" else "x"
        if not (self.mode == "exact" and is_exact(u)):
            return UniPoly.make(self.eval_rows([complex(u)], axis)[0].tolist(), other)
        if self.is_zero:
            return UniPoly.zero(other)
        (t,), d = _from_gauss([u])
        n = self.degree(axis)
        cols = [[(0, 0)] * (n + 1) for _ in range(self.degree(other) + 1)]
        for (i, j), c in self.terms.items():
            k, m = (i, j) if axis == "x" else (j, i)
            cols[m][k] = c
        return _gz_poly([_gz_horner(col, t, d) for col in cols], self.den * d**n, other)

    @cached
    def _float_table(self) -> np.ndarray:
        """Dense (deg_x+1, deg_y+1, 2) table, (1, 1, 2) for the zero
        polynomial: [i, j] holds the real and imaginary parts of the
        coefficient of x**i y**j."""
        table = np.zeros((max(self.deg_x, 0) + 1, max(self.deg_y, 0) + 1, 2))
        for (i, j), z in self.to_float().terms.items():
            table[i, j] = z.real, z.imag
        return table

    def eval_rows(self, us, axis: str) -> np.ndarray:
        """Float rows Phi(u, y) (axis 'x') or Phi(x, u) (axis 'y'), one per u.

        Returns a (len(us), d+1) complex array, coefficients ascending and
        untrimmed, d the degree in the kept variable (one zero column for
        the zero polynomial); non-finite entries are left for the caller to
        reject.  Horner in the substituted variable
        runs elementwise over the coefficient table in real arithmetic, one
        multiply or add per step and part, so a row's bits do not depend on
        which other rows share the call.
        """
        if axis not in ("x", "y"):
            raise DomainError(f"axis must be x or y, got {axis!r}")
        table = self._float_table if axis == "x" else self._float_table.transpose(1, 0, 2)
        u = np.asarray(us, dtype=complex).reshape(-1, 1, 1)
        re = u.real
        im = u.imag * _CROSS_SIGN  # (-Im u, +Im u): the cross terms of (a + bi)(re + i im)
        acc = np.empty((len(u),) + table.shape[1:])
        acc[:] = table[-1]
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(len(table) - 2, -1, -1):
                acc = acc * re + acc[..., ::-1] * im
                acc += table[k]
        return acc.view(complex)[..., 0]

    def eval(self, u, v):
        return self.eval_partial(u, "x").eval(v)

    def diagonal(self) -> UniPoly:
        """Phi(x, x) as a UniPoly in x (the loop polynomial)."""
        if self.den:
            acc = [[0, 0] for _ in range(self.total_degree + 1)]
            for (i, j), (re, im) in self.terms.items():
                acc[i + j][0] += re
                acc[i + j][1] += im
            return _gz_poly([(re, im) for re, im in acc], self.den, "x")
        out = [0j] * (self.total_degree + 1)
        for (i, j), c in self.terms.items():
            out[i + j] = out[i + j] + c
        return UniPoly.make(out, "x")

    def shear_y(self) -> "BiPoly":
        """Substitute y -> y + x; kills x-dependence exactly for f(y-x) forms."""
        out: dict = {}
        for (i, j), c in self.terms.items():
            binom = 1
            for k in range(j + 1):
                key = (i + j - k, k)
                if self.den:
                    re, im = out.get(key, (0, 0))
                    out[key] = (re + c[0] * binom, im + c[1] * binom)
                else:
                    out[key] = out.get(key, 0j) + c * binom
                binom = binom * (j - k) // (k + 1)
        return _gz_bipoly(out, self.den) if self.den else BiPoly.make(out)

    def affine_transform(self, a, b, c) -> "BiPoly":
        """c * Phi(a x + b, a y + b); requires a != 0 and c != 0."""
        if not a or not c:
            raise DomainError("affine transform requires a != 0 and c != 0")
        lin_x = BiPoly.make({(1, 0): a, (0, 0): b})
        lin_y = BiPoly.make({(0, 1): a, (0, 0): b})
        px = _bipoly_powers(lin_x, self.deg_x)
        py = _bipoly_powers(lin_y, self.deg_y)
        total = BiPoly.zero()
        for (i, j), cf in self.coeffs.items():
            total = total + (px[i] * py[j]).scale(cf)
        return total.scale(c)

    # -- resultants -------------------------------------------------------------

    def resultant(self, other: "BiPoly", var: str) -> UniPoly:
        """Sylvester resultant in var, as a UniPoly in the other variable.

        bound, the smaller of the Sylvester row bound and the Bezout bound
        (Cox, Little and O'Shea, Ch. 8 Sec. 7), bounds its degree.  Float
        mode takes scalar resultants at bound + 1 roots of unity and
        interpolates.  Exact mode takes one scalar resultant at the Kronecker
        point x = 2**s and reads the coefficients off its digits, or, above
        the size rule of `unipoly.resultant_by_evaluation`, takes bound + 1
        at integers and interpolates.
        """
        other_var = "y" if var == "x" else "x"
        if self.is_zero and other.is_zero:
            raise ZeroPolynomialError("resultant of two zero polynomials")
        if self.is_zero or other.is_zero:
            return UniPoly.zero(other_var)
        exact = self.mode == "exact" and other.mode == "exact"
        dv_p, dv_q = self.degree(var), other.degree(var)
        if dv_p == 0 or dv_q == 0:  # Res(c, q) = c**deg q and Res(p, c) = c**deg p
            c, k = (self, dv_q) if dv_p == 0 else (other, dv_p)
            base = c.coeff_polys(var)[0]
            return (base if exact else base.to_float()).power(k)
        bound = min(
            self.degree(other_var) * dv_q + other.degree(other_var) * dv_p,
            self.total_degree * other.total_degree,
        )
        if exact:
            return resultant_by_evaluation(
                self.coeff_polys(var), other.coeff_polys(var), bound, other_var
            )
        return _resultant_float(self, other, var, bound)

    # -- squarefree part ---------------------------------------------------------

    def content(self, var: str) -> UniPoly:
        """gcd of `coeff_polys(var)`, a polynomial in the other variable (exact mode)."""
        g = UniPoly.zero("y" if var == "x" else "x")
        for a in self.coeff_polys(var):
            g = g.gcd(a)
        return g

    def divexact_y(self, g: "BiPoly") -> "BiPoly":
        """Exact division viewing both as polynomials in y over exact x-polys."""
        if self.mode != "exact" or g.mode != "exact":
            raise ExactArithmeticRequired("exact division requires exact scalars")
        if g.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        rem = self
        gy = g.deg_y
        g_lead = g.coeff_polys("y")[gy]
        quo = BiPoly.zero()
        while not rem.is_zero and rem.deg_y >= gy:
            r_coeffs = rem.coeff_polys("y")
            r_lead = r_coeffs[rem.deg_y]
            q_coeff = r_lead.divexact(g_lead)
            term = BiPoly.from_unipoly(q_coeff) * BiPoly({(0, rem.deg_y - gy): (1, 0)}, 1)
            quo = quo + term
            rem = rem - term * g
        if not rem.is_zero:
            raise DomainError("inexact bivariate division")
        return quo

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
        prim = self if cont.degree <= 0 else self.divexact_y(BiPoly.from_unipoly(cont))
        g = _gcd_bivar_y(prim, prim.derivative("y"))
        rad = prim.divexact_y(g) if g.deg_y > 0 or not _is_one(g) else prim
        if cont.degree > 0:
            rad = rad * BiPoly.from_unipoly(cont.divexact(cont.gcd(cont.derivative())))
        rad = rad.normalized()
        return self if rad == self.normalized() else rad

    def __str__(self):
        from .textio import format_bipoly

        return format_bipoly(self)

    __repr__ = __str__


# -- helpers ---------------------------------------------------------------


def _gz_bipoly(terms: dict, den: int) -> BiPoly:
    """The exact BiPoly terms / den for a nonzero int den; zero terms dropped."""
    terms = {k: t for k, t in terms.items() if t != (0, 0)}
    g = _lowest(terms.values(), den)
    if g != 1:
        terms = {k: (re // g, im // g) for k, (re, im) in terms.items()}
    return BiPoly(terms, den // g)


def _is_one(p: BiPoly) -> bool:
    return p.deg_x == 0 and p.deg_y == 0 and not p.is_zero


def _bipoly_powers(p: BiPoly, n: int) -> list[BiPoly]:
    out = [BiPoly.constant(GR_ONE)]
    for _ in range(max(0, n)):
        out.append(out[-1] * p)
    return out


def _resultant_float(p: BiPoly, q: BiPoly, var: str, bound: int) -> UniPoly:
    """Evaluation at roots of unity, Sylvester determinants and an FFT.

    One `eval_rows` call per operand gives every sample row, and one stacked
    `det` call every sample.  The Sylvester matrix is built at the degrees
    of p and q in var, so a sample where a leading coefficient vanishes
    still gives the resultant.
    """
    other = "y" if var == "x" else "x"
    dp, dq = p.degree(var), q.degree(var)
    n_samples = bound + 1
    us = [cmath.exp(1j * (2 * cmath.pi * t / n_samples + _INTERP_ANGLE)) for t in range(n_samples)]
    p_desc = p.eval_rows(us, other)[:, ::-1]
    q_desc = q.eval_rows(us, other)[:, ::-1]
    if not (np.isfinite(p_desc).all() and np.isfinite(q_desc).all()):
        raise EvaluationOverflow("non-finite value during polynomial construction")
    mat = np.zeros((n_samples, dp + dq, dp + dq), dtype=complex)
    for r in range(dq):
        mat[:, r, r : r + dp + 1] = p_desc
    for r in range(dp):
        mat[:, dq + r, r : r + dq + 1] = q_desc
    vals = np.linalg.det(mat)
    # vals[t] = sum_j (c_j e^{ij*angle}) e^{+2 pi i j t / N} = N * ifft(c~)[t]
    coeffs = np.fft.fft(vals) / n_samples
    twist = np.exp(1j * _INTERP_ANGLE * np.arange(n_samples))
    coeffs = coeffs / twist
    return UniPoly.make(list(coeffs), other)


def _pseudo_rem_y(p: BiPoly, q: BiPoly) -> BiPoly:
    """Fraction-free remainder of p by q viewed in y (content not stripped)."""
    lead_q = BiPoly.from_unipoly(q.coeff_polys("y")[q.deg_y])
    r = p
    while not r.is_zero and r.deg_y >= q.deg_y:
        lead_r = BiPoly.from_unipoly(r.coeff_polys("y")[r.deg_y])
        shift = BiPoly({(0, r.deg_y - q.deg_y): (1, 0)}, 1)
        r = r * lead_q - q * lead_r * shift
    return r


def _strip_content_y(p: BiPoly) -> BiPoly:
    if p.is_zero:
        return p
    cont = p.content("y")
    if cont.degree > 0:
        p = p.divexact_y(BiPoly.from_unipoly(cont))
    return p.normalized()


def _gcd_bivar_y(p: BiPoly, q: BiPoly) -> BiPoly:
    """gcd of exact bivariate polynomials in y over the x-polynomial ring."""
    if p.deg_y < q.deg_y:
        p, q = q, p
    while not q.is_zero:
        r = _strip_content_y(_pseudo_rem_y(p, q))
        p, q = q, r
    return _strip_content_y(p)
