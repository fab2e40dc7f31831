"""Bivariate polynomials Phi(x, y) and the algebra the digraph machinery needs.

Coefficients live in a sparse map (x_power, y_power) -> scalar, all exact
(GaussRat) or all complex doubles; mixing the two follows the scalar rule of
:mod:`polygraph.scalars`.  Highlights:

* partial evaluation Phi(u, y) / Phi(x, u) into a UniPoly,
* resultants by evaluation and interpolation in both modes: in exact mode
  at a run of integers, with the scalar resultant from the subresultant PRS
  over Z[i] and Newton interpolation in integers (the `_gz_*` helpers of
  `unipoly`; GaussRat only on entry and exit), in float mode at roots of
  unity, with Sylvester determinants and an FFT,
* squarefree part (exact), exact division, affine reparametrization.  The
  bivariate ring operations behind these still run on GaussRat.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

import numpy as np

from .errors import (
    DomainError,
    ExactArithmeticRequired,
    UniversalVertexError,
    ZeroPolynomialError,
)
from .scalars import GR_ONE, GR_ZERO, is_exact, require_finite
from .unipoly import (
    TRIM_REL,
    UniPoly,
    _gz_clear,
    _gz_eval,
    _gz_interpolate,
    _gz_resultant,
    _gz_unipoly,
)

_INTERP_ANGLE = 0.3  # fixed angular offset for float resultant sample points


@dataclass(frozen=True)
class BiPoly:
    coeffs: Mapping[tuple[int, int], object] = field(default_factory=dict)

    @staticmethod
    def make(entries: Mapping[tuple[int, int], object]) -> "BiPoly":
        items = {k: v for k, v in entries.items()}
        exact_mode = all(is_exact(v) for v in items.values())
        if exact_mode:
            return BiPoly({k: v for k, v in items.items() if v})
        out = {
            k: require_finite(complex(v), "polynomial construction") for k, v in items.items()
        }
        scale = max((abs(v) for v in out.values()), default=0.0)
        floor = TRIM_REL * scale
        return BiPoly({k: v for k, v in out.items() if abs(v) > floor})

    @staticmethod
    def zero() -> "BiPoly":
        return BiPoly({})

    @staticmethod
    def constant(c) -> "BiPoly":
        return BiPoly.make({(0, 0): c})

    @staticmethod
    def variable(var: str) -> "BiPoly":
        if var == "x":
            return BiPoly({(1, 0): GR_ONE})
        if var == "y":
            return BiPoly({(0, 1): GR_ONE})
        raise DomainError(f"unsupported variable {var!r}")

    @staticmethod
    def from_unipoly(p: UniPoly) -> "BiPoly":
        if p.var == "x":
            return BiPoly.make({(k, 0): c for k, c in enumerate(p.coeffs)})
        return BiPoly.make({(0, k): c for k, c in enumerate(p.coeffs)})

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def deg_x(self) -> int:
        return max((i for i, _ in self.coeffs), default=-1)

    @property
    def deg_y(self) -> int:
        return max((j for _, j in self.coeffs), default=-1)

    @property
    def total_degree(self) -> int:
        return max((i + j for i, j in self.coeffs), default=-1)

    @cached_property
    def mode(self) -> str:
        return "exact" if all(is_exact(v) for v in self.coeffs.values()) else "float"

    @property
    def _zero(self):
        return GR_ZERO if self.mode == "exact" else 0j

    def degree(self, var: str) -> int:
        return self.deg_x if var == "x" else self.deg_y

    def is_constant(self) -> bool:
        return self.deg_x <= 0 and self.deg_y <= 0

    def coeff(self, i: int, j: int):
        return self.coeffs.get((i, j), self._zero)

    def coeff_scale(self) -> float:
        return max((abs(complex(v)) for v in self.coeffs.values()), default=0.0)

    def to_float(self) -> "BiPoly":
        if self.mode == "float":
            return self
        return BiPoly({k: complex(v) for k, v in self.coeffs.items()})

    def lead_gl(self):
        """Coefficient of the graded-lex (total degree, then x) top monomial."""
        if self.is_zero:
            raise DomainError("zero polynomial has no leading term")
        key = max(self.coeffs, key=lambda ij: (ij[0] + ij[1], ij[0]))
        return self.coeffs[key]

    def normalized(self) -> "BiPoly":
        """Scale so the graded-lex leading coefficient is 1."""
        if self.is_zero:
            return self
        lead = self.lead_gl()
        return BiPoly({k: v / lead for k, v in self.coeffs.items()})

    # -- ring operations -----------------------------------------------------

    def __add__(self, other: "BiPoly") -> "BiPoly":
        out = dict(self.coeffs)
        zero = self._zero
        for k, v in other.coeffs.items():
            out[k] = out.get(k, zero) + v
        return BiPoly.make(out)

    def __sub__(self, other: "BiPoly") -> "BiPoly":
        return self + (-other)

    def __neg__(self) -> "BiPoly":
        return BiPoly({k: -v for k, v in self.coeffs.items()})

    def __mul__(self, other: "BiPoly") -> "BiPoly":
        if self.is_zero or other.is_zero:
            return BiPoly.zero()
        zero = self._zero
        out: dict = {}
        for (i1, j1), a in self.coeffs.items():
            for (i2, j2), b in other.coeffs.items():
                k = (i1 + i2, j1 + j2)
                out[k] = out.get(k, zero) + a * b
        return BiPoly.make(out)

    def scale(self, s) -> "BiPoly":
        return BiPoly.make({k: v * s for k, v in self.coeffs.items()})

    def power(self, k: int) -> "BiPoly":
        if k < 0:
            raise DomainError("negative polynomial power")
        out = BiPoly.constant(GR_ONE)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    # -- coefficient views ---------------------------------------------------

    def coeff_polys(self, var: str) -> list[UniPoly]:
        """Coefficients of var**k as UniPolys in the other variable, k=0..deg."""
        d = self.degree(var)
        other = "y" if var == "x" else "x"
        rows: list[dict[int, object]] = [dict() for _ in range(d + 1)]
        for (i, j), c in self.coeffs.items():
            k, m = (i, j) if var == "x" else (j, i)
            rows[k][m] = c
        zero = self._zero
        out = []
        for row in rows:
            n = max(row, default=-1)
            out.append(UniPoly.make([row.get(t, zero) for t in range(n + 1)], other))
        return out

    def derivative(self, var: str) -> "BiPoly":
        out: dict = {}
        for (i, j), c in self.coeffs.items():
            if var == "x" and i > 0:
                out[(i - 1, j)] = c * i
            elif var == "y" and j > 0:
                out[(i, j - 1)] = c * j
        return BiPoly.make(out)

    # -- evaluation ------------------------------------------------------------

    def eval_partial(self, u, axis: str) -> UniPoly:
        """Phi(u, y) for axis='x', Phi(x, u) for axis='y'."""
        if axis not in ("x", "y"):
            raise DomainError(f"axis must be x or y, got {axis!r}")
        other = "y" if axis == "x" else "x"
        d = self.degree(other)
        if d < 0:
            return UniPoly.zero(other)
        if self.mode == "exact" and is_exact(u):
            acc: list = [GR_ZERO] * (d + 1)
            powers = [GR_ONE]
        else:
            # float rows are the explorer's hot path: keep complex seeds
            acc = [0j] * (d + 1)
            powers = [1.0 + 0j]
            u = complex(u)
        for _ in range(self.degree(axis)):
            powers.append(powers[-1] * u)
        for (i, j), c in self.coeffs.items():
            k_sub, k_keep = (i, j) if axis == "x" else (j, i)
            acc[k_keep] = acc[k_keep] + c * powers[k_sub]
        return UniPoly.make(acc, other)

    def eval(self, u, v):
        return self.eval_partial(u, "x").eval(v)

    def diagonal(self) -> UniPoly:
        """Phi(x, x) as a UniPoly in x (the loop polynomial)."""
        d = max((i + j for i, j in self.coeffs), default=-1)
        acc = [self._zero] * (d + 1)
        for (i, j), c in self.coeffs.items():
            acc[i + j] = acc[i + j] + c
        return UniPoly.make(acc, "x")

    def shear_y(self) -> "BiPoly":
        """Substitute y -> y + x; kills x-dependence exactly for f(y-x) forms."""
        zero = self._zero
        out: dict = {}
        for (i, j), c in self.coeffs.items():
            binom = 1
            for k in range(j + 1):
                key = (i + j - k, k)
                out[key] = out.get(key, zero) + c * binom
                binom = binom * (j - k) // (k + 1)
        return BiPoly.make(out)

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

        Both modes evaluate at bound + 1 points, take scalar resultants and
        interpolate.  bound is the smaller of the Sylvester row bound and the
        Bezout bound (Cox, Little and O'Shea, Ch. 8 Sec. 7).
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
            return _resultant_exact(self, other, var, bound)
        return _resultant_float(self, other, var, bound)

    # -- squarefree part ---------------------------------------------------------

    def content_y(self) -> UniPoly:
        """gcd in x of the y-coefficient polynomials (exact mode)."""
        g = UniPoly.zero("x")
        for a in self.coeff_polys("y"):
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
            term = BiPoly.from_unipoly(q_coeff) * BiPoly({(0, rem.deg_y - gy): GR_ONE})
            quo = quo + term
            rem = rem - term * g
        if not rem.is_zero:
            raise DomainError("inexact bivariate division")
        return quo

    def squarefree_part(self) -> "BiPoly":
        """Radical: distinct irreducible factors to the first power (exact)."""
        if self.mode != "exact":
            raise ExactArithmeticRequired("squarefree part requires exact mode")
        if self.is_zero:
            return self
        if self.is_constant():
            return BiPoly.constant(GR_ONE)
        if self.deg_y == 0:
            u = self.coeff_polys("y")[0]
            rad = u.divexact(u.gcd(u.derivative()))
            return BiPoly.from_unipoly(rad).normalized()
        cont = self.content_y()
        prim = self if cont.degree <= 0 else self.divexact_y(BiPoly.from_unipoly(cont))
        g = _gcd_bivar_y(prim, prim.derivative("y"))
        rad_prim = prim.divexact_y(g) if g.deg_y > 0 or not _is_one(g) else prim
        if cont.degree > 0:
            rad_cont = cont.divexact(cont.gcd(cont.derivative()))
            rad_prim = rad_prim * BiPoly.from_unipoly(rad_cont)
        rad = rad_prim.normalized()
        if rad.coeffs == self.normalized().coeffs:
            return self  # already radical: hand back the input untouched
        return rad

    def __str__(self):
        from .textio import format_bipoly

        return format_bipoly(self)

    __repr__ = __str__


# -- helpers ---------------------------------------------------------------


def _is_one(p: BiPoly) -> bool:
    return p.deg_x == 0 and p.deg_y == 0 and not p.is_zero


def _bipoly_powers(p: BiPoly, n: int) -> list[BiPoly]:
    out = [BiPoly.constant(GR_ONE)]
    for _ in range(max(0, n)):
        out.append(out[-1] * p)
    return out


def _resultant_exact(p: BiPoly, q: BiPoly, var: str, bound: int) -> UniPoly:
    """Evaluation at integers, the subresultant PRS and integer interpolation.

    The rows of p and q are cleared of denominators once.  The points are the
    first run t0..t0+bound of integers where neither leading coefficient in
    var vanishes: only there does specialisation commute with the resultant.
    """
    other = "y" if var == "x" else "x"
    pc, den_p = _gz_clear(p.coeff_polys(var))
    qc, den_q = _gz_clear(q.coeff_polys(var))
    t0 = t = 0
    while t <= t0 + bound:
        if _gz_eval(pc[-1], t) == (0, 0) or _gz_eval(qc[-1], t) == (0, 0):
            t0 = t + 1
        t += 1
    vals = [
        _gz_resultant([_gz_eval(c, t) for c in pc], [_gz_eval(c, t) for c in qc])
        for t in range(t0, t0 + bound + 1)
    ]
    # Res(pc, qc) = den_p**deg_q * den_q**deg_p * Res(p, q)
    den = math.factorial(bound) * den_p ** q.degree(var) * den_q ** p.degree(var)
    return _gz_unipoly(_gz_interpolate(vals, t0), (den, 0), other)


def _resultant_float(p: BiPoly, q: BiPoly, var: str, bound: int) -> UniPoly:
    """Evaluation at roots of unity, Sylvester determinants and an FFT.

    The Sylvester matrix is built at the degrees of p and q in var, so a
    sample where a leading coefficient vanishes still gives the resultant.
    """
    other = "y" if var == "x" else "x"
    dp, dq = p.degree(var), q.degree(var)
    n_samples = bound + 1
    vals = np.empty(n_samples, dtype=complex)
    mat = np.zeros((dp + dq, dp + dq), dtype=complex)
    for t in range(n_samples):
        u = cmath.exp(1j * (2 * cmath.pi * t / n_samples + _INTERP_ANGLE))
        pu, qu = p.eval_partial(u, other), q.eval_partial(u, other)
        p_desc = [complex(pu.coeff(k)) for k in range(dp, -1, -1)]
        q_desc = [complex(qu.coeff(k)) for k in range(dq, -1, -1)]
        for r in range(dq):
            mat[r, r : r + dp + 1] = p_desc
        for r in range(dp):
            mat[dq + r, r : r + dq + 1] = q_desc
        vals[t] = np.linalg.det(mat)
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
        shift = BiPoly({(0, r.deg_y - q.deg_y): GR_ONE})
        r = r * lead_q - q * lead_r * shift
    return r


def _strip_content_y(p: BiPoly) -> BiPoly:
    if p.is_zero:
        return p
    cont = p.content_y()
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


def out_poly(phi: BiPoly, u) -> UniPoly:
    """Phi(u, y); raises UniversalVertexError if it vanishes identically."""
    q = phi.eval_partial(u, "x")
    if q.is_zero:
        raise UniversalVertexError("universal source vertex", vertex=str(u))
    return q


def in_poly(phi: BiPoly, v) -> UniPoly:
    """Phi(x, v); raises UniversalVertexError if it vanishes identically."""
    q = phi.eval_partial(v, "y")
    if q.is_zero:
        raise UniversalVertexError("universal sink vertex", vertex=str(v))
    return q
