"""Sparse multivariate polynomials with integer coefficients.

Small engine for the symbolic cycle-condition work: supports + - * and
powers, exact division by graded-lex leading terms, substitution of
polynomials for variables, evaluation at scalars, and deterministic
graded-lex printing.  `parse_sympoly` reads the polynomial text grammar of
:mod:`polygraph.textio`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .errors import DomainError, ParseError
from .scalars import GaussRat, square_and_multiply
from .textio import _Parser, format_terms


@dataclass(frozen=True)
class SymPoly:
    vars: tuple[str, ...]
    terms: Mapping[tuple[int, ...], int]

    @staticmethod
    def make(vars: tuple[str, ...], terms: Mapping[tuple[int, ...], int]) -> "SymPoly":
        return SymPoly(tuple(vars), {e: c for e, c in terms.items() if c != 0})

    @staticmethod
    def zero(vars: tuple[str, ...]) -> "SymPoly":
        return SymPoly(tuple(vars), {})

    @staticmethod
    def const(vars: tuple[str, ...], c: int) -> "SymPoly":
        return SymPoly.make(vars, {(0,) * len(vars): c})

    @staticmethod
    def var(vars: tuple[str, ...], name: str) -> "SymPoly":
        e = [0] * len(vars)
        e[vars.index(name)] = 1
        return SymPoly(tuple(vars), {tuple(e): 1})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other: "SymPoly"):
        if self.vars != other.vars:
            raise DomainError("mixed variable sets in SymPoly arithmetic")

    def __add__(self, other: "SymPoly") -> "SymPoly":
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return SymPoly.make(self.vars, out)

    def __sub__(self, other: "SymPoly") -> "SymPoly":
        return self + (-other)

    def __neg__(self) -> "SymPoly":
        return SymPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other: "SymPoly") -> "SymPoly":
        self._check(other)
        out: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return SymPoly.make(self.vars, out)

    def power(self, k: int) -> "SymPoly":
        if k < 0:
            raise DomainError("negative polynomial power")
        return square_and_multiply(self, k, SymPoly.const(self.vars, 1))

    # graded lex: total degree first, then exponent tuple lexicographically
    @staticmethod
    def _key(e: tuple[int, ...]):
        return (sum(e), e)

    def lead(self) -> tuple[tuple[int, ...], int]:
        if self.is_zero:
            raise DomainError("zero polynomial has no leading term")
        e = max(self.terms, key=self._key)
        return e, self.terms[e]

    def divexact(self, other: "SymPoly") -> "SymPoly":
        """Exact multivariate division; raises if any step fails."""
        self._check(other)
        if other.is_zero:
            raise ZeroDivisionError("division by zero SymPoly")
        rem = dict(self.terms)
        quo: dict[tuple[int, ...], int] = {}
        le, lc = other.lead()
        while rem:
            re = max(rem, key=self._key)
            rc = rem[re]
            qe = tuple(a - b for a, b in zip(re, le))
            if any(k < 0 for k in qe) or rc % lc != 0:
                raise DomainError("inexact SymPoly division")
            qc = rc // lc
            quo[qe] = quo.get(qe, 0) + qc
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(qe, e2))
                rem[e] = rem.get(e, 0) - qc * c2
                if rem[e] == 0:
                    del rem[e]
        return SymPoly.make(self.vars, quo)

    def substitute(self, mapping: Mapping[str, "SymPoly"], new_vars: tuple[str, ...]) -> "SymPoly":
        """Replace each variable by a polynomial over new_vars."""
        images = []
        for name in self.vars:
            if name not in mapping:
                raise DomainError(f"no image for variable {name!r}")
            img = mapping[name]
            if img.vars != tuple(new_vars):
                raise DomainError("substitution images must share new_vars")
            images.append(img)
        out = SymPoly.zero(tuple(new_vars))
        for e, c in self.terms.items():
            term = SymPoly.const(tuple(new_vars), c)
            for img, k in zip(images, e):
                for _ in range(k):
                    term = term * img
            out = out + term
        return out

    def evaluate(self, values: Mapping[str, object]):
        """Evaluate at scalars (exact GaussRat or complex)."""
        total = None
        for e, c in self.terms.items():
            term = c
            for name, k in zip(self.vars, e):
                if k:
                    term = term * values[name] ** k
            total = term if total is None else total + term
        if total is None:
            return 0
        return total

    def evaluate_abs(self, values: Mapping[str, float]) -> float:
        """Sum of |term| magnitudes; a scale for relative zero tests."""
        total = 0.0
        for e, c in self.terms.items():
            term = abs(c)
            for name, k in zip(self.vars, e):
                if k:
                    term *= abs(values[name]) ** k
            total += term
        return total

    def monomials(self) -> dict[tuple[int, ...], int]:
        return dict(self.terms)

    def __str__(self):
        return format_terms({e: GaussRat.of(c) for e, c in self.terms.items()}, self.vars)

    __repr__ = __str__


def parse_sympoly(text: str, vars: tuple[str, ...]) -> SymPoly:
    """Parse text in the grammar of `textio.parse` with integer literals
    only and the names in vars as the variables; ParseError otherwise."""
    vars = tuple(vars)

    def literal(kind: str, val, at: int) -> SymPoly:
        if kind != "num" or not isinstance(val, Fraction) or val.denominator != 1:
            raise ParseError("expected an integer literal", at)
        return SymPoly.const(vars, int(val))

    def name(val: str, at: int) -> SymPoly:
        if val not in vars:
            raise ParseError(f"unknown variable {val!r}", at)
        return SymPoly.var(vars, val)

    return _Parser(text, literal, name).parse()
