"""Polynomial text grammar, pretty-printing and JSON serialization.

Grammar accepted by :func:`parse`:

    expr   := term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := '-' factor | atom ('^' NONNEG_INT)?
    atom   := NUMBER | NUMBER 'i' | 'i' | 'x' | 'y' | '(' expr ')'
    NUMBER := INT | INT '/' INT | DECIMAL

Integer and p/q literals produce exact Gaussian rationals; any decimal
literal (with '.' or an exponent) switches the whole polynomial to float
mode.  "2i" and "3/2i" are single imaginary literals.  The parser builds
literals and names through two functions it is given, so
`sympoly.parse_sympoly` reads the same grammar with integer literals and
its own variable names.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, Sequence

from .bipoly import BiPoly
from .errors import ParseError
from .scalars import GR_I, GaussRat, is_exact
from .unipoly import UniPoly

# -- tokenizer ----------------------------------------------------------------

_OPS = set("+-*^()")


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    toks: list[tuple[str, object, int]] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "−":  # unicode minus
            toks.append(("op", "-", i))
            i += 1
            continue
        if ch in _OPS:
            toks.append(("op", ch, i))
            i += 1
            continue
        if ch.isdigit() or ch == ".":
            start = i
            while i < n and (text[i].isdigit() or text[i] == "."):
                i += 1
            if i < n and text[i] in "eE":
                j = i + 1
                if j < n and text[j] in "+-":
                    j += 1
                if j < n and text[j].isdigit():
                    i = j
                    while i < n and text[i].isdigit():
                        i += 1
            lit = text[start:i]
            if "." in lit or "e" in lit or "E" in lit:
                try:
                    value: object = float(lit)  # any decimal literal -> float mode
                except ValueError:
                    raise ParseError("malformed decimal literal", start) from None
                if not math.isfinite(value):
                    raise ParseError(f"decimal literal {lit} is not finite", start)
            elif i < n and text[i] == "/" and i + 1 < n and text[i + 1].isdigit():
                i += 1
                dstart = i
                while i < n and text[i].isdigit():
                    i += 1
                den = int(text[dstart:i])
                if den == 0:
                    raise ParseError("zero denominator", start)
                value = Fraction(int(lit), den)
            else:
                value = Fraction(int(lit))
            if i < n and text[i] == "i":
                i += 1
                toks.append(("imag", value, start))
            else:
                toks.append(("num", value, start))
            continue
        if ch.isalpha():
            start = i
            while i < n and text[i].isalnum():
                i += 1
            toks.append(("name", text[start:i], start))
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    toks.append(("end", None, n))
    return toks


class _Parser:
    """Recursive descent over the grammar above.  The polynomial type is
    the builders': literal(kind, value, position) turns a "num" or "imag"
    token and name(text, position) a name token into a polynomial with
    + - *, negation and power(k), or raises ParseError."""

    def __init__(self, text: str, literal, name):
        self.toks = _tokenize(text)
        self.pos = 0
        self.literal = literal
        self.name = name

    def peek(self):
        return self.toks[self.pos]

    def take(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect_op(self, op: str):
        kind, val, at = self.take()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", at)

    def parse(self):
        p = self.expr()
        kind, _, at = self.peek()
        if kind != "end":
            raise ParseError("unexpected trailing input", at)
        return p

    def expr(self):
        p = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                q = self.term()
                p = p + q if val == "+" else p - q
            else:
                return p

    def term(self):
        p = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.take()
                p = p * self.factor()
            else:
                return p

    def factor(self):
        kind, val, at = self.peek()
        if kind == "op" and val == "-":
            self.take()
            return -self.factor()
        p = self.atom()
        kind, val, at = self.peek()
        if kind == "op" and val == "^":
            self.take()
            kind, exp, at = self.take()
            if kind != "num" or not isinstance(exp, Fraction) or exp.denominator != 1 or exp < 0:
                raise ParseError("exponent must be a nonnegative integer", at)
            p = p.power(int(exp))
        return p

    def atom(self):
        kind, val, at = self.take()
        if kind in ("num", "imag"):
            return self.literal(kind, val, at)
        if kind == "name":
            return self.name(val, at)
        if kind == "op" and val == "(":
            p = self.expr()
            self.expect_op(")")
            return p
        raise ParseError("expected a number, variable or parenthesis", at)


def _bipoly_literal(kind: str, val, at: int) -> BiPoly:
    if isinstance(val, Fraction):
        c = GaussRat(val) if kind == "num" else GaussRat(Fraction(0), val)
    else:
        c = complex(val) if kind == "num" else complex(0.0, val)
    return BiPoly.make({(0, 0): c})


def _bipoly_name(val: str, at: int) -> BiPoly:
    if val == "i":
        return BiPoly.make({(0, 0): GR_I})
    if val in ("x", "y"):
        return BiPoly.variable(val)
    raise ParseError(f"unsupported variable name {val!r}", at)


def parse(text: str) -> BiPoly:
    """Parse polynomial text into a BiPoly (exact when all literals are)."""
    return _Parser(text, _bipoly_literal, _bipoly_name).parse()


def parse_scalar(text: str):
    """Parse a constant expression (used for seeds and CLI coefficients)."""
    p = parse(text)
    if p.deg_x > 0 or p.deg_y > 0:
        raise ParseError("expected a constant expression", 0)
    if p.is_zero:
        return GaussRat()
    return p.coeff(0, 0)


# -- formatting -----------------------------------------------------------------


def _fmt_fraction(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _fmt_float(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def format_scalar(s) -> str:
    """Round-trippable scalar text: '3/2', '2i', '1+2i', '0.5-1.5i'."""
    if is_exact(s):
        re, im, fmt = s.re, s.im, _fmt_fraction
    else:
        z = complex(s)
        re, im, fmt = z.real, z.imag, _fmt_float
    if im == 0:
        return fmt(re)
    imtxt = "i" if im == 1 else ("-i" if im == -1 else fmt(im) + "i")
    if re == 0:
        return imtxt
    sign = "+" if im > 0 else ""
    return fmt(re) + sign + imtxt


def format_terms(coeffs: Mapping[tuple[int, ...], object], names: Sequence[str]) -> str:
    """Text of the polynomial {exponent tuple: coefficient} in the variables
    names, in the grammar `parse` reads: the nonzero terms by total degree,
    then by exponent tuple, highest first; "0" when there are none."""
    out = ""
    for e in sorted(coeffs, key=lambda e: (sum(e), e), reverse=True):
        if not coeffs[e]:
            continue
        txt = format_scalar(coeffs[e])
        mono = "*".join(v if k == 1 else f"{v}^{k}" for v, k in zip(names, e) if k)
        if mono and txt in ("1", "-1"):
            txt = txt[:-1] + mono  # x for 1*x, -x for -1*x
        elif mono:
            txt = (f"({txt})" if "+" in txt[1:] or "-" in txt[1:] else txt) + "*" + mono
        if not out:
            out = txt
        else:
            out += " - " + txt[1:] if txt.startswith("-") else " + " + txt
    return out or "0"


def format_unipoly(p: UniPoly) -> str:
    return format_terms({(k,): c for k, c in enumerate(p.coeffs)}, (p.var,))


def format_bipoly(p: BiPoly) -> str:
    return format_terms(p.coeffs, ("x", "y"))


# -- JSON ---------------------------------------------------------------------


def bipoly_to_json(p: BiPoly) -> dict:
    """{"mode": ..., "coeffs": [[i, j, re, im], ...]} with exact parts as 'p/q'."""
    entries = []
    for (i, j) in sorted(p.coeffs):
        c = p.coeffs[(i, j)]
        if is_exact(c):
            entries.append([i, j, _fmt_fraction(c.re), _fmt_fraction(c.im)])
        else:
            entries.append([i, j, c.real, c.imag])
    return {"mode": p.mode, "coeffs": entries}


def bipoly_from_json(obj: dict) -> BiPoly:
    mode = obj.get("mode")
    out = {}
    for i, j, re, im in obj["coeffs"]:
        if mode == "exact":
            out[(int(i), int(j))] = GaussRat(Fraction(str(re)), Fraction(str(im)))
        else:
            out[(int(i), int(j))] = complex(float(re), float(im))
    return BiPoly.make(out)
