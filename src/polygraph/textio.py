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
import re
from fractions import Fraction
from typing import Mapping, Sequence

from .bipoly import BiPoly
from .errors import DomainError, ParseError
from .scalars import GR_I, GaussRat, is_exact
from .unipoly import UniPoly

# -- tokenizer ----------------------------------------------------------------

# One token at each position: whitespace; a number, p/q or a run of decimal
# digits and points with an optional exponent, then an optional "i"; a name,
# a letter or non-decimal numeral ("½") then letters and digits; or an
# operator, U+2212 being a minus.
_TOKEN = re.compile(
    r"\s+"
    r"|(?P<num>\d+/\d+|[\d.]+(?:[eE][+-]?\d+)?)(?P<imag>i?)"
    r"|(?P<name>[^\W\d_][^\W_]*)"
    r"|(?P<op>[-+*^()\u2212])"
)


def _number(lit: str, at: int):
    """The value of the numeric literal lit found at position at: a Fraction
    for an integer or p/q, a float for a decimal (which switches the whole
    polynomial to float mode)."""
    num, _, den = lit.partition("/")
    if den:
        if int(den) == 0:
            raise ParseError("zero denominator", at)
        return Fraction(int(num), int(den))
    if lit.isdecimal():
        return Fraction(int(lit))
    try:
        value = float(lit)
    except ValueError:
        raise ParseError("malformed decimal literal", at) from None
    if not math.isfinite(value):
        raise ParseError(f"decimal literal {lit} is not finite", at)
    return value


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    toks: list[tuple[str, object, int]] = []
    i = 0
    while i < len(text):
        m = _TOKEN.match(text, i)
        if m is None:
            raise ParseError(f"unexpected character {text[i]!r}", i)
        if m["num"]:
            toks.append(("imag" if m["imag"] else "num", _number(m["num"], i), i))
        elif m["name"]:
            toks.append(("name", m["name"], i))
        elif m["op"]:
            toks.append(("op", "-" if m["op"] == "\u2212" else m["op"], i))
        i = m.end()
    toks.append(("end", None, len(text)))
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


def _fmt_float(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def format_scalar(s) -> str:
    """Round-trippable scalar text: '3/2', '2i', '1+2i', '0.5-1.5i'."""
    if is_exact(s):
        real, imag, fmt = s.re, s.im, str
    else:
        z = complex(s)
        real, imag, fmt = z.real, z.imag, _fmt_float
    if imag == 0:
        return fmt(real)
    imtxt = "i" if imag == 1 else ("-i" if imag == -1 else fmt(imag) + "i")
    if real == 0:
        return imtxt
    sign = "+" if imag > 0 else ""
    return fmt(real) + sign + imtxt


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
            entries.append([i, j, str(c.re), str(c.im)])
        else:
            entries.append([i, j, c.real, c.imag])
    return {"mode": p.mode, "coeffs": entries}


def bipoly_from_json(obj: dict) -> BiPoly:
    """The BiPoly of a `bipoly_to_json` object.  Raises DomainError unless
    the mode is "exact" or "float", every exponent is an int >= 0 (an int
    is never a bool) and no exponent pair appears twice."""
    mode = obj.get("mode")
    if mode not in ("exact", "float"):
        raise DomainError('mode must be "exact" or "float"', mode=mode)
    out = {}
    for i, j, real, imag in obj["coeffs"]:
        if not all(type(k) is int and k >= 0 for k in (i, j)):
            raise DomainError("exponents must be ints >= 0", exponents=[i, j])
        if (i, j) in out:
            raise DomainError("an exponent pair appears twice", exponents=[i, j])
        if mode == "exact":
            out[(i, j)] = GaussRat(Fraction(str(real)), Fraction(str(imag)))
        else:
            out[(i, j)] = complex(float(real), float(imag))
    return BiPoly.make(out)
