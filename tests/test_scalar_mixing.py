"""Exact meets float: the one mixing rule and the polynomials built on it.

A GaussRat combined with a float or complex by + - * / gives the complex
result of complex(exact) op float; exact with exact stays exact.  Polynomial
arithmetic inherits the rule, so mixing an exact and a float polynomial
gives bit for bit what the float copy of the exact operand gives.
"""

import random
from fractions import Fraction

import pytest

from polygraph import BiPoly, GaussRat, UniPoly, parse


def gr(re, im=0):
    return GaussRat.of(Fraction(re), Fraction(im))


class TestScalarRule:
    @pytest.mark.parametrize("other", [0.5, -1.25 + 2j, 3j, 1e-300])
    def test_each_operator_converts_the_exact_side(self, other):
        g = gr(Fraction(3, 4), -2)
        z = complex(g)
        cases = [
            (g + other, z + other), (other + g, other + z),
            (g - other, z - other), (other - g, other - z),
            (g * other, z * other), (other * g, other * z),
            (g / other, z / other), (other / g, other / z),
        ]
        for got, want in cases:
            assert type(got) is complex and got == want

    def test_exact_operands_stay_exact(self):
        g = gr(Fraction(3, 4), -2)
        for got in (g + 1, 1 - g, g * Fraction(1, 3), Fraction(1, 3) / g, g / g):
            assert isinstance(got, GaussRat)

    def test_other_operands_still_rejected(self):
        with pytest.raises(TypeError):
            gr(1) + "1"
        with pytest.raises(TypeError):
            [1] * gr(2)

    def test_float_division_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            gr(1) / 0.0
        with pytest.raises(ZeroDivisionError):
            0.5 / gr(0)


class TestExactZeroMeetsFloat:
    """The zero polynomial is exact; adding it to a float one used to raise."""

    def test_parse_with_a_cancelled_exact_term(self):
        assert parse("0*x + 0.5*y") == parse("0.5*y")
        assert parse("(x - x) + 0.5*y") == parse("0.5*y")

    def test_unipoly_zero_plus_float(self):
        half = UniPoly.make([0.5])
        assert UniPoly.zero() + half == half
        assert half + UniPoly.zero() == half
        assert UniPoly.zero() - half == -half

    def test_bipoly_zero_plus_float(self):
        p = parse("0.5*x*y - 1")
        assert BiPoly.zero() + p == p and p + BiPoly.zero() == p

    def test_affine_transform_of_float_polynomial(self):
        # 3 * Phi(2x + i, 2y + i) for Phi = y^2 - 0.5 x y + x^2 - 1, by hand
        got = parse("y^2 - 0.5*x*y + x^2 - 1").affine_transform(2.0, 1j, 3)
        assert got == parse("12*x^2 - 6*x*y + 12*y^2 + 9i*x + 9i*y - 7.5")

    def test_affine_transform_with_float_parameters(self):
        p = parse("y^2 - x*y + x^2 - 1")
        got = p.affine_transform(2, 1, 3)
        assert got.mode == "float"
        assert got == p.affine_transform(gr(2), gr(1), gr(3)).to_float()


def _exact_bipoly(rng):
    if rng.random() < 0.1:
        return BiPoly.zero()
    return BiPoly.make({
        (i, j): gr(Fraction(rng.randint(-6, 6), rng.randint(1, 4)), rng.randint(-2, 2))
        for i in range(rng.randint(0, 3) + 1)
        for j in range(rng.randint(0, 3) + 1)
        if rng.random() < 0.75
    })


def _float_bipoly(rng):
    entries = {
        (i, j): complex(rng.uniform(-2, 2), rng.choice([0.0, rng.uniform(-2, 2)]))
        for i in range(rng.randint(0, 3) + 1)
        for j in range(rng.randint(0, 3) + 1)
        if rng.random() < 0.75
    }
    entries[(1, 1)] = 1.5 - 0.5j  # never the zero polynomial
    return BiPoly.make(entries)


def test_mixed_bipoly_operations_equal_the_float_copy():
    rng = random.Random(5)
    for _ in range(60):
        p, q = _exact_bipoly(rng), _float_bipoly(rng)
        pf = p.to_float()
        assert p + q == pf + q
        assert q + p == q + pf
        assert p - q == pf - q
        assert q - p == q - pf
        assert p * q == pf * q
        assert q * p == q * pf
        u, v = (complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(2))
        for axis in ("x", "y"):
            assert p.eval_rows([u], axis).tobytes() == pf.eval_rows([u], axis).tobytes()
        assert p.eval(u, v) == pf.eval(u, v)


def test_mixed_unipoly_operations_equal_the_float_copy():
    rng = random.Random(6)
    for _ in range(100):
        p = UniPoly.make([gr(rng.randint(-5, 5), rng.randint(-2, 2))
                          for _ in range(rng.randint(0, 5))])
        q = UniPoly.make([complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                          for _ in range(rng.randint(1, 5))])
        pf = p.to_float()
        assert p + q == pf + q and q + p == q + pf
        assert p - q == pf - q and q - p == q - pf
        assert p * q == pf * q and q * p == q * pf
