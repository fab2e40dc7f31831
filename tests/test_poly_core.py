"""Parsing, evaluation, gcd, resultants, squarefree part, affine maps."""

import ast
import random
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from polygraph import BiPoly, GaussRat, UniPoly, analyze, out_neighbors, parse, unipoly
from polygraph.errors import (
    DomainError,
    EvaluationOverflow,
    ExactArithmeticRequired,
    ParseError,
    UniversalVertexError,
)
from polygraph.sympoly import SymPoly
from polygraph.textio import bipoly_from_json, bipoly_to_json, format_bipoly, format_scalar, format_unipoly


def gr(re, im=0):
    return GaussRat.of(Fraction(re), Fraction(im))


class TestParse:
    def test_grid_polynomial(self):
        p = parse("(y-x)^4 - 1")
        assert p.deg_y == 4 and p.deg_x == 4
        assert p.mode == "exact"
        assert p.coeff(0, 4) == gr(1) and p.coeff(4, 0) == gr(1)
        assert p.coeff(0, 0) == gr(-1)

    def test_zero(self):
        assert parse("0").is_zero

    def test_monomials(self):
        p = parse("x^2+y^2+x*y")
        assert p.coeffs == {(2, 0): gr(1), (0, 2): gr(1), (1, 1): gr(1)}

    def test_rational_and_imaginary_literals(self):
        p = parse("3/2*x - 2i*y + 1/3")
        assert p.coeff(1, 0) == gr(Fraction(3, 2))
        assert p.coeff(0, 1) == gr(0, -2)
        assert p.coeff(0, 0) == gr(Fraction(1, 3))

    def test_decimal_switches_to_float(self):
        assert parse("0.5*x*y - 1").mode == "float"

    def test_mode_is_stored_on_first_read_and_kept_out_of_equality(self):
        for p, q in [
            (parse("x*y + 1"), parse("x*y + 1")),
            (UniPoly.make([gr(1), gr(2)], "y"), UniPoly.make([gr(1), gr(2)], "y")),
        ]:
            assert "mode" not in vars(p)
            assert p.mode == "exact" and vars(p)["mode"] == "exact"
            assert p == q and "mode" not in vars(q)

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as err:
            parse("x^2 + @")
        assert err.value.position == 6

    @pytest.mark.parametrize("text, position, message", [
        ("y + 3/0*x", 4, "zero denominator"),
        ("y - 2/000", 4, "zero denominator"),
        ("x + 1.2.3", 4, "malformed decimal literal"),
        (".", 0, "malformed decimal literal"),
        ("y*..5", 2, "malformed decimal literal"),
    ])
    def test_malformed_literal_position(self, text, position, message):
        # A literal that int, float or Fraction rejects is a syntax error at
        # the literal's first character.
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.position == position
        assert str(err.value).startswith(message)

    def test_non_finite_decimal_literal_rejected(self):
        with pytest.raises(ParseError) as err:
            parse("y + 1e400*x")
        assert err.value.position == 4

    def test_overflowing_float_coefficient_raises(self):
        # Used to trim every float term against an infinite floor and return y.
        with pytest.raises(EvaluationOverflow):
            parse("1e308*x*1e308 + y")
        with pytest.raises(EvaluationOverflow):
            UniPoly.make([1.0, float("nan")])

    def test_unsupported_variable(self):
        with pytest.raises(ParseError):
            parse("x + z")

    def test_unicode_minus(self):
        assert parse("y \u2212 x") == parse("y - x")

    @pytest.mark.parametrize("text, coeffs", [
        ("y - 1e13*x", {(0, 1): 1.0, (1, 0): -1e13}),
        ("x*y - 1e-13", {(1, 1): 1.0, (0, 0): -1e-13}),
        ("1e-13*y^2 + y - x", {(0, 2): 1e-13, (0, 1): 1.0, (1, 0): -1.0}),
        ("1e-13*x^2 + x - y", {(2, 0): 1e-13, (1, 0): 1.0, (0, 1): -1.0}),
    ])
    def test_float_coefficients_are_all_kept(self, text, coeffs):
        # However small one coefficient is beside the others, it is part of
        # Phi and so of the digraph.
        p = parse(text)
        assert p.mode == "float"
        for (i, j), c in coeffs.items():
            assert p.coeff(i, j) == c
        assert p.deg_x == max(i for i, _ in coeffs)
        assert p.deg_y == max(j for _, j in coeffs)

    def test_roundtrip_through_text(self):
        for text in ("(y-x)^4-1", "x^2+y^2+x*y", "(1+2i)*x*y - 3/4"):
            p = parse(text)
            assert parse(format_bipoly(p)).coeffs == p.coeffs

    def test_json_roundtrip(self):
        for text in ("(y-x)^4-1", "0.5*x*y - 1", "2i*y + 1/3"):
            p = parse(text)
            q = bipoly_from_json(bipoly_to_json(p))
            assert q.coeffs == p.coeffs and q.mode == p.mode

    @pytest.mark.parametrize(
        "obj",
        [
            {"mode": "float", "coeffs": [[1.7, 0, 1.0, 0.0]]},
            {"mode": "float", "coeffs": [[0, True, 1.0, 0.0]]},
            {"mode": "exact", "coeffs": [[-1, 0, "1", "0"], [0, 1, "1", "0"]]},
            {"mode": "exact", "coeffs": [[0, "1", "1", "0"]]},
            {"mode": "bogus", "coeffs": [[0, 1, 1.0, 0.0]]},
            {"coeffs": [[0, 1, 1.0, 0.0]]},
            {"mode": "exact", "coeffs": [[0, 1, "1", "0"], [0, 1, "2", "0"]]},
        ],
        ids=["float_exponent", "bool_exponent", "negative_exponent", "str_exponent",
             "bogus_mode", "no_mode", "repeated_pair"],
    )
    def test_json_that_does_not_check_out_raises(self, obj):
        with pytest.raises(DomainError):
            bipoly_from_json(obj)


# The three printers `textio.format_terms` replaced, kept as the reference:
# format_unipoly, format_bipoly and SymPoly.__str__ each had their own loop.


def _ref_fmt_term(coeff, monomial: str) -> str:
    txt = format_scalar(coeff)
    if not monomial:
        return txt
    if txt == "1":
        return monomial
    if txt == "-1":
        return "-" + monomial
    if "+" in txt[1:] or "-" in txt[1:]:
        txt = "(" + txt + ")"
    return txt + "*" + monomial


def _ref_monomial(var: str, k: int) -> str:
    if k == 0:
        return ""
    if k == 1:
        return var
    return f"{var}^{k}"


def _ref_join_terms(terms: list[str]) -> str:
    if not terms:
        return "0"
    out = terms[0]
    for t in terms[1:]:
        out += " - " + t[1:] if t.startswith("-") else " + " + t
    return out


def _ref_format_unipoly(p: UniPoly) -> str:
    terms = []
    for k in range(p.degree, -1, -1):
        c = p.coeff(k)
        if not c:
            continue
        mono = _ref_monomial(p.var, k)
        terms.append(_ref_fmt_term(c, mono))
    return _ref_join_terms(terms)


def _ref_format_bipoly(p: BiPoly) -> str:
    keys = sorted(p.coeffs, key=lambda ij: (ij[0] + ij[1], ij[0]), reverse=True)
    terms = []
    for i, j in keys:
        mono_parts = [m for m in (_ref_monomial("x", i), _ref_monomial("y", j)) if m]
        terms.append(_ref_fmt_term(p.coeffs[(i, j)], "*".join(mono_parts)))
    return _ref_join_terms(terms)


def _ref_format_sympoly(p: SymPoly) -> str:
    terms = []
    for e in sorted(p.terms, key=p._key, reverse=True):
        body = "*".join(m for m in map(_ref_monomial, p.vars, e) if m)
        terms.append(_ref_fmt_term(GaussRat.of(p.terms[e]), body))
    return _ref_join_terms(terms)


class TestPrinter:
    """One term printer, `textio.format_terms`, writes every polynomial's text."""

    # zero, ones, pure imaginary and negative coefficients
    SPECIAL = [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (0, 3), (-2, 0)]

    def _scalar(self, rng: random.Random, exact: bool):
        if rng.random() < 0.4:
            re, im = rng.choice(self.SPECIAL)
        else:
            re, im = rng.randint(-9, 9), rng.randint(-9, 9)
        if exact:
            return gr(Fraction(re, rng.choice([1, 1, 2, 7])), Fraction(im, rng.choice([1, 3])))
        return complex(re, im) * rng.choice([1.0, 1.0, 0.5, 1e-3, 12345.678, 1e20])

    def test_bipoly_and_unipoly_text_is_the_reference_text(self):
        rng = random.Random(23)
        polys = [BiPoly.zero(), BiPoly.constant(gr(0, -1)), BiPoly.constant(-2.5 + 0j), parse("-x*y + 3/2i")]
        for _ in range(60):
            exact = rng.random() < 0.5
            dx, dy = rng.randint(0, 3), rng.randint(0, 3)
            polys.append(BiPoly.make({
                (i, j): self._scalar(rng, exact)
                for i in range(dx + 1) for j in range(dy + 1) if rng.random() < 0.6
            }))
        checked = 0
        for p in polys:
            assert format_bipoly(p) == str(p) == _ref_format_bipoly(p)
            for q in [*p.coeff_polys("y"), *p.coeff_polys("x")]:  # UniPolys in x and in y
                assert format_unipoly(q) == str(q) == _ref_format_unipoly(q)
                checked += 1
        assert checked > 200
        assert _ref_format_unipoly(UniPoly.zero("y")) == str(UniPoly.zero("y")) == "0"

    def test_sympoly_text_is_the_reference_text(self):
        rng = random.Random(29)
        names = ("a", "b", "c")
        for _ in range(60):
            terms = {
                tuple(rng.randint(0, 3) for _ in names): rng.choice([0, 1, -1, rng.randint(-10**20, 10**20)])
                for _ in range(rng.randint(0, 6))
            }
            p = SymPoly.make(names, terms)
            assert str(p) == _ref_format_sympoly(p)
        assert str(SymPoly.zero(names)) == "0" and str(SymPoly.const(names, -1)) == "-1"


class TestCanonicalForm:
    """Exact polynomials are stored as Gaussian integers over one positive
    denominator in lowest terms, so equal ones compare equal however they
    were built, and the public reads still give GaussRat values."""

    def test_equal_fractions_give_equal_polynomials(self):
        half, two_quarters = GaussRat(Fraction(1, 2)), GaussRat(Fraction(2, 4), Fraction(0, 3))
        assert UniPoly.make([two_quarters, gr(1)]) == UniPoly.make([half, gr(1)])
        assert BiPoly.make({(1, 0): two_quarters, (0, 1): gr(1)}) == parse("1/2*x + y")

    def test_a_third_times_three_is_x(self):
        third = UniPoly.make([gr(0), gr(Fraction(1, 3))])
        assert third * UniPoly.constant(gr(3)) == UniPoly.variable() == third.scale(3)
        x_third = parse("x") * BiPoly.constant(gr(Fraction(1, 3)))
        assert x_third * BiPoly.constant(gr(3)) == parse("x") == x_third.scale(gr(3))
        assert (x_third + x_third + x_third).den == 1

    def test_negative_denominators_are_moved_to_the_numerators(self):
        p = UniPoly.make([gr(1), gr(-2)])
        monic = p.monic()  # divides by the lead -2
        assert monic == UniPoly.make([GaussRat(Fraction(1, -2)), gr(1)])
        assert monic.den == 2 and monic.terms == ((-1, 0), (2, 0))
        assert p.divexact(UniPoly.constant(gr(-3))) == UniPoly.make(
            [gr(Fraction(-1, 3)), gr(Fraction(2, 3))]
        )
        phi = parse("-2*x*y + y - 1/3")
        assert phi.normalized() == parse("x*y - 1/2*y + 1/6")
        assert phi.normalized().den == 6

    def test_bipoly_built_from_parts_equals_the_parsed_one(self):
        phi = parse("(y - x)*(2*y + 4/6*x)")
        built = (BiPoly.variable("y") - BiPoly.variable("x")) * BiPoly.make(
            {(0, 1): gr(2), (1, 0): gr(Fraction(2, 3))}
        )
        assert phi == built
        assert built.coeff_polys("y")[1] == UniPoly.make([gr(0), gr(Fraction(-4, 3))])

    def test_exact_product_matches_a_coefficient_by_coefficient_reference(self):
        rng = random.Random(29)

        def draw() -> GaussRat:
            return GaussRat(
                Fraction(rng.randint(-9, 9), rng.randint(1, 6)),
                Fraction(rng.randint(-9, 9), rng.randint(1, 4)) * rng.randint(0, 1),
            )

        def entries() -> dict:
            dx, dy, gaps = rng.randint(0, 4), rng.randint(0, 4), rng.randint(1, 3)
            return {
                (i, j): draw()
                for i in range(dx + 1)
                for j in range(0, dy + 1, gaps)  # some rows are zero
                if rng.random() < 0.6
            }

        def reference(a: dict, b: dict) -> dict:
            want: dict = {}
            for (i, j), s in a.items():
                for (k, m), t in b.items():
                    want[i + k, j + m] = want.get((i + k, j + m), gr(0)) + s * t
            return want

        for _ in range(150):
            a, b = entries(), entries()
            want = reference(a, b)
            got = BiPoly.make(a) * BiPoly.make(b)
            assert got.coeffs == {ij: c for ij, c in want.items() if c != gr(0)}
            # Lowest terms: the same fields as the polynomial built from the reference.
            assert got == BiPoly.make(want)

        # Float and mixed operands: the same products in complex doubles,
        # equal to the exact reference within rounding.
        def as_float(e: dict) -> dict:
            return {ij: complex(c) for ij, c in e.items()}

        for n in range(150):
            a, b = entries(), entries()
            want = reference(a, b)
            left = BiPoly.make(as_float(a))
            right = BiPoly.make(b if n % 2 else as_float(b))
            got = left * right
            assert got.is_zero or got.mode == "float"
            scale = max((abs(complex(c)) for c in want.values()), default=0.0)
            for ij in set(want) | set(got.coeffs):
                assert abs(got.coeff(*ij) - complex(want.get(ij, gr(0)))) <= 1e-12 * scale

    def test_public_reads_are_gaussrat_with_fraction_parts(self):
        p = UniPoly.make([gr(Fraction(3, 6), 2), gr(0), gr(-4)])
        phi = parse("3/6*x^2 + 2i*y - 4")
        reads = list(p.coeffs) + [p.coeff(k) for k in range(-1, 4)] + [p.lead]
        reads += list(phi.coeffs.values()) + [phi.coeff(2, 0), phi.coeff(5, 5), phi.lead_gl()]
        for c in reads:
            assert type(c) is GaussRat
            assert type(c.re) is Fraction and type(c.im) is Fraction
        assert p.coeffs == (gr(Fraction(1, 2), 2), gr(0), gr(-4))
        assert p.coeff(7) == gr(0) and phi.coeff(2, 0) == gr(Fraction(1, 2))
        assert phi.coeffs == {(2, 0): gr(Fraction(1, 2)), (0, 1): gr(0, 2), (0, 0): gr(-4)}


class TestEval:
    def test_grid_is_exact(self):
        got = parse("(y-x)^4-1").eval(gr(0), gr(2, 1))
        assert type(got) is GaussRat and got == gr(2, 1) ** 4 - gr(1)

    def test_linear_fractional_value(self):
        # ((cx+d)y - (ax+b)) at (u0, v0) -> (c u0 + d) v0 - (a u0 + b)
        a, b, c, d = gr(2), gr(3), gr(5), gr(7)
        phi = BiPoly.make({(1, 1): c, (0, 1): d, (1, 0): -a, (0, 0): -b})
        u0, v0 = gr(Fraction(1, 2)), gr(Fraction(-2, 3), 1)
        assert phi.eval(u0, v0) == (c * u0 + d) * v0 - (a * u0 + b)

    def test_quadratic_sum_of_roots_shape(self):
        # x^2+y^2+a*x*y+c at (v0, w) -> w^2 + (a v0) w + (v0^2 + c)
        a, c = gr(3), gr(-2)
        phi = BiPoly.make({(2, 0): gr(1), (0, 2): gr(1), (1, 1): a, (0, 0): c})
        v0, w = gr(4), gr(Fraction(1, 3), -1)
        assert phi.eval(v0, w) == w * w + a * v0 * w + v0 * v0 + c

    def test_float_point_gives_the_value_of_the_float_copy(self):
        phi = parse("(y-x)^4-1 + 3i*x^2*y")
        got = phi.eval(0.5, 3.0)
        assert type(got) is complex and got == phi.to_float().eval(0.5, 3.0)
        assert got == complex(phi.eval(gr(Fraction(1, 2)), gr(3)))

    def test_non_finite_value_raises(self):
        with pytest.raises(EvaluationOverflow):
            parse("x^2*y - 1.0").eval(1e200, 1.0)
        with pytest.raises(EvaluationOverflow):
            parse("x*y^3 - 1.0").eval(2.0, 1e120)

    def test_universal_vertex_is_a_root_of_every_row_value(self):
        phi = parse("(x-1)*y + x - 1")
        assert all(phi.eval(gr(1), gr(v)) == gr(0) for v in (-2, 0, 5))
        with pytest.raises(UniversalVertexError):
            out_neighbors(phi, 1.0)

    def test_diagonal_has_the_bits_of_horner_in_y(self):
        # Phi(x, x) is one sum per coefficient, its terms added from the top
        # row down as Horner in y adds them, so a float diagonal has Horner's
        # bits: coefficients of many scales, cancellations and -0.0 included.
        rng = random.Random(41)
        for exact in (False, True):
            for _ in range(60):
                phi = _random_bipoly(rng, exact)
                if not exact:
                    phi = BiPoly.make({
                        ij: (-0.0 if rng.random() < 0.1 else c * 10.0 ** rng.randint(-12, 12))
                        for ij, c in phi.coeffs.items()
                    } | {(0, 1): 1.0, (1, 0): -1.0})
                horner = UniPoly.zero()
                for row in reversed(phi.rows):
                    horner = horner.shift(1) + row
                got = phi.diagonal()
                assert got == horner and got.var == "x"
                if not exact:
                    bits = lambda p: [(c.real.hex(), c.imag.hex()) for c in p.terms]
                    assert bits(got) == bits(horner)

    def test_float_row_drops_rounding_debris_at_its_top(self):
        # 0.1*3.0 - 0.3 is 5.6e-17, not 0: the y^2 coefficient of the row is
        # rounding debris, so the row has degree 1 and the one root -1.
        phi = parse("(0.1*x - 0.3)*y^2 + y + 1")
        assert phi.eval_rows([3.0], "x")[0, 2] != 0
        assert out_neighbors(phi, 3.0) == [(-1, 1)]


def _random_bipoly(rng: random.Random, exact: bool) -> BiPoly:
    dx, dy = rng.randint(0, 4), rng.randint(0, 4)
    entries = {}
    for i in range(dx + 1):
        for j in range(dy + 1):
            if rng.random() < 0.7:
                re, im = rng.randint(-5, 5), rng.randint(-2, 2)
                entries[(i, j)] = gr(re, im) if exact else complex(re, im) * rng.uniform(0.5, 2)
    entries[(dx, dy)] = gr(1) if exact else 1.0 + 0.5j  # never the zero polynomial
    return BiPoly.make(entries)


class TestEvalRows:
    def test_rows_are_bitwise_those_of_one_row(self):
        rng = random.Random(11)
        for trial in range(60):
            phi = _random_bipoly(rng, exact=trial % 2 == 0)
            us = [complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(rng.randint(1, 9))]
            us[rng.randrange(len(us))] = 0j
            for axis in ("x", "y"):
                other = "y" if axis == "x" else "x"
                batch = phi.eval_rows(us, axis)
                assert batch.shape == (len(us), phi.degree(other) + 1)
                for k, u in enumerate(us):
                    alone = phi.eval_rows([u], axis)[0]
                    assert np.array_equal(batch[k], alone)
                    # Bit for bit, signed zeros included.
                    assert batch[k].tobytes() == alone.tobytes()

    def test_degree_drop_row(self):
        phi = parse("x*y + 1")
        (row,) = phi.eval_rows([0j], "x")
        assert row.tolist() == [1, 0]
        assert out_neighbors(phi, 0j) == []

    def test_exact_phi_rows_equal_those_of_its_float_copy(self):
        phi = parse("(y-x)^4-1 + 3i*x^2*y")
        us = [0.5 - 2j, 3 + 0j]
        for axis in ("x", "y"):
            assert phi.eval_rows(us, axis).tobytes() == phi.to_float().eval_rows(us, axis).tobytes()

    def test_row_pairs_are_bitwise_the_two_directions_interleaved_and_padded(self):
        # Coefficient parts and values with signed zeros, overflow (1e80 to a
        # power above 3) and inf: padding a shorter Horner with leading zeros
        # instead would turn some -0.0 into +0.0 on a Phi with deg_x != deg_y.
        rng = random.Random(28)
        parts = [0.0, -0.0, 1.0, -1.0, 2.5, -0.75]
        specials = [0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0),
                    1e80, -1e80j, complex(1e80, -1e80), complex("inf"), complex(0, float("-inf"))]
        shapes = set()
        for _ in range(300):
            dx, dy = rng.randint(0, 5), rng.randint(0, 5)
            entries = {
                (i, j): complex(rng.choice(parts), rng.choice(parts))
                for i in range(dx + 1) for j in range(dy + 1) if rng.random() < 0.6
            }
            entries[(dx, rng.randint(0, dy))] = complex(rng.uniform(0.5, 2), rng.choice(parts))
            entries[(rng.randint(0, dx), dy)] = complex(rng.choice(parts), -rng.uniform(0.5, 2))
            phi = BiPoly.make(entries)
            shapes.add((phi.deg_x, phi.deg_y))
            us = rng.sample(specials, 3) + [
                complex(rng.choice(parts) * rng.uniform(0.1, 3), rng.choice(parts) * rng.uniform(0.1, 3))
                for _ in range(rng.randint(0, 4))
            ]
            rng.shuffle(us)
            out_rows, in_rows = phi.eval_rows(us, "x"), phi.eval_rows(us, "y")
            want = np.zeros((2 * len(us), max(out_rows.shape[1], in_rows.shape[1])), dtype=complex)
            want[0::2, : out_rows.shape[1]] = out_rows
            want[1::2, : in_rows.shape[1]] = in_rows
            assert phi.eval_rows(us, "xy").tobytes() == want.tobytes(), (str(phi), us)
        assert {(d, d) for d in range(6)} <= shapes and len(shapes) == 36

    def test_overflow_is_left_non_finite(self):
        (row,) = parse("x^2*y - 1.0").eval_rows([1e200], "x")
        assert not np.isfinite(row).all()
        with pytest.raises(EvaluationOverflow):
            out_neighbors(parse("x^2*y - 1.0"), 1e200)


class TestGcd:
    def test_coprime_linear(self):
        p = UniPoly.make([gr(7), gr(5)])  # 5x + 7
        q = UniPoly.make([gr(3), gr(2)])  # 2x + 3
        assert p.gcd(q).degree == 0

    def test_gcd_with_zero_is_monic(self):
        p = UniPoly.make([gr(2), gr(4)])
        g = p.gcd(UniPoly.zero())
        assert g.coeffs == (gr(Fraction(1, 2)), gr(1))

    def test_shared_root(self):
        p = parse("x^2-1").coeff_polys("y")[0]
        q = parse("x-1").coeff_polys("y")[0]
        assert p.gcd(q).coeffs == (gr(-1), gr(1))

    def test_gcd_zero_zero(self):
        assert UniPoly.zero().gcd(UniPoly.zero()).is_zero

    def test_float_rejected(self):
        with pytest.raises(ExactArithmeticRequired):
            UniPoly.make([1.0, 2.0]).gcd(UniPoly.make([1.0]))


class TestResultant:
    # Res(Phi, dPhi/dvar), the one exact resultant, against oracles that do
    # not share its kernel: hand and scalar Sylvester determinants.
    def test_repeated_factor_forces_zero(self):
        assert parse("(y-x)^2").resultant_with_derivative("y").is_zero

    def test_hand_sylvester_oracle(self):
        # Independent oracle: cofactor expansion of the 3x3 Sylvester matrix of
        # (y^2 - x, 2y) in y, with entries in QQ[x]:
        #   [1  0  -x]
        #   [2  0   0]   -> det = -4x
        #   [0  2   0]
        x = UniPoly.variable("x")
        one = UniPoly.one("x")
        two = UniPoly.make([gr(2)])
        zero = UniPoly.zero("x")
        m = [[one, zero, -x], [two, zero, zero], [zero, two, zero]]

        def det3(m):
            total = UniPoly.zero("x")
            for j in range(3):
                minor = [
                    [m[r][c] for c in range(3) if c != j] for r in (1, 2)
                ]
                sub = minor[0][0] * minor[1][1] - minor[0][1] * minor[1][0]
                term = m[0][j] * sub
                total = total + (term if j % 2 == 0 else -term)
            return total

        oracle = det3(m)
        assert oracle.coeffs == (gr(0), gr(-4))  # -4x

        got = parse("y^2 - x").resultant_with_derivative("y")
        assert got.coeffs == oracle.coeffs

    def test_degree_zero_in_var_gives_zero(self):
        # dPhi/dvar = 0 when Phi is free of var, the zero Phi included: the
        # resultant is the zero polynomial in the other variable.
        for text, var, other in (("0", "y", "x"), ("0", "x", "y"), ("7/3 - i", "y", "x"), ("x^2 + 3", "y", "x"),
                                 ("(2+i)*y^3 - y", "x", "y")):
            got = parse(text).resultant_with_derivative(var)
            assert got.is_zero and got.var == other, (text, var)

    def test_degree_one_is_the_coefficient_of_var(self):
        # Phi = a*var + b: dPhi/dvar = a and the Sylvester matrix is [a].
        for text, var, want in (("y - x - 1", "y", "1"), ("x*y + 3", "y", "x"), ("(1/2+i)*x^2*y - x", "y", "(1/2+i)*x^2"),
                                ("(2-3*i)*y^2*x + y - 5", "x", "(2-3*i)*y^2")):
            got = parse(text).resultant_with_derivative(var)
            assert BiPoly.from_unipoly(got) == parse(want), (text, var)

    def test_float_phi_is_rejected(self):
        with pytest.raises(ExactArithmeticRequired):
            parse("0.5*y^2 - x").resultant_with_derivative("y")

    def test_float_phi_is_analyzed_on_its_exact_binary_value(self):
        # D is the float image of the resultant of the lifted Phi, whose
        # 1e150 is a binary value just above 10**150: 4 * 1e150**2 rounds to
        # 3.9999999999999996e300, not to the double nearest 4 * 10**300.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for text in ("1e150*x*y^2 + y + 1", "0.1*y^2 + 0.3*x*y + 0.7", "(0.5+1.5i)*x^2*y^3 - 0.25*y + x"):
                p = parse(text)
                assert analyze(p).D == p.to_exact().resultant_with_derivative("y").to_float(), text
            D = analyze(parse("1e150*x*y^2 + y + 1")).D
        assert D.coeffs == (0.0, -1e150, 3.9999999999999996e300)
        assert D.coeffs[2] != float(4 * 10**300)

    def test_huge_float_constant_resultant_is_exact(self):
        # E = Res_x(Phi, Phi_x) with Phi_x the constant c is c itself: no
        # 1x1 LAPACK determinant, no overflow warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = analyze(parse("(1e308+1e308i)*x + y"))
        assert report.E.coeffs == (1e308 + 1e308j,)

    def test_float_matches_exact(self):
        # A float Phi is analyzed on its exact binary value: integer
        # coefficients are exact doubles, so its D is the float image of
        # the exact Phi's.
        rng = random.Random(3)
        for _ in range(20):
            entries = {}
            for i in range(3):
                for j in range(3):
                    if rng.random() < 0.7:
                        entries[(i, j)] = gr(rng.randint(-4, 4))
            p = BiPoly.make(entries)
            if p.deg_y < 1:
                continue
            exact = p.resultant_with_derivative("y")
            assert analyze(p.to_float()).D == exact.to_float(), p

    def test_specialisation_matches_scalar_determinant(self, monkeypatch):
        # Independent oracle: where Phi's leading coefficient in y does not
        # vanish, Res_y(Phi, dPhi/dy)(x0) is the determinant of the Sylvester
        # matrix of Phi(x0, y) and its derivative, here by Gaussian
        # elimination over Q(i).  Each resultant is taken by the size rule's
        # path and again interpolated, and the two must agree.
        def det(rows):
            rows = [r[:] for r in rows]
            out = gr(1)
            for k in range(len(rows)):
                piv = next((r for r in range(k, len(rows)) if rows[r][k]), None)
                if piv is None:
                    return gr(0)
                if piv != k:
                    rows[k], rows[piv] = rows[piv], rows[k]
                    out = -out
                out = out * rows[k][k]
                for r in range(k + 1, len(rows)):
                    f = rows[r][k] / rows[k][k]
                    rows[r] = [a - f * b for a, b in zip(rows[r], rows[k])]
            return out

        def sylvester(p, q):
            m, n = p.degree, q.degree
            p_desc = [p.coeff(k) for k in range(m, -1, -1)]
            q_desc = [q.coeff(k) for k in range(n, -1, -1)]
            rows = [[gr(0)] * r + p_desc + [gr(0)] * (n - 1 - r) for r in range(n)]
            return rows + [[gr(0)] * r + q_desc + [gr(0)] * (m - 1 - r) for r in range(m)]

        rng = random.Random(11)

        def rand_bipoly():
            def scalar():
                im = Fraction(rng.randint(-3, 3), rng.randint(1, 4)) if rng.random() < 0.4 else 0
                return gr(Fraction(rng.randint(-5, 5), rng.choice([1, 2, 3, 6])), im)

            dx, dy = rng.randint(0, 3), rng.randint(1, 3)
            return BiPoly.make({(i, j): scalar() for i in range(dx + 1)
                                for j in range(dy + 1) if rng.random() < 0.6})

        def with_lead(p, lead):
            return p + lead * BiPoly.make({(0, p.deg_y + 1): gr(1)})

        phis = [rand_bipoly() for _ in range(30)]
        # Leading coefficients in y that vanish at x = 0, 1, 2 (and 3): the
        # interpolated resultant must not sample there, or it is wrong.
        x_012 = parse("x*(x-1)*(x-2)")
        x_0123 = x_012 * parse("x-3")
        phis += [with_lead(rand_bipoly(), x_0123 if k % 2 else x_012) for k in range(10)]

        checked = 0
        for phi in phis:
            if phi.deg_y < 1:
                continue
            res = phi.resultant_with_derivative("y")
            with monkeypatch.context() as m:
                m.setattr(unipoly, "KRONECKER_WORK", 0)
                assert phi.resultant_with_derivative("y") == res, phi
            for x0 in (gr(0), gr(1), gr(-2), gr(3, 1), gr(Fraction(1, 2), -1)):
                pu = UniPoly.make([c.eval(x0) for c in phi.coeff_polys("y")], "y")
                if pu.degree < phi.deg_y:
                    continue
                assert res.eval(x0) == det(sylvester(pu, pu.derivative())), (phi, x0)
                checked += 1
        assert checked >= 138  # 108 on the random Phi, 30 on the vanishing leads

    def test_zero_iff_positive_degree_gcd(self):
        # Res(P, P') = 0 iff P has a repeated factor, i.e. gcd(P, P') is
        # not constant; half the P carry a planted square g**2.
        rng = random.Random(5)
        counts = [0, 0]
        for k in range(40):
            def rand_poly():
                return UniPoly.make([gr(rng.randint(-3, 3)) for _ in range(rng.randint(1, 4))], "y")

            a, g = rand_poly(), rand_poly()
            p = a * g * g if k % 2 else a * g
            if p.degree < 1:
                continue
            res = BiPoly.from_unipoly(p).resultant_with_derivative("y")
            assert res.is_zero == (p.gcd(p.derivative()).degree > 0), p
            counts[res.is_zero] += 1
        assert counts == [20, 15]  # nonzero, zero

    def test_sylvester_norm_is_the_product_of_the_rows_norms(self):
        # The shared bound of the Kronecker point and of the analyzer's
        # rounding bound is |Phi|**(d-1) * |dPhi/dvar|**d, with the 1-norm
        # summing |re| + |im| over the coefficients and dPhi built.
        def norm1(phi):
            return sum((abs(c.re) + abs(c.im) for c in phi.coeffs.values()), Fraction(0))

        def scalar(rng):
            im = Fraction(rng.randint(-4, 4), rng.randint(2, 7)) if rng.random() < 0.5 else 0
            return gr(Fraction(rng.randint(-9, 9), rng.randint(2, 7)), im)

        rng = random.Random(17)
        seen = set()
        for _ in range(40):
            dx, dy = rng.randint(1, 5), rng.randint(1, 5)
            entries = {(i, j): scalar(rng) for i in range(dx + 1) for j in range(dy + 1)}
            entries[(dx, dy)] = gr(Fraction(rng.randint(1, 9), rng.randint(2, 7)), 1)
            phi = BiPoly.make(entries)
            assert phi.den > 1
            for var in "xy":
                d = phi.degree(var)
                want = norm1(phi) ** (d - 1) * norm1(phi.derivative(var)) ** d
                assert unipoly.sylvester_norm(phi.coeff_polys(var)) == want, (phi, var)
                seen.add(d)
        assert seen == {1, 2, 3, 4, 5}


class TestPower:
    def test_unipoly_power_squares_only_while_bits_remain(self):
        assert UniPoly.constant(1e200).power(1) == UniPoly.constant(1e200)
        p = UniPoly.make([gr(1), gr(2, 1)])
        assert p.power(5) == p * p * p * p * p
        assert p.power(0) == UniPoly.one()

    def test_bipoly_power_squares_only_while_bits_remain(self):
        assert BiPoly.constant(1e200).power(1) == BiPoly.constant(1e200)
        p = parse("x*y - i*y + 2")
        assert p.power(5) == p * p * p * p * p
        assert p.power(0) == BiPoly.constant(gr(1))

    def test_gaussrat_power(self):
        z = gr(Fraction(2, 3), -1)
        product = gr(1)
        for k in range(9):
            assert z**k == product
            product = product * z


class TestSquarefree:
    def test_two_factor_example(self):
        rad = parse("(y-x)^2*(y+x)").squarefree_part()
        expected = parse("(y-x)*(y+x)").normalized()
        assert rad.coeffs == expected.coeffs

    def test_already_radical_unchanged(self):
        p = parse("y-x-1")
        assert p.squarefree_part().coeffs == p.coeffs

    def test_radical_input_is_returned_itself_in_every_branch(self):
        # One rule whatever deg_y is: a radical input comes back as the same
        # object, unnormalized; a non-radical one as its normalized radical.
        for text in ("(1/5-3*i)*x", "(1/5-3*i)*x*y", "(2+i)*x^2 - 3", "7/3"):
            p = parse(text)
            assert p.squarefree_part() is p, text
        assert parse("(1/5-3*i)*x^2").squarefree_part() == parse("x")
        assert parse("(1/5-3*i)*x^2*y").squarefree_part() == parse("x*y")

    def test_cubed_irreducible(self):
        phi = parse("(y^2-x)^3")
        rad = phi.squarefree_part()
        base = parse("y^2-x").normalized()
        assert rad.coeffs == base.coeffs
        # rad^3 reproduces the input up to the leading constant
        assert rad.power(3).normalized().coeffs == phi.normalized().coeffs

    def test_resultant_of_radical_is_nonzero(self):
        rng = random.Random(9)
        for _ in range(20):
            entries = {}
            for i in range(3):
                for j in range(3):
                    if rng.random() < 0.6:
                        entries[(i, j)] = gr(rng.randint(-3, 3))
            p = BiPoly.make(entries)
            if p.is_zero or p.is_constant():
                continue
            rad = p.squarefree_part()
            if rad.deg_y < 1:
                continue
            assert not rad.resultant_with_derivative("y").is_zero

    def test_unipoly_squarefree_part(self):
        # p over its monic gcd with p': each root once, the leading
        # coefficient kept; a constant or zero p is returned itself.
        def uni(text):
            return parse(text).coeff_polys("x")[0]

        assert uni("5*(y-1)^3*(y+2)").squarefree_part() == uni("5*(y-1)*(y+2)")
        assert uni("(1/2-i)*(y-i)^2*y^4").squarefree_part() == uni("(1/2-i)*(y-i)*y")
        assert uni("y^2 + 1").squarefree_part() == uni("y^2 + 1")
        for p in (uni("7/3"), UniPoly.zero()):
            assert p.squarefree_part() is p
        rng = random.Random(21)
        for _ in range(20):
            a, g = (UniPoly.make([gr(rng.randint(-3, 3), rng.randint(-1, 1)) for _ in range(rng.randint(2, 3))])
                    for _ in range(2))
            if a.degree < 1 or g.degree < 1:
                continue
            p = a * g * g
            rad = p.squarefree_part()
            assert rad.gcd(rad.derivative()).degree == 0, p
            # rad divides p, and p divides rad**deg p: the same roots.
            top = rad.power(p.degree)
            assert p.divexact(rad) * rad == p and top.divexact(p) * p == top, p

    def test_float_rejected(self):
        with pytest.raises(ExactArithmeticRequired):
            parse("0.5*y^2 - x").squarefree_part()


class TestAffine:
    def test_linear_expansion(self):
        got = parse("y-x").affine_transform(gr(2), gr(5), gr(3))
        assert got.coeffs == parse("6*y-6*x").coeffs

    def test_identity(self):
        p = parse("x^2+3*x*y-y^2+7")
        assert p.affine_transform(gr(1), gr(0), gr(1)).coeffs == p.coeffs

    def test_quadratic_shift_kills_linear_term(self):
        # x^2+y^2+a*x*y+b*(x+y)+c with the shift -b/(a+2) loses its b term
        a, b, c = gr(1), gr(3), gr(2)
        phi = BiPoly.make(
            {(2, 0): gr(1), (0, 2): gr(1), (1, 1): a, (1, 0): b, (0, 1): b, (0, 0): c}
        )
        shift = -b / (a + gr(2))
        psi = phi.affine_transform(gr(1), shift, gr(1))
        assert not psi.coeff(1, 0) and not psi.coeff(0, 1)
        assert psi.coeff(0, 0) == c - b * b / (a + gr(2))

    def test_round_trip(self):
        rng = random.Random(17)
        for _ in range(20):
            entries = {
                (i, j): gr(rng.randint(-3, 3))
                for i in range(3)
                for j in range(3)
                if rng.random() < 0.7
            }
            p = BiPoly.make(entries)
            a = gr(rng.choice([1, 2, 3, -2]))
            b = gr(rng.randint(-3, 3))
            c = gr(rng.choice([1, 2, -1]))
            q = p.affine_transform(a, b, c)
            back = q.affine_transform(gr(1) / a, -b / a, gr(1) / c)
            assert back.coeffs == p.coeffs


class TestInvariants:
    def test_eval_is_multiplicative(self):
        rng = random.Random(21)
        for _ in range(30):
            def rand_poly():
                return BiPoly.make(
                    {
                        (i, j): gr(rng.randint(-3, 3))
                        for i in range(2)
                        for j in range(2)
                        if rng.random() < 0.8
                    }
                )

            p, q = rand_poly(), rand_poly()
            u, v = gr(rng.randint(-4, 4)), gr(rng.randint(-4, 4))
            assert (p * q).eval(u, v) == p.eval(u, v) * q.eval(u, v)

    def test_float_exact_agreement_at_100_points(self):
        rng = random.Random(29)
        p = parse("(y-x)^4 - 3/2*x*y + 1/3")
        pf = p.to_float()
        for _ in range(100):
            u = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            v = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            a = complex(pf.eval(u, v))
            # evaluate the exact representation term by term at the same point
            b = 0j
            for (i, j), cc in p.coeffs.items():
                b += complex(cc) * u**i * v**j
            assert abs(a - b) <= 1e-9 * max(1.0, abs(b))


def test_only_rootfind_names_the_trim_rule():
    # Construction, arithmetic and row evaluation keep every float
    # coefficient; debris is trimmed only inside the root kernel, where a
    # row's degree is read off.
    src = Path(__file__).resolve().parent.parent / "src" / "polygraph"
    modules = sorted(src.glob("*.py"))
    assert len(modules) > 10
    offenders = []
    for path in modules:
        if path.stem == "rootfind":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = [getattr(node, "id", None), getattr(node, "attr", None)]
            if isinstance(node, ast.ImportFrom):
                names += [a.name for a in node.names]
            if "TRIM_REL" in names:
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders, offenders


def test_only_unipoly_knows_its_private_names():
    # The exact coefficient format, Gaussian integers over one denominator,
    # lives in unipoly's private helpers; other modules go through UniPoly.
    src = Path(__file__).resolve().parent.parent / "src" / "polygraph"
    modules = sorted(src.glob("*.py"))
    assert len(modules) > 10
    offenders = []
    for path in modules:
        if path.stem == "unipoly":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.module in ("unipoly", "polygraph.unipoly"):
                offenders += [f"{path.name}: {a.name}" for a in node.names if a.name.startswith("_")]
    assert not offenders, offenders


def test_bipoly_imports_nothing_from_rootfind():
    # Rows go from BiPoly.eval_rows to the root kernel, never back: bipoly
    # evaluates rows and rootfind alone trims and solves them.
    path = Path(__file__).resolve().parent.parent / "src" / "polygraph" / "bipoly.py"
    offenders = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            continue
        if any(n.split(".")[-1] == "rootfind" for n in names):
            offenders.append(node.lineno)
    assert not offenders, offenders
