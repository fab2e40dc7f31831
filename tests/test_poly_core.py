"""Parsing, evaluation, gcd, resultants, squarefree part, affine maps."""

import random
import warnings
from fractions import Fraction

import pytest

from polygraph import BiPoly, GaussRat, UniPoly, analyze, parse
from polygraph.errors import (
    EvaluationOverflow,
    ExactArithmeticRequired,
    ParseError,
    ZeroPolynomialError,
)
from polygraph.textio import bipoly_from_json, bipoly_to_json, format_bipoly


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

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as err:
            parse("x^2 + @")
        assert err.value.position == 6

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

    def test_roundtrip_through_text(self):
        for text in ("(y-x)^4-1", "x^2+y^2+x*y", "(1+2i)*x*y - 3/4"):
            p = parse(text)
            assert parse(format_bipoly(p)).coeffs == p.coeffs

    def test_json_roundtrip(self):
        for text in ("(y-x)^4-1", "0.5*x*y - 1", "2i*y + 1/3"):
            p = parse(text)
            q = bipoly_from_json(bipoly_to_json(p))
            assert q.coeffs == p.coeffs and q.mode == p.mode


class TestEvalPartial:
    def test_grid_at_zero(self):
        q = parse("(y-x)^4-1").eval_partial(gr(0), "x")
        assert q.var == "y" and q.degree == 4
        assert q.coeff(0) == gr(-1) and q.coeff(4) == gr(1)

    def test_linear_fractional_row(self):
        # ((cx+d)y - (ax+b)) at x = u0 -> (c u0 + d) y - (a u0 + b)
        a, b, c, d = gr(2), gr(3), gr(5), gr(7)
        phi = BiPoly.make({(1, 1): c, (0, 1): d, (1, 0): -a, (0, 0): -b})
        u0 = gr(Fraction(1, 2))
        row = phi.eval_partial(u0, "x")
        assert row.coeff(1) == c * u0 + d
        assert row.coeff(0) == -(a * u0 + b)

    def test_quadratic_sum_of_roots_shape(self):
        # x^2+y^2+a*x*y+c at x = v0 -> y^2 + (a v0) y + (v0^2 + c)
        a, c = gr(3), gr(-2)
        phi = BiPoly.make({(2, 0): gr(1), (0, 2): gr(1), (1, 1): a, (0, 0): c})
        v0 = gr(4)
        row = phi.eval_partial(v0, "x")
        assert row.coeff(2) == gr(1)
        assert row.coeff(1) == a * v0
        assert row.coeff(0) == v0 * v0 + c

    def test_universal_vertex_gives_zero_polynomial(self):
        phi = parse("(x-1)*y + x - 1")
        assert phi.eval_partial(gr(1), "x").is_zero


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
    def test_repeated_factor_forces_zero(self):
        p = parse("(y-x)^2")
        assert p.resultant(p.derivative("y"), "y").is_zero

    def test_constant_second_argument(self):
        r = parse("y-x-1").resultant(parse("1"), "y")
        assert r.degree == 0 and r.coeff(0) == gr(1)

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

        phi = parse("y^2 - x")
        got = phi.resultant(phi.derivative("y"), "y")
        assert got.coeffs == oracle.coeffs

    def test_both_zero_raises(self):
        with pytest.raises(ZeroPolynomialError):
            BiPoly.zero().resultant(BiPoly.zero(), "y")

    def test_degree_zero_operand_is_a_power(self):
        # Res(c, q) = c**deg q and Res(p, c) = c**deg p in both modes.
        p = parse("x*y^3 + y - 1")
        c = parse("2*x + i")
        assert p.resultant(c, "y") == c.coeff_polys("y")[0].power(3)
        assert c.resultant(p, "y") == c.coeff_polys("y")[0].power(3)
        cf = c.to_float()
        assert p.resultant(cf, "y") == cf.coeff_polys("y")[0].power(3)
        assert p.resultant(cf, "y").mode == "float"

    def test_huge_float_constant_resultant_is_exact(self):
        # E = Res_x(Phi, Phi_x) with Phi_x the constant c is c itself: no
        # 1x1 LAPACK determinant, no overflow warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = analyze(parse("(1e308+1e308i)*x + y"))
        assert report.E.coeffs == (1e308 + 1e308j,)

    def test_float_matches_exact(self):
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
            exact = p.resultant(p.derivative("y"), "y")
            approx = p.to_float().resultant(p.derivative("y").to_float(), "y")
            scale = max(exact.coeff_scale(), 1.0)
            for k in range(max(exact.degree, approx.degree) + 1):
                assert abs(complex(exact.coeff(k)) - complex(approx.coeff(k))) <= 1e-6 * scale

    def test_specialisation_matches_scalar_determinant(self):
        # Independent oracle: where neither leading coefficient in y vanishes,
        # Res_y(P, Q)(x0) is the determinant of the Sylvester matrix of
        # P(x0, y) and Q(x0, y), here by Gaussian elimination over Q(i).
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

        pairs = [(rand_bipoly(), rand_bipoly()) for _ in range(30)]
        # Leading coefficients in y that vanish at x = 0, 1, 2 (and 3): the
        # exact resultant must not sample there, or its interpolant is wrong
        # at the points checked below.
        x_012 = parse("x*(x-1)*(x-2)")
        x_3 = parse("x-3")
        for k in range(10):
            p, q = rand_bipoly(), rand_bipoly()
            pairs.append((with_lead(p, x_012), with_lead(q, x_3) if k % 2 else q))

        checked = 0
        for p, q in pairs:
            if p.deg_y < 1 or q.deg_y < 1:
                continue
            res = p.resultant(q, "y")
            for x0 in (gr(0), gr(1), gr(-2), gr(3, 1), gr(Fraction(1, 2), -1)):
                pu, qu = p.eval_partial(x0, "x"), q.eval_partial(x0, "x")
                if pu.degree < p.deg_y or qu.degree < q.deg_y:
                    continue
                assert res.eval(x0) == det(sylvester(pu, qu)), (p, q, x0)
                checked += 1
        assert checked >= 110  # 91 on the random pairs, 30 on the vanishing leads

    def test_zero_iff_positive_degree_gcd(self):
        rng = random.Random(5)
        for _ in range(40):
            def rand_poly():
                return UniPoly.make([gr(rng.randint(-3, 3)) for _ in range(rng.randint(1, 4))], "y")

            a, b, g = rand_poly(), rand_poly(), rand_poly()
            if a.is_zero or b.is_zero or g.is_zero:
                continue
            p = BiPoly.from_unipoly(a * g)
            q = BiPoly.from_unipoly(b * g)
            res = p.resultant(q, "y")
            gcd_pos = (a * g).gcd(b * g).degree > 0
            assert res.is_zero == gcd_pos


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


class TestSquarefree:
    def test_two_factor_example(self):
        rad = parse("(y-x)^2*(y+x)").squarefree_part()
        expected = parse("(y-x)*(y+x)").normalized()
        assert rad.coeffs == expected.coeffs

    def test_already_radical_unchanged(self):
        p = parse("y-x-1")
        assert p.squarefree_part().coeffs == p.coeffs

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
            assert not rad.resultant(rad.derivative("y"), "y").is_zero

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
