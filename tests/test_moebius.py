"""Mobius transformations, projective orders, symbolic cycle conditions."""

import math
import random
from fractions import Fraction

import pytest

from polygraph import (
    Budget,
    Deg1Kind,
    Deg1Verdict,
    ExploredDigraph,
    GaussRat,
    Mobius,
    Shape,
    ShapeLabel,
    analyze,
    cayley_mobius,
    check_condition,
    classify,
    classify_deg1,
    cycle_condition,
    explore_component,
    explore_strong_component,
    from_poly,
    is_isomorphic,
    mobius_inversion,
    mobius_rotation,
    parse,
    projective_order,
    reference_table_diff,
    to_poly,
)
from polygraph.errors import AmbiguousOrderError, DomainError, NotStandardError, ParseError
from polygraph.moebius import ABCD, _u_te, cycle_condition_te, symbolic_power_entries
from polygraph.quadratic import COS_TOL
from polygraph.sympoly import SymPoly, parse_sympoly

SQRT3 = math.sqrt(3.0)


def six_cycle_mobius() -> Mobius:
    return Mobius(1.0, -2.0 + SQRT3, 1.0, -1.0 + SQRT3)


class TestConversion:
    def test_six_cycle_coefficients(self):
        m = from_poly(to_poly(six_cycle_mobius()))
        assert abs(m.a - 1) < 1e-12 and abs(m.c - 1) < 1e-12
        assert abs(m.b - (-2 + SQRT3)) < 1e-12
        assert abs(m.d - (-1 + SQRT3)) < 1e-12

    def test_translation(self):
        m = from_poly(parse("y-x-1"))
        assert (m.a, m.b, m.c, m.d) == (
            GaussRat.of(1), GaussRat.of(1), GaussRat.of(0), GaussRat.of(1)
        )

    def test_inversion(self):
        m = from_poly(parse("x*y-2"))
        assert (m.a, m.b, m.c, m.d) == (
            GaussRat.of(0), GaussRat.of(2), GaussRat.of(1), GaussRat.of(0)
        )

    def test_rejects_zero_determinant(self):
        with pytest.raises(NotStandardError):
            from_poly(parse("(x+1)*y - (2*x+2)"))

    def test_rejects_y_minus_x_multiple(self):
        with pytest.raises(NotStandardError):
            from_poly(parse("3*y-3*x"))

    def test_rejects_wrong_degrees(self):
        with pytest.raises(DomainError):
            from_poly(parse("y^2 - x"))


class TestProjectiveOrder:
    def test_six_cycle_order(self):
        assert projective_order(six_cycle_mobius()) == 6

    def test_identity(self):
        ident = Mobius(GaussRat.of(1), GaussRat.of(0), GaussRat.of(0), GaussRat.of(1))
        assert projective_order(ident) == 1

    def test_parabolic_is_none(self):
        assert projective_order(from_poly(parse("y-x-1"))) is None
        # (-7x - 11/7) y - (-x + 4/343): trace^2 = 4 det exactly; in floats
        # trace^2/det - 4 rounds to ~1e-15
        m = Mobius(
            GaussRat.of(-1), GaussRat.of(Fraction(4, 343)),
            GaussRat.of(-7), GaussRat.of(Fraction(-11, 7)),
        )
        assert projective_order(m) is None

    def test_inversion_order_two(self):
        assert projective_order(mobius_inversion(2)) == 2

    def test_rotation_orders(self):
        for n in (3, 4, 5, 7, 12):
            assert projective_order(mobius_rotation(n)) == n

    def test_n_max_bounds_the_order(self):
        # z -> (z + 1)/(2 - z): trace^2 = 3 det, order 6
        m = Mobius(GaussRat.of(1), GaussRat.of(1), GaussRat.of(-1), GaussRat.of(2))
        assert projective_order(m, n_max=6) == 6
        assert projective_order(m, n_max=5) is None
        assert projective_order(mobius_inversion(2), n_max=1) is None
        assert projective_order(mobius_rotation(7), n_max=6) is None
        ident = Mobius(GaussRat.of(1), GaussRat.of(0), GaussRat.of(0), GaussRat.of(1))
        assert projective_order(ident, n_max=0) is None
        assert projective_order(ident, n_max=1) == 1
        assert projective_order(Mobius(2.0, 0.0, 0.0, 2.0), n_max=0) is None

    def test_least_order_when_a_later_convergent_is_closer(self):
        # v = trace^2/det - 2 lies 0.9 tolerance above 2 cos(2 pi / 2003);
        # 4/8013 approximates its angle better, but the order is 2003.
        v = 2 * math.cos(2 * math.pi / 2003)
        v += 0.9 * COS_TOL * (1 + abs(v))
        m = Mobius(math.sqrt(v + 2), -1.0, 1.0, 0.0)
        assert projective_order(m, n_max=10000) == 2003

    def test_float_n_max_is_bounded_by_the_cosine_scan(self):
        m = mobius_rotation(7)
        with pytest.raises(DomainError):
            projective_order(m, n_max=100000)
        assert projective_order(m, n_max=10000) == 7

    def test_loxodromic_none(self):
        assert projective_order(Mobius(2.0, 0.0, 0.0, 1.0)) is None

    def test_exact_rational_order_three(self):
        # z -> -1/(z-1) has trace -1, det 1: eigenvalues are primitive cube
        # roots of unity, and trace^2/det - 2 = -1 exactly
        m = Mobius(GaussRat.of(0), GaussRat.of(-1), GaussRat.of(1), GaussRat.of(-1))
        assert projective_order(m) == 3

    def test_exact_parabolic_family_is_never_ambiguous(self):
        # d = a - 2s and b = -s^2/c give det = (a - s)^2 and trace^2 = 4 det;
        # c != 0 keeps the matrix from being scalar
        rng = random.Random(41)
        values = [Fraction(p, q) for p in range(-9, 10) for q in (1, 2, 3, 7, 9)]
        for _ in range(400):
            a, s = rng.choice(values), rng.choice(values)
            c = rng.choice([v for v in values if v])
            if a == s:
                continue
            m = Mobius(*(GaussRat.of(v) for v in (a, -s * s / c, c, a - 2 * s)))
            assert projective_order(m) is None

    def test_near_parabolic_ambiguous(self):
        # after det-normalization: trace^2 - 4 ~ 1e-10, inside the band but
        # not exactly zero
        with pytest.raises(AmbiguousOrderError):
            projective_order(Mobius(1.0 + 1e-5, 1.0, 0.0, 1.0))

    def test_order_matrix_power_soundness(self):
        def times(p, q):
            return [
                [p[0][0] * q[0][0] + p[0][1] * q[1][0], p[0][0] * q[0][1] + p[0][1] * q[1][1]],
                [p[1][0] * q[0][0] + p[1][1] * q[1][0], p[1][0] * q[0][1] + p[1][1] * q[1][1]],
            ]

        for n in (3, 4, 6, 8):
            m = mobius_rotation(n)
            order = projective_order(m)
            assert order == n
            mat = [[complex(m.a), complex(m.b)], [complex(m.c), complex(m.d)]]
            power = [[1 + 0j, 0j], [0j, 1 + 0j]]
            for k in range(1, n + 1):
                power = times(power, mat)
                scalar = (
                    abs(power[0][1]) < 1e-9
                    and abs(power[1][0]) < 1e-9
                    and abs(power[0][0] - power[1][1]) < 1e-9
                )
                assert scalar == (k % n == 0)

        # Exact Gaussian-rational maps, by exact powering: 2 cos(2 pi k / n)
        # is rational only for n in 1, 2, 3, 4, 6, so no other order occurs.
        # Random maps, plus maps planted with trace^2 = r det for r in
        # 0, 1, 2, 3 (orders 2, 3, 4, 6).
        rng = random.Random(43)

        def draw() -> GaussRat:
            return GaussRat.of(
                Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                Fraction(rng.randint(-5, 5), rng.randint(1, 4)) * rng.randint(0, 1),
            )

        orders = {}
        for i in range(600):
            a, b, d = draw(), draw(), draw()
            if i % 2 and b:
                r = (0, 1, 2, 3)[i // 2 % 4]
                d = -a if r == 0 else d
                # choose c so that (a + d)^2 = r (a d - b c)
                c = (a * d - (a + d) ** 2 / r) / b if r else draw()
            else:
                c = draw()
            if not a * d - b * c:
                continue
            m = Mobius(a, b, c, d)
            got = projective_order(m)
            mat = [[a, b], [c, d]]
            power = mat
            scalar_at = []
            for k in range(1, 13):
                if not power[0][1] and not power[1][0] and power[0][0] == power[1][1]:
                    scalar_at.append(k)
                power = times(power, mat)
            assert got in (None, 1, 2, 3, 4, 6)
            if got is None:
                assert scalar_at == []
            else:
                assert scalar_at and scalar_at[0] == got
            orders[got] = orders.get(got, 0) + 1
        assert set(orders) >= {None, 2, 3, 4, 6}


class TestClassifyDeg1:
    def test_six_cycle(self):
        verdict = classify_deg1(to_poly(six_cycle_mobius()))
        assert verdict.kind is Deg1Kind.DIRECTED_CYCLES and verdict.n == 6

    def test_translation_infinite(self):
        assert classify_deg1(parse("y-x-1")).kind is Deg1Kind.INFINITE_PATHS

    def test_not_standard(self):
        verdict = classify_deg1(parse("(x+1)*y-(2*x+2)"))
        assert verdict.kind is Deg1Kind.NOT_STANDARD

    def test_float_standardness_is_the_analyzer_verdict(self):
        # Each of these float maps is standard, whatever the size of its
        # determinant, and the analyzer names what the others lack.
        for m in (Mobius(1.0, 0.0, 0.0, 1e-13), Mobius(1.0, 2.0, 1.0, 2 + 1e-10)):
            assert classify_deg1(to_poly(m)) == Deg1Verdict(Deg1Kind.INFINITE_PATHS)
        assert str(classify_deg1(parse("1.0*y - 1.0*x"))) == "NotStandard(LoopEverywhere)"
        assert str(classify_deg1(parse("(x+1.0)*y - (x+1.0)"))) == "NotStandard(UniversalSource)"

    def test_verdict_matches_exploration(self):
        import random

        rng = random.Random(55)
        phi = to_poly(six_cycle_mobius())
        for _ in range(10):
            u = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            g = explore_component(phi, u, Budget(max_vertices=60, max_depth=20))
            if g.truncated:
                continue
            assert classify(g) == ShapeLabel(Shape.DIRECTED_CYCLE, 6)


class TestCycleConditions:
    def test_row_2(self):
        assert str(cycle_condition(2)) == "a + d"

    def test_str_signs_and_constants(self):
        # Negative, -1 and constant coefficients, in graded-lex order.
        p = parse_sympoly("-(a - d)^2 * b + 2*(b*c)^2 - 7 - a", ABCD)
        assert str(p) == "2*b^2*c^2 - a^2*b + 2*a*b*d - b*d^2 - a - 7"

    def test_row_4(self):
        assert cycle_condition(4).monomials() == parse_sympoly(
            "a^2 + 2*b*c + d^2", ABCD
        ).monomials()

    def test_row_5_recurrence_oracle(self):
        # U_5 = t^4 - 3 t^2 e + e^2 expanded through t = a+d, e = ad-bc
        expected = parse_sympoly(
            "a^4 + 3*a^2*b*c + b^2*c^2 + a^3*d + 4*a*b*c*d + a^2*d^2"
            " + 3*b*c*d^2 + a*d^3 + d^4",
            ABCD,
        )
        assert cycle_condition(5).monomials() == expected.monomials()

    def test_row_6(self):
        assert cycle_condition(6).monomials() == parse_sympoly(
            "3*b*c + a^2 - a*d + d^2", ABCD
        ).monomials()

    @pytest.mark.parametrize("text, position", [
        ("a + ", 4),
        ("2.5*a", 0),
        ("1/2*a", 0),
        ("3i*b", 0),
        ("a*e", 2),
        ("a^b", 2),
        ("(a + b", 6),
        ("a b", 2),
        ("a % b", 2),
    ])
    def test_malformed_sympoly_text(self, text, position):
        with pytest.raises(ParseError) as exc:
            parse_sympoly(text, ABCD)
        assert exc.value.position == position

    def test_sympoly_text_takes_the_polynomial_grammar(self):
        got = parse_sympoly("-(a - d)^2 * b + 2*(b*c)^2", ABCD)
        want = parse_sympoly("-a^2*b + 2*a*b*d - b*d^2 + 2*b^2*c^2", ABCD)
        assert got == want

    def test_published_table_diff(self):
        for n in range(2, 11):
            diff = reference_table_diff(n)
            if n == 5:
                assert not diff["matches"]
                assert diff["computed_only"] == {"a*b*c*d": 4}
                assert diff["published_only"] == {"a*b^2*d": 4}
            else:
                assert diff["matches"], diff

    def test_divisor_conditions_divide_u_n(self):
        for n in range(2, 13):
            un = _u_te(n)
            for k in range(2, n):
                if n % k == 0:
                    un.divexact(cycle_condition_te(k))  # raises if inexact

    def test_power_entry_identities(self):
        a = SymPoly.var(ABCD, "a")
        b = SymPoly.var(ABCD, "b")
        c = SymPoly.var(ABCD, "c")
        d = SymPoly.var(ABCD, "d")
        for n in range(2, 13):
            an, bn, cn, dn = symbolic_power_entries(n)
            un = _u_te(n).substitute({"t": a + d, "e": a * d - b * c}, ABCD)
            assert cn.divexact(c).terms == un.terms
            assert bn.divexact(b).terms == un.terms
            assert (dn - an).divexact(d - a).terms == un.terms

    def test_prime_condition_is_u_n_beyond_the_recursion_limit(self):
        # A prime n has no proper divisor conditions, so its condition is
        # U_n itself, with (n + 1) / 2 terms; n = 601 is deeper than the
        # default recursion limit allows U_n to recurse.
        n = 601
        cond = cycle_condition_te(n)
        assert cond.terms == _u_te(n).terms
        assert len(cond.terms) == (n + 1) // 2

    def test_requires_n_at_least_2(self):
        with pytest.raises(DomainError):
            cycle_condition(1)


class TestCheckCondition:
    def test_six_cycle_example(self):
        assert check_condition(six_cycle_mobius(), 6)

    def test_identity_fails_two(self):
        ident = Mobius(GaussRat.of(1), GaussRat.of(0), GaussRat.of(0), GaussRat.of(1))
        assert not check_condition(ident, 2)

    def test_negation_satisfies_two(self):
        neg = Mobius(GaussRat.of(-1), GaussRat.of(0), GaussRat.of(0), GaussRat.of(1))
        assert check_condition(neg, 2)


class TestCayleyMobius:
    def test_dihedral_polynomial_form(self):
        phi, seed = cayley_mobius([mobius_rotation(4), mobius_inversion(2)])
        assert phi.coeffs == parse("(y-i*x)*(x*y-2)").coeffs
        assert abs(seed) > 0.5

    def test_single_translation(self):
        phi, _ = cayley_mobius([from_poly(parse("y-x-1"))])
        assert phi.coeffs == parse("y-x-1").coeffs

    def test_dihedral_orbit_isomorphism(self):
        # Cay(D_6, {f, t}): elements enumerated by applying the 6 group
        # elements to the sampled seed; arcs g -> f g and g -> t g.
        rot, inv = mobius_rotation(3), mobius_inversion(2)
        phi, seed = cayley_mobius([rot, inv])
        g = explore_strong_component(phi, seed, Budget(max_vertices=100, max_depth=30))
        assert not g.truncated and g.order == 6 and len(g.arcs) == 12

        elements = [
            lambda z: z,
            lambda z: rot(z),
            lambda z: rot(rot(z)),
            lambda z: inv(z),
            lambda z: rot(inv(z)),
            lambda z: rot(rot(inv(z))),
        ]
        values = [f(seed) for f in elements]
        assert len({round(v.real, 9) + 1j * round(v.imag, 9) for v in values}) == 6

        def index_of(z):
            return min(range(6), key=lambda i: abs(values[i] - z))

        arcs = []
        for i, v in enumerate(values):
            arcs.append((i, index_of(rot(v)), 1))
            arcs.append((i, index_of(inv(v)), 1))
        reference = ExploredDigraph(
            vertices=tuple((i, v) for i, v in enumerate(values)),
            arcs=tuple(sorted(arcs)),
            truncated=False,
            seed_id=0,
        )
        assert is_isomorphic(g, reference)

    def test_generator_standardness_enforced(self):
        ident = Mobius(GaussRat.of(1), GaussRat.of(0), GaussRat.of(0), GaussRat.of(1))
        with pytest.raises(NotStandardError):
            cayley_mobius([ident])

    def test_generator_standard_at_any_scale_is_accepted(self):
        # z -> 1e10 z is standard: 1e-10*y - x is decided on its exact value,
        # so cayley_mobius accepts it, and its one singular vertex, the loop
        # at 0, keeps the seed away.
        phi, seed = cayley_mobius([Mobius(1.0, 0.0, 0.0, 1e-10)])
        assert phi.mode == "float" and analyze(phi).is_standard
        assert 1.0 <= abs(seed) <= 2.0
