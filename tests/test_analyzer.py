"""Standardness reports, singular inventories and standardization."""

import cmath
import random

import pytest

from polygraph import (
    BiPoly,
    Failure,
    GaussRat,
    StepKind,
    analyze,
    parse,
    singular_inventory,
    singular_vertex_values,
    standardize,
)
from polygraph.errors import (
    DomainError,
    EvaluationOverflow,
    ExactArithmeticRequired,
    NotStandardError,
)


class TestAnalyze:
    def test_grid_polynomial_standard_without_singularities(self):
        phi = parse("(y-x)^4-1")
        report = analyze(phi)
        assert report.is_standard and not report.failure_reasons
        assert report.S.degree == 0  # no singular vertices at all
        assert singular_inventory(phi, report).is_empty()

    def test_square_factor(self):
        report = analyze(parse("(y-x)^2"))
        assert not report.is_standard
        assert Failure.NON_RADICAL_Y in report.failure_reasons

    def test_loop_everywhere(self):
        report = analyze(parse("y-x"))
        assert report.failure_reasons == (Failure.LOOP_EVERYWHERE,)

    def test_degree_one_standard(self):
        # (cx+d)y - (ax+b), ad - bc != 0, not divisible by y-x
        report = analyze(parse("(x+1)*y - (x+2)"))
        assert report.is_standard
        assert report.deg_y == 1 and report.deg_x == 1

    def test_constant_and_zero(self):
        assert analyze(parse("5")).failure_reasons == (Failure.CONSTANT,)
        assert analyze(parse("0")).failure_reasons == (Failure.CONSTANT,)

    def test_universal_vertices(self):
        report = analyze(parse("(x-1)*y + x - 1"))
        assert Failure.UNIVERSAL_SOURCE in report.failure_reasons
        assert report.A.degree == 1

    def test_float_universal_detection(self):
        report = analyze(parse("(x-1)*y + x - 1").to_float())
        assert Failure.UNIVERSAL_SOURCE in report.failure_reasons

    def test_float_square_factor(self):
        report = analyze(parse("(y-x)^2").to_float())
        assert Failure.NON_RADICAL_Y in report.failure_reasons

    def test_float_uncertainty_band(self):
        # factors 1e-4 apart: |D| lands inside the 10x band around the
        # relative zero threshold -> decided non-radical but flagged uncertain
        phi = (parse("y-x-1") * parse("y-x-1-0.0001")).to_float()
        report = analyze(phi)
        assert Failure.NON_RADICAL_Y in report.failure_reasons
        assert report.numerically_uncertain
        # comfortably separated factors: standard and confident
        phi2 = (parse("y-x-1") * parse("y-x-1-0.01")).to_float()
        report2 = analyze(phi2)
        assert report2.is_standard and not report2.numerically_uncertain

    def test_exact_huge_integers(self):
        # Exact reports never take float(coefficient), which overflows here.
        a = 10**400
        report = analyze(parse("10^400*x^2 + x*y + y^2"))
        assert report.is_standard
        assert report.D.coeffs == (GaussRat.of(0), GaussRat.of(0), GaussRat.of(4 * a - 1))
        assert report.L.coeffs == (GaussRat.of(0), GaussRat.of(0), GaussRat.of(a + 2))


class TestFloatScale:
    """Float verdicts do not change when every coefficient is scaled by c."""

    BASES = [
        "x^2 + x*y + y^2",
        "x^3 + x*y + y^3 - 1",
        "(y-x)^4 - 1",
        "(y-x-1)*(y-x-1-1/100)",
        "(y-x)^2*(y+x) - 1",
    ]

    @pytest.mark.parametrize("base", BASES)
    @pytest.mark.parametrize("c", [1e-10, 1e5, 1e10])
    def test_verdict_does_not_depend_on_scale(self, base, c):
        want = analyze(parse(base).to_float())
        got = analyze(parse(base).scale(c))
        assert got.failure_reasons == want.failure_reasons
        assert got.is_standard == want.is_standard

    @pytest.mark.parametrize("text", [
        "1e100*(x^2 + x*y + y^2)",
        "1e60*(x^3 + x*y + y^3 - 1)",
    ])
    def test_huge_scale_overflows_cleanly(self, text):
        # the Sylvester reference s^(2d) used to overflow a Python float
        with pytest.raises(EvaluationOverflow):
            analyze(parse(text))


class TestSingularInventory:
    def test_homogeneous_unique_singular_vertex(self):
        phi = parse("x^2+x*y+y^2")
        report = analyze(phi)
        inv = singular_inventory(phi, report)
        assert len(inv.loops) == 1
        v, mult = inv.loops[0]
        assert abs(v) < 1e-9 and mult == 2

    def test_rotation_times_inversion_loops(self):
        # (y - w x)(x y - 2), w primitive cube root: Phi(x,x) = (1-w)x(x^2-2),
        # so the loop vertices are 0 and +-sqrt(2).
        w = cmath.exp(2j * cmath.pi / 3)
        phi = BiPoly.make({(0, 1): 1.0, (1, 0): -w}) * BiPoly.make(
            {(1, 1): 1.0, (0, 0): -2.0}
        )
        inv = singular_inventory(phi, analyze(phi))
        loop_vals = sorted((v for v, _ in inv.loops), key=lambda z: z.real)
        assert len(loop_vals) == 3
        assert abs(loop_vals[0] + 2**0.5) < 1e-7
        assert abs(loop_vals[1]) < 1e-7
        assert abs(loop_vals[2] - 2**0.5) < 1e-7
        # multi-arc endpoints: hand oracle +-sqrt(2/w) (origins), conjugates (ends)
        expect = cmath.sqrt(2 / w)
        origins = sorted(inv.multi_arc_origins, key=lambda z: z.real)
        assert abs(origins[1] - expect) < 1e-7 and abs(origins[0] + expect) < 1e-7

    def test_requires_standard(self):
        phi = parse("(y-x)^2")
        with pytest.raises(NotStandardError):
            singular_inventory(phi, analyze(phi))

    def test_degree_drop_vertex_is_out_defective(self):
        phi = parse("x*y^2 - y - x")  # a_2(x) = x vanishes at 0
        report = analyze(phi)
        inv = singular_inventory(phi, report)
        assert any(abs(v) < 1e-7 for v in inv.out_defective)


class TestStandardize:
    def test_factor_bookkeeping(self):
        phi = parse("(y-x)^2*((y-x)^2-1)")
        result, steps = standardize(phi)
        assert [s.kind for s in steps] == [StepKind.TOOK_RADICAL, StepKind.REMOVED_LOOP_FACTOR]
        assert steps[1].count == 1
        assert result.normalized().coeffs == parse("(y-x)^2-1").normalized().coeffs

    def test_already_standard_unchanged(self):
        phi = parse("(y-x)^4-1")
        result, steps = standardize(phi)
        assert steps == [] and result.coeffs == phi.coeffs

    def test_nothing_remains(self):
        with pytest.raises(DomainError):
            standardize(parse("3*y - 3*x"))

    def test_constant_rejected(self):
        with pytest.raises(DomainError):
            standardize(parse("7"))

    def test_universal_rejected(self):
        with pytest.raises(NotStandardError):
            standardize(parse("(x-1)*y + x - 1"))

    def test_float_rejected(self):
        with pytest.raises(ExactArithmeticRequired):
            standardize(parse("0.5*y-x"))

    def test_result_is_standard(self):
        rng = random.Random(13)
        for _ in range(10):
            base = BiPoly.make(
                {
                    (i, j): GaussRat.of(rng.randint(-3, 3))
                    for i in range(2)
                    for j in range(2)
                    if rng.random() < 0.8
                }
            )
            if base.is_zero or base.is_constant():
                continue
            phi = base * base * parse("y-x")
            if analyze(phi).failure_reasons and (
                Failure.UNIVERSAL_SOURCE in analyze(phi).failure_reasons
                or Failure.UNIVERSAL_SINK in analyze(phi).failure_reasons
            ):
                continue
            try:
                result, steps = standardize(phi)
            except DomainError:
                continue
            assert analyze(result).is_standard
            assert steps


class TestAffineRelocation:
    def test_singular_vertices_relocate(self):
        # the affine reparametrization Psi = c Phi(ax+b, ay+b) carries
        # vertices u -> au+b, so singular(Psi) = (singular(Phi) - b) / a.
        rng = random.Random(19)
        done = 0
        while done < 5:
            phi = BiPoly.make(
                {
                    (i, j): GaussRat.of(rng.randint(-3, 3))
                    for i in range(3)
                    for j in range(3)
                    if rng.random() < 0.6
                }
            )
            report = analyze(phi)
            if not report.is_standard or report.S.degree < 1:
                continue
            a = GaussRat.of(rng.choice([2, 3, -2]))
            b = GaussRat.of(rng.randint(-2, 2))
            s_phi = singular_vertex_values(phi)
            # keep instances whose singular vertices are well separated, so
            # the comparison tests relocation rather than cluster stability
            if any(
                abs(u - v) < 0.1
                for i, u in enumerate(s_phi)
                for v in s_phi[i + 1 :]
            ):
                continue
            psi = phi.affine_transform(a, b, GaussRat.of(1))
            s_psi = singular_vertex_values(psi)
            moved = [(s - complex(b)) / complex(a) for s in s_phi]
            assert len(moved) == len(s_psi)
            for u in moved:
                assert any(abs(u - v) < 1e-5 * (1 + abs(u)) for v in s_psi), u
            done += 1
